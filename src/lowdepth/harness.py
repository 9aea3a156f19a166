"""Experiment orchestration: seeded trial loops, scaling sweeps, reporting.

A report is a pure function of its :class:`ExperimentConfig`; re-running
with the same master seed reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import namedtuple
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import aggregate, blackbox, circphase, oracle, rallfuller
from .core import (
    ABS_TOL,
    Amplitude,
    ResourceLedger,
    SeedSpec,
    SimulationError,
    TargetSpec,
    TWO_PI,
    derive_stream,
    plain_number,
    population_variance,
)

TRIAL_FORMATS = ("csv", "json")
EXPORT_FORMATS = (*TRIAL_FORMATS, "svg")


class ConfigError(SimulationError):
    """Invalid experiment configuration."""


class AlgorithmError(SimulationError):
    """A trial failed; the message carries its index, ``__cause__`` the inner error."""


# Good-branch spread of the synthetic phase sampler during the wide-precision
# reference call.  Kept inside the reference arc's half-width pi/8: a
# reference draw saturating its contracted quarter-circle precision would
# always defeat arc construction.
_REF_SPREAD = math.pi / 10.0


def _type1_trials(truth, target, constants, plan, seeds, ledgers):
    amplitude = Amplitude(truth)
    bias_scale = constants["bias_scale"]

    def sampler(_stage, contract, rng, run_ledger, size):
        return blackbox.synth_uqae1_sample(
            amplitude, contract, bias_scale * contract.bias_bound, rng, run_ledger, size=size
        )

    return (aggregate.aggregate_type1(sampler, plan, seed=seed, ledger=ledger)
            for seed, ledger in zip(seeds, ledgers))


def _type2_trials(truth, target, constants, plan, seeds, ledgers):
    amplitude = Amplitude(truth)
    bias_scale, tail = constants["bias_scale"], constants["tail_magnitude"]

    def sampler(_stage, contract, rng, run_ledger, size):
        bias_setting = bias_scale * contract.bias_bound
        # the largest tail the cap allows, floored at 0 so that a truth and bias
        # already past the cap fail the sampler's output-cap check
        run_tail = tail if tail is not None else max(
            0.0, contract.output_cap - truth - abs(bias_setting))
        return blackbox.synth_uqae2_sample(
            amplitude, contract, bias_setting, run_tail, rng, run_ledger, size=size
        )

    return (aggregate.aggregate_type2(sampler, plan, seed=seed, ledger=ledger)
            for seed, ledger in zip(seeds, ledgers))


def _phase_trials(truth, target, constants, plan, seeds, ledgers):
    bias_scale, tail = constants["bias_scale"], constants["tail_magnitude"]

    def sampler(stage, contract, rng, run_ledger, size):
        bias_setting = bias_scale * contract.bias_bound
        spread = max(0.0, _REF_SPREAD - abs(bias_setting)) if stage == "reference" else None
        return blackbox.synth_uqpe2_sample(
            truth, contract, bias_setting, tail, rng, run_ledger, good_spread=spread, size=size
        )

    return (circphase.lowdepth_phase_estimate(sampler, target, plan, seed=seed, ledger=ledger).value
            for seed, ledger in zip(seeds, ledgers))


def _rallfuller_trials(truth, target, constants, plan, seeds, ledgers):
    amplitude = Amplitude(truth)
    return rallfuller.rall_fuller_lockstep(
        lambda poly: oracle.PolyOracle(poly, amplitude), plan, seeds, ledgers)


def _monkey_trials(truth, target, constants, plan, seeds, ledgers):
    # aggregation cannot help a deterministic, maximally biased estimator;
    # the report shows bias exactly epsilon and zero variance
    amplitude = Amplitude(truth)

    def sampler(_stage, _contract, _rng, _run_ledger, size):
        return np.full(size, blackbox.monkey_sample(amplitude, target.epsilon))

    return (aggregate.aggregate_type1(sampler, plan, seed=seed, ledger=ledger)
            for seed, ledger in zip(seeds, ledgers))


class Algorithm(NamedTuple):
    """Everything the harness knows about one algorithm.

    ``constants`` lists the constants it reads, with their defaults; it
    rejects every constant outside that table.  ``plan`` builds the
    algorithm's schedule from a target and the resolved constants,
    raising ``ValueError`` for constants that can never run.  ``trial`` runs
    a batch of trials on that schedule, ``(truth, target, constants, plan,
    seeds, ledgers) -> estimates``, trial i on ``seeds[i]`` and ``ledgers[i]``
    alone; it yields the estimates in order, so an error raised while
    iterating is the first trial's not yet yielded.  A ``circular`` algorithm
    estimates an angle in [0, 2 pi), and its deviations are circular differences.
    """

    name: str
    constants: dict
    trial: Callable[..., Iterable[float]]
    plan: Callable[[TargetSpec, dict], object]
    circular: bool = False

    def build_plan(self, target: TargetSpec, constants: dict):
        """The schedule at ``target`` with ``constants`` over the defaults;
        one that can never run is a ConfigError."""
        try:
            return self.plan(target, {**self.constants, **constants})
        except ValueError as err:
            raise ConfigError(f"{self.name} cannot run: {err}") from err

    def deviation(self, estimate: float, truth: float) -> float:
        if self.circular:
            return circphase.circ_diff(estimate, truth)
        return estimate - truth


def _phase_plan(target, c):
    # the reference stage's contracted bias is epsilon, the larger of the two
    # stages', so this is the sampler's own check at its widest bias setting
    if abs(c["bias_scale"] * target.epsilon) + c["tail_magnitude"] > math.pi:
        raise ValueError("offsets must stay below pi for unambiguous circular bias")
    return circphase.PhasePlan.from_target(target, c["r"], c["s"])


# ``bias_scale`` is the fraction of the contracted bias the synthetic sampler
# applies (1.0 is the adversarial worst case); ``tail_magnitude`` is its tail
# offset, where None means the largest the output cap allows.
ALGORITHMS = {record.name: record for record in (
    Algorithm(
        "type1",
        constants={
            "r": aggregate.DEFAULT_BIAS_FRACTION_BV,
            "s": aggregate.DEFAULT_VARIANCE_FRACTION_BV,
            "bias_scale": 1.0,
        },
        trial=_type1_trials,
        plan=lambda target, c: aggregate.Type1Plan.from_target(target, c["r"], c["s"]),
    ),
    Algorithm(
        "type2",
        constants={
            "r": aggregate.DEFAULT_BIAS_FRACTION_PF,
            "s": aggregate.DEFAULT_TAIL_FRACTION_PF,
            "C": 1.0,
            "bias_scale": 1.0,
            "tail_magnitude": None,
        },
        trial=_type2_trials,
        plan=lambda target, c: aggregate.Type2Plan.from_target(target, c["r"], c["s"], c["C"]),
    ),
    Algorithm(
        "phase",
        constants={
            "r": aggregate.DEFAULT_BIAS_FRACTION_PF,
            "s": aggregate.DEFAULT_TAIL_FRACTION_PF,
            "bias_scale": 1.0,
            "tail_magnitude": math.pi / 2.0,
        },
        trial=_phase_trials,
        plan=_phase_plan,
        circular=True,
    ),
    Algorithm("rallfuller", constants={}, trial=_rallfuller_trials,
              plan=lambda target, c: rallfuller.RfPlan.from_target(target)),
    Algorithm(
        "monkey-demo",
        constants={},
        trial=_monkey_trials,
        plan=lambda target, c: aggregate.Type1Plan.from_target(target),
    ),
)}


_TOLERANCE_PROVENANCE = {
    "abs_tol": ABS_TOL,
    "bound_tol": oracle.BOUND_TOL,
    "cert_tol": rallfuller.CERT_TOL,
    "arc_tol": circphase.ARC_TOL,
    "shrink_factor": rallfuller.SHRINK_FACTOR,
    "discard_fraction": rallfuller.DISCARD_FRACTION,
}


class ExperimentConfig(namedtuple(
        "ExperimentConfig", "algorithm truth target constants trials master_seed")):
    """One experiment: an algorithm, a hidden truth, a target and a seed."""

    __slots__ = ()

    def __new__(cls, algorithm: str, truth: float, target: TargetSpec,
                constants: dict | None = None, trials: int = 1, master_seed: int = 0):
        for name, value, kind in (("target", target, TargetSpec),
                                  ("constants", {} if constants is None else constants, dict)):
            if not isinstance(value, kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
        # a fresh dict per config; numpy scalars are stored as the Python
        # numbers the report's JSON and CSV can hold, as are numpy integers below
        constants = {name: plain_number(value) for name, value in (constants or {}).items()}
        truth = plain_number(truth)
        if not isinstance(truth, numbers.Real) or isinstance(truth, bool):
            raise ConfigError(f"truth must be a number, got {truth!r}")
        for name, value in (("trials", trials), ("master_seed", master_seed)):
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        self = super().__new__(cls, algorithm, truth, target, constants, int(trials),
                               int(master_seed))
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; choose from {tuple(ALGORITHMS)}"
            )
        record = ALGORITHMS[self.algorithm]
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if record.circular:
            if not 0.0 <= self.truth < TWO_PI:
                raise ConfigError("phase truth must lie in [0, 2 pi)")
        elif not 0.0 <= self.truth <= 1.0:
            raise ConfigError("amplitude truth must lie in [0, 1]")
        try:
            SeedSpec(self.master_seed)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        unread = set(self.constants) - set(record.constants)
        if unread:
            raise ConfigError(f"{self.algorithm} does not read constants {sorted(unread)}")
        for name, value in self.constants.items():
            if value is None and record.constants[name] is None:
                continue  # the algorithm's own default
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"constant {name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"constant {name} must be finite, got {value}")
        bias_scale = self.constants.get("bias_scale", 0.0)
        if abs(bias_scale) > 1.0:
            # a synthetic sampler applies at most its contracted bias
            raise ConfigError(f"|bias_scale| must be at most 1, got {bias_scale}")
        tail = self.constants.get("tail_magnitude")
        if tail is not None and tail < 0:
            raise ConfigError(f"tail_magnitude must be nonnegative, got {tail}")
        return self

    def resolved_constants(self) -> dict:
        return {**ALGORITHMS[self.algorithm].constants, **self.constants}

    def provenance(self) -> dict:
        """Everything that determines the report, with the constants its algorithm reads."""
        return {
            "algorithm": self.algorithm,
            "truth": self.truth,
            "epsilon": self.target.epsilon,
            "delta": self.target.delta,
            "beta": self.target.beta,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "constants": self.resolved_constants(),
            "tolerances": dict(_TOLERANCE_PROVENANCE),
        }


class TrialReport(NamedTuple):
    """Estimates and resource accounting for one experiment."""

    config: dict
    estimates: list[float]
    empirical_success: float
    empirical_bias: float
    empirical_variance: float
    max_depth: int
    total_queries: int
    trial_depths: list[int]
    trial_queries: list[int]


def _run_batch(config: ExperimentConfig, plan, indices) -> list[tuple[float, int, int]]:
    """Trials ``indices`` of ``config`` on ``plan``, in order."""
    seeds = [derive_stream(SeedSpec(config.master_seed, 0), index) for index in indices]
    ledgers = [ResourceLedger() for _ in indices]
    estimates = []
    try:
        for estimate in ALGORITHMS[config.algorithm].trial(
                config.truth, config.target, config.resolved_constants(), plan, seeds, ledgers):
            estimates.append(estimate)
    except (SimulationError, ValueError, MemoryError) as err:
        # MemoryError: a stage whose draws numpy cannot allocate fails its trial
        raise AlgorithmError(f"trial {indices[len(estimates)]}: {err}") from err
    return [(estimate, ledger.max_depth, ledger.total_queries)
            for estimate, ledger in zip(estimates, ledgers)]


def run_experiment(config: ExperimentConfig) -> TrialReport:
    """Run all trials on one plan as one batch, and report."""
    record = ALGORITHMS[config.algorithm]
    plan = record.build_plan(config.target, config.resolved_constants())
    outcomes = _run_batch(config, plan, range(config.trials))
    estimates, depths, queries = map(list, zip(*outcomes))
    deviations = [record.deviation(estimate, config.truth) for estimate in estimates]
    successes = sum(1 for d in deviations if abs(d) <= config.target.epsilon)
    mean_deviation = math.fsum(deviations) / len(deviations)
    # exact integer arithmetic, so a constant estimator reports a variance of exactly zero
    variance = population_variance(deviations)
    return TrialReport(
        config=config.provenance(),
        estimates=estimates,
        empirical_success=successes / config.trials,
        empirical_bias=abs(mean_deviation),
        empirical_variance=variance,
        max_depth=max(depths),
        total_queries=sum(queries),
        trial_depths=depths,
        trial_queries=queries,
    )


# ---------------------------------------------------------------------------
# Scaling sweeps
# ---------------------------------------------------------------------------


class ScalingCell(NamedTuple):
    epsilon: float
    beta: float
    max_depth: int
    total_queries: int


class ScalingStudy(NamedTuple):
    """Depth/query ledgers over an (epsilon, beta) grid with log-log fits."""

    config: dict
    rows: list[ScalingCell]
    slopes: dict[float, dict[str, float]]
    # a tuple, not a list: a default is shared by every study built without errors
    errors: list[dict] | tuple = ()

    @property
    def partial(self) -> bool:
        return bool(self.errors)


def _fit_slope(epsilons, values) -> float:
    return float(np.polyfit(np.log(np.asarray(epsilons)), np.log(np.asarray(values)), 1)[0])


def scaling_study(algorithm: str, truth: float, delta: float, epsilon_grid: list[float],
                  beta_grid: list[float], constants: dict | None = None,
                  master_seed: int = 0) -> ScalingStudy:
    """Runs grid point ``index`` alone, as trial ``index`` of a one-trial
    ``ExperimentConfig`` there, and fits log-log depth/query slopes per beta.  A
    repeated grid point, a config that fails its checks or a plan that can never
    run is a ConfigError before the first cell; a failed cell run is a cell error."""
    # numpy scalars or arrays as the Python numbers they hold, which the exports write
    epsilon_grid = [plain_number(epsilon) for epsilon in epsilon_grid]
    beta_grid = [plain_number(beta) for beta in beta_grid]
    if not epsilon_grid or not beta_grid:
        raise ConfigError("epsilon_grid and beta_grid must be nonempty")
    for name, grid in (("epsilon_grid", epsilon_grid), ("beta_grid", beta_grid)):
        if len(set(grid)) < len(grid):
            # a slope needs distinct epsilons, and a repeated beta fits twice
            raise ConfigError(f"{name} repeats a point: {grid}")
    try:
        targets = [TargetSpec(eps, delta, beta) for beta in beta_grid for eps in epsilon_grid]
    except ValueError as err:
        raise ConfigError(f"grid point: {err}") from err
    configs = [ExperimentConfig(algorithm, truth, target, constants, master_seed=master_seed)
               for target in targets]
    plans = [ALGORITHMS[algorithm].build_plan(config.target, config.resolved_constants())
             for config in configs]
    rows: list[ScalingCell] = []
    errors: list[dict] = []
    for index, (config, plan) in enumerate(zip(configs, plans)):
        epsilon, beta = config.target.epsilon, config.target.beta
        try:
            [(_, depth, queries)] = _run_batch(config, plan, [index])
        except AlgorithmError as err:
            errors.append({"epsilon": epsilon, "beta": beta, "error": str(err.__cause__)})
            continue
        rows.append(ScalingCell(epsilon, beta, depth, queries))
    slopes: dict[float, dict[str, float]] = {}
    for beta in beta_grid:
        cells = [row for row in rows if row.beta == beta]
        if len(cells) < 2:
            errors.append({"beta": beta, "error": "not enough cells to fit slopes"})
            continue
        if any(min(c.max_depth, c.total_queries) <= 0 for c in cells):
            # log-log slopes need positive ledgers; an estimator that charges
            # nothing (monkey-demo) has no scaling to fit
            errors.append({"beta": beta, "error": "non-positive ledger values: no slopes to fit"})
            continue
        eps = [c.epsilon for c in cells]
        slopes[beta] = {
            "depth": _fit_slope(eps, [c.max_depth for c in cells]),
            "queries": _fit_slope(eps, [c.total_queries for c in cells]),
            "product": _fit_slope(eps, [c.max_depth * c.total_queries for c in cells]),
        }
    # every cell shares these; its own epsilon, beta and single trial are the rows'
    provenance = {key: value for key, value in configs[0].provenance().items()
                  if key not in ("epsilon", "beta", "trials")}
    provenance["epsilon_grid"] = epsilon_grid
    provenance["beta_grid"] = beta_grid
    return ScalingStudy(config=provenance, rows=rows, slopes=slopes, errors=errors)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _scaling_to_dict(study: ScalingStudy) -> dict:
    return {
        **study._asdict(),
        "kind": "scaling_study",
        "partial": study.partial,
        "rows": [row._asdict() for row in study.rows],
        "slopes": {repr(beta): fits for beta, fits in study.slopes.items()},
    }


def _csv_text(header: str, rows) -> str:
    # every field is an int or a float repr, so none needs quoting
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _trial_csv(report: TrialReport) -> str:
    truth = report.config["truth"]
    deviation = ALGORITHMS[report.config["algorithm"]].deviation
    rows = (
        (index, repr(estimate), repr(abs(deviation(estimate, truth))),
         report.trial_depths[index], report.trial_queries[index])
        for index, estimate in enumerate(report.estimates)
    )
    return _csv_text("trial_index,estimate,abs_error,max_depth,total_queries", rows)


def _scaling_csv(study: ScalingStudy) -> str:
    rows = (
        (repr(row.epsilon), repr(row.beta), row.max_depth, row.total_queries,
         row.max_depth * row.total_queries)
        for row in study.rows
    )
    return _csv_text("epsilon,beta,max_depth,total_queries,depth_query_product", rows)


_SVG_COLOURS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _scaling_svg(study: ScalingStudy) -> str:
    """Log-log scatter of depth and query count against epsilon with the
    fitted lines, one colour per beta.  Hand-built so output bytes depend
    only on the study contents."""
    width, height, margin = 720, 520, 60
    points = [(row.epsilon, row.max_depth, row.beta, "D") for row in study.rows]
    points += [(row.epsilon, row.total_queries, row.beta, "N") for row in study.rows]
    if not points:
        # the grids are never empty, so no rows means every cell failed: an
        # algorithm error (exit 3), not a configuration error
        raise SimulationError("every cell of the sweep failed, so there is no svg to render")
    xs = [math.log10(p[0]) for p in points]
    ys = [math.log10(max(1, p[1])) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def to_x(value: float) -> float:
        return margin + (value - x_lo) / x_span * (width - 2 * margin)

    def to_y(value: float) -> float:
        return height - margin - (value - y_lo) / y_span * (height - 2 * margin)

    betas = sorted({row.beta for row in study.rows})
    colour_of = {beta: _SVG_COLOURS[i % len(_SVG_COLOURS)] for i, beta in enumerate(betas)}
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - margin // 4}" text-anchor="middle" '
        f'font-size="14">log10 epsilon</text>',
        f'<text x="{margin // 4}" y="{height // 2}" font-size="14" '
        f'transform="rotate(-90 {margin // 4} {height // 2})" '
        f'text-anchor="middle">log10 depth (circles) / queries (squares)</text>',
    ]
    for epsilon, value, beta, series in points:
        colour = colour_of[beta]
        cx, cy = to_x(math.log10(epsilon)), to_y(math.log10(max(1, value)))
        if series == "D":
            parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="4" fill="{colour}"/>')
        else:
            parts.append(
                f'<rect x="{cx - 3.5:.3f}" y="{cy - 3.5:.3f}" width="7" height="7" '
                f'fill="none" stroke="{colour}"/>'
            )
    for beta in betas:
        if beta not in study.slopes:
            continue
        cells = [row for row in study.rows if row.beta == beta]
        eps_log = [math.log10(c.epsilon) for c in cells]
        for series, key in (("D", "depth"), ("N", "queries")):
            values = [c.max_depth if series == "D" else c.total_queries for c in cells]
            slope = study.slopes[beta][key]
            # least-squares line in log10 space, anchored at the mean point
            mean_x = sum(eps_log) / len(eps_log)
            mean_y = sum(math.log10(max(1, v)) for v in values) / len(values)
            x0, x1 = min(eps_log), max(eps_log)
            y0 = mean_y + slope * (x0 - mean_x)
            y1 = mean_y + slope * (x1 - mean_x)
            parts.append(
                f'<line x1="{to_x(x0):.3f}" y1="{to_y(y0):.3f}" x2="{to_x(x1):.3f}" '
                f'y2="{to_y(y1):.3f}" stroke="{colour_of[beta]}" stroke-dasharray="4 3"/>'
            )
    for i, beta in enumerate(betas):
        fits = study.slopes.get(beta)
        label = f"beta={beta:g}"
        if fits:
            label += f" (D slope {fits['depth']:.3f}, N slope {fits['queries']:.3f})"
        parts.append(
            f'<text x="{width - margin - 330}" y="{margin + 18 * i}" font-size="12" '
            f'fill="{colour_of[beta]}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_report(report, fmt: str, path) -> Path:
    """Write a trial report or scaling study to ``path`` in ``fmt``."""
    if fmt not in EXPORT_FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    destination = Path(path)
    if isinstance(report, TrialReport):
        if fmt == "json":
            # _asdict is shallow; the fields are plain dicts, lists and numbers,
            # which json writes as they are (a record left in would become a list)
            payload = {**report._asdict(), "kind": "trial_report"}
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        elif fmt == "csv":
            text = _trial_csv(report)
        else:
            raise ConfigError("svg export applies to scaling studies only")
    elif isinstance(report, ScalingStudy):
        if fmt == "json":
            text = json.dumps(_scaling_to_dict(report), sort_keys=True, indent=2) + "\n"
        elif fmt == "csv":
            text = _scaling_csv(report)
        else:
            text = _scaling_svg(report)
    else:
        raise ConfigError(f"cannot export object of type {type(report).__name__}")
    try:
        destination.write_text(text)
    except OSError as err:
        raise ConfigError(f"cannot write report to {destination}: {err}") from err
    return destination

"""Experiment orchestration: seeded trial loops, scaling sweeps, reporting.

A report is a pure function of its :class:`ExperimentConfig`; re-running
with the same master seed reproduces it byte for byte (wall time is
measured but never serialised).
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

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
)

EXPORT_FORMATS = ("csv", "json", "svg")


class ConfigError(SimulationError):
    """Invalid experiment configuration."""


class AlgorithmError(SimulationError):
    """An inner estimation routine failed; message carries the trial index."""


# The constants each algorithm reads, with their defaults; an algorithm
# rejects every constant outside its own table.  ``bias_scale`` is the
# fraction of the contracted bias the synthetic sampler applies (1.0 is the
# adversarial worst case); ``tail_magnitude`` is its tail offset, where None
# means the largest the output cap allows.
ALGORITHM_CONSTANTS = {
    "type1": {
        "r": aggregate.DEFAULT_BIAS_FRACTION_BV,
        "s": aggregate.DEFAULT_VARIANCE_FRACTION_BV,
        "bias_scale": 1.0,
    },
    "type2": {
        "r": aggregate.DEFAULT_BIAS_FRACTION_PF,
        "s": aggregate.DEFAULT_TAIL_FRACTION_PF,
        "C": 1.0,
        "bias_scale": 1.0,
        "tail_magnitude": None,
    },
    "phase": {
        "r": aggregate.DEFAULT_BIAS_FRACTION_PF,
        "s": aggregate.DEFAULT_TAIL_FRACTION_PF,
        "bias_scale": 1.0,
        "tail_magnitude": math.pi / 2.0,
    },
    "rallfuller": {},
    "monkey-demo": {},
}

# Good-branch spread of the synthetic phase sampler during the wide-precision
# reference call.  Kept inside the reference arc's half-width pi/8: a
# reference draw saturating its contracted quarter-circle precision would
# always defeat arc construction.
_REF_SPREAD = math.pi / 10.0


_TOLERANCE_PROVENANCE = {
    "abs_tol": ABS_TOL,
    "bound_tol": oracle.BOUND_TOL,
    "cert_tol": rallfuller.CERT_TOL,
    "arc_tol": circphase.ARC_TOL,
    "shrink_factor": rallfuller.SHRINK_FACTOR,
    "discard_fraction": rallfuller.DISCARD_FRACTION,
}


@dataclass
class ExperimentConfig:
    """One experiment: an algorithm, a hidden truth, a target and a seed."""

    algorithm: str
    truth: float
    target: TargetSpec
    constants: dict = field(default_factory=dict)
    trials: int = 1
    master_seed: int = 0
    output_path: str | None = None
    output_format: str = "json"
    parallel: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHM_CONSTANTS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; choose from {tuple(ALGORITHM_CONSTANTS)}"
            )
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.output_format not in EXPORT_FORMATS:
            raise ConfigError(f"unknown format {self.output_format!r}")
        if self.algorithm == "phase":
            if not 0.0 <= self.truth < TWO_PI:
                raise ConfigError("phase truth must lie in [0, 2 pi)")
        elif not 0.0 <= self.truth <= 1.0:
            raise ConfigError("amplitude truth must lie in [0, 1]")
        try:
            SeedSpec(self.master_seed)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        unread = set(self.constants) - set(ALGORITHM_CONSTANTS[self.algorithm])
        if unread:
            raise ConfigError(f"{self.algorithm} does not read constants {sorted(unread)}")
        for name, value in self.constants.items():
            if not math.isfinite(value):
                raise ConfigError(f"constant {name} must be finite, got {value}")
        bias_scale = self.constants.get("bias_scale", 0.0)
        if abs(bias_scale) > 1.0:
            # a synthetic sampler applies at most its contracted bias
            raise ConfigError(f"|bias_scale| must be at most 1, got {bias_scale}")

    def resolved_constants(self) -> dict:
        return {**ALGORITHM_CONSTANTS[self.algorithm], **self.constants}

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


@dataclass
class TrialReport:
    """Estimates and resource accounting for one experiment.

    ``wall_time`` is observational metadata: it is excluded from equality
    and from serialisation so replayed reports compare byte-identical.
    """

    config: dict
    estimates: list[float]
    empirical_success: float
    empirical_bias: float
    empirical_variance: float
    max_depth: int
    total_queries: int
    trial_depths: list[int]
    trial_queries: list[int]
    wall_time: float | None = field(default=None, compare=False)


def _trial_estimate(
    algorithm: str,
    truth: float,
    target: TargetSpec,
    constants: dict,
    trial_seed: SeedSpec,
    ledger: ResourceLedger,
) -> float:
    if algorithm == "type1":
        amplitude = Amplitude(truth)
        bias_scale = constants["bias_scale"]

        def sampler(contract, rng, run_ledger, size):
            return blackbox.synth_uqae1_sample(
                amplitude, contract, bias_scale * contract.bias_bound, rng, run_ledger, size=size
            )

        return aggregate.aggregate_type1(
            sampler, target, constants["r"], constants["s"], seed=trial_seed, ledger=ledger
        )

    if algorithm == "type2":
        amplitude = Amplitude(truth)
        bias_scale, tail = constants["bias_scale"], constants["tail_magnitude"]

        def sampler(contract, rng, run_ledger, size):
            bias_setting = bias_scale * contract.bias_bound
            run_tail = contract.output_cap - truth - abs(bias_setting) if tail is None else tail
            return blackbox.synth_uqae2_sample(
                amplitude, contract, bias_setting, run_tail, rng, run_ledger, size=size
            )

        return aggregate.aggregate_type2(
            sampler, target, constants["r"], constants["s"], constants["C"],
            seed=trial_seed, ledger=ledger,
        )

    if algorithm == "phase":
        bias_scale, tail = constants["bias_scale"], constants["tail_magnitude"]

        def sampler(contract, rng, run_ledger, size):
            bias_setting = bias_scale * contract.bias_bound
            spread = None
            if contract.precision == circphase.REF_PRECISION:
                spread = max(0.0, _REF_SPREAD - abs(bias_setting))
            return blackbox.synth_uqpe2_sample(
                truth, contract, bias_setting, tail, rng, run_ledger, good_spread=spread, size=size
            )

        return circphase.lowdepth_phase_estimate(
            sampler, target, constants["r"], constants["s"], seed=trial_seed, ledger=ledger
        ).value

    if algorithm == "rallfuller":
        amplitude = Amplitude(truth)

        def factory(poly):
            return oracle.PolyOracle(poly, amplitude)

        return rallfuller.rall_fuller_estimate(factory, target, seed=trial_seed, ledger=ledger)

    # monkey-demo: aggregation cannot help a deterministic, maximally biased
    # estimator; the report shows bias exactly epsilon and zero variance.
    amplitude = Amplitude(truth)

    def sampler(_contract, _rng, _run_ledger, size):
        return np.full(size, blackbox.monkey_sample(amplitude, target.epsilon))

    return aggregate.aggregate_type1(sampler, target, seed=trial_seed, ledger=ledger)


def _run_one(args) -> tuple[int, float, int, int]:
    algorithm, truth, target, constants, master_seed, index = args
    trial_seed = derive_stream(SeedSpec(master_seed, 0), index)
    ledger = ResourceLedger()
    try:
        estimate = _trial_estimate(algorithm, truth, target, constants, trial_seed, ledger)
    except (SimulationError, ValueError) as err:
        raise AlgorithmError(f"trial {index}: {err}") from err
    return index, estimate, ledger.max_depth, ledger.total_queries


def _deviation(estimate: float, truth: float, circular: bool) -> float:
    if circular:
        return circphase.circ_diff(estimate, truth)
    return estimate - truth


def run_experiment(config: ExperimentConfig) -> TrialReport:
    """Run all trials and assemble (optionally export) the report."""
    constants = config.resolved_constants()
    jobs = [
        (config.algorithm, config.truth, config.target, constants, config.master_seed, index)
        for index in range(config.trials)
    ]
    started = time.perf_counter()
    if config.parallel and config.trials > 1:
        with ProcessPoolExecutor() as pool:
            outcomes = sorted(pool.map(_run_one, jobs, chunksize=16))
    else:
        outcomes = [_run_one(job) for job in jobs]
    wall = time.perf_counter() - started

    estimates = [estimate for _, estimate, _, _ in outcomes]
    depths = [depth for _, _, depth, _ in outcomes]
    queries = [q for _, _, _, q in outcomes]
    circular = config.algorithm == "phase"
    deviations = [_deviation(estimate, config.truth, circular) for estimate in estimates]
    successes = sum(1 for d in deviations if abs(d) <= config.target.epsilon)
    mean_deviation = math.fsum(deviations) / len(deviations)
    # pvariance is exact (rational arithmetic), so a constant estimator
    # reports a variance of exactly zero.
    variance = statistics.pvariance(deviations) if len(deviations) > 1 else 0.0
    report = TrialReport(
        config=config.provenance(),
        estimates=estimates,
        empirical_success=successes / config.trials,
        empirical_bias=abs(mean_deviation),
        empirical_variance=variance,
        max_depth=max(depths),
        total_queries=sum(queries),
        trial_depths=depths,
        trial_queries=queries,
        wall_time=wall,
    )
    if config.output_path is not None:
        export_report(report, config.output_format, config.output_path)
    return report


# ---------------------------------------------------------------------------
# Scaling sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingCell:
    epsilon: float
    beta: float
    max_depth: int
    total_queries: int


@dataclass
class ScalingStudy:
    """Depth/query ledgers over an (epsilon, beta) grid with log-log fits."""

    config: dict
    rows: list[ScalingCell]
    slopes: dict[float, dict[str, float]]
    errors: list[dict] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return bool(self.errors)


def _fit_slope(epsilons, values) -> float:
    return float(np.polyfit(np.log(np.asarray(epsilons)), np.log(np.asarray(values)), 1)[0])


def scaling_study(
    base_config: ExperimentConfig,
    epsilon_grid: list[float],
    beta_grid: list[float],
) -> ScalingStudy:
    """One aggregate per grid point; fits log-depth and log-queries slopes
    against log-epsilon separately for each beta."""
    if not epsilon_grid or not beta_grid:
        raise ConfigError("epsilon_grid and beta_grid must be nonempty")
    if any(not 0.0 < eps < 1.0 for eps in epsilon_grid):
        raise ConfigError("epsilon grid values must lie in (0, 1)")
    constants = base_config.resolved_constants()
    rows: list[ScalingCell] = []
    errors: list[dict] = []
    root = SeedSpec(base_config.master_seed, 0)
    cell_index = 0
    for beta in beta_grid:
        for epsilon in epsilon_grid:
            target = TargetSpec(epsilon, base_config.target.delta, beta)
            ledger = ResourceLedger()
            seed = derive_stream(root, cell_index)
            cell_index += 1
            try:
                _trial_estimate(
                    base_config.algorithm, base_config.truth, target, constants, seed, ledger
                )
            except (SimulationError, ValueError) as err:
                errors.append({"epsilon": epsilon, "beta": beta, "error": str(err)})
                continue
            rows.append(ScalingCell(epsilon, beta, ledger.max_depth, ledger.total_queries))
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
    provenance = base_config.provenance()
    provenance["epsilon_grid"] = list(epsilon_grid)
    provenance["beta_grid"] = list(beta_grid)
    return ScalingStudy(config=provenance, rows=rows, slopes=slopes, errors=errors)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _trial_report_to_dict(report: TrialReport) -> dict:
    return {
        "kind": "trial_report",
        "config": report.config,
        "estimates": report.estimates,
        "empirical_success": report.empirical_success,
        "empirical_bias": report.empirical_bias,
        "empirical_variance": report.empirical_variance,
        "max_depth": report.max_depth,
        "total_queries": report.total_queries,
        "trial_depths": report.trial_depths,
        "trial_queries": report.trial_queries,
    }


def _scaling_to_dict(study: ScalingStudy) -> dict:
    return {
        "kind": "scaling_study",
        "config": study.config,
        "rows": [
            {
                "epsilon": row.epsilon,
                "beta": row.beta,
                "max_depth": row.max_depth,
                "total_queries": row.total_queries,
            }
            for row in study.rows
        ],
        "slopes": {repr(beta): fits for beta, fits in study.slopes.items()},
        "partial": study.partial,
        "errors": study.errors,
    }


def _trial_csv(report: TrialReport) -> str:
    truth = report.config["truth"]
    circular = report.config["algorithm"] == "phase"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["trial_index", "estimate", "abs_error", "max_depth", "total_queries"])
    for index, estimate in enumerate(report.estimates):
        writer.writerow(
            [
                index,
                repr(estimate),
                repr(abs(_deviation(estimate, truth, circular))),
                report.trial_depths[index],
                report.trial_queries[index],
            ]
        )
    return buffer.getvalue()


def _scaling_csv(study: ScalingStudy) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["epsilon", "beta", "max_depth", "total_queries", "depth_query_product"])
    for row in study.rows:
        writer.writerow(
            [
                repr(row.epsilon),
                repr(row.beta),
                row.max_depth,
                row.total_queries,
                row.max_depth * row.total_queries,
            ]
        )
    return buffer.getvalue()


_SVG_COLOURS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _scaling_svg(study: ScalingStudy) -> str:
    """Log-log scatter of depth and query count against epsilon with the
    fitted lines, one colour per beta.  Hand-built so output bytes depend
    only on the study contents."""
    width, height, margin = 720, 520, 60
    points = [(row.epsilon, row.max_depth, row.beta, "D") for row in study.rows]
    points += [(row.epsilon, row.total_queries, row.beta, "N") for row in study.rows]
    if not points:
        raise ConfigError("cannot render an empty scaling study")
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
            text = json.dumps(_trial_report_to_dict(report), sort_keys=True, indent=2) + "\n"
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

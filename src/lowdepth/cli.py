"""Command-line interface.

Subcommands: ``run`` (one experiment), ``scale`` (depth/query sweep over an
epsilon-beta grid), ``params`` (print computed plans and estimator knobs
without running anything) and ``selfcheck`` (fast post-install invariant
check, needing no test dependencies).

``run``, ``scale`` and ``params`` read each setting the same way: the flag,
else (``run`` only) the ``--config`` file entry, else one shared default
(epsilon 0.05, delta 0.05, beta 0.5, 100 trials, seed 0, json format).
``scale`` without ``--algorithm`` or ``--truth`` sweeps type1 at truth 0.3.

Exit codes: 0 success, 2 configuration error, 3 inner algorithm error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import aggregate, blackbox, circphase, rallfuller
from .core import (
    SeedSpec,
    SimulationError,
    TargetSpec,
    derive_stream,
)
from .harness import (
    ALGORITHM_CHOICES,
    EXPORT_FORMATS,
    ConfigError,
    ExperimentConfig,
    _default_constants,
    export_report,
    run_experiment,
    scaling_study,
)


def load_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` config text; later CLI flags override its entries."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_number}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lowdepth", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add_target_flags(sub, with_algorithm: bool = True) -> None:
        if with_algorithm:
            sub.add_argument("--algorithm", choices=ALGORITHM_CHOICES)
            sub.add_argument("--truth", type=float)
        sub.add_argument("--epsilon", type=float)
        sub.add_argument("--delta", type=float)
        sub.add_argument("--beta", type=float)
        sub.add_argument("--r", type=float, dest="r", help="bias fraction of epsilon")
        sub.add_argument("--s", type=float, dest="s", help="variance / tail fraction")
        sub.add_argument("--cap-C", type=float, dest="cap_c", help="output cap of the black box")

    run = commands.add_parser("run", help="run one experiment and export its report")
    add_target_flags(run)
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", type=str)
    run.add_argument("--format", choices=EXPORT_FORMATS)
    run.add_argument("--parallel", action="store_true", default=None)
    run.add_argument("--bias-scale", type=float, dest="bias_scale")
    run.add_argument("--tail-magnitude", type=float, dest="tail_magnitude")
    run.add_argument("--config", type=str, help="flat key = value config file")

    scale = commands.add_parser("scale", help="depth/query scaling sweep")
    add_target_flags(scale)
    scale.add_argument("--epsilon-grid", type=_float_list, default=[0.1, 0.05, 0.02, 0.01])
    scale.add_argument("--beta-grid", type=_float_list, default=[0.0, 0.25, 0.5, 0.75, 1.0])
    scale.add_argument("--seed", type=int)
    scale.add_argument("--out", type=str)
    scale.add_argument("--format", choices=EXPORT_FORMATS)

    params = commands.add_parser("params", help="print computed parameter settings")
    add_target_flags(params, with_algorithm=False)

    selfcheck = commands.add_parser("selfcheck", help="run the fast invariant suite")
    selfcheck.add_argument("--seed", type=int, default=20240915)

    return parser


# Every setting a subcommand reads: its type (to parse config-file text) and
# the default used when neither a flag nor the config file gives it.  One
# table for all subcommands, so they share the same defaults.
_SETTINGS = {
    "algorithm": (str, None),
    "truth": (float, None),
    "epsilon": (float, 0.05),
    "delta": (float, 0.05),
    "beta": (float, 0.5),
    "trials": (int, 100),
    "seed": (int, 0),
    "out": (str, None),
    "format": (str, "json"),
    "parallel": (lambda text: text.strip().lower() in ("1", "true", "yes", "on"), False),
    "r": (float, None),
    "s": (float, None),
    "cap_c": (float, None),
    "bias_scale": (float, None),
    "tail_magnitude": (float, None),
}

# Settings passed to the harness as estimator constants, by constant name.
_CONSTANT_KEYS = {"r": "r", "s": "s", "cap_c": "C", "bias_scale": "bias_scale",
                  "tail_magnitude": "tail_magnitude"}


def _settings(args):
    """Lookup of one setting: its flag, else its ``--config`` file entry,
    else its default in ``_SETTINGS`` (``default`` where the table has none)."""
    config = getattr(args, "config", None)
    file_values = load_config_file(config) if config else {}
    unknown = set(file_values) - set(_SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config file keys: {sorted(unknown)}")

    def setting(key: str, default=None):
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            return flag_value
        caster, shared_default = _SETTINGS[key]
        if key in file_values:
            try:
                return caster(file_values[key])
            except ValueError as err:
                raise ConfigError(f"config file value for {key!r}: {err}") from err
        return default if shared_default is None else shared_default

    return setting


def _target_and_constants(setting) -> tuple[TargetSpec, dict]:
    try:
        target = TargetSpec(setting("epsilon"), setting("delta"), setting("beta"))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    constants = {}
    for key, name in _CONSTANT_KEYS.items():
        value = setting(key)
        if value is not None:
            constants[name] = value
    return target, constants


def _build_run_config(args) -> ExperimentConfig:
    setting = _settings(args)
    algorithm = setting("algorithm")
    truth = setting("truth")
    if algorithm is None or truth is None:
        raise ConfigError("--algorithm and --truth are required (flag or config file)")
    target, constants = _target_and_constants(setting)
    return ExperimentConfig(
        algorithm=algorithm,
        truth=truth,
        target=target,
        constants=constants,
        trials=setting("trials"),
        master_seed=setting("seed"),
        output_path=setting("out"),
        output_format=setting("format"),
        parallel=bool(setting("parallel")),
    )


def _cmd_run(args) -> int:
    config = _build_run_config(args)
    report = run_experiment(config)
    print(
        f"algorithm={config.algorithm} trials={config.trials} "
        f"success={report.empirical_success:.4f} bias={report.empirical_bias:.3e} "
        f"variance={report.empirical_variance:.3e} "
        f"max_depth={report.max_depth} total_queries={report.total_queries}"
    )
    if config.output_path:
        print(f"report written to {config.output_path}")
    return 0


def _cmd_scale(args) -> int:
    setting = _settings(args)
    target, constants = _target_and_constants(setting)
    base = ExperimentConfig(
        algorithm=setting("algorithm", "type1"),
        truth=setting("truth", 0.3),
        target=target,
        constants=constants,
        trials=1,
        master_seed=setting("seed"),
    )
    study = scaling_study(base, args.epsilon_grid, args.beta_grid)
    for beta in sorted(study.slopes):
        fits = study.slopes[beta]
        print(
            f"beta={beta:g}: depth slope {fits['depth']:+.3f}, "
            f"query slope {fits['queries']:+.3f}, product slope {fits['product']:+.3f}"
        )
    if study.partial:
        print(f"partial table: {len(study.errors)} cell(s) failed", file=sys.stderr)
    out = setting("out")
    if out:
        export_report(study, setting("format"), out)
        print(f"study written to {out}")
    return 0


def _cmd_params(args) -> int:
    target, constants = _target_and_constants(_settings(args))
    bias_variance = {**_default_constants("type1"), **constants}
    precision_failure = {**_default_constants("type2"), **constants}
    r_bv, s_bv = bias_variance["r"], bias_variance["s"]
    r_pf, s_pf = precision_failure["r"], precision_failure["s"]

    print(f"target: epsilon={target.epsilon:g} delta={target.delta:g} beta={target.beta:g}")
    plan1 = aggregate.Type1Plan.from_target(target, r_bv, s_bv)
    floor = aggregate.bias_variance_floor(r_bv, s_bv)
    print(
        f"bias/variance plan:    bias_bound={plan1.bias_bound:.6g} "
        f"variance_bound={plan1.variance_bound:.6g} runs={plan1.runs} "
        f"success_floor={floor.success_floor:.6g}"
    )
    plan2 = aggregate.Type2Plan.from_target(target, r_pf, s_pf, precision_failure["C"])
    print(
        f"precision/failure plan: bias_bound={plan2.bias_bound:.6g} "
        f"run_precision={plan2.run_precision:.6g} run_fail_prob={plan2.run_fail_prob:.6g} "
        f"runs={plan2.runs}"
    )
    if target.epsilon < math.pi / 8:
        phase_plan = circphase.PhasePlan.from_target(target, r_pf, s_pf)
        print(
            f"circular phase plan:   runs={phase_plan.runs} "
            f"run_precision={phase_plan.run_precision:.6g} "
            f"run_fail_prob={phase_plan.run_fail_prob:.6g}"
        )
    amp = blackbox.cornelissen_amp_params(target)
    print(
        f"amplitude estimator knobs:  depth_scale={amp.depth_scale:.6g} "
        f"bias_bound={amp.bias_bound:.6g} (bias<= {amp.implied_bias_bound:.6g}, "
        f"variance<= {amp.implied_variance_bound:.6g})"
    )
    phase = blackbox.cornelissen_phase_params(target)
    print(
        f"phase estimator knobs:      depth_scale={phase.depth_scale:.6g} "
        f"bias_bound={phase.bias_bound:.6g}"
    )
    register = blackbox.apeldoorn_phase_params(target)
    print(
        f"register phase estimator:   m={register.m:.6g} n={register.n} "
        f"depth_scale={register.depth_scale}"
    )
    return 0


def _selfcheck_steps(seed: int):
    yield "derived streams are deterministic and distinct", lambda: _check_streams(seed)
    yield "circular difference is minimal on a 5-degree grid", _check_circ_grid
    yield "bias/variance floor matches direct substitution", _check_floor
    yield "erf placement constants in range", _check_kappa
    yield "full-depth gap envelope brackets 1/2", _check_envelope
    yield "coin test calibrated at gamma=0.1", lambda: _check_coin(seed)


def _check_streams(seed: int) -> None:
    root = SeedSpec(seed, 0)
    children = {derive_stream(root, i).stream_index for i in range(1000)}
    assert len(children) == 1000
    assert derive_stream(root, 7) == derive_stream(root, 7)


def _check_circ_grid() -> None:
    for i in range(0, 360, 5):
        for j in range(0, 360, 5):
            theta, phi = math.radians(i), math.radians(j)
            diff = circphase.circ_diff(theta, phi)
            best = min(abs(theta - phi + 2 * math.pi * k) for k in (-1, 0, 1))
            assert abs(abs(diff) - best) < 1e-9


def _check_floor() -> None:
    check = aggregate.bias_variance_floor(0.05, 100.0 / 225.0)
    assert check.valid and abs(check.success_floor - (1 - (100 / 225) / 0.95**2)) < 1e-12


def _check_kappa() -> None:
    assert abs(rallfuller.kappa(0.01) - 2.1) < 0.05
    assert abs(0.004 * rallfuller.kappa(0.004) - 0.0092) < 0.0005


def _check_envelope() -> None:
    envelope = rallfuller.full_depth_gap_envelope(0.01, 0.01)
    assert envelope.left_upper < 0.5 - 0.01
    assert envelope.right_lower > 0.5 + 0.01


def _check_coin(seed: int) -> None:
    gamma, fail = 0.1, 0.05
    tosses = rallfuller.coin_tosses(gamma, fail)
    rng = SeedSpec(seed, 2).rng()
    high = sum(
        rallfuller.coin_test(int(rng.binomial(tosses, (0.5 + gamma) ** 2)), tosses, gamma)
        for _ in range(2000)
    )
    low = sum(
        rallfuller.coin_test(int(rng.binomial(tosses, (0.5 - gamma) ** 2)), tosses, gamma)
        for _ in range(2000)
    )
    assert high / 2000 >= 1 - fail - 3 * math.sqrt(fail / 2000)
    assert low / 2000 <= fail + 3 * math.sqrt(fail / 2000)


def _cmd_selfcheck(args) -> int:
    failures = 0
    for label, check in _selfcheck_steps(args.seed):
        try:
            check()
        except AssertionError:
            failures += 1
            print(f"FAIL {label}")
        else:
            print(f"PASS {label}")
    if failures:
        print(f"{failures} selfcheck step(s) failed", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return 0 if code in (0, None) else 2
    handlers = {
        "run": _cmd_run,
        "scale": _cmd_scale,
        "params": _cmd_params,
        "selfcheck": _cmd_selfcheck,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError) as err:
        print(f"algorithm error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

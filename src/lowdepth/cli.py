"""Command-line interface.

Subcommands: ``run`` (one experiment), ``scale`` (depth/query sweep over an
epsilon-beta grid) and ``params`` (print computed plans and estimator knobs
without running anything).

Each setting is its flag, else (``run`` only) the ``--config`` file entry,
parsed as that flag, else the flag's default (epsilon 0.05, delta 0.05,
beta 0.5, 100 trials, seed 0, json format).  ``scale`` without
``--algorithm`` or ``--truth`` sweeps type1 at truth 0.3.

Exit codes: 0 success, 2 configuration error, 3 inner algorithm error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import blackbox, rallfuller
from .core import SimulationError, TargetSpec
# bound here for bench/tracing.py, which wraps derive_stream in every module holding it
from .core import derive_stream  # noqa: F401
from .harness import (
    ALGORITHMS,
    EXPORT_FORMATS,
    TRIAL_FORMATS,
    ConfigError,
    ExperimentConfig,
    export_report,
    run_experiment,
    scaling_study,
)


def load_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` config text, one entry per line and each key on one line only."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
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
        if key in lines:
            raise ConfigError(f"{path}:{line_number}: key {key!r} repeats line {lines[key]}")
        values[key], lines[key] = value, line_number
    return values


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from err


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The ``lowdepth`` parser and its ``run`` subparser."""
    parser = argparse.ArgumentParser(prog="lowdepth", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add_target_flags(sub, with_algorithm: bool = True) -> None:
        if with_algorithm:
            sub.add_argument("--algorithm", choices=ALGORITHMS)
            sub.add_argument("--truth", type=float)
        sub.add_argument("--epsilon", type=float, default=0.05)
        sub.add_argument("--delta", type=float, default=0.05)
        sub.add_argument("--beta", type=float, default=0.5)
        sub.add_argument("--r", type=float, dest="r", help="bias fraction of epsilon")
        sub.add_argument("--s", type=float, dest="s", help="variance / tail fraction")
        sub.add_argument("--cap-C", type=float, dest="cap_c", help="output cap of the black box")

    run = commands.add_parser("run", help="run one experiment and export its report")
    add_target_flags(run)
    run.add_argument("--trials", type=int, default=100)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", type=str)
    run.add_argument("--format", choices=EXPORT_FORMATS, default="json")
    run.add_argument("--parallel", action="store_true")
    run.add_argument("--bias-scale", type=float, dest="bias_scale")
    run.add_argument("--tail-magnitude", type=float, dest="tail_magnitude")
    run.add_argument("--config", type=str, help="flat key = value config file")

    scale = commands.add_parser("scale", help="depth/query scaling sweep")
    add_target_flags(scale)
    scale.add_argument("--epsilon-grid", type=_float_list, default=[0.1, 0.05, 0.02, 0.01])
    scale.add_argument("--beta-grid", type=_float_list, default=[0.0, 0.25, 0.5, 0.75, 1.0])
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument("--out", type=str)
    scale.add_argument("--format", choices=EXPORT_FORMATS, default="json")
    scale.set_defaults(algorithm="type1", truth=0.3)

    params = commands.add_parser("params", help="print computed parameter settings")
    add_target_flags(params, with_algorithm=False)

    return parser, run


def _switch_on(key: str, text: str) -> bool:
    """A config-file switch entry; any text but the listed spellings is an error."""
    value = text.strip().lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ConfigError(
            f"config file value for {key!r}: "
            f"expected 1, true, yes, on, 0, false, no or off, got {text!r}"
        )
    return value in ("1", "true", "yes", "on")


def _config_tokens(run: argparse.ArgumentParser, path: str) -> list[str]:
    """The ``--config`` file's entries as ``run`` flag tokens.  A key is its
    flag's destination (``cap_c`` for ``--cap-C``).  A switch's entry says
    whether to pass the bare flag; any other entry is ``--flag=value``, so a
    value starting with ``-`` is not read as a flag."""
    actions = {action.dest: action for action in run._actions
               if action.dest not in ("help", "config")}
    entries = load_config_file(path)
    unknown = set(entries) - set(actions)
    if unknown:
        raise ConfigError(f"unknown config file keys: {sorted(unknown)}")
    tokens = []
    for key, value in entries.items():
        flag = actions[key].option_strings[0]
        if actions[key].nargs != 0:
            tokens.append(f"{flag}={value}")
        elif _switch_on(key, value):
            tokens.append(flag)
    return tokens


# Settings passed to the harness as estimator constants, by constant name.
_CONSTANT_KEYS = {"r": "r", "s": "s", "cap_c": "C", "bias_scale": "bias_scale",
                  "tail_magnitude": "tail_magnitude"}


def _target_and_constants(args) -> tuple[TargetSpec, dict]:
    try:
        target = TargetSpec(args.epsilon, args.delta, args.beta)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    constants = {name: getattr(args, key) for key, name in _CONSTANT_KEYS.items()
                 if getattr(args, key, None) is not None}
    return target, constants


def _experiment(args, **fields) -> ExperimentConfig:
    """The experiment ``args`` set up, with ``fields`` for the rest."""
    target, constants = _target_and_constants(args)
    return ExperimentConfig(algorithm=args.algorithm, truth=args.truth, target=target,
                            constants=constants, master_seed=args.seed, **fields)


def _cmd_run(args) -> int:
    if args.algorithm is None or args.truth is None:
        raise ConfigError("--algorithm and --truth are required (flag or config file)")
    if args.format not in TRIAL_FORMATS:
        raise ConfigError(f"a trial report is csv or json, not {args.format!r}")
    report = run_experiment(_experiment(args, trials=args.trials, parallel=args.parallel))
    if args.out is not None:
        export_report(report, args.format, args.out)
    print(
        f"algorithm={args.algorithm} trials={args.trials} "
        f"success={report.empirical_success:.4f} bias={report.empirical_bias:.3e} "
        f"variance={report.empirical_variance:.3e} "
        f"max_depth={report.max_depth} total_queries={report.total_queries}"
    )
    if args.out is not None:
        print(f"report written to {args.out}")
    return 0


def _cmd_scale(args) -> int:
    study = scaling_study(_experiment(args), args.epsilon_grid, args.beta_grid)
    for beta in sorted(study.slopes):
        fits = study.slopes[beta]
        print(
            f"beta={beta:g}: depth slope {fits['depth']:+.3f}, "
            f"query slope {fits['queries']:+.3f}, product slope {fits['product']:+.3f}"
        )
    failed = len(args.epsilon_grid) * len(args.beta_grid) - len(study.rows)
    if failed:
        print(f"partial table: {failed} cell(s) failed", file=sys.stderr)
    for error in study.errors:
        if "epsilon" not in error:
            print(f"beta={error['beta']:g}: no fit ({error['error']})", file=sys.stderr)
    if args.out:
        export_report(study, args.format, args.out)
        print(f"study written to {args.out}")
    return 0


def _cmd_params(args) -> int:
    target, constants = _target_and_constants(args)
    # every plan is built before the first line, so a configuration error
    # prints nothing; phase and Rall-Fuller may be out of range where the others run
    plan1 = ALGORITHMS["type1"].build_plan(target, constants)
    plan2 = ALGORITHMS["type2"].build_plan(target, constants)
    try:
        phase_plan = ALGORITHMS["phase"].build_plan(target, constants)
    except ConfigError as err:
        phase_line = f"circular phase plan:   cannot run: {err.__cause__}"
    else:
        phase_line = (
            f"circular phase plan:   runs={phase_plan.runs} "
            f"run_precision={phase_plan.run_precision:.6g} "
            f"run_fail_prob={phase_plan.run_fail_prob:.6g}"
        )
    try:
        rf_plan = ALGORITHMS["rallfuller"].build_plan(target, constants)
    except ConfigError as err:
        rf_line = f"Rall-Fuller plan:      cannot run: {err.__cause__}"
    else:
        tosses = {rallfuller.BRANCH_FULL_DEPTH: [], rallfuller.BRANCH_LOW_DEPTH: []}
        for _, table, counts in rf_plan.steps:
            for entry, count in zip(table, counts):
                tosses[entry.branch].append(count)
        forced_steps = sum(len(table) == 1 for _, table, _ in rf_plan.steps)
        rf_line = f"Rall-Fuller plan:      steps={len(rf_plan.steps)} forced_full_depth={forced_steps}"
        for branch, counts in tosses.items():
            rf_line += f" {branch}_tosses=" + (f"{min(counts)}..{max(counts)}" if counts else "none")
        # the plan has built the forced approximant, so this reads the cache
        forced_erf = rallfuller.erf_poly(rf_plan.forced.k, rf_plan.forced.scale)
        rf_line += f" forced_erf_degree={forced_erf.degree}"
    print(f"target: epsilon={target.epsilon:g} delta={target.delta:g} beta={target.beta:g}")
    print(
        f"bias/variance plan:    bias_bound={plan1.bias_bound:.6g} "
        f"variance_bound={plan1.variance_bound:.6g} runs={plan1.runs} "
        f"success_floor={plan1.success_floor:.6g}"
    )
    print(
        f"precision/failure plan: bias_bound={plan2.bias_bound:.6g} "
        f"run_precision={plan2.run_precision:.6g} run_fail_prob={plan2.run_fail_prob:.6g} "
        f"runs={plan2.runs}"
    )
    print(phase_line)
    print(rf_line)
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, run = build_parser()
    handlers = {
        "run": _cmd_run,
        "scale": _cmd_scale,
        "params": _cmd_params,
    }
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # argv[0] is "run"; the file's entries go ahead of its own flags,
            # so the command line's flags win
            args = parser.parse_args(["run", *_config_tokens(run, args.config), *argv[1:]])
        out = getattr(args, "out", None)  # checked before any trial or cell
        if out is not None and (not out or Path(out).is_dir() or not Path(out).parent.is_dir()):
            raise ConfigError(f"--out {out!r} is not a file in an existing directory")
        return handlers[args.command](args)
    except SystemExit as exit_request:
        return 0 if exit_request.code in (0, None) else 2
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError) as err:
        print(f"algorithm error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

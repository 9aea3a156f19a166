"""Command-line interface.

Subcommands: ``run`` (one experiment), ``scale`` (depth/query sweep over an
epsilon-beta grid) and ``params`` (print computed plans and estimator knobs
without running anything).

Each setting is its flag, else (``run`` only) the ``--config`` file entry,
parsed as that flag, else the flag's default (epsilon 0.05, delta 0.05,
beta 0.5, 100 trials, seed 0, json format).  ``scale`` without
``--algorithm`` or ``--truth`` sweeps type1 at truth 0.3.  A flag is
spelled out in full, as ``--flag value`` or ``--flag=value``, and the last of
a repeated flag wins; ``lowdepth <command> -h`` lists a command's flags.

Exit codes: 0 success, 2 configuration error, 3 inner algorithm error.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from . import blackbox
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
        raise ConfigError(f"cannot read config file {path!r}: {err}") from err
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
    # every entry is a number: float('') refuses an empty one
    return [float(part) for part in text.split(",")]


def _one_of(*choices: str):
    """A converter that passes only ``choices``; its name shows them in usage."""
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {text!r}")
        return text
    convert.__name__ = "{" + ",".join(choices) + "}"
    return convert


# Each command's flags: flag -> (destination, converter, default).
_TARGET_FLAGS = {
    "--epsilon": ("epsilon", float, 0.05),
    "--delta": ("delta", float, 0.05),
    "--beta": ("beta", float, 0.5),
    "--r": ("r", float, None),  # bias fraction of epsilon
    "--s": ("s", float, None),  # variance / tail fraction
    "--cap-C": ("cap_c", float, None),  # output cap of the black box
}
_REPORT_FLAGS = {
    "--seed": ("seed", int, 0),
    "--out": ("out", str, None),
    "--format": ("format", _one_of(*EXPORT_FORMATS), "json"),
}
FLAGS = {
    "run": {
        "--algorithm": ("algorithm", _one_of(*ALGORITHMS), None),
        "--truth": ("truth", float, None),
        **_TARGET_FLAGS,
        "--trials": ("trials", int, 100),
        **_REPORT_FLAGS,
        "--format": ("format", _one_of(*TRIAL_FORMATS), "json"),  # svg is for scale only
        "--bias-scale": ("bias_scale", float, None),
        "--tail-magnitude": ("tail_magnitude", float, None),
        "--config": ("config", str, None),  # flat key = value config file
    },
    "scale": {
        "--algorithm": ("algorithm", _one_of(*ALGORITHMS), "type1"),
        "--truth": ("truth", float, 0.3),
        # no --epsilon or --beta: each cell runs at its grid point's
        **{flag: _TARGET_FLAGS[flag] for flag in ("--delta", "--r", "--s", "--cap-C")},
        "--epsilon-grid": ("epsilon_grid", _float_list, [0.1, 0.05, 0.02, 0.01]),
        "--beta-grid": ("beta_grid", _float_list, [0.0, 0.25, 0.5, 0.75, 1.0]),
        **_REPORT_FLAGS,
    },
    "params": _TARGET_FLAGS,
}
_HELP_FLAGS = ("-h", "--help")


def usage(command: str | None) -> str:
    """The help text: the module's, or ``command``'s flags from its table."""
    if command is None:
        return (f"usage: lowdepth {{{','.join(FLAGS)}}} [flags]"
                f" (lowdepth <command> -h lists its flags)\n\n{__doc__}")
    lines = [f"usage: lowdepth {command} [--flag value | --flag=value ...]"]
    for flag, (_, convert, default) in FLAGS[command].items():
        shown = "" if default is None else f" (default {default})"
        lines.append(f"  {flag} {convert.__name__.lstrip('_')}{shown}")
    return "\n".join(lines)


def _converted(name: str, convert, text: str):
    """``convert(text)``; a value it refuses is a configuration error."""
    try:
        return convert(text)
    except ValueError as err:
        raise ConfigError(f"{name}: {err}") from err


def parse_argv(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """The command ``argv`` names and its settings: each flag as given (the
    last wins), else (``run`` only) its ``--config`` file entry, else its
    default.  A config key is its flag's destination (``cap_c`` for
    ``--cap-C``).  The settings are None where ``argv`` asks for help, as is
    the command where that is the top level's."""
    command, *rest = argv or [None]
    if command in _HELP_FLAGS:
        return None, None
    if command not in FLAGS:
        raise ConfigError(f"expected a command ({', '.join(FLAGS)}), got {command!r}")
    flags = FLAGS[command]
    given = {}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP_FLAGS:
            return command, None
        flag, has_value, text = token.partition("=")
        if flag not in flags:
            raise ConfigError(f"unknown {command} flag {flag!r} (flags are spelled out in full)")
        dest, convert, _ = flags[flag]
        if not has_value:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ConfigError(f"{flag} needs a value")
        given[dest] = _converted(flag, convert, text)
    if "config" in given:
        keys = {dest: convert for dest, convert, _ in flags.values() if dest != "config"}
        entries = load_config_file(given["config"])
        unknown = set(entries) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config file keys: {sorted(unknown)}")
        # every entry is checked, even one the command line overrides
        for key, text in entries.items():
            given.setdefault(key, _converted(f"config file value for {key!r}", keys[key], text))
    return command, SimpleNamespace(**{dest: given.get(dest, default)
                                       for dest, _, default in flags.values()})


# Settings passed to the harness as estimator constants, by constant name.
_CONSTANT_KEYS = {"r": "r", "s": "s", "cap_c": "C", "bias_scale": "bias_scale",
                  "tail_magnitude": "tail_magnitude"}


def _target(args) -> TargetSpec:
    try:
        return TargetSpec(args.epsilon, args.delta, args.beta)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _constants(args) -> dict:
    return {name: getattr(args, key) for key, name in _CONSTANT_KEYS.items()
            if getattr(args, key, None) is not None}


def _cmd_run(args) -> int:
    if args.algorithm is None or args.truth is None:
        raise ConfigError("--algorithm and --truth are required (flag or config file)")
    config = ExperimentConfig(args.algorithm, args.truth, _target(args), _constants(args),
                              args.trials, args.seed)
    report = run_experiment(config)
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
    study = scaling_study(args.algorithm, args.truth, args.delta, args.epsilon_grid,
                          args.beta_grid, _constants(args), args.seed)
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


def _charged_depth(plan, cost, target) -> int:
    """The depth ``cost`` charges the deepest run of ``plan``: a trial's ``max_depth``."""
    return max(cost.depth_fn(contract) for _, contract, _ in plan.stages(target))


def _cmd_params(args) -> int:
    target, constants = _target(args), _constants(args)
    # every line is built before the first is printed, so an error prints
    # nothing; phase and Rall-Fuller may be out of range where the others run
    plan1 = ALGORITHMS["type1"].build_plan(target, constants)
    plan2 = ALGORITHMS["type2"].build_plan(target, constants)
    # printed beside the estimator knobs: the depth the ledger charges, its contract's, not theirs
    register_charges = f"type2={_charged_depth(plan2, blackbox.UQAE2_COST, target)}"
    try:
        phase_plan = ALGORITHMS["phase"].build_plan(target, constants)
    except ConfigError as err:
        phase_line = f"circular phase plan:   cannot run: {err.__cause__}"
    else:
        register_charges += f" phase={_charged_depth(phase_plan, blackbox.UQPE2_COST, target)}"
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
        rf_line = f"Rall-Fuller plan:      {rf_plan.summary()}"
    type1_charge = _charged_depth(plan1, blackbox.UQAE1_COST, target)
    amp = blackbox.cornelissen_amp_params(target)
    phase = blackbox.cornelissen_phase_params(target)
    register = blackbox.apeldoorn_phase_params(target)
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
    print(
        f"amplitude estimator knobs:  depth_scale={amp.depth_scale:.6g} "
        f"bias_bound={amp.bias_bound:.6g} (bias<= {amp.implied_bias_bound:.6g}, "
        f"variance<= {amp.implied_variance_bound:.6g}) | charged max_depth: "
        f"type1={type1_charge}"
    )
    print(
        f"phase estimator knobs:      depth_scale={phase.depth_scale:.6g} "
        f"bias_bound={phase.bias_bound:.6g}"
    )
    print(
        f"register phase estimator:   m={register.m:.6g} n={register.n} "
        f"depth_scale={register.depth_scale} | charged max_depth: {register_charges}"
    )
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    handlers = {
        "run": _cmd_run,
        "scale": _cmd_scale,
        "params": _cmd_params,
    }
    try:
        command, args = parse_argv(argv)
        if args is None:
            print(usage(command))
            return 0
        out = getattr(args, "out", None)  # checked before any trial or cell
        if out is not None and (not out or Path(out).is_dir() or not Path(out).parent.is_dir()):
            raise ConfigError(f"--out {out!r} is not a file in an existing directory")
        return handlers[command](args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError) as err:
        print(f"algorithm error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

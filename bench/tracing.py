"""Span tracing of lowdepth's layers, patched on from outside the package.

Each wrapped entry point records a span (name, start, end, parent, trial).
A wrapper is installed where the caller looks the function up: a name
imported with ``from .core import derive_stream`` is a separate binding in
every importing module, so each of those bindings is replaced.  The trial id
is the ``stream_index`` of the seed passed to the top-level estimate call;
spans outside any estimate carry -1.
"""

from __future__ import annotations

import gzip
import time
from array import array
from functools import wraps
from pathlib import Path

from lowdepth import aggregate, blackbox, circphase, cli, core, harness, oracle, rallfuller

SPAN_NAMES = (
    "core.rng", "core.derive_stream", "core.charge", "blackbox.sample", "aggregate",
    "circphase.estimate", "oracle.poly_oracle", "oracle.poly_sample", "rallfuller.estimate",
    "rallfuller.rf_params", "rallfuller.semi_pellian", "rallfuller.erf_poly",
    "harness.run_experiment", "harness.scaling_study", "harness.export", "cli.main",
)
_ID = {name: index for index, name in enumerate(SPAN_NAMES)}

# (span name, function, bindings that callers look it up through).
_DERIVE_USERS = (core, aggregate, circphase, harness, rallfuller, cli)
_TARGETS = (
    ("core.rng", core.SeedSpec.rng, [(core.SeedSpec, "rng")]),
    ("core.derive_stream", core.derive_stream, [(m, "derive_stream") for m in _DERIVE_USERS]),
    ("core.charge", core.ResourceLedger.charge, [(core.ResourceLedger, "charge")]),
    *(("blackbox.sample", getattr(blackbox, name), [(blackbox, name)])
      for name in ("synth_uqae1_sample", "synth_uqae2_sample", "synth_uqpe2_sample")),
    *(("aggregate", getattr(aggregate, name), [(aggregate, name)])
      for name in ("aggregate_type1", "aggregate_type2")),
    ("circphase.estimate", circphase.lowdepth_phase_estimate,
     [(circphase, "lowdepth_phase_estimate")]),
    ("oracle.poly_oracle", oracle.PolyOracle.__init__, [(oracle.PolyOracle, "__init__")]),
    ("oracle.poly_sample", oracle.poly_sample, [(oracle, "poly_sample"), (rallfuller, "poly_sample")]),
    ("rallfuller.estimate", rallfuller.rall_fuller_estimate,
     [(rallfuller, "rall_fuller_estimate")]),
    ("rallfuller.rf_params", rallfuller.rf_params, [(rallfuller, "rf_params")]),
    ("rallfuller.semi_pellian", rallfuller.semi_pellian, [(rallfuller, "semi_pellian")]),
    # _erf_poly_cached calls the global name, so this counts real constructions.
    ("rallfuller.erf_poly", rallfuller.erf_poly, [(rallfuller, "erf_poly")]),
    ("harness.run_experiment", harness.run_experiment, [(cli, "run_experiment")]),
    ("harness.scaling_study", harness.scaling_study, [(cli, "scaling_study")]),
    ("harness.export", harness.export_report, [(cli, "export_report"), (harness, "export_report")]),
    ("cli.main", cli.main, [(cli, "main")]),
)
_TRIAL_ROOTS = {"aggregate", "circphase.estimate", "rallfuller.estimate"}


class Tracer:
    """Records spans in flat arrays and keeps per-name self time and counts.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.
    """

    def __init__(self) -> None:
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.total_s = [0.0] * len(SPAN_NAMES)
        self.counters = {"draws": 0, "shots": 0, "aborts": 0, "low_depth": 0,
                         "new_keys": 0, "export_bytes": 0}
        self._seen_keys: set = set()
        self._stack: list[list] = []  # [span index, child seconds]
        self._current_trial = -1
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, function, bindings in _TARGETS:
            wrapper = self._wrap(name, function)
            for owner, attr in bindings:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, function):
        name_id = _ID[name]
        trial_root = name in _TRIAL_ROOTS
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        stack = self._stack
        clock = time.perf_counter

        @wraps(function)
        def wrapper(*args, **kwargs):
            opened_trial = trial_root and self._current_trial < 0
            if opened_trial:
                self._current_trial = kwargs["seed"].stream_index
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.trial.append(self._current_trial)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.start[index] = start
                self.end[index] = end
                self.calls[name_id] += 1
                self.self_s[name_id] += duration - frame[1]
                self.total_s[name_id] += duration
                if opened_trial:
                    self._current_trial = -1
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    # Per-layer counters, observed from each call's arguments and result.
    def _observe_blackbox_sample(self, result, args, kwargs) -> None:
        self.counters["draws"] += kwargs.get("size") or 1

    def _observe_circphase_estimate(self, result, args, kwargs) -> None:
        self.counters["aborts"] += result.value == 0.0

    def _observe_oracle_poly_sample(self, result, args, kwargs) -> None:
        self.counters["shots"] += args[1]

    def _observe_rallfuller_rf_params(self, result, args, kwargs) -> None:
        self.counters["low_depth"] += result.branch == rallfuller.BRANCH_LOW_DEPTH

    def _observe_rallfuller_semi_pellian(self, result, args, kwargs) -> None:
        tau, eta, k, interval, gamma = args
        key = (tau, eta, k, interval.a_min, interval.width, gamma)
        if key not in self._seen_keys:
            self._seen_keys.add(key)
            self.counters["new_keys"] += 1

    def _observe_harness_export(self, result, args, kwargs) -> None:
        self.counters["export_bytes"] += Path(result).stat().st_size

    def runs_under_aggregate(self) -> int:
        """Black-box samples whose direct parent span is an aggregate call."""
        sample, agg = _ID["blackbox.sample"], _ID["aggregate"]
        return sum(
            1 for name, parent in zip(self.name, self.parent)
            if name == sample and parent >= 0 and self.name[parent] == agg
        )

    def write_spans(self, path: Path, origin: float) -> None:
        """Write every span as gzipped CSV, times relative to ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("span,name,start_s,end_s,parent,trial\n")
            for index, (name, start, end, parent, trial) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.trial)
            ):
                out.write(f"{index},{SPAN_NAMES[name]},{start - origin:.9f},"
                          f"{end - origin:.9f},{parent},{trial}\n")

    def summary(self) -> dict:
        """Per-layer figures for one traced job (summed over its reports)."""
        return {
            "calls": dict(zip(SPAN_NAMES, self.calls)),
            "self_s": dict(zip(SPAN_NAMES, self.self_s)),
            "total_s": dict(zip(SPAN_NAMES, self.total_s)),
            "counters": dict(self.counters, aggregate_runs=self.runs_under_aggregate()),
        }

"""lowdepth benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload mean-agg --seed 1 --seconds 40 --trace 0

The run repeats passes of the workload (see workloads.py), each job of a
pass in a fresh interpreter (worker.py), until the time is up, and reports
medians over passes.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` every job runs twice, untraced and then traced, and it
prints the per-layer metrics.  The last line of standard output is one JSON
object; the lines before it name each metric with its unit.  Exits non-zero
without a result when the program cannot be imported or a job crashes.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, pass_jobs

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"

# A job is at most about 15 s of work even on a slow host; far beyond that it
# hangs, and the run must still end well within its 180 s limit.
JOB_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "trials_per_s": "1/s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A job could not run: the benchmark prints no result."""


def run_job(spec: dict) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)], cwd=BENCH.parent,
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"job {spec} timed out after {JOB_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"job {spec} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> list:
    """Passes until ``seconds`` would be exceeded (at least one).  Each pass is
    a list of jobs; a job is [untraced result] or [untraced, traced]."""
    passes = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        index = len(passes)
        jobs = []
        for job in range(len(pass_jobs(workload, seed, index, tiny))):
            spec = {"workload": workload, "seed": seed, "pass": index, "job": job,
                    "trace": False, "tiny": tiny}
            runs = [run_job(spec)]
            if trace:
                spans = f"{workload}-job{job}.spans.csv.gz" if index == 0 else None
                runs.append(run_job(dict(spec, trace=True, spans=spans)))
            jobs.append(runs)
        passes.append(jobs)
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return passes


def _failures(passes: list) -> tuple[int, int, list[str]]:
    """(attempted trials, failed trials, messages).  A report fails on a
    non-zero exit, a failed gate, or traced bytes differing from untraced."""
    attempted = failed = 0
    messages = []
    for jobs in passes:
        for runs in jobs:
            for reports in zip(*(run["reports"] for run in runs)):
                untraced_digest = reports[0]["digest"]
                for report in reports:
                    problems = list(report["problems"])
                    if report["digest"] != untraced_digest:
                        problems.append("traced report bytes differ from the untraced run")
                    attempted += report["trials"]
                    if problems:
                        failed += report["trials"]
                        messages += [f"{report['label']}: {p}" for p in problems]
    return attempted, failed, messages


def end_to_end(passes: list, normalise: bool = True) -> dict:
    """Medians over passes.  Times are at the nominal host speed (see
    worker.py) unless ``normalise`` is false."""
    untraced = [[runs[0] if normalise else runs[0]["measured"] for runs in jobs]
                for jobs in passes]
    walls = [sum(job["wall_s"] for job in jobs) for jobs in untraced]
    trials = [sum(r["trials"] for runs in jobs for r in runs[0]["reports"]) for jobs in passes]
    return {
        "setup_s": statistics.median(job["setup_s"] for jobs in untraced for job in jobs),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(job["cpu_s"] for job in jobs) for jobs in untraced),
        "trials_per_s": statistics.median(n / wall for n, wall in zip(trials, walls)),
        "peak_rss_mb": statistics.median(max(runs[0]["rss_mb"] for runs in jobs)
                                         for jobs in passes),
    }


def per_layer(passes: list) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced jobs, as means per pass, with times
    divided by each job's host speed factor."""
    traced = [runs[1] for jobs in passes for runs in jobs]
    count = len(passes)

    def total(section: str, name: str, timed: bool = False) -> float:
        return sum(job["layers"][section][name] / (job["speed"] if timed else 1.0)
                   for job in traced) / count

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    calls = functools.partial(total, "calls")
    self_s = functools.partial(total, "self_s", timed=True)
    counter = functools.partial(total, "counters")
    traced_wall = sum(job["wall_s"] for job in traced) / count
    untraced_wall = sum(runs[0]["wall_s"] for jobs in passes for runs in jobs) / count
    # Coverage compares raw times of the same jobs, so no speed factor enters.
    coverage = (sum(sum(job["layers"]["self_s"].values()) for job in traced)
                / sum(job["measured"]["wall_s"] for job in traced))
    s, n, r = "s", "count", "ratio"
    return {
        "core.rng.calls": (calls("core.rng"), n),
        "core.rng.self_s": (self_s("core.rng"), s),
        "core.derive_stream.calls": (calls("core.derive_stream"), n),
        "core.derive_stream.self_s": (self_s("core.derive_stream"), s),
        "core.charge.calls": (calls("core.charge"), n),
        "core.charge.self_s": (self_s("core.charge"), s),
        "blackbox.sample.calls": (calls("blackbox.sample"), n),
        "blackbox.sample.draws": (counter("draws"), n),
        "blackbox.sample.self_s": (self_s("blackbox.sample"), s),
        "aggregate.calls": (calls("aggregate"), n),
        "aggregate.runs": (counter("aggregate_runs"), n),
        "aggregate.self_s": (self_s("aggregate"), s),
        "circphase.estimate.calls": (calls("circphase.estimate"), n),
        "circphase.estimate.self_s": (self_s("circphase.estimate"), s),
        "circphase.aborts": (counter("aborts"), n),
        "circphase.abort_frac": (ratio(counter("aborts"), calls("circphase.estimate")), r),
        "oracle.poly_oracle.calls": (calls("oracle.poly_oracle"), n),
        "oracle.poly_oracle.self_s": (self_s("oracle.poly_oracle"), s),
        "oracle.poly_sample.calls": (calls("oracle.poly_sample"), n),
        "oracle.poly_sample.shots": (counter("shots"), n),
        "oracle.poly_sample.self_s": (self_s("oracle.poly_sample"), s),
        "rallfuller.estimate.calls": (calls("rallfuller.estimate"), n),
        "rallfuller.estimate.self_s": (self_s("rallfuller.estimate"), s),
        "rallfuller.steps": (calls("rallfuller.rf_params"), n),
        "rallfuller.low_depth_frac": (ratio(counter("low_depth"), calls("rallfuller.rf_params")), r),
        "rallfuller.semi_pellian.calls": (calls("rallfuller.semi_pellian"), n),
        "rallfuller.semi_pellian.self_s": (self_s("rallfuller.semi_pellian"), s),
        "rallfuller.semi_pellian.new_key_frac": (
            ratio(counter("new_keys"), calls("rallfuller.semi_pellian")), r),
        "rallfuller.erf_poly.calls": (calls("rallfuller.erf_poly"), n),
        "rallfuller.erf_poly.self_s": (self_s("rallfuller.erf_poly"), s),
        "harness.self_s": (self_s("harness.run_experiment") + self_s("harness.scaling_study"), s),
        "harness.export.calls": (calls("harness.export"), n),
        "harness.export.self_s": (self_s("harness.export"), s),
        "harness.export.bytes": (counter("export_bytes"), "B"),
        "cli.self_s": (self_s("cli.main"), s),
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall, r),
        "trace.coverage": (coverage, r),
    }


def north_star(passes: list) -> dict[str, float]:
    """The ROADMAP's headline figures: microseconds per SeedSpec.rng() and per
    black-box sample (traced jobs), and ms per trial per report (untraced)."""
    traced = [runs[1] for jobs in passes for runs in jobs if len(runs) > 1]
    figures = {}
    for key, name in (("rng_us", "core.rng"), ("sample_us", "blackbox.sample")):
        calls = sum(job["layers"]["calls"][name] for job in traced)
        if calls:
            figures[key] = 1e6 * sum(job["layers"]["total_s"][name] for job in traced) / calls
    per_trial: dict[str, list[float]] = {}
    for jobs in passes:
        for runs in jobs:
            for report in runs[0]["reports"]:
                per_trial.setdefault(report["algorithm"] if report["label"] != "scale" else "scale",
                                     []).append(1e3 * report["wall_s"] / report["trials"])
    for label, values in sorted(per_trial.items()):
        figures[f"{label}_ms_per_trial"] = statistics.median(values)
    return figures


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    passes = run_passes(workload, seed, seconds, trace, tiny)
    attempted, failed, messages = _failures(passes)
    measured = end_to_end(passes, normalise=False)
    if trace:
        metrics = per_layer(passes)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(passes).items()}
    shortfalls = [report["info"]["delta_shortfall"] for jobs in passes for runs in jobs
                  for report in runs[0]["reports"] if "delta_shortfall" in report["info"]]
    return {
        "passes": len(passes), "attempted": attempted, "failed": failed, "messages": messages,
        "metrics": metrics, "measured": measured,
        "speed": statistics.median(runs[0]["speed"] for jobs in passes for runs in jobs),
        "north_star": north_star(passes),
        "type1_delta_shortfall": statistics.median(shortfalls) if shortfalls else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload}: seed {args.seed}, {result['passes']} passes, "
          f"{attempted} trials attempted")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  [host] speed factor {result['speed']:.4g} (reference kernel time / nominal); "
          f"unnormalised: " + ", ".join(f"{name} {value:.4g}"
                                        for name, value in result["measured"].items()))
    print(f"  failed_frac = {failed / attempted:.6g} ratio")
    for name, value in result["north_star"].items():
        print(f"  [north star] {name} = {value:.4g}")
    if result["type1_delta_shortfall"] is not None:
        print(f"  [info] type1 success shortfall against 1 - delta = "
              f"{result['type1_delta_shortfall']:.4g} (not gated; type1 ignores delta)")
    for message in result["messages"]:
        print(f"  FAILED {message}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark job in a fresh interpreter.

Imports lowdepth from the checkout's ``src/``, builds the job's reports,
runs each through ``lowdepth.cli.main`` in-process (optionally traced),
gates the exported files, and prints one JSON line of measurements.

    python3 bench/worker.py '{"workload": "mean-agg", "seed": 1, "pass": 0,
                              "job": 0, "trace": false, "tiny": false}'
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
SPANS = BENCH / ".out"

# The host's speed drifts by tens of percent within minutes on a shared
# machine, far more than the effects the benchmark must resolve.  A fixed
# reference kernel is timed before the first report and after each one; a
# speed factor is its median time over REFERENCE_SAMPLES runs divided by
# REFERENCE_NOMINAL_S.  Each report's times are divided by the mean factor
# of the probes on either side of it, and set-up by the first probe, giving
# seconds at a nominal speed.  The kernel mixes the two kinds of work
# lowdepth does: building small numpy generators in a Python loop, and dense
# Chebyshev evaluation.
REFERENCE_NOMINAL_S = 0.040
REFERENCE_SAMPLES = 3


def import_cli():
    """Import lowdepth from this checkout only, never from an installed copy."""
    package = SRC / "lowdepth"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"worker: no lowdepth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lowdepth.cli

    if Path(lowdepth.__file__).resolve().parent != package:
        raise SystemExit(f"worker: imported lowdepth from {lowdepth.__file__}, not {package}")
    return lowdepth.cli


def reference_kernel() -> float:
    """Wall seconds of one fixed unit of reference work (about 40 ms)."""
    import numpy as np

    grid = np.linspace(-1.0, 1.0, 20001)
    series = np.full(64, 1.0 / 64)
    started = time.perf_counter()
    total = 0.0
    for index in range(1000):
        total += float(np.random.default_rng((12345, index)).integers(0, 2, size=1)[0])
    for _ in range(5):
        total += float(np.polynomial.chebyshev.chebval(grid, series)[0])
    return time.perf_counter() - started


def probe_speed() -> float:
    """Host speed factor now: above 1 when the host runs slower than nominal."""
    return statistics.median(reference_kernel() for _ in range(REFERENCE_SAMPLES)) / (
        REFERENCE_NOMINAL_S
    )


def run_job(spec: dict) -> dict:
    cli = import_cli()
    import gate
    import tracing
    from workloads import pass_jobs

    reports = pass_jobs(spec["workload"], spec["seed"], spec["pass"], spec["tiny"])[spec["job"]]
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    outputs = [workdir / f"{report.label}.{report.fmt}" for report in reports]
    setup_s = time.perf_counter() - STARTED

    tracer = tracing.Tracer() if spec["trace"] else None
    codes, walls, cpus = [], [], []
    speeds = [probe_speed()]
    with tracer or contextlib.nullcontext():
        timed_start = time.perf_counter()
        for report, out in zip(reports, outputs):
            started, cpu_started = time.perf_counter(), time.process_time()
            try:
                code = cli.main(report.argv(str(out)))
            except Exception:  # an uncaught crash fails the report, not the job
                traceback.print_exc()
                code = -1
            walls.append(time.perf_counter() - started)
            cpus.append(time.process_time() - cpu_started)
            codes.append(code)
            speeds.append(probe_speed())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = []
    report_speeds = [(before + after) / 2.0 for before, after in zip(speeds, speeds[1:])]
    for report, out, code, wall in zip(reports, outputs, codes, walls):
        if code != 0:
            verdict = gate.Verdict([f"lowdepth exited with code {code}"])
        else:
            verdict = gate.check_report(report, out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else None
        results.append({
            "label": report.label, "algorithm": report.algorithm,
            "trials": report.counted_trials, "wall_s": wall, "digest": digest,
            "problems": verdict.problems, "info": verdict.info,
        })
    layers = None
    if tracer is not None:
        layers = tracer.summary()
        if spec.get("spans"):
            tracer.write_spans(SPANS / spec["spans"], timed_start)
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setup_s": setup_s / speeds[0],
        "wall_s": sum(wall / speed for wall, speed in zip(walls, report_speeds)),
        "cpu_s": sum(cpu / speed for cpu, speed in zip(cpus, report_speeds)),
        "measured": {"setup_s": setup_s, "wall_s": sum(walls), "cpu_s": sum(cpus)},
        "speed": statistics.fmean(speeds), "rss_mb": rss_mb, "reports": results, "layers": layers,
    }


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))

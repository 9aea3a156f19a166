"""Regenerate bench/baseline.json: every workload measured untraced and
traced at one seed, the ROADMAP north-star figures taken from those runs,
and the machine they ran on.

    python3 bench/baseline.py --seed 1 --seconds 40
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy
import scipy

from run import measure
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent

# The ROADMAP's re-anchor figures (2 CPUs, Python 3.11.7, numpy 2.4.6).
ROADMAP_NORTH_STAR = {
    "rng_us": 22.0, "sample_us": 40.0, "type1_ms_per_trial": 19.0,
    "type2_ms_per_trial": 69.0, "phase_ms_per_trial": 180.0, "rallfuller_ms_per_trial": 90.0,
}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    workloads = {}
    north_star = {}
    for workload in WORKLOADS:
        untraced = measure(workload, args.seed, args.seconds, trace=False)
        traced = measure(workload, args.seed, args.seconds, trace=True)
        if untraced["failed"] or traced["failed"]:
            print(f"{workload}: {untraced['messages'] + traced['messages']}", file=sys.stderr)
            return 1
        workloads[workload] = {
            "passes": untraced["passes"],
            "attempted": untraced["attempted"],
            "failed_frac": untraced["failed"] / untraced["attempted"],
            "end_to_end": {name: value for name, (value, _) in untraced["metrics"].items()},
            "per_layer": {name: value for name, (value, _) in traced["metrics"].items()},
            "type1_delta_shortfall": untraced["type1_delta_shortfall"],
        }
        # Per-sample figures come from the traced run, per-trial figures from
        # the untraced one; mean-agg is the workload the sample figures name.
        figures = dict(traced["north_star"], **untraced["north_star"])
        for key, value in figures.items():
            if key.endswith("_ms_per_trial") or workload == "mean-agg":
                north_star.setdefault(key, value)
    record = {
        "machine": {
            "cpu": _cpu_model(), "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": workloads,
        "north_star": north_star,
        "north_star_vs_roadmap": {
            key: north_star[key] / reference - 1.0
            for key, reference in ROADMAP_NORTH_STAR.items() if key in north_star
        },
    }
    (BENCH / "baseline.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record["north_star_vs_roadmap"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

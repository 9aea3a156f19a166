"""Workload inputs: the `lowdepth` CLI reports each benchmark pass runs.

Every input is a pure function of (workload, seed, pass index), so the same
seed always yields the same reports.  A pass is split into jobs; each job runs
in a fresh interpreter, which keeps the polynomial caches of `rf-shrink` cold
exactly as they are for any single `lowdepth run` invocation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("mean-agg", "phase-arc", "rf-shrink")

README_EPSILON_GRID = (0.1, 0.05, 0.02, 0.01)
README_BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# Trials per report at full size.  On a 2-CPU Xeon a pass takes about 2.5 s
# of timed work for mean-agg and phase-arc, and 3 fresh interpreters of
# 2.5-5 s each for rf-shrink (the cold first trial dominates, so more trials
# add little), so a run holds several passes and reports their median.
TYPE1_TRIALS = 80
TYPE2_TRIALS = 20
PHASE_TRIALS = 10
RF_TRIALS = 16

# rf-shrink's truths are fixed, one at the centre of each third of
# (0.05, 0.95); the seed drives only the master seeds (the coin outcomes).
# A report's cost jumps by up to 2x between truths 0.01 apart, because the
# set of erf approximants built depends on where trials cross to the shallow
# branch, while at a fixed truth it varies by about 5 % over master seeds.
# Seeded truths would let the seed, not the program, set the figure.
RF_TRUTHS = (0.2, 0.5, 0.8)


@dataclass(frozen=True)
class Report:
    """One `lowdepth run` or `lowdepth scale` invocation and its parameters."""

    label: str
    command: str
    algorithm: str
    truth: float
    epsilon: float
    delta: float
    beta: float
    trials: int
    master_seed: int
    fmt: str = "json"
    epsilon_grid: tuple[float, ...] = ()
    beta_grid: tuple[float, ...] = ()

    @property
    def counted_trials(self) -> int:
        """Trials this report contributes; a scale cell runs one trial."""
        if self.command == "scale":
            return len(self.epsilon_grid) * len(self.beta_grid)
        return self.trials

    def argv(self, out: str) -> list[str]:
        common = ["--truth", repr(self.truth), "--delta", repr(self.delta),
                  "--seed", str(self.master_seed), "--out", out, "--format", self.fmt]
        if self.command == "scale":
            return ["scale", "--algorithm", self.algorithm, *common,
                    "--epsilon-grid", ",".join(map(repr, self.epsilon_grid)),
                    "--beta-grid", ",".join(map(repr, self.beta_grid))]
        return ["run", "--algorithm", self.algorithm, *common,
                "--epsilon", repr(self.epsilon), "--beta", repr(self.beta),
                "--trials", str(self.trials)]


def _trials(full: int, tiny: bool) -> int:
    return 1 if tiny else full


def _mean_agg(rng: random.Random, tiny: bool) -> list[list[Report]]:
    # type2's good branch reaches truth + eps^(1-beta), which must stay under
    # the output cap 1; type1 and the type1 sweep accept any truth in [0, 1].
    type2_precision = 0.02 ** (1.0 - 0.5)
    type1 = Report("type1", "run", "type1", rng.uniform(0.0, 1.0), 0.05, 0.05, 1.0,
                   _trials(TYPE1_TRIALS, tiny), rng.randrange(2**31))
    type2 = Report("type2", "run", "type2", rng.uniform(0.0, 1.0 - type2_precision), 0.02, 0.1,
                   0.5, _trials(TYPE2_TRIALS, tiny), rng.randrange(2**31))
    scale = Report("scale", "scale", "type1", rng.uniform(0.0, 1.0), 0.05, 0.1, 0.5, 1,
                   rng.randrange(2**31), fmt="svg",
                   epsilon_grid=(0.1, 0.05) if tiny else README_EPSILON_GRID,
                   beta_grid=(0.0, 1.0) if tiny else README_BETA_GRID)
    return [[type1, type2, scale]]


def _phase_arc(rng: random.Random, tiny: bool) -> list[list[Report]]:
    epsilon = 0.01
    uniform = rng.uniform(0.0, 2.0 * math.pi)
    # Within epsilon of 0 (mod 2 pi): an aborted trial, returned as angle 0,
    # would pass as a success here unless aborts are counted apart.
    wrap = rng.uniform(-0.999 * epsilon, 0.999 * epsilon) % (2.0 * math.pi)
    trials = _trials(PHASE_TRIALS, tiny)
    return [[
        Report("phase-uniform", "run", "phase", uniform, epsilon, 0.1, 0.5, trials,
               rng.randrange(2**31)),
        Report("phase-wrap", "run", "phase", wrap, epsilon, 0.1, 0.5, trials,
               rng.randrange(2**31)),
    ]]


def _rf_shrink(rng: random.Random, tiny: bool) -> list[list[Report]]:
    truths = RF_TRUTHS[:1] if tiny else RF_TRUTHS
    return [
        [Report(f"rallfuller-{index}", "run", "rallfuller", truth, 0.01, 0.05, 0.5,
                _trials(RF_TRIALS, tiny), rng.randrange(2**31))]
        for index, truth in enumerate(truths)
    ]


_BUILDERS = {"mean-agg": _mean_agg, "phase-arc": _phase_arc, "rf-shrink": _rf_shrink}


def pass_jobs(workload: str, seed: int, pass_index: int, tiny: bool = False) -> list[list[Report]]:
    """The reports of one pass, grouped into jobs (one interpreter each).

    ``tiny`` cuts every report to one trial and the sweep to a 2 x 2 grid,
    for the benchmark's own smoke tests.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}/{pass_index}"), tiny)

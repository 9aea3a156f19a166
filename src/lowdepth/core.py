"""Shared domain types, resource accounting and deterministic seeding.

Every stochastic operation in this package draws from a generator derived
from a :class:`SeedSpec`, so whole experiments are pure functions of a
master seed and can be replayed bit for bit.

Stream layout: trial (or scaling cell) i gets
``derive_stream(SeedSpec(master_seed, 0), i)``, and builds exactly one
generator, ``derive_stream(trial_seed, 0).rng()``.  Its stages draw from that
generator in a fixed order, each drawing all its runs in one batch, run i
taking the i-th element of each draw:

* a mean aggregation is one stage;
* phase estimation draws its reference run (``size=1``) and then its
  ``runs`` main runs;
* Rall-Fuller draws one head count per shrinking step, step 0 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Absolute tolerance used when comparing against analytic constants.
ABS_TOL = 1e-9

# Relative slack forgiving 1-ulp libm noise when a ceiling argument is
# analytically an integer (e.g. 0.1 ** -2 landing a hair above 100).
_CEIL_SLACK = 1e-9

_UINT64_SPAN = 2**64


class SimulationError(Exception):
    """Base class for errors raised by this package."""


def ceil_int(value: float) -> int:
    """Ceiling that absorbs sub-1e-9 relative floating-point overshoot."""
    if not math.isfinite(value):
        raise ValueError(f"cannot take ceiling of {value}")
    return math.ceil(value - _CEIL_SLACK * max(1.0, abs(value)))


@dataclass(frozen=True)
class Amplitude:
    """The unknown value in [0, 1] an amplitude-estimation run targets."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"amplitude must lie in [0, 1], got {self.value}")


@dataclass(frozen=True)
class TargetSpec:
    """Requested additive precision, failure probability and depth knob.

    ``beta`` interpolates between the full-depth regime (0) and the
    depth-one classical regime (1).
    """

    epsilon: float
    delta: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")


@dataclass
class ResourceLedger:
    """Per-run accounting of circuit depth and oracle queries.

    ``max_depth`` is the largest number of sequential oracle applications in
    any single circuit charged so far; ``total_queries`` sums applications
    over all shots.  Both only ever grow.
    """

    max_depth: int = 0
    total_queries: int = 0

    def __post_init__(self) -> None:
        if self.max_depth < 0 or self.total_queries < 0:
            raise ValueError("ledger counters must be nonnegative")

    def charge(self, depth: int, queries: int) -> None:
        if depth < 0 or queries < 0:
            raise ValueError("cannot charge negative resources")
        self.max_depth = max(self.max_depth, int(depth))
        self.total_queries += int(queries)


@dataclass(frozen=True)
class SeedSpec:
    """Address of one deterministic random stream.

    Identical (master_seed, stream_index) pairs reproduce bit-identical
    streams; distinct stream indices under one master seed give
    statistically independent streams.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < _UINT64_SPAN:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def rng(self) -> np.random.Generator:
        """Fresh generator for this stream (PCG64 behind a SeedSequence)."""
        return np.random.default_rng((self.master_seed, self.stream_index))


def derive_stream(seed: SeedSpec, child_index: int) -> SeedSpec:
    """Deterministic, injective child-stream derivation.

    The shifted Cantor pairing of (stream_index, child_index) addresses the
    child.  The pairing is bijective and its +1 shift keeps child indices
    strictly positive, so within the derivation tree rooted at stream 0
    every node, however deeply nested, has a distinct stream index.
    """
    if child_index < 0:
        raise ValueError("child_index must be nonnegative")
    s, c = seed.stream_index, child_index
    return SeedSpec(seed.master_seed, (s + c) * (s + c + 1) // 2 + c + 1)

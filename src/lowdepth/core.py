"""Shared domain types, resource accounting and deterministic seeding.

Every stochastic operation in this package draws from a generator derived
from a :class:`SeedSpec`, so whole experiments are pure functions of a
master seed and can be replayed bit for bit.

Stream layout: trial (or scaling cell) i gets
``derive_stream(SeedSpec(master_seed, 0), i)``, and builds exactly one
generator, ``derive_stream(trial_seed, 0).rng()``.  A synthetic trial's plan
lists its stages, each ``(name, contract, runs)`` and each a batch of
independent runs:

* a mean aggregation (type1, type2, monkey-demo) has one ``"aggregate"`` stage;
* phase estimation has a ``"reference"`` stage of one shallow run, then a
  ``"main"`` stage of ``runs`` runs.

:func:`lowdepth.blackbox.walk_stages` draws them from that generator in list
order, one sampler call per stage, telling the sampler the stage's name; the
sampler counts how many of the stage's runs landed on each outcome.
Rall-Fuller, whose steps depend on the path and so form no list, draws one
head count per shrinking step, step 0 first.
"""

from __future__ import annotations

import math
from collections import namedtuple

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


def plain_number(value):
    """A numpy scalar as the Python number it holds, which JSON and CSV write; else ``value``."""
    return value.item() if isinstance(value, np.generic) else value


def counted_sum(outcomes) -> float:
    """``math.fsum`` of the runs a list of ``(value, count)`` pairs holds, bit for bit:
    the exactly rounded sum of each float value taken count times.

    Finite values are each m / scale over one power-of-two ``scale``, so one int
    division rounds sum(count m) correctly, as in :func:`population_variance`.  While
    the runs' magnitudes sum below 2^1000, fsum's partials cannot overflow; past that,
    or with a value that is not finite, fsum sums the runs one by one.
    """
    if all(math.isfinite(value) for value, _ in outcomes):
        ratios = [(value.as_integer_ratio(), count) for value, count in outcomes]
        scale = max((denominator for (_, denominator), _ in ratios), default=1)
        weighted = [numerator * (scale // denominator) * count
                    for (numerator, denominator), count in ratios]
        if sum(map(abs, weighted)) < scale << 1000:
            return sum(weighted) / scale
    return math.fsum(value for value, count in outcomes for _ in range(count))


def population_variance(values) -> float:
    """``statistics.pvariance`` of finite floats, bit for bit, without its Fractions.

    Each value is m / scale over one power-of-two ``scale``, so the variance
    is (n sum m^2 - (sum m)^2) / (n scale)^2, and one int division rounds it
    correctly; a constant list gives exactly 0.0.
    """
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(denominator for _, denominator in ratios)
    scaled = [numerator * (scale // denominator) for numerator, denominator in ratios]
    count = len(scaled)
    return (count * sum(m * m for m in scaled) - sum(scaled) ** 2) / (count * scale) ** 2


class Amplitude(namedtuple("Amplitude", "value")):
    """The unknown value in [0, 1] an amplitude-estimation run targets."""

    __slots__ = ()

    def __new__(cls, value: float):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"amplitude must lie in [0, 1], got {value}")
        return super().__new__(cls, value)


class TargetSpec(namedtuple("TargetSpec", "epsilon delta beta")):
    """Requested additive precision, failure probability and depth knob.

    ``beta`` interpolates between the full-depth regime (0) and the
    depth-one classical regime (1).
    """

    __slots__ = ()

    def __new__(cls, epsilon: float, delta: float, beta: float):
        epsilon, delta, beta = map(plain_number, (epsilon, delta, beta))
        for name, value in zip(cls._fields, (epsilon, delta, beta)):
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {beta}")
        return super().__new__(cls, epsilon, delta, beta)


class ResourceLedger:
    """Per-run accounting of circuit depth and oracle queries.

    ``max_depth`` is the largest number of sequential oracle applications in
    any single circuit charged so far; ``total_queries`` sums applications
    over all shots.  Both start at zero and only ever grow.
    """

    __slots__ = ("max_depth", "total_queries")

    def __init__(self) -> None:
        self.max_depth, self.total_queries = 0, 0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.max_depth, self.total_queries) == (other.max_depth, other.total_queries)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(max_depth={self.max_depth}, "
                f"total_queries={self.total_queries})")

    def charge(self, depth: int, queries: int) -> None:
        if depth < 0 or queries < 0:
            raise ValueError("cannot charge negative resources")
        self.max_depth = max(self.max_depth, int(depth))
        self.total_queries += int(queries)


class SeedSpec(namedtuple("SeedSpec", "master_seed stream_index")):
    """Address of one deterministic random stream.

    Identical (master_seed, stream_index) pairs reproduce bit-identical
    streams; distinct stream indices under one master seed give
    statistically independent streams.
    """

    __slots__ = ()

    def __new__(cls, master_seed: int, stream_index: int = 0):
        if not 0 <= master_seed < _UINT64_SPAN:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if stream_index < 0:
            raise ValueError("stream_index must be nonnegative")
        return super().__new__(cls, master_seed, stream_index)

    def rng(self) -> np.random.Generator:
        """Fresh generator for this stream (PCG64 behind a SeedSequence)."""
        return np.random.default_rng((self.master_seed, self.stream_index))


def reduce_angle(angles):
    """Canonical representative(s) in [0, 2 pi), bit for bit float % then the fix below: an
    array for an array, and a float for a scalar, checked and reduced in Python floats."""
    values = np.asarray(angles, dtype=float)
    if values.ndim == 0:
        if not math.isfinite(values):
            raise ValueError(f"angle must be finite, got {angles}")
        reduced = values.item() % TWO_PI
    elif np.isfinite(values).all():
        reduced = np.fmod(values, TWO_PI)  # float % without its floor division
        reduced += TWO_PI * (reduced < 0)  # -0.0 becomes +0.0, as under float %
    else:
        raise ValueError(f"angle must be finite, got {angles}")
    # float modulo may round up to the divisor itself; that angle is 0
    return reduced - TWO_PI * (reduced >= TWO_PI)


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

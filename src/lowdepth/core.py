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
order, one sampler call per stage, telling the sampler the stage's name; run
i takes the i-th element of its stage's draw.  Rall-Fuller, whose steps
depend on the path and so form no list, draws one head count per shrinking
step, step 0 first.
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

# exact_sum's fast path: values scaled below 2^38 split into an integer limb and a
# 20-bit fraction limb, whose float sums stay exact while below 2^53, so for at most
# 2^15 values; below 512 values math.fsum is as fast.
_WHOLE_BITS, _FRACTION_BITS = 38, 20
_EXACT_SUM_COUNTS = range(512, 2**15 + 1)


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


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum`` of a 1-D float64 array, bit for bit: the exactly rounded sum.

    Values scaled by 2^shift (shift >= 0, a power of two, so exact) below 2^38
    split into an integer limb and a 20-bit fraction limb; numpy sums each
    limb exactly, and one Python int division by 2^(shift + 20) rounds the
    total correctly.  Non-finite, all-zero or too large values, a fraction
    limb that is not integral and a count outside the fast range take fsum.
    """
    if values.size not in _EXACT_SUM_COUNTS:
        return math.fsum(values.data)
    lo, hi = np.minimum.reduce(values), np.maximum.reduce(values)
    if not (-(2.0**_WHOLE_BITS) < lo and hi < 2.0**_WHOLE_BITS) or lo == hi == 0.0:
        return math.fsum(values.data)
    # capped so 2^shift stays finite; values that need more fail the limb check
    shift = min(_WHOLE_BITS - math.frexp(max(hi, -lo))[1], 1023)
    scaled = values * 2.0**shift
    whole = np.trunc(scaled)
    high = int(np.add.reduce(whole))
    scaled -= whole
    scaled *= 2.0**_FRACTION_BITS
    if np.count_nonzero(np.not_equal(np.trunc(scaled, out=whole), scaled)):
        return math.fsum(values.data)
    return ((high << _FRACTION_BITS) + int(np.add.reduce(scaled))) / (1 << (shift + _FRACTION_BITS))


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
    array for an array, and a float for a scalar, checked and reduced in Python floats.

    An array's min and max pick its path: wholly in [0, 2 pi) it comes back as a copy;
    wholly in (-2 pi, 4 pi) fmod's remainder is v, or v - 2 pi exactly (Sterbenz), so
    fmod is skipped; anything else, non-finite or empty included, takes fmod."""
    values = np.asarray(angles, dtype=float)
    if values.ndim == 0:
        if not math.isfinite(values):
            raise ValueError(f"angle must be finite, got {angles}")
        reduced = values.item() % TWO_PI
    else:
        # NaN bounds, an empty array's or any NaN's, fail both range tests
        lo, hi = ((np.minimum.reduce(values, axis=None), np.maximum.reduce(values, axis=None))
                  if values.size else (math.nan, math.nan))
        if 0.0 <= lo and hi < TWO_PI:
            return values + 0.0  # -0.0 made +0.0, as the fix-up below makes it
        if -TWO_PI < lo and hi < 2.0 * TWO_PI:
            reduced = values - TWO_PI * (values >= TWO_PI)
        elif np.isfinite(values).all():
            reduced = np.fmod(values, TWO_PI)  # float % without its floor division
        else:
            raise ValueError(f"angle must be finite, got {angles}")
        reduced += TWO_PI * (reduced < 0)
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

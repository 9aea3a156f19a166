"""Iterative amplitude estimation by confidence-interval shrinking.

Each step builds an even, unit-bounded polynomial that sits below 1/2 - gap
on the leftmost tenth of the current interval and above 1/2 + gap on the
rightmost tenth, plays it as a Bernoulli coin with head probability P(a)^2,
and discards whichever end the coin test rejects.  Step parameters follow
the corrected two-branch setting: a shallow branch whose polynomial scale
grows like width^(beta-1) once the interval midpoint is large enough, and a
full-depth fallback scaling like 1/width before that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as ncheb
from scipy.special import erf as _erf

from .core import ResourceLedger, SeedSpec, SimulationError, TargetSpec, ceil_int, derive_stream
from .oracle import PolyOracle, poly_sample

SHRINK_FACTOR = 0.9
DISCARD_FRACTION = 0.1

# Common prefactor of tau, eta and gamma in both parameter branches.
BASE_SCALE = 0.01

# The shallow branch requires width^beta at or below this cap, which keeps
# tau small enough that tau * kappa(tau) stays below BASE_SCALE.
LOW_DEPTH_WIDTH_CAP = 0.4

BRANCH_LOW_DEPTH = "low_depth"
BRANCH_FULL_DEPTH = "full_depth"

# erf approximants live on [-2, 2]: the assembled even polynomial is
# evaluated at a - mid and -a - mid for a in [-1, 1], mid in [0, 1].
_ERF_DOMAIN_HALF = 2.0

GRID_POINTS_PER_UNIT = 10_000
CERT_TOL = 1e-9
_DRIFT_TOL = 1e-12
_TRIM_TOL = 1e-13


class PolynomialConstructionError(SimulationError):
    """A certified polynomial could not be built within the degree cap."""


class GapCertificateError(SimulationError):
    """A constructed polynomial misses its required decision gap."""


def kappa(tau: float) -> float:
    """Placement scale 0.5 sqrt(2 ln(2 / (pi tau^2))) of the erf approximant."""
    if not 0.0 < tau < math.sqrt(2.0 / math.pi):
        raise ValueError(f"tau must lie in (0, sqrt(2/pi)), got {tau}")
    return 0.5 * math.sqrt(2.0 * math.log(2.0 / (math.pi * tau * tau)))


@dataclass(frozen=True)
class ConfidenceInterval:
    """Interval [a_min, a_min + width] tracked by the shrinking loop.

    The width is stored directly so that each shrink is a single float
    multiply and the factor 0.9 per step holds exactly.
    """

    a_min: float
    width: float

    def __post_init__(self) -> None:
        if self.a_min < 0.0 or self.width <= 0.0:
            raise ValueError("interval must satisfy a_min >= 0 and width > 0")
        if self.a_min + self.width > 1.0 + _DRIFT_TOL:
            raise ValueError("interval must stay inside [0, 1]")

    @property
    def a_max(self) -> float:
        return min(1.0, self.a_min + self.width)

    @property
    def a_mid(self) -> float:
        return self.a_min + 0.5 * self.width

    def _clipped(self, new_min: float, new_width: float) -> "ConfidenceInterval":
        overhang = new_min + new_width - 1.0
        if overhang > 0.0:
            if overhang > _DRIFT_TOL:
                raise SimulationError(f"interval drifted outside [0, 1] by {overhang}")
            new_min = 1.0 - new_width
        return ConfidenceInterval(new_min, new_width)

    def discard_left(self) -> "ConfidenceInterval":
        """Drop the leftmost tenth, keeping the right 90 percent."""
        return self._clipped(self.a_min + DISCARD_FRACTION * self.width, SHRINK_FACTOR * self.width)

    def discard_right(self) -> "ConfidenceInterval":
        """Drop the rightmost tenth, keeping the left 90 percent."""
        return self._clipped(self.a_min, SHRINK_FACTOR * self.width)


@dataclass(frozen=True)
class RfStepParams:
    """Per-step polynomial parameters (approximation accuracies tau and eta,
    decision gap gamma, erf scale k) plus the branch that produced them."""

    tau: float
    eta: float
    gamma: float
    k: float
    branch: str


def rf_params(interval: ConfidenceInterval, beta: float) -> RfStepParams:
    """Choose step parameters for the current interval.

    The shallow branch applies when the midpoint clears width^(1-beta) / 2
    and width^beta is at most 0.4; the construction's preconditions
    (k in [1, 2/width], midpoint at least kappa/k on the shallow branch)
    are re-asserted because a violation would invalidate the gap argument.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    width, a_mid = interval.width, interval.a_mid
    if a_mid >= 0.5 * width ** (1.0 - beta) and width**beta <= LOW_DEPTH_WIDTH_CAP:
        scale = BASE_SCALE * width**beta
        params = RfStepParams(scale, scale, scale, 2.0 * kappa(scale) * width ** (beta - 1.0), BRANCH_LOW_DEPTH)
    else:
        params = RfStepParams(
            BASE_SCALE, BASE_SCALE, BASE_SCALE, 0.5 * kappa(BASE_SCALE) / width, BRANCH_FULL_DEPTH
        )
    if params.k < 1.0 - CERT_TOL or params.k > (2.0 / width) * (1.0 + CERT_TOL):
        raise SimulationError(
            f"erf scale k={params.k} left [1, 2/width] on the {params.branch} branch"
        )
    if params.branch == BRANCH_LOW_DEPTH and a_mid < kappa(params.tau) / params.k - CERT_TOL:
        raise SimulationError("midpoint precondition violated on the shallow branch")
    return params


@dataclass(frozen=True)
class ErfApproximant:
    """Odd polynomial approximating erf(scale x) on [-2, 2].

    Held as a Chebyshev series (argument scaled to [-1, 1]) because power
    basis coefficients of the degrees needed here overflow and cancel
    catastrophically.
    """

    coefficients: tuple[float, ...]
    scale: float
    accuracy: float
    # Bound on |e - erf(scale x)| over [-2, 2]: the full interpolant's error,
    # measured on the dense grid, plus the absolute sum of the dropped
    # Chebyshev terms, which bounds what dropping them costs.
    sup_error: float

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x):
        return ncheb.chebval(np.asarray(x, dtype=float) / _ERF_DOMAIN_HALF, self.coefficients)


def erf_poly(scale: float, accuracy: float, degree_cap: int = 4096) -> ErfApproximant:
    """Odd polynomial within ``accuracy`` of erf(scale x) on [-2, 2].

    Chebyshev interpolation with the even coefficients projected out, whose
    error ``full_error`` is measured once on the dense certification grid.
    Since |T_j| <= 1 on [-1, 1], dropping the terms above degree n moves the
    series by at most sum_{j>n} |c_j|, so the result is truncated to the
    smallest odd n with full_error + sum_{j>n} |c_j| <= accuracy, and that
    sum is its ``sup_error`` (Trefethen, ATAP, ch. 4 and 8).  Raises
    :class:`PolynomialConstructionError`, reporting the best error reached,
    if the degree cap is insufficient.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not 0.0 < accuracy < 1.0:
        raise ValueError("accuracy must lie in (0, 1)")
    # Certification grid at GRID_POINTS_PER_UNIT over the 4-unit domain,
    # expressed in the scaled variable t = x / 2.
    grid = np.linspace(-1.0, 1.0, 4 * GRID_POINTS_PER_UNIT + 1)
    target = _erf(scale * _ERF_DOMAIN_HALF * grid)

    fit_degree = 64
    while fit_degree < 4 * scale + 32:
        fit_degree *= 2
    best_error = math.inf
    while fit_degree <= degree_cap:
        coef = ncheb.chebinterpolate(lambda t: _erf(scale * _ERF_DOMAIN_HALF * t), fit_degree)
        coef[0::2] = 0.0
        full_error = float(np.max(np.abs(ncheb.chebval(grid, coef) - target)))
        best_error = min(best_error, full_error)
        # bound[n] = full_error + sum_{j>n} |c_j|, nonincreasing in n.
        bound = full_error + np.append(np.cumsum(np.abs(coef[:0:-1]))[::-1], 0.0)
        (fits,) = np.nonzero(bound[1::2] <= accuracy)
        if fits.size:
            degree = 2 * int(fits[0]) + 1
            truncated = tuple(float(c) for c in coef[: degree + 1])
            return ErfApproximant(truncated, scale, accuracy, float(bound[degree]))
        fit_degree *= 2
    raise PolynomialConstructionError(
        f"no odd polynomial of degree <= {degree_cap} reached accuracy {accuracy} "
        f"for erf({scale} x); best sup error {best_error}"
    )


@lru_cache(maxsize=256)
def _erf_poly_cached(scale: float, accuracy: float) -> ErfApproximant:
    return erf_poly(scale, accuracy)


@dataclass(frozen=True)
class GapCertificate:
    """Dense-grid extrema of the polynomial on the two decision segments."""

    left_max: float
    right_min: float
    gamma: float


@dataclass(frozen=True)
class SemiPellianPoly:
    """Even polynomial with |P| <= 1 on [-1, 1] and a decision gap.

    Coefficients are a Chebyshev series on [-1, 1]; parity is structural
    (odd-index entries are identically zero).  The unit bound is proved at
    construction by :func:`semi_pellian`, so :class:`~lowdepth.oracle.PolyOracle`
    does not re-check it.
    """

    coefficients: tuple[float, ...]
    degree: int
    gap_certificate: GapCertificate

    def evaluate(self, x):
        return ncheb.chebval(np.asarray(x, dtype=float), self.coefficients)


class GapEnvelope(NamedTuple):
    left_upper: float
    right_lower: float


def full_depth_gap_envelope(tau: float, eta: float) -> GapEnvelope:
    """Worst-case analytic gap endpoints for the full-depth branch.

    With k = kappa(tau) / (2 width), the exact-erf envelope of the
    assembled polynomial is largest on the left segment at its right edge
    with the interval flush against zero, and smallest on the right segment
    when the mirrored erf term is floored at -1.  These two constants bound
    the grid-measured gap certificate of every full-depth polynomial.
    """
    kap = kappa(tau)
    denominator = 4.0 * eta + tau + 2.0
    left_upper = (2.0 + 4.0 * eta + math.erf(-0.2 * kap) + math.erf(-0.3 * kap)) / denominator
    right_lower = (1.0 + math.erf(0.2 * kap)) / denominator
    return GapEnvelope(left_upper, right_lower)


def semi_pellian(
    tau: float, eta: float, k: float, interval: ConfidenceInterval, gamma: float
) -> SemiPellianPoly:
    """Even unit-bounded polynomial separating the interval's end segments.

    Assembles f0(a - mid) + f0(-a - mid) with
    f0(x) = (1 + eta + erf_poly(x)) / D, D = 4 eta + tau + 2.  The erf
    approximant e is odd and within eta of erf, and erf is increasing, so
    P(a) = (2 + 2 eta + e(a - mid) - e(a + mid)) / D lies in
    [0, (2 + 4 eta) / D] for |a| <= 1; trimming negligible coefficients
    moves P by at most their absolute sum, which the unit bound must absorb.
    The decision gap, P <= 1/2 - gamma on [a_min, a_min + width/10] and
    P >= 1/2 + gamma on [a_max - width/10, a_max], is certified on grids
    over the two segments.
    """
    return _semi_pellian_cached(tau, eta, k, gamma, interval.a_min, interval.width)


def _segment_grid(start: float, span: float) -> np.ndarray:
    points = max(33, ceil_int(span * GRID_POINTS_PER_UNIT) + 1)
    return np.linspace(start, start + span, points)


@lru_cache(maxsize=4096)
def _semi_pellian_cached(
    tau: float, eta: float, k: float, gamma: float, a_min: float, width: float
) -> SemiPellianPoly:
    erf_part = _erf_poly_cached(k, eta)
    a_mid = a_min + 0.5 * width
    denominator = 4.0 * eta + tau + 2.0

    def assembled(a):
        arr = np.asarray(a, dtype=float)
        return (
            (1.0 + eta + erf_part.evaluate(arr - a_mid))
            + (1.0 + eta + erf_part.evaluate(-arr - a_mid))
        ) / denominator

    # The sum of the two mirrored odd parts is an even polynomial of lower
    # degree, so interpolation at the erf approximant's degree is exact.
    coef = ncheb.chebinterpolate(assembled, erf_part.degree)
    coef[1::2] = 0.0
    keep = np.nonzero(np.abs(coef) > _TRIM_TOL * np.max(np.abs(coef)))[0]
    cut = keep[-1] + 1 if keep.size else 1
    bound = (2.0 + 4.0 * eta) / denominator + float(np.sum(np.abs(coef[cut:])))
    if bound > 1.0 + CERT_TOL:
        raise PolynomialConstructionError(
            f"assembled polynomial may exceed the unit bound: |P| <= {bound}"
        )
    coef = coef[:cut]

    segment = DISCARD_FRACTION * width
    left_max = float(np.max(ncheb.chebval(_segment_grid(a_min, segment), coef)))
    right_min = float(np.min(ncheb.chebval(_segment_grid(a_min + width - segment, segment), coef)))
    if left_max > 0.5 - gamma + CERT_TOL or right_min < 0.5 + gamma - CERT_TOL:
        raise GapCertificateError(
            f"decision gap violated: left max {left_max}, right min {right_min}, "
            f"required {0.5 - gamma} / {0.5 + gamma}"
        )
    return SemiPellianPoly(
        coefficients=tuple(float(c) for c in coef),
        degree=len(coef) - 1,
        gap_certificate=GapCertificate(left_max, right_min, gamma),
    )


def coin_tosses(gamma: float, fail_prob: float) -> int:
    """Tosses making the quarter-threshold test err with probability at most
    ``fail_prob`` under a gap of gamma around 1/2."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0.0 < fail_prob < 1.0:
        raise ValueError("fail_prob must lie in (0, 1)")
    return ceil_int(0.5 * gamma**-2 * math.log(1.0 / fail_prob))


def coin_test(heads: int, tosses: int, gamma: float) -> bool:
    """True when the head count clears tosses * (1/4 + gamma^2).

    For a coin with head probability x^2 and the toss count from
    :func:`coin_tosses`, the test returns true with probability >= 1 - delta
    when x >= 1/2 + gamma and <= delta when x <= 1/2 - gamma.
    """
    if not 0 <= heads <= tosses:
        raise ValueError("heads must lie in [0, tosses]")
    return heads >= tosses * (0.25 + gamma * gamma)


@dataclass(frozen=True)
class StepRecord:
    """Trace entry for one shrinking step (interval is pre-discard)."""

    step: int
    branch: str
    tau: float
    eta: float
    k: float
    gamma: float
    tosses: int
    heads: int
    poly_degree: int
    a_min: float
    width: float


def rall_fuller_estimate(
    oracle_factory: Callable[[SemiPellianPoly], PolyOracle],
    target: TargetSpec,
    *,
    seed: SeedSpec,
    ledger: ResourceLedger,
    trace: list[StepRecord] | None = None,
) -> float:
    """Run the interval-shrinking loop and return the final midpoint.

    ``oracle_factory`` turns each step's polynomial into a
    :class:`PolyOracle` carrying the hidden truth.  The loop runs
    ceil(log_0.9 epsilon) steps with per-step failure budget delta / steps;
    the returned midpoint is then within epsilon of the truth with
    probability at least 1 - delta.  ``trace`` (if given) receives one
    :class:`StepRecord` per step.
    """
    steps = ceil_int(math.log(target.epsilon) / math.log(SHRINK_FACTOR))
    step_fail = target.delta / steps
    interval = ConfidenceInterval(0.0, 1.0)
    for step in range(steps):
        params = rf_params(interval, target.beta)
        poly = semi_pellian(params.tau, params.eta, params.k, interval, params.gamma)
        tosses = coin_tosses(params.gamma, step_fail)
        oracle = oracle_factory(poly)
        heads = poly_sample(oracle, tosses, derive_stream(seed, step), ledger)
        truth_on_right = coin_test(heads, tosses, params.gamma)
        if trace is not None:
            trace.append(
                StepRecord(
                    step=step,
                    branch=params.branch,
                    tau=params.tau,
                    eta=params.eta,
                    k=params.k,
                    gamma=params.gamma,
                    tosses=tosses,
                    heads=heads,
                    poly_degree=poly.degree,
                    a_min=interval.a_min,
                    width=interval.width,
                )
            )
        interval = interval.discard_left() if truth_on_right else interval.discard_right()
    return interval.a_mid


class PhaseThreshold(NamedTuple):
    step_index: int
    epsilon_threshold: float


def phase_threshold(amplitude_value: float, beta: float) -> PhaseThreshold:
    """Step at which the loop can first take the shallow branch, and the
    precision below which it gets there before terminating.

    The shallow construction needs the midpoint to dominate
    width^(1 - beta), which for truth ``a`` happens once the width falls
    under a^(1/(1-beta)); targets coarser than that threshold keep the whole
    run on the full-depth branch.  beta = 1 is rejected (no finite
    threshold exists).
    """
    if not 0.0 < amplitude_value <= 1.0:
        raise ValueError("amplitude_value must lie in (0, 1]")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1) here")
    shrink_steps = ceil_int(math.log(amplitude_value) / math.log(SHRINK_FACTOR))
    return PhaseThreshold(
        ceil_int(shrink_steps / (1.0 - beta)),
        amplitude_value ** (1.0 / (1.0 - beta)),
    )

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
# Highest degree an erf approximant may take.
_DEGREE_CAP = 4096

CERT_TOL = 1e-9
_DRIFT_TOL = 1e-12
# Largest absolute coefficient sum a semi-Pellian may drop.  The FFT
# interpolation's rounding floor is about 1e-17 per coefficient, so even a
# tail of 500 floor-level entries stays far below it, and the kept degree
# follows the series' true decay.
_TRIM_BUDGET = 0.1 * CERT_TOL


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


def _parity_clenshaw(t, coefficients: tuple[float, ...], parity: int):
    """Chebyshev series ``coefficients`` at t in [-1, 1], given that only
    its entries of index ``parity`` mod 2 are nonzero.

    The even- and the odd-index T_k(t) each obey T_{k+2} = 2u T_k - T_{k-2}
    with u = T_2(t) = 2t^2 - 1, so one Clenshaw recurrence
    b_j = a_j + 2u b_{j+1} - b_{j+2} over the entries a_j = c_{2j+parity}
    sums the series in half the steps: to b_0 - u b_1 when even, and to
    t (b_0 - b_1) when odd, T_1 = t and T_3 = t (2u - 1) starting the odd
    sequence.  The recurrence runs in Reinsch's form about u = -1 (Oliver
    1977), carrying s_j = b_j + b_{j+1} = a_j + w b_{j+1} - s_{j+1} with
    w = 2u + 2 = 4t^2, so that nothing cancels in 2u + 2 near t = 0.  The
    sums are then a_0 + (w / 2) b_1 - s_1 and t (a_0 + (w - 2) b_1 - s_1).
    A 0-d t is summed in Python floats.
    """
    series = coefficients[parity::2]
    head, rest = series[0], series[:0:-1]
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = float(t)
        w = 4.0 * t * t
        s = b = 0.0
        for a in rest:
            s = a + w * b - s
            b = s - b
    else:
        w = 4.0 * t * t
        s, b, scratch = np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
        for a in rest:
            np.multiply(w, b, out=scratch)
            scratch += a
            np.subtract(scratch, s, out=s)
            np.subtract(s, b, out=b)
    return t * (head + (w - 2.0) * b - s) if parity else head + 0.5 * w * b - s


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
    # Proved bound on |e - erf(scale x)| over [-2, 2]: the absolute sum of
    # the exact series' terms above the degree (the computed ones summed, the
    # rest bounded geometrically) plus a worst-case bound, first order in
    # eps, on the computed coefficients' rounding.
    sup_error: float

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x):
        return _parity_clenshaw(np.asarray(x, dtype=float) / _ERF_DOMAIN_HALF, self.coefficients, 1)


def _amos_ratio(nu: float, z: float) -> float:
    """Upper bound z / (nu + 1/2 + sqrt((nu + 1/2)^2 + z^2)) on
    I_{nu+1}(z) / I_nu(z) (Amos 1974); it decreases in nu."""
    a = nu + 0.5
    return z / (a + math.sqrt(a * a + z * z))


def _scaled_bessel(z: float, top: int) -> tuple[np.ndarray, float]:
    """e^-z I_j(z) for j = 0..top by Miller's backward recurrence (DLMF 3.6),
    and a bound on their relative rounding error.

    The recurrence I_{j-1} = I_{j+1} + (2j / z) I_j runs on the ratios
    rho_j = I_j / I_{j-1} = z / (2j + z rho_{j+1}), which lie in (0, 1), so
    nothing overflows.  It starts from rho = 0 where Amos's bound has shrunk
    I_j by e^-45 beyond index ``top``; the start's error is damped by the
    square of that factor on the way down.  The products of ratios are then
    normalised by I_0 + 2 sum_{j>=1} I_j = e^z (DLMF 10.35.5).

    Rounding, to first order in eps: a relative error in rho_{j+1} reaches
    rho_j multiplied by rho_j rho_{j+1}, and each step adds at most 1.5 eps
    of its own, so rho_j is within 1.5 eps / (1 - w_j) of exact, w_j being
    the largest rho_i rho_{i+1} over i >= j.  Near j = 0 that is about
    z eps / 2 when z is large.  Each value is a product of at most all the
    ratios divided by a sum of as many such products, which doubles their
    summed error and adds one rounding per factor and term.
    """
    start, log_shrink = top, 0.0
    while log_shrink > -45.0:
        log_shrink += math.log(_amos_ratio(start, z))
        start += 1
    ratio, ratios = 0.0, np.empty(start)
    for j in range(start, 0, -1):
        ratio = z / (2.0 * j + z * ratio)
        ratios[j - 1] = ratio
    products = np.cumprod(ratios)
    scaled_i0 = 1.0 / (1.0 + 2.0 * float(np.sum(products)))
    eps = np.finfo(float).eps
    damping = np.maximum.accumulate((ratios * np.append(ratios[1:], 0.0))[::-1])[::-1]
    ratio_error = float(np.sum(1.5 * eps / (1.0 - damping)))
    rel_error = 2.0 * (ratio_error + start * eps) + 4.0 * eps
    return scaled_i0 * np.concatenate(([1.0], products[:top])), rel_error


def _erf_series(scale: float, terms: int) -> tuple[np.ndarray, float]:
    """Odd Chebyshev coefficients c_1, c_3, ..., c_{2 terms - 1} of
    erf(K t) on t in [-1, 1], K = 2 scale, and a bound on the absolute sum of
    what they leave out: the terms past them and their own rounding.

    Integrating the generating function e^{-z cos 2theta} =
    I_0(z) + 2 sum_j (-1)^j I_j(z) T_{2j} (DLMF 10.35.1, z = K^2 / 2) term
    by term gives the exact series, with
    c_{2j+1} = (2K / sqrt(pi)) (-1)^j e^-z (I_j(z) + I_{j+1}(z)) / (2j + 1).
    """
    big_k = _ERF_DOMAIN_HALF * scale
    z = 0.5 * big_k * big_k
    bessel, bessel_error = _scaled_bessel(z, terms)
    prefactor = 2.0 * big_k / math.sqrt(math.pi)
    j = np.arange(terms)
    odd = prefactor * np.where(j % 2, -1.0, 1.0) * (bessel[:-1] + bessel[1:]) / (2 * j + 1)
    # Past the computed terms, sum_{j>=terms} (I_j + I_{j+1}) is at most
    # I_terms (1 + r) / (1 - r), Amos's ratio bound r decreasing in j.
    r = _amos_ratio(terms, z)
    remainder = prefactor * bessel[terms] * (1.0 + r) / ((1.0 - r) * (2 * terms + 1))
    # Rounding: each coefficient carries the Bessel values' relative error
    # plus a few roundings of its own, and the tail sums over them add at
    # most ``terms`` more.
    eps = np.finfo(float).eps
    rounding = (bessel_error + (terms + 8) * eps) * float(np.sum(np.abs(odd)))
    return odd, remainder + rounding


def _sized_terms(scale: float, accuracy: float) -> int:
    """Series terms :func:`erf_poly` computes: two past the first j at which
    the remainder bound of :func:`_erf_series` for the terms from j on is at
    most accuracy / 4, e^-z I_j being bounded by the product of Amos's
    ratio bounds below j (and e^-z I_0 <= 1); at most ``_DEGREE_CAP // 2 + 1``.
    """
    big_k = _ERF_DOMAIN_HALF * scale
    z = 0.5 * big_k * big_k
    j_half = np.arange(_DEGREE_CAP // 2 + 1) + 0.5
    ratio = z / (j_half + np.sqrt(j_half * j_half + z * z))
    scaled_bessel = np.concatenate(([1.0], np.cumprod(ratio[:-1])))
    prefactor = 2.0 * big_k / math.sqrt(math.pi)
    remaining = prefactor * scaled_bessel * (1.0 + ratio) / ((1.0 - ratio) * 2.0 * j_half)
    (small,) = np.nonzero(remaining <= 0.25 * accuracy)
    return min(int(small[0]) + 2, j_half.size) if small.size else j_half.size


def erf_poly(scale: float, accuracy: float) -> ErfApproximant:
    """Odd polynomial within ``accuracy`` of erf(scale x) on [-2, 2].

    The exact Chebyshev series of erf (see :func:`_erf_series`) truncated:
    since |T_j| <= 1 on [-1, 1], dropping the terms above degree n costs at
    most sum_{j>n} |c_j|, so the result is the smallest odd n whose tail
    bound fits ``accuracy``, and that bound is its ``sup_error``.  The
    series is computed to the length :func:`_sized_terms` predicts, and to
    ``_DEGREE_CAP // 2 + 1`` terms if no degree of that fits.  Raises
    :class:`PolynomialConstructionError`, reporting the best bound reached,
    if no degree up to ``_DEGREE_CAP`` fits.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not 0.0 < accuracy < 1.0:
        raise ValueError("accuracy must lie in (0, 1)")
    # dict.fromkeys: no second pass when the sized series is already the cap.
    for terms in dict.fromkeys((_sized_terms(scale, accuracy), _DEGREE_CAP // 2 + 1)):
        odd, left_out = _erf_series(scale, terms)
        # bound[i]: error after truncating at degree 2i + 1; nonincreasing in i.
        tail = np.cumsum(np.abs(odd[::-1]))[::-1]
        bound = np.append(tail[1:], 0.0)[: (_DEGREE_CAP + 1) // 2] + left_out
        (fits,) = np.nonzero(bound <= accuracy)
        if fits.size:
            cut = int(fits[0])
            coefficients = [0.0] * (2 * cut + 2)
            coefficients[1::2] = (float(c) for c in odd[: cut + 1])
            return ErfApproximant(tuple(coefficients), scale, accuracy, float(bound[cut]))
    raise PolynomialConstructionError(
        f"no odd polynomial of degree <= {_DEGREE_CAP} reached accuracy {accuracy} "
        f"for erf({scale} x); best sup error {float(bound[-1])}"
    )


@lru_cache(maxsize=256)
def _erf_poly_cached(scale: float, accuracy: float) -> ErfApproximant:
    return erf_poly(scale, accuracy)


@dataclass(frozen=True)
class GapCertificate:
    """Proved bounds on the polynomial over the two decision segments: its
    maximum on the left segment is at most ``left_max`` and its minimum on
    the right segment at least ``right_min``."""

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
        return _parity_clenshaw(x, self.coefficients, 0)


class GapEnvelope(NamedTuple):
    left_upper: float
    right_lower: float


def full_depth_gap_envelope(tau: float, eta: float) -> GapEnvelope:
    """Worst-case analytic gap endpoints for the full-depth branch.

    With k = kappa(tau) / (2 width), the exact-erf envelope of the
    assembled polynomial is largest on the left segment at its right edge
    with the interval flush against zero, and smallest on the right segment
    when the mirrored erf term is floored at -1.  These two constants bound
    the closed-form gap certificate of every full-depth polynomial.
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
    [0, (2 + 4 eta) / D] for |a| <= 1.  Its coefficients come from one
    evaluation of e at antisymmetric Chebyshev nodes shifted by -mid, whose
    reversal gives e(-a - mid), and a DCT of the assembled values; trimming
    negligible coefficients moves P by at most their absolute sum, which
    the unit bound must absorb.
    The decision gap, P <= 1/2 - gamma on [a_min, a_min + width/10] and
    P >= 1/2 + gamma on [a_max - width/10, a_max], is certified in closed
    form: e is within the approximant's ``sup_error`` s of erf, and
    f(a) = erf(k (a - mid)) - erf(k (a + mid)) is nondecreasing for a >= 0,
    so (2 + 2 eta + 2 s + f(a_min + width/10)) / D bounds P on the left
    segment from above and (2 + 2 eta - 2 s + f(a_max - width/10)) / D
    bounds it on the right from below, each widened by the trimmed sum.
    """
    return _semi_pellian_cached(tau, eta, k, gamma, interval.a_min, interval.width)


def _assembled_series(
    erf_part: ErfApproximant, eta: float, a_mid: float, denominator: float
) -> np.ndarray:
    """Untrimmed Chebyshev coefficients of the assembled even polynomial
    ((1 + eta + e(a - mid)) + (1 + eta + e(-a - mid))) / D.

    The sum of the two mirrored odd parts is an even polynomial of at most
    the erf approximant's degree n, so interpolating at the n + 1 nodes of
    ``chebpts1`` is exact.  Those nodes are antisymmetric bit for bit, so
    e(-x_i - mid) is the value already computed at x_{n-i}: one evaluation
    of e gives both halves, and the assembled values are symmetric.  The
    coefficients are a DCT-II of the values, computed as the FFT of their
    even extension, which for symmetric values is two copies (Trefethen,
    Approximation Theory and Approximation Practice, ch. 3).
    """
    points = erf_part.degree + 1
    shifted = 1.0 + eta + erf_part.evaluate(ncheb.chebpts1(points) - a_mid)
    values = (shifted + shifted[::-1]) / denominator
    spectrum = np.fft.rfft(np.concatenate((values, values)))[:points]
    coef = (spectrum * np.exp(-0.5j * np.pi / points * np.arange(points))).real / points
    coef[0] *= 0.5
    coef[1::2] = 0.0
    return coef


@lru_cache(maxsize=4096)
def _semi_pellian_cached(
    tau: float, eta: float, k: float, gamma: float, a_min: float, width: float
) -> SemiPellianPoly:
    erf_part = _erf_poly_cached(k, eta)
    a_mid = a_min + 0.5 * width
    denominator = 4.0 * eta + tau + 2.0
    coef = _assembled_series(erf_part, eta, a_mid, denominator)
    # tail[i] is the absolute sum of coef[i:]; drop the longest tail within
    # the budget, keeping at least the constant term.
    tail = np.append(np.cumsum(np.abs(coef[::-1]))[::-1], 0.0)
    cut = max(1, int(np.argmax(tail <= _TRIM_BUDGET)))
    trimmed = float(tail[cut])
    bound = (2.0 + 4.0 * eta) / denominator + trimmed
    if bound > 1.0 + CERT_TOL:
        raise PolynomialConstructionError(
            f"assembled polynomial may exceed the unit bound: |P| <= {bound}"
        )
    coef = coef[:cut]

    # P(a) lies within 2 s / D + trimmed of (2 + 2 eta + f(a)) / D, with
    # f(a) = erf(k (a - mid)) - erf(k (a + mid)) nondecreasing for a, mid >= 0,
    # so each segment's extreme sits at its inner edge.
    def erf_gap(a: float) -> float:
        return math.erf(k * (a - a_mid)) - math.erf(k * (a + a_mid))

    segment = DISCARD_FRACTION * width
    centre = 2.0 + 2.0 * eta
    slack = 2.0 * erf_part.sup_error
    left_max = (centre + slack + erf_gap(a_min + segment)) / denominator + trimmed
    right_min = (centre - slack + erf_gap(a_min + width - segment)) / denominator - trimmed
    if left_max > 0.5 - gamma + CERT_TOL or right_min < 0.5 + gamma - CERT_TOL:
        raise GapCertificateError(
            f"decision gap violated: left max {left_max}, right min {right_min}, "
            f"required {0.5 - gamma} / {0.5 + gamma}"
        )
    return SemiPellianPoly(
        coefficients=tuple(coef.tolist()),
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

    The steps draw their head counts in order from one generator,
    ``derive_stream(seed, 0).rng()``.
    """
    steps = ceil_int(math.log(target.epsilon) / math.log(SHRINK_FACTOR))
    step_fail = target.delta / steps
    interval = ConfidenceInterval(0.0, 1.0)
    rng = derive_stream(seed, 0).rng()
    for step in range(steps):
        params = rf_params(interval, target.beta)
        poly = semi_pellian(params.tau, params.eta, params.k, interval, params.gamma)
        tosses = coin_tosses(params.gamma, step_fail)
        oracle = oracle_factory(poly)
        heads = poly_sample(oracle, tosses, rng, ledger)
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

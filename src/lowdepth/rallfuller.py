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
from collections import namedtuple
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .core import ResourceLedger, SeedSpec, SimulationError, TargetSpec, ceil_int, derive_stream
from .oracle import PolyOracle, poly_sample

SHRINK_FACTOR = 0.9
DISCARD_FRACTION = 0.1

# Step scale s of the full-depth branch, and the shallow one's factor of width^beta.
BASE_SCALE = 0.01

# The shallow branch requires width^beta at or below this cap, so the gap
# argument's preconditions hold by the constants: there k <= 2/width is
# s * kappa(s) <= BASE_SCALE, s * kappa(s) increasing in s to 0.0092 at
# s = 0.004, and kappa/k is the branch's midpoint threshold width^(1-beta) / 2;
# the full-depth k = kappa(BASE_SCALE) / (2 width) is in [1, 2/width] as well.
# TestStepPreconditions in tests/test_rallfuller.py sweeps both branches.
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
_EPS = float(np.finfo(float).eps)
# Certified semi-Pellians by (scale, k, a_min, width), oldest first.
_semi_pellians: dict[tuple, SemiPellianPoly] = {}


class PolynomialConstructionError(SimulationError):
    """A certified polynomial could not be built within the degree cap."""


class GapCertificateError(SimulationError):
    """A constructed polynomial misses its required decision gap."""


def kappa(scale: float) -> float:
    """Placement scale 0.5 sqrt(2 ln(2 / (pi s^2))) of the erf approximant."""
    if not 0.0 < scale < math.sqrt(2.0 / math.pi):
        raise ValueError(f"scale must lie in (0, sqrt(2/pi)), got {scale}")
    return 0.5 * math.sqrt(2.0 * math.log(2.0 / (math.pi * scale * scale)))


class ConfidenceInterval(namedtuple("ConfidenceInterval", "a_min width")):
    """Interval [a_min, a_min + width] tracked by the shrinking loop.

    The width is stored directly so that each shrink is a single float
    multiply and the factor 0.9 per step holds exactly.
    """

    __slots__ = ()

    def __new__(cls, a_min: float, width: float):
        if a_min < 0.0 or width <= 0.0:
            raise ValueError("interval must satisfy a_min >= 0 and width > 0")
        if a_min + width > 1.0 + _DRIFT_TOL:
            raise ValueError("interval must stay inside [0, 1]")
        return super().__new__(cls, a_min, width)

    @property
    def a_max(self) -> float:
        return min(1.0, self.a_min + self.width)

    @property
    def a_mid(self) -> float:
        return self.a_min + 0.5 * self.width

    def discard_left(self) -> "ConfidenceInterval":
        """Drop the leftmost tenth, keeping the right 90 percent."""
        width = SHRINK_FACTOR * self.width
        return ConfidenceInterval(_clipped(self.a_min + DISCARD_FRACTION * self.width, width), width)

    def discard_right(self) -> "ConfidenceInterval":
        """Drop the rightmost tenth, keeping the left 90 percent."""
        width = SHRINK_FACTOR * self.width
        return ConfidenceInterval(_clipped(self.a_min, width), width)


def _clipped(new_min: float, new_width: float) -> float:
    """``new_min``, moved to 1 - new_width if the interval overhangs 1 by rounding alone."""
    overhang = new_min + new_width - 1.0
    if overhang > 0.0:
        if overhang > _DRIFT_TOL:
            raise SimulationError(f"interval drifted outside [0, 1] by {overhang}")
        return 1.0 - new_width
    return new_min


class RfStepParams(NamedTuple):
    """Per-step parameters: the scale s, which is the placement accuracy tau, the erf
    accuracy eta and the decision gap gamma at once, the erf scale k, and the branch."""

    scale: float
    k: float
    branch: str


def rf_params(interval: ConfidenceInterval, beta: float) -> RfStepParams:
    """Choose step parameters for the current interval.

    The shallow branch applies when the midpoint clears width^(1-beta) / 2
    and width^beta is at most ``LOW_DEPTH_WIDTH_CAP``.  The construction's
    preconditions (k in [1, 2/width], midpoint at least kappa/k on the
    shallow branch) hold by the module's constants, as the comment on
    ``LOW_DEPTH_WIDTH_CAP`` shows; TestStepPreconditions checks them.
    """
    shallow_from, table = _step_rule(interval.width, beta)
    return table[interval.a_mid >= shallow_from]


def _step_rule(width: float, beta: float) -> tuple[float, list[RfStepParams]]:
    """:func:`rf_params` at ``width`` as a table: the least midpoint of the shallow branch (inf
    where width^beta exceeds the cap) and the parameters, indexed by a_mid >= that midpoint.
    The full-depth entry always exists; the shallow one only where the cap admits it."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    table = [RfStepParams(BASE_SCALE, 0.5 * kappa(BASE_SCALE) / width, BRANCH_FULL_DEPTH)]
    if width**beta > LOW_DEPTH_WIDTH_CAP:
        return math.inf, table
    scale = BASE_SCALE * width**beta
    table.append(RfStepParams(scale, 2.0 * kappa(scale) * width ** (beta - 1.0), BRANCH_LOW_DEPTH))
    return 0.5 * width ** (1.0 - beta), table


def _parity_clenshaw(t, series: tuple[float, ...], parity: int):
    """The Chebyshev series of one parity at t in [-1, 1], ``series`` holding
    its entries a_j = c_{2j+parity} of index ``parity`` mod 2, the others zero.

    The even- and the odd-index T_k(t) each obey T_{k+2} = 2u T_k - T_{k-2}
    with u = T_2(t) = 2t^2 - 1, so one Clenshaw recurrence
    b_j = a_j + 2u b_{j+1} - b_{j+2} over ``series``
    sums the series in half the steps: to b_0 - u b_1 when even, and to
    t (b_0 - b_1) when odd, T_1 = t and T_3 = t (2u - 1) starting the odd
    sequence.  The recurrence runs in Reinsch's form about u = -1 (Oliver
    1977), carrying s_j = b_j + b_{j+1} = a_j + w b_{j+1} - s_{j+1} with
    w = 2u + 2 = 4t^2, so that nothing cancels in 2u + 2 near t = 0.  The
    sums are then a_0 + (w / 2) b_1 - s_1 and t (a_0 + (w - 2) b_1 - s_1).
    A 0-d t is summed in Python floats; any other t in one flat array, one
    ufunc call per operation and coefficient, reshaped at the end.
    """
    head, rest = series[0], series[:0:-1]
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = float(t)
        w = 4.0 * t * t
        s = b = 0.0
        for a in rest:
            s = a + w * b - s
            b = s - b
        return t * (head + (w - 2.0) * b - s) if parity else head + 0.5 * w * b - s
    shape, t = t.shape, t.ravel()
    w = 4.0 * t * t
    s, b, scratch = np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
    multiply, add, subtract = np.multiply, np.add, np.subtract
    for a in rest:
        multiply(w, b, scratch)
        add(scratch, a, scratch)
        subtract(scratch, s, s)
        subtract(s, b, b)
    return (t * (head + (w - 2.0) * b - s) if parity else head + 0.5 * w * b - s).reshape(shape)


class ErfApproximant(NamedTuple):
    """Odd polynomial approximating erf(scale x) on [-2, 2].

    Held as a Chebyshev series (argument scaled to [-1, 1]) because power
    basis coefficients of the degrees needed here overflow and cancel
    catastrophically.  ``coefficients`` are its odd-index entries c_1, c_3,
    ..., c_degree; the even-index ones are zero and not stored.
    """

    coefficients: tuple[float, ...]
    # Proved bound on |e - erf(scale x)| over [-2, 2]: the absolute sum of
    # the exact series' terms above the degree (the computed ones summed, the
    # rest bounded geometrically) plus a worst-case bound, first order in
    # eps, on the computed coefficients' rounding.
    sup_error: float

    @property
    def degree(self) -> int:
        return 2 * len(self.coefficients) - 1

    def evaluate(self, x):
        return _parity_clenshaw(np.asarray(x, dtype=float) / _ERF_DOMAIN_HALF, self.coefficients, 1)


def _amos_ratio(nu, z: float):
    """Upper bound z / (nu + 1/2 + sqrt((nu + 1/2)^2 + z^2)) on
    I_{nu+1}(z) / I_nu(z) (Amos 1974), elementwise for an array ``nu``; it
    decreases in nu."""
    a = nu + 0.5
    return z / (a + np.sqrt(a * a + z * z))


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
    # The start is one past the first index from ``top`` on at which the
    # summed log Amos ratios reach -45.  A span of 2 top + 64 holds it for
    # every top erf_poly asks for; the search doubles the span until it does.
    span = 2 * top + 64
    while True:
        log_shrink = np.add.accumulate(np.log(_amos_ratio(np.arange(top, top + span), z)))
        (reached,) = np.nonzero(log_shrink <= -45.0)
        if reached.size:
            break
        span *= 2
    start = top + int(reached[0]) + 1
    ratio, backward = 0.0, []
    for j in range(start, 0, -1):
        ratio = z / (2.0 * j + z * ratio)
        backward.append(ratio)
    ratios = np.fromiter(reversed(backward), float, start)
    products = np.multiply.accumulate(ratios)
    scaled_i0 = 1.0 / (1.0 + 2.0 * float(np.add.reduce(products)))
    damping = np.maximum.accumulate((ratios * np.concatenate((ratios[1:], [0.0])))[::-1])[::-1]
    ratio_error = float(np.add.reduce(1.5 * _EPS / (1.0 - damping)))
    rel_error = 2.0 * (ratio_error + start * _EPS) + 4.0 * _EPS
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
    signed = np.full(terms, prefactor)  # prefactor (-1)^j, exactly
    signed[1::2] = -prefactor
    odd = signed * (bessel[:-1] + bessel[1:]) / np.arange(1, 2 * terms, 2)
    # Past the computed terms, sum_{j>=terms} (I_j + I_{j+1}) is at most
    # I_terms (1 + r) / (1 - r), Amos's ratio bound r decreasing in j.
    r = _amos_ratio(terms, z)
    remainder = prefactor * bessel[terms] * (1.0 + r) / ((1.0 - r) * (2 * terms + 1))
    # Rounding: each coefficient carries the Bessel values' relative error
    # plus a few roundings of its own, and the tail sums over them add at
    # most ``terms`` more.
    rounding = (bessel_error + (terms + 8) * _EPS) * float(np.add.reduce(np.abs(odd)))
    return odd, remainder + rounding


def _sized_terms(scale: float, accuracy: float) -> int:
    """Series terms :func:`erf_poly` computes: two past the first j at which
    the remainder bound of :func:`_erf_series` for the terms from j on is at
    most accuracy / 4, e^-z I_j being bounded by the product of Amos's
    ratio bounds below j (and e^-z I_0 <= 1); at most ``_DEGREE_CAP // 2 + 1``.
    Growing prefixes of j are searched, bit for bit the full range's (elementwise maps, a
    running product).
    """
    big_k = _ERF_DOMAIN_HALF * scale
    z = 0.5 * big_k * big_k
    prefactor = 2.0 * big_k / math.sqrt(math.pi)
    cap = _DEGREE_CAP // 2 + 1
    for size in (128, 512, cap):
        j = np.arange(size)
        ratio = _amos_ratio(j, z)
        scaled_bessel = np.concatenate(([1.0], np.multiply.accumulate(ratio[:-1])))
        remaining = prefactor * scaled_bessel * (1.0 + ratio) / ((1.0 - ratio) * (2.0 * j + 1.0))
        (small,) = np.nonzero(remaining <= 0.25 * accuracy)
        if small.size:
            return min(int(small[0]) + 2, cap)
    return cap


@lru_cache(maxsize=256)
def erf_poly(scale: float, accuracy: float) -> ErfApproximant:
    """Odd polynomial within ``accuracy`` of erf(scale x) on [-2, 2].

    The exact Chebyshev series of erf (see :func:`_erf_series`) truncated:
    since |T_j| <= 1 on [-1, 1], dropping the terms above degree n costs at
    most sum_{j>n} |c_j|, so the result is the smallest odd n whose tail
    bound fits ``accuracy``, and that bound is its ``sup_error``.  The
    series is computed once, to the length :func:`_sized_terms` predicts,
    whose remainder is at most accuracy / 4 (so only rounding above three
    quarters of the accuracy could hide a fitting degree) and which is the
    full ``_DEGREE_CAP // 2 + 1`` terms when no shorter length fits.  Raises
    :class:`PolynomialConstructionError`, reporting the best bound reached,
    if no degree up to ``_DEGREE_CAP`` fits.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not 0.0 < accuracy < 1.0:
        raise ValueError("accuracy must lie in (0, 1)")
    odd, left_out = _erf_series(scale, _sized_terms(scale, accuracy))
    # bound[i]: error after truncating at degree 2i + 1; nonincreasing in i.
    tail = np.add.accumulate(np.abs(odd[::-1]))[::-1]
    bound = np.concatenate((tail[1:], [0.0]))[: (_DEGREE_CAP + 1) // 2] + left_out
    (fits,) = np.nonzero(bound <= accuracy)
    if not fits.size:
        raise PolynomialConstructionError(
            f"no odd polynomial of degree <= {_DEGREE_CAP} reached accuracy {accuracy} "
            f"for erf({scale} x); best sup error {float(bound[-1])}"
        )
    cut = int(fits[0])
    return ErfApproximant(tuple(odd[: cut + 1].tolist()), float(bound[cut]))


class GapCertificate(NamedTuple):
    """Proved bounds on the polynomial over the two decision segments: its
    maximum on the left segment is at most ``left_max`` and its minimum on
    the right segment at least ``right_min``."""

    left_max: float
    right_min: float


class SemiPellianPoly(NamedTuple):
    """Even polynomial with |P| <= 1 on [-1, 1] and a decision gap.

    ``coefficients`` are the even-index entries c_0, c_2, ..., c_degree of
    its Chebyshev series on [-1, 1]; the odd-index ones are zero and not
    stored.  The unit bound is proved at construction by :func:`semi_pellian`,
    so :class:`~lowdepth.oracle.PolyOracle` does not re-check it.
    """

    coefficients: tuple[float, ...]
    gap_certificate: GapCertificate

    @property
    def degree(self) -> int:
        return 2 * len(self.coefficients) - 2

    def evaluate(self, x):
        return _parity_clenshaw(x, self.coefficients, 0)


class GapEnvelope(NamedTuple):
    left_upper: float
    right_lower: float


def full_depth_gap_envelope() -> GapEnvelope:
    """Worst-case analytic gap endpoints for the full-depth branch.

    With the branch's one scale s = ``BASE_SCALE``, which is tau, eta and gamma
    at once, and k = kappa(s) / (2 width), the exact-erf envelope of the
    assembled polynomial is largest on the left segment at its right edge
    with the interval flush against zero, and smallest on the right segment
    when the mirrored erf term is floored at -1.  These two constants bound
    the closed-form gap certificate of every full-depth polynomial.
    """
    kap = kappa(BASE_SCALE)
    denominator = 5.0 * BASE_SCALE + 2.0
    left_upper = (2.0 + 4.0 * BASE_SCALE + math.erf(-0.2 * kap) + math.erf(-0.3 * kap)) / denominator
    right_lower = (1.0 + math.erf(0.2 * kap)) / denominator
    return GapEnvelope(left_upper, right_lower)


def semi_pellian(scale: float, k: float, interval: ConfidenceInterval) -> SemiPellianPoly:
    """Even unit-bounded polynomial separating the interval's end segments.

    The step's one ``scale`` s is its placement accuracy tau, erf accuracy
    eta and decision gap gamma.  Assembles f0(a - mid) + f0(-a - mid) with
    f0(x) = (1 + s + erf_poly(x)) / D, D = 5 s + 2.  The erf approximant e
    is odd and within s of erf, and erf is increasing, so
    P(a) = (2 + 2 s + e(a - mid) - e(a + mid)) / D lies in [0, (2 + 4 s) / D]
    for |a| <= 1.  Its coefficients come from one evaluation of e at
    antisymmetric Chebyshev nodes shifted by -mid, whose reversal gives
    e(-a - mid), and a DCT of the assembled values; trimming negligible
    coefficients moves P by at most their absolute sum, which the unit bound
    must absorb.
    The decision gap, P <= 1/2 - s on [a_min, a_min + width/10] and
    P >= 1/2 + s on [a_max - width/10, a_max], is certified in closed
    form: e is within the approximant's ``sup_error`` u of erf, and
    f(a) = erf(k (a - mid)) - erf(k (a + mid)) is nondecreasing for a >= 0,
    so (2 + 2 s + 2 u + f(a_min + width/10)) / D bounds P on the left
    segment from above and (2 + 2 s - 2 u + f(a_max - width/10)) / D
    bounds it on the right from below, each widened by the trimmed sum.
    """
    key = (scale, k, interval.a_min, interval.width)
    poly = _build_semi_pellians([key])[key]
    if isinstance(poly, Exception):
        raise poly
    return poly


def _assembled_series(erf_part: ErfApproximant, scale: float, a_mid, denominator) -> np.ndarray:
    """Untrimmed even-index Chebyshev coefficients c_0, c_2, ... of the assembled even polynomial
    ((1 + s + e(a - mid)) + (1 + s + e(-a - mid))) / D, a row per entry of column ``a_mid``.

    The sum of the two mirrored odd parts is an even polynomial of at most
    the erf approximant's degree n, so interpolating at the n + 1 Chebyshev
    points of the first kind, sin(pi (2i - n) / (2 (n + 1))) for i = 0..n, is
    exact.  Those nodes are antisymmetric bit for bit, so
    e(-x_i - mid) is the value already computed at x_{n-i}: one evaluation
    of e gives both halves, and the assembled values are symmetric.  The
    coefficients are a DCT-II of the values, computed as the FFT of their
    even extension, which for symmetric values is two copies (Trefethen,
    Approximation Theory and Approximation Practice, ch. 3); only its
    even-index entries are taken, the odd-index ones being zero.
    """
    points = erf_part.degree + 1
    # numpy's chebpts1 formula, bit for bit, without importing numpy.polynomial
    nodes = np.sin(0.5 * np.pi / points * np.arange(-points + 1, points + 1, 2))
    shifted = 1.0 + scale + erf_part.evaluate(nodes - a_mid)
    values = (shifted + shifted[..., ::-1]) / denominator
    spectrum = np.fft.rfft(np.concatenate((values, values), axis=-1))[..., :points:2]
    coef = (spectrum * np.exp(-0.5j * np.pi / points * np.arange(0, points, 2))).real / points
    coef[..., 0] *= 0.5
    return coef


def _build_semi_pellians(keys) -> dict:
    """The semi-Pellian at each of ``keys``, or the error building it: cached ones read back,
    new ones certified once and cached, one erf evaluation per approximant they share."""
    built = {key: _semi_pellians[key] for key in keys if key in _semi_pellians}
    groups: dict[tuple, list] = {}
    for key in set(keys) - built.keys():
        groups.setdefault(key[:2], []).append(key)
    for (scale, k), group in groups.items():
        try:
            erf_part = erf_poly(k, scale)
        except (SimulationError, ValueError) as err:
            built.update(dict.fromkeys(group, err))
            continue
        a_mids = np.array([[a_min + 0.5 * width] for *_, a_min, width in group])
        coefs = _assembled_series(erf_part, scale, a_mids, 5.0 * scale + 2.0)
        # tails[:, i] is the absolute sum of a row's coef[i:]; each row drops its
        # longest tail within the budget, keeping at least the constant term.
        tails = np.zeros((len(group), coefs.shape[1] + 1))
        np.add.accumulate(np.abs(coefs[:, ::-1]), axis=1, out=tails[:, -2::-1])
        cuts = np.maximum(np.argmax(tails <= _TRIM_BUDGET, axis=1), 1)
        trimmed = tails[np.arange(len(group)), cuts]
        for key, coef, cut, tail in zip(group, coefs.tolist(), cuts.tolist(), trimmed.tolist()):
            if len(_semi_pellians) >= 4096:
                del _semi_pellians[next(iter(_semi_pellians))]
            try:
                _semi_pellians[key] = built[key] = _certified(erf_part, (coef[:cut], tail), *key)
            except (SimulationError, ValueError) as err:
                built[key] = err
    return built


def _certified(erf_part, kept, scale, k, a_min, width) -> SemiPellianPoly:
    """:func:`semi_pellian` from ``kept``, the leading even-index coefficients it keeps (a list)
    and the absolute sum of those it drops, at s = tau = eta = gamma."""
    coef, trimmed = kept
    a_mid = a_min + 0.5 * width
    denominator = 5.0 * scale + 2.0
    bound = (2.0 + 4.0 * scale) / denominator + trimmed
    if bound > 1.0 + CERT_TOL:
        raise PolynomialConstructionError(
            f"assembled polynomial may exceed the unit bound: |P| <= {bound}"
        )

    # P(a) lies within 2 u / D + trimmed of (2 + 2 s + f(a)) / D, u the sup error, with
    # f(a) = erf(k (a - mid)) - erf(k (a + mid)) nondecreasing for a, mid >= 0,
    # so each segment's extreme sits at its inner edge.
    def erf_gap(a: float) -> float:
        return math.erf(k * (a - a_mid)) - math.erf(k * (a + a_mid))

    segment = DISCARD_FRACTION * width
    centre = 2.0 + 2.0 * scale
    slack = 2.0 * erf_part.sup_error
    left_max = (centre + slack + erf_gap(a_min + segment)) / denominator + trimmed
    right_min = (centre - slack + erf_gap(a_min + width - segment)) / denominator - trimmed
    if left_max > 0.5 - scale + CERT_TOL or right_min < 0.5 + scale - CERT_TOL:
        raise GapCertificateError(
            f"decision gap violated: left max {left_max}, right min {right_min}, "
            f"required {0.5 - scale} / {0.5 + scale}"
        )
    return SemiPellianPoly(
        coefficients=tuple(coef),
        gap_certificate=GapCertificate(left_max, right_min),
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


class StepRecord(NamedTuple):
    """Trace entry for one shrinking step (interval is pre-discard; gamma is the step's scale)."""

    step: int
    branch: str
    k: float
    gamma: float
    tosses: int
    heads: int
    poly_degree: int
    a_min: float
    width: float


class RfPlan(NamedTuple):
    """The shrinking loop's widths, per step :func:`_step_rule`'s least shallow midpoint and table
    with each entry's toss count, and the ``forced`` entry, as :meth:`from_target` builds them."""

    widths: tuple[float, ...]
    steps: tuple[tuple[float, tuple[RfStepParams, ...], tuple[int, ...]], ...]
    forced: RfStepParams

    @classmethod
    def from_target(cls, target: TargetSpec) -> "RfPlan":
        """Widths 1, then SHRINK_FACTOR times the last for each of the ceil(log_0.9 epsilon) steps,
        and tosses at failure budget delta / steps.  Whatever its path, every trial takes each
        one-entry table's full-depth entry; the last, ``forced``, has the largest k of them, and its
        approximant is built (and cached, for the trials) here: a ValueError where it cannot be."""
        count = ceil_int(math.log(target.epsilon) / math.log(SHRINK_FACTOR))
        widths, steps = [1.0], []
        for _ in range(count):
            shallow_from, table = _step_rule(widths[-1], target.beta)
            tosses = tuple(coin_tosses(entry.scale, target.delta / count) for entry in table)
            steps.append((shallow_from, tuple(table), tosses))
            widths.append(SHRINK_FACTOR * widths[-1])
        (forced,) = [table for _, table, _ in steps if len(table) == 1][-1]
        try:
            erf_poly(forced.k, forced.scale)
        except PolynomialConstructionError as err:
            raise ValueError(str(err)) from err
        return cls(tuple(widths), tuple(steps), forced)

    def summary(self) -> str:
        """The step count, the forced full-depth steps, each branch's toss range (``none`` where
        no step has that branch) and the forced approximant's degree, as one line of text."""
        tosses = {BRANCH_FULL_DEPTH: [], BRANCH_LOW_DEPTH: []}
        for _, table, counts in self.steps:
            for entry, count in zip(table, counts):
                tosses[entry.branch].append(count)
        forced_steps = sum(len(table) == 1 for _, table, _ in self.steps)
        text = f"steps={len(self.steps)} forced_full_depth={forced_steps}"
        for branch, counts in tosses.items():
            text += f" {branch}_tosses=" + (f"{min(counts)}..{max(counts)}" if counts else "none")
        # from_target has built the forced approximant, so this reads the cache
        return text + f" forced_erf_degree={erf_poly(self.forced.k, self.forced.scale).degree}"


def rall_fuller_estimate(
    oracle_factory: Callable[[SemiPellianPoly], PolyOracle],
    target: TargetSpec,
    *,
    seed: SeedSpec,
    ledger: ResourceLedger,
    trace: list[StepRecord] | None = None,
) -> float:
    """Run the interval-shrinking loop on ``RfPlan.from_target(target)`` and return the final
    midpoint, which is within epsilon of the truth with probability at least 1 - delta.

    ``oracle_factory`` turns each step's polynomial into a :class:`PolyOracle` carrying the
    hidden truth.  ``trace`` (if given) receives one :class:`StepRecord` per step.

    The steps draw their head counts in order from one generator,
    ``derive_stream(seed, 0).rng()``.
    """
    return next(rall_fuller_lockstep(
        oracle_factory, RfPlan.from_target(target), [seed], [ledger], [trace]))


def rall_fuller_lockstep(oracle_factory, plan, seeds, ledgers, traces=None) -> Iterator[float]:
    """:func:`rall_fuller_estimate` per seed (with ``ledgers[i]``, ``traces[i]``), stepping together
    on :class:`RfPlan` ``plan``; each step builds the trials' semi-Pellians at once, one oracle per
    polynomial.  Yields the midpoints in order; a failed trial raises its error instead."""
    traces = traces or [None] * len(seeds)
    rngs = [derive_stream(seed, 0).rng() for seed in seeds]
    a_mins, outcomes = [0.0] * len(seeds), [None] * len(seeds)
    running = range(len(seeds))
    for step, (width, new_width, (shallow_from, table, tosses)) in enumerate(
            zip(plan.widths, plan.widths[1:], plan.steps)):
        # each running trial's table entry and the slot of its key in the step's polynomials
        slots, picks = {}, []
        for index in running:
            pick = a_mins[index] + 0.5 * width >= shallow_from
            key = (table[pick].scale, table[pick].k, a_mins[index], width)
            picks.append((index, pick, slots.setdefault(key, len(slots))))
        built = _build_semi_pellians(slots)
        polys, oracles = [built[key] for key in slots], {}
        # the kept interval's left end moves by offsets[truth_on_right]
        offsets, running = (0.0, DISCARD_FRACTION * width), []
        for index, pick, slot in picks:
            params, poly, count = table[pick], polys[slot], tosses[pick]
            if isinstance(poly, Exception):
                outcomes[index] = poly
                continue
            try:
                if slot not in oracles:  # the truth, and so the oracle, is the batch's
                    oracles[slot] = oracle_factory(poly)
                heads = poly_sample(oracles[slot], count, rngs[index], ledgers[index])
                truth_on_right = coin_test(heads, count, params.scale)
                if traces[index] is not None:
                    traces[index].append(StepRecord(
                        step, params.branch, params.k, params.scale, count, heads, poly.degree,
                        a_mins[index], width))
                a_mins[index] = _clipped(a_mins[index] + offsets[truth_on_right], new_width)
                running.append(index)
            except (SimulationError, ValueError) as err:
                outcomes[index] = err
    for index in running:
        outcomes[index] = a_mins[index] + 0.5 * plan.widths[-1]
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        yield outcome


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

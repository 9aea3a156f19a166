"""Synthetic black-box estimators and published-algorithm parameter maps.

The synthetic samplers realise their contracts *exactly* (two-point
constructions), which isolates the aggregation math from any particular
estimation circuit.  Each draws ``size`` independent runs from the generator
it is given and returns them as ``(values, counts)``: each outcome of the
construction and how many runs landed on it.  The
parameter calculators translate a precision / failure / depth target into
the knob settings of the three published weakly-biased estimators this
package models.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import ABS_TOL, Amplitude, ResourceLedger, TargetSpec, ceil_int, reduce_angle


class Uqae1Contract(namedtuple("Uqae1Contract", "bias_bound variance_bound")):
    """Bias/variance contract: |E[est] - a| <= bias_bound, Var <= variance_bound."""

    __slots__ = ()

    def __new__(cls, bias_bound: float, variance_bound: float):
        if bias_bound <= 0:
            raise ValueError("bias_bound must be positive")
        if variance_bound < 0:
            raise ValueError("variance_bound must be nonnegative")
        return super().__new__(cls, bias_bound, variance_bound)


class Uqae2Contract(namedtuple("Uqae2Contract", "bias_bound precision fail_prob output_cap")):
    """Bias/precision/failure contract with a hard output cap.

    |E[est] - a| <= bias_bound, P[|est - a| <= precision] >= 1 - fail_prob,
    and |est| <= output_cap always.
    """

    __slots__ = ()

    def __new__(cls, bias_bound: float, precision: float, fail_prob: float,
                output_cap: float = 1.0):
        if bias_bound <= 0:
            raise ValueError("bias_bound must be positive")
        if precision <= 0:
            raise ValueError("precision must be positive")
        if not 0.0 <= fail_prob < 1.0:
            raise ValueError("fail_prob must lie in [0, 1)")
        if output_cap < 1.0:
            raise ValueError("output_cap must be at least 1")
        return super().__new__(cls, bias_bound, precision, fail_prob, output_cap)


class Uqpe2Contract(namedtuple("Uqpe2Contract", "bias_bound precision fail_prob")):
    """Circular analogue of :class:`Uqae2Contract` for phase estimators.

    Bias and precision are read through the circular difference, so no
    output cap is needed (angles live on the circle).
    """

    __slots__ = ()

    def __new__(cls, bias_bound: float, precision: float, fail_prob: float):
        if bias_bound <= 0:
            raise ValueError("bias_bound must be positive")
        if not 0.0 < precision <= math.pi:
            raise ValueError("precision must lie in (0, pi]")
        if not 0.0 <= fail_prob < 1.0:
            raise ValueError("fail_prob must lie in [0, 1)")
        return super().__new__(cls, bias_bound, precision, fail_prob)


class SyntheticCostModel(NamedTuple):
    """Symbolic depth/query costs charged per synthetic sample."""

    depth_fn: Callable[[object], int]
    queries_fn: Callable[[object], int]

    def charge(self, contract, ledger: ResourceLedger, copies: int) -> None:
        depth = self.depth_fn(contract)
        # A single run can never make fewer queries than its deepest circuit.
        queries = max(depth, self.queries_fn(contract))
        ledger.charge(depth, queries * copies)


def _log_bias_factor(bias_bound: float) -> float:
    return max(1.0, math.log(math.e / bias_bound))


def _uqae1_depth(contract) -> int:
    if contract.variance_bound <= 0:
        return 1
    return ceil_int(contract.variance_bound**-0.5)


def _uqae1_queries(contract) -> int:
    scale = 1.0 if contract.variance_bound <= 0 else contract.variance_bound**-0.5
    return ceil_int(scale * _log_bias_factor(contract.bias_bound))


def _uqae2_depth(contract) -> int:
    return ceil_int(1.0 / contract.precision)


def _uqae2_queries(contract) -> int:
    log_fail = -math.log(contract.fail_prob) if contract.fail_prob > 0 else 1.0
    log_fail = max(1.0, log_fail)
    return ceil_int((1.0 / contract.precision) * log_fail * _log_bias_factor(contract.bias_bound))


UQAE1_COST = SyntheticCostModel(_uqae1_depth, _uqae1_queries)
UQAE2_COST = SyntheticCostModel(_uqae2_depth, _uqae2_queries)
# bound here for bench/gate.py; a phase contract costs what an amplitude one does
UQPE2_COST = UQAE2_COST


# A sampler draws ``size`` independent runs of one contract from the trial's
# generator and returns them as ``(values, counts)``: a 1-D sequence of outcome
# values (angles for a phase contract) and a same-length sequence of non-negative
# integer counts, summing to ``size``, of the runs that landed on each.  Its first
# argument names the plan stage it serves, the one way it tells stages apart.  The
# generator type is quoted: numpy loads numpy.random on first use, and that cost
# belongs to the first draw, not to importing this package.
Sampler = Callable[
    [str, Uqae1Contract | Uqae2Contract | Uqpe2Contract, "np.random.Generator", ResourceLedger, int],
    tuple[Sequence[float], Sequence[int]],
]


def walk_stages(sampler: Sampler, stages, rng: np.random.Generator, ledger: ResourceLedger):
    """One sampler call per ``(name, contract, runs)`` stage, in list order,
    all drawing from ``rng``; returns each stage's runs as a list of
    ``(value, count)`` pairs of Python numbers, in the sampler's order, for the
    outcomes at least one run landed on.  Values that are not 1-D, counts of
    another length, counts that are not non-negative integers and counts that
    do not sum to ``runs`` are rejected."""
    draws = []
    for name, contract, runs in stages:
        values, counts = sampler(name, contract, rng, ledger, runs)
        values, counts = np.asarray(values, dtype=float), np.asarray(counts)
        if values.ndim != 1 or counts.shape != values.shape:
            raise ValueError(f"stage {name!r} drew values of shape {values.shape} and counts "
                             f"of shape {counts.shape}, expected two 1-D arrays of one length")
        counts = counts.tolist()
        if any(type(count) is not int or count < 0 for count in counts):
            raise ValueError(
                f"stage {name!r} drew counts {counts}, expected non-negative integers")
        if sum(counts) != runs:
            raise ValueError(f"stage {name!r} drew {sum(counts)} runs, expected {runs}")
        draws.append([(value, count) for value, count in zip(values.tolist(), counts) if count])
    return draws


def _run_count(size) -> int:
    """``size`` as a run count: an integer, not a bool, at least 1."""
    try:
        if isinstance(size, bool):
            raise TypeError
        n = operator.index(size)
    except TypeError:
        raise ValueError(f"size must be an integer, got {size!r}") from None
    if n < 1:
        raise ValueError("size must be positive")
    return n


def _mixture_outcomes(rng: np.random.Generator, n: int, fail_prob: float, spread: float,
                      tail_magnitude: float) -> tuple[list[float], list[int]]:
    """``n`` runs, each +/- tail_magnitude with probability fail_prob and +/- spread
    otherwise, either sign equally likely (all coins, then all signs): the outcome offsets,
    each computed as a run's would be, and how many runs landed on each.  One run draws
    scalars, which move the generator as size-1 arrays do, and keeps its one outcome."""
    if n == 1:
        outcomes, counts = [(rng.random() < fail_prob, int(rng.integers(0, 2)))], [1]
    else:
        fails = rng.random(n) < fail_prob
        signs = rng.integers(0, 2, size=n)
        tails, ups = np.count_nonzero(fails), np.count_nonzero(signs)
        tail_ups = np.count_nonzero(signs[fails])
        outcomes = [(False, 0), (False, 1), (True, 0), (True, 1)]
        counts = [n - tails - ups + tail_ups, ups - tail_ups, tails - tail_ups, tail_ups]
    offsets = [(tail * (tail_magnitude - spread) + spread) * (up * 2 - 1) for tail, up in outcomes]
    return offsets, counts


def synth_uqae1_sample(
    a: Amplitude,
    contract: Uqae1Contract,
    bias_setting: float,
    rng: np.random.Generator,
    ledger: ResourceLedger,
    *,
    size: int,
) -> tuple[list[float], list[int]]:
    """Two-point estimator meeting a bias/variance contract exactly.

    Returns a + bias_setting +/- sqrt(variance_bound) with equal sign
    probability, so the mean is a + bias_setting and the variance is
    exactly the contract's variance bound.
    """
    if abs(bias_setting) > contract.bias_bound + ABS_TOL:
        raise ValueError("bias_setting exceeds the contracted bias bound")
    n = _run_count(size)
    ups = np.count_nonzero(rng.integers(0, 2, size=n))
    spread = math.sqrt(contract.variance_bound)
    UQAE1_COST.charge(contract, ledger, n)
    return [a.value + bias_setting + spread * sign for sign in (-1, 1)], [n - ups, ups]


def synth_uqae2_sample(
    a: Amplitude,
    contract: Uqae2Contract,
    bias_setting: float,
    tail_magnitude: float,
    rng: np.random.Generator,
    ledger: ResourceLedger,
    *,
    size: int,
) -> tuple[list[float], list[int]]:
    """Mixture estimator meeting a bias/precision/failure contract exactly.

    With probability 1 - fail_prob the output is a + bias_setting
    +/- (precision - |bias_setting|), always within precision of a; with
    probability fail_prob it is a + bias_setting +/- tail_magnitude.  Both
    branches are symmetric about a + bias_setting, so the overall mean is
    exactly that.  Preconditions keep every branch inside [-cap, cap].
    """
    if abs(bias_setting) > contract.bias_bound + ABS_TOL:
        raise ValueError("bias_setting exceeds the contracted bias bound")
    if tail_magnitude < 0:
        raise ValueError("tail_magnitude must be nonnegative")
    cap = contract.output_cap
    if abs(a.value) + abs(bias_setting) + tail_magnitude > cap + ABS_TOL:
        raise ValueError("tail branch would exceed the output cap")
    if abs(a.value) + contract.precision > cap + ABS_TOL:
        raise ValueError("good branch would exceed the output cap")
    spread = contract.precision - abs(bias_setting)
    n = _run_count(size)
    offsets, counts = _mixture_outcomes(rng, n, contract.fail_prob, spread, tail_magnitude)
    UQAE2_COST.charge(contract, ledger, n)
    return [a.value + bias_setting + offset for offset in offsets], counts


def synth_uqpe2_sample(
    theta: float,
    contract: Uqpe2Contract,
    bias_setting: float,
    tail_magnitude: float,
    rng: np.random.Generator,
    ledger: ResourceLedger,
    *,
    good_spread: float | None = None,
    size: int,
) -> tuple[list[float], list[int]]:
    """Circular two-point mixture honouring a phase contract exactly.

    Angles are returned in [0, 2 pi).  ``good_spread`` narrows the good
    branch below its maximum precision - |bias_setting|; all offsets must
    stay below pi so circular differences recover them unambiguously.
    """
    spread = contract.precision - abs(bias_setting) if good_spread is None else good_spread
    if abs(bias_setting) > contract.bias_bound + ABS_TOL:
        raise ValueError("bias_setting exceeds the contracted bias bound")
    if spread < 0 or abs(bias_setting) + spread > contract.precision + ABS_TOL:
        raise ValueError("good-branch spread incompatible with the contracted precision")
    if tail_magnitude < 0:
        raise ValueError("tail_magnitude must be nonnegative")
    if abs(bias_setting) + max(spread, tail_magnitude) > math.pi:
        raise ValueError("offsets must stay below pi for unambiguous circular bias")
    n = _run_count(size)
    offsets, counts = _mixture_outcomes(rng, n, contract.fail_prob, spread, tail_magnitude)
    UQPE2_COST.charge(contract, ledger, n)
    return [reduce_angle(theta + bias_setting + offset) for offset in offsets], counts


def monkey_sample(a: Amplitude, epsilon: float) -> float:
    """Adversarial deterministic estimator: always returns a - epsilon.

    Its output is within epsilon of the truth with certainty, yet carries
    zero information beyond that; independent runs repeat the same value,
    so no aggregation scheme can improve on it.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return a.value - epsilon


class AmplitudeEstimatorParams(NamedTuple):
    """Knob settings plus the guarantees they imply."""

    depth_scale: float
    bias_bound: float
    implied_bias_bound: float
    implied_variance_bound: float


def cornelissen_amp_params(target: TargetSpec) -> AmplitudeEstimatorParams:
    """Knobs for the unbiased amplitude estimator of Cornelissen et al.

    Sets depth scale K = 15 eps^(beta-1) and bias bound
    B = min(9/225 eps^(2-2 beta), 0.05 eps), which caps the bias at
    0.05 eps and the variance at (4/9) eps^(2-2 beta).
    """
    eps, beta = target.epsilon, target.beta
    depth_scale = 15.0 * eps ** (beta - 1.0)
    spread = eps ** (2.0 - 2.0 * beta)
    bias_bound = min((9.0 / 225.0) * spread, 0.05 * eps)
    return AmplitudeEstimatorParams(depth_scale, bias_bound, 0.05 * eps, (4.0 / 9.0) * spread)


def cornelissen_phase_params(target: TargetSpec) -> AmplitudeEstimatorParams:
    """Knobs for the companion unbiased phase estimator.

    K = sqrt(3) eps^(beta-1), B = min(1/9 eps^(2-2 beta), 0.05 eps); the
    variance 1/K^2 + B then stays below (4/9) eps^(2-2 beta).
    """
    eps, beta = target.epsilon, target.beta
    depth_scale = math.sqrt(3.0) * eps ** (beta - 1.0)
    spread = eps ** (2.0 - 2.0 * beta)
    bias_bound = min(spread / 9.0, 0.05 * eps)
    return AmplitudeEstimatorParams(depth_scale, bias_bound, 0.05 * eps, (4.0 / 9.0) * spread)


class PhaseRegisterParams(NamedTuple):
    """Solution of the (m, n, M) system for the QFT-register phase estimator.

    ``n_real`` and ``depth_scale_real`` are the exact real-valued solutions
    kept for verification; ``n`` and ``depth_scale`` round them up, which
    only tightens every inequality.
    """

    m: float
    n: int
    depth_scale: int
    n_real: float
    depth_scale_real: float


def apeldoorn_phase_params(target: TargetSpec) -> PhaseRegisterParams:
    """Knobs for the register-based unbiased phase estimator of van Apeldoorn et al.

    Solves, with natural logarithms and r = delta / (4 ln(4/delta)):

        exp(-m/4)          = eps^2 delta / (64 ln(4/delta))
        pi (m+1) 2^(-n)    = eps^2 delta / (128 ln(4/delta))
        (10/M)(1 + 2^(-n)) = eps^(1-beta)

    then rounds n and M up.  Raises if the solution violates the estimator's
    own requirement n >= log2(pi m).
    """
    eps, delta, beta = target.epsilon, target.delta, target.beta
    log_term = math.log(4.0 / delta)
    m = -4.0 * math.log(eps * eps * delta / (64.0 * log_term))
    n_real = math.log2(128.0 * math.pi * (m + 1.0) * log_term / (eps * eps * delta))
    n = ceil_int(n_real)
    depth_scale_real = 10.0 * (1.0 + 2.0**-n_real) * eps ** (beta - 1.0)
    depth_scale = ceil_int(10.0 * (1.0 + 2.0**-n) * eps ** (beta - 1.0))
    if n < math.log2(math.pi * m):
        raise ValueError(f"register too small: n = {n} < log2(pi m) = {math.log2(math.pi * m)}")
    return PhaseRegisterParams(m, n, depth_scale, n_real, depth_scale_real)

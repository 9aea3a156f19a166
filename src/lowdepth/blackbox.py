"""Synthetic black-box estimators and published-algorithm parameter maps.

The synthetic samplers realise their contracts *exactly* (two-point
constructions), which isolates the aggregation math from any particular
estimation circuit.  Each draws ``size`` independent runs from the generator
it is given and returns them as an array, run i being element i.  The
parameter calculators translate a precision / failure / depth target into
the knob settings of the three published weakly-biased estimators this
package models.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, NamedTuple

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
# generator as a float array (angles for a phase contract); its first argument
# names the plan stage it serves, the one way it tells stages apart.  The
# generator type is quoted: numpy loads numpy.random on first use, and that
# cost belongs to the first draw, not to importing this package.
Sampler = Callable[
    [str, Uqae1Contract | Uqae2Contract | Uqpe2Contract, "np.random.Generator", ResourceLedger, int],
    np.ndarray,
]


def walk_stages(sampler: Sampler, stages, rng: np.random.Generator, ledger: ResourceLedger):
    """One sampler call per ``(name, contract, runs)`` stage, in list order,
    all drawing from ``rng``; returns the draws in that order.  A draw whose
    shape is not ``(runs,)`` is rejected."""
    draws = []
    for name, contract, runs in stages:
        values = np.asarray(sampler(name, contract, rng, ledger, runs), dtype=float)
        if values.shape != (runs,):
            raise ValueError(f"stage {name!r} drew shape {values.shape}, expected ({runs},)")
        draws.append(values)
    return draws


def _run_count(size) -> int:
    if int(size) < 1:
        raise ValueError("size must be positive")
    return int(size)


def _mixture_offsets(rng: np.random.Generator, size: int, fail_prob: float, spread: float,
                     tail_magnitude: float) -> np.ndarray:
    """``size`` offsets, each +/- tail_magnitude with probability fail_prob and
    +/- spread otherwise, either sign equally likely (all coins, then all signs)."""
    n = _run_count(size)
    coins = rng.random(n)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    return ((coins < fail_prob) * (tail_magnitude - spread) + spread) * signs


def synth_uqae1_sample(
    a: Amplitude,
    contract: Uqae1Contract,
    bias_setting: float,
    rng: np.random.Generator,
    ledger: ResourceLedger,
    *,
    size: int,
) -> np.ndarray:
    """Two-point estimator meeting a bias/variance contract exactly.

    Returns a + bias_setting +/- sqrt(variance_bound) with equal sign
    probability, so the mean is a + bias_setting and the variance is
    exactly the contract's variance bound.
    """
    if abs(bias_setting) > contract.bias_bound + ABS_TOL:
        raise ValueError("bias_setting exceeds the contracted bias bound")
    n = _run_count(size)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    values = a.value + bias_setting + math.sqrt(contract.variance_bound) * signs
    UQAE1_COST.charge(contract, ledger, n)
    return values


def synth_uqae2_sample(
    a: Amplitude,
    contract: Uqae2Contract,
    bias_setting: float,
    tail_magnitude: float,
    rng: np.random.Generator,
    ledger: ResourceLedger,
    *,
    size: int,
) -> np.ndarray:
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
    offsets = _mixture_offsets(rng, size, contract.fail_prob, spread, tail_magnitude)
    UQAE2_COST.charge(contract, ledger, offsets.size)
    return a.value + bias_setting + offsets


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
) -> np.ndarray:
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
    offsets = _mixture_offsets(rng, size, contract.fail_prob, spread, tail_magnitude)
    UQPE2_COST.charge(contract, ledger, offsets.size)
    return reduce_angle(theta + bias_setting + offsets)


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
    bias_fraction: float


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
    bias_fraction = delta / (4.0 * log_term)
    return PhaseRegisterParams(m, n, depth_scale, n_real, depth_scale_real, bias_fraction)

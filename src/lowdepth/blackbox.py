"""Synthetic black-box estimators and published-algorithm parameter maps.

The synthetic samplers realise their contracts *exactly* (two-point
constructions), which isolates the aggregation math from any particular
estimation circuit.  Each is a :class:`SyntheticStage`, built once from a
contract (its checks, its outcome values and the charge of one run), whose
draw takes ``size`` independent runs from the generator it is given and
returns how many runs landed on each outcome.  The
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
    """Symbolic depth/query costs charged per synthetic run."""

    depth_fn: Callable[[object], int]
    queries_fn: Callable[[object], int]

    def per_run(self, contract) -> tuple[int, int]:
        """``(depth, queries)`` one run of ``contract`` charges."""
        depth = self.depth_fn(contract)
        # A single run can never make fewer queries than its deepest circuit.
        return depth, max(depth, self.queries_fn(contract))


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
    outcomes at least one run landed on.  A draw that is not a ``(values, counts)``
    pair, values that are not 1-D, counts of another length, counts that are not
    non-negative integers and counts that do not sum to ``runs`` are rejected,
    naming the stage."""
    draws = []
    for name, contract, runs in stages:
        draw = sampler(name, contract, rng, ledger, runs)
        try:
            values, counts = draw
        except (TypeError, ValueError):
            raise ValueError(f"stage {name!r} drew a {type(draw).__name__} that is not a "
                             "(values, counts) pair") from None
        outcomes = _listed_outcomes(values, counts, runs)
        draws.append(_array_outcomes(name, values, counts, runs) if outcomes is None
                     else outcomes)
    return draws


def _array_outcomes(name: str, values, counts, runs: int) -> list[tuple[float, int]]:
    """A stage's draw checked as numpy holds it, ``values`` as a float array and
    ``counts`` as np.asarray makes them, and returned as :func:`walk_stages` does."""
    values, counts = np.asarray(values, dtype=float), np.asarray(counts)
    if values.ndim != 1 or counts.shape != values.shape:
        raise ValueError(f"stage {name!r} drew values of shape {values.shape} and counts "
                         f"of shape {counts.shape}, expected two 1-D arrays of one length")
    counts = counts.tolist()
    if any(type(count) is not int or count < 0 for count in counts):
        raise ValueError(f"stage {name!r} drew counts {counts}, expected non-negative integers")
    if sum(counts) != runs:
        raise ValueError(f"stage {name!r} drew {sum(counts)} runs, expected {runs}")
    return [(value, count) for value, count in zip(values.tolist(), counts) if count]


def _listed_outcomes(values, counts, runs: int) -> list[tuple[float, int]] | None:
    """:func:`_array_outcomes` without numpy for a draw it accepts: lists or tuples of
    one length, of Python floats and of non-negative ints summing to ``runs`` below
    2^63, which np.asarray holds as float64 and int64 arrays and tolist gives back
    unchanged.  None for any other draw, which :func:`_array_outcomes` then checks."""
    if (type(values) in (list, tuple) and type(counts) in (list, tuple)
            and len(values) == len(counts) and {*map(type, values)} <= {float}
            and {*map(type, counts)} <= {int} and min(counts, default=0) >= 0
            and sum(counts) == runs and runs < 2**63):
        return [(value, count) for value, count in zip(values, counts) if count]
    return None


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


class SyntheticStage(NamedTuple):
    """One contract's synthetic runs, built once and drawn per trial: the outcome values
    in Python floats, the mixture's ``fail_prob`` (None for a two-point stage, whose
    values are its minus and plus outcomes) and the ``depth`` and ``queries`` each run
    charges.  The builders below check the contract and compute all of it."""

    values: tuple[float, ...]
    fail_prob: float | None
    depth: int
    queries: int

    def draw(self, rng: np.random.Generator, ledger: ResourceLedger, size: int) -> list[int]:
        """How many of ``size`` runs from ``rng`` land on each of ``values``, charged to
        ``ledger``.  A two-point stage draws every run's sign; a mixture draws every run's
        coin (a tail with probability fail_prob), then every run's sign, and one run
        draws scalars, which move the generator as size-1 arrays do."""
        n = _run_count(size)
        if self.fail_prob is None:
            ups = int(np.count_nonzero(rng.integers(0, 2, size=n)))
            counts = [n - ups, ups]
        elif n == 1:
            counts = [0, 0, 0, 0]
            counts[2 * (rng.random() < self.fail_prob) + int(rng.integers(0, 2))] = 1
        else:
            fails = rng.random(n) < self.fail_prob
            signs = rng.integers(0, 2, size=n)
            tails, ups = int(np.count_nonzero(fails)), int(np.count_nonzero(signs))
            tail_ups = int(np.count_nonzero(signs[fails]))
            counts = [n - tails - ups + tail_ups, ups - tail_ups, tails - tail_ups, tail_ups]
        ledger.charge(self.depth, self.queries * n)
        return counts


def _mixture_offsets(spread: float, tail_magnitude: float) -> list[float]:
    """The four outcome offsets, good and tail branch each at minus then plus, computed
    as a run's would be."""
    return [(tail * (tail_magnitude - spread) + spread) * (up * 2 - 1)
            for tail in (False, True) for up in (0, 1)]


def uqae1_stage(a: Amplitude, contract: Uqae1Contract, bias_setting: float) -> SyntheticStage:
    """Two-point estimator meeting a bias/variance contract exactly.

    Returns a + bias_setting +/- sqrt(variance_bound) with equal sign
    probability, so the mean is a + bias_setting and the variance is
    exactly the contract's variance bound.
    """
    if abs(bias_setting) > contract.bias_bound + ABS_TOL:
        raise ValueError("bias_setting exceeds the contracted bias bound")
    spread = math.sqrt(contract.variance_bound)
    values = tuple(a.value + bias_setting + spread * sign for sign in (-1, 1))
    return SyntheticStage(values, None, *UQAE1_COST.per_run(contract))


def uqae2_stage(a: Amplitude, contract: Uqae2Contract, bias_setting: float,
                tail_magnitude: float) -> SyntheticStage:
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
    offsets = _mixture_offsets(contract.precision - abs(bias_setting), tail_magnitude)
    values = tuple(a.value + bias_setting + offset for offset in offsets)
    return SyntheticStage(values, contract.fail_prob, *UQAE2_COST.per_run(contract))


def uqpe2_stage(theta: float, contract: Uqpe2Contract, bias_setting: float,
                tail_magnitude: float, *, good_spread: float | None = None) -> SyntheticStage:
    """Circular two-point mixture honouring a phase contract exactly.

    Angles are in [0, 2 pi).  ``good_spread`` narrows the good
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
    values = tuple(reduce_angle(theta + bias_setting + offset)
                   for offset in _mixture_offsets(spread, tail_magnitude))
    return SyntheticStage(values, contract.fail_prob, *UQPE2_COST.per_run(contract))


def synth_uqae1_sample(a: Amplitude, contract: Uqae1Contract, bias_setting: float,
                       rng: np.random.Generator, ledger: ResourceLedger, *,
                       size: int) -> tuple[tuple[float, ...], list[int]]:
    """:func:`uqae1_stage` built for one call and drawn once: ``(values, counts)``."""
    stage = uqae1_stage(a, contract, bias_setting)
    return stage.values, stage.draw(rng, ledger, size)


def synth_uqae2_sample(a: Amplitude, contract: Uqae2Contract, bias_setting: float,
                       tail_magnitude: float, rng: np.random.Generator, ledger: ResourceLedger,
                       *, size: int) -> tuple[tuple[float, ...], list[int]]:
    """:func:`uqae2_stage` built for one call and drawn once: ``(values, counts)``."""
    stage = uqae2_stage(a, contract, bias_setting, tail_magnitude)
    return stage.values, stage.draw(rng, ledger, size)


def synth_uqpe2_sample(theta: float, contract: Uqpe2Contract, bias_setting: float,
                       tail_magnitude: float, rng: np.random.Generator, ledger: ResourceLedger,
                       *, good_spread: float | None = None,
                       size: int) -> tuple[tuple[float, ...], list[int]]:
    """:func:`uqpe2_stage` built for one call and drawn once: ``(values, counts)``."""
    stage = uqpe2_stage(theta, contract, bias_setting, tail_magnitude, good_spread=good_spread)
    return stage.values, stage.draw(rng, ledger, size)


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

"""Mean aggregation of black-box estimators into low-depth estimators.

Running a conforming black box independently and averaging trades query
count for circuit depth.  Two plans are provided: one driven by bias and
variance budgets (Chebyshev concentration, success floor above one half),
one driven by bias, per-run precision and failure probability (Hoeffding
concentration, explicit failure target).  Both are aggregated by the same
sample mean.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .blackbox import Sampler, Uqae1Contract, Uqae2Contract, walk_stages
from .core import ResourceLedger, SeedSpec, TargetSpec, ceil_int, counted_sum, derive_stream

# Bias fraction r and variance fraction s used by default for the
# bias/variance plan; they satisfy s < (1 - r)^2 / 2 with modest slack.
DEFAULT_BIAS_FRACTION_BV = 0.05
DEFAULT_VARIANCE_FRACTION_BV = 100.0 / 225.0

# Symmetric default split r = s = 1/4 for the precision/failure and phase plans.
DEFAULT_BIAS_FRACTION_PF = 0.25
DEFAULT_TAIL_FRACTION_PF = 0.25

class FeasibilityCheck(NamedTuple):
    valid: bool
    success_floor: float


def bias_variance_floor(bias_fraction: float, variance_fraction: float) -> FeasibilityCheck:
    """Feasibility of mean aggregation under bias/variance budgets.

    An estimator with bias at most ``bias_fraction * eps`` and variance at
    most ``variance_fraction * eps^2`` lands within eps of the truth with
    probability at least ``1 - variance_fraction / (1 - bias_fraction)^2``
    (Chebyshev).  The combination is valid when that floor exceeds 1/2,
    i.e. when variance_fraction < (1 - bias_fraction)^2 / 2.
    """
    if not 0.0 < bias_fraction < 1.0:
        raise ValueError("bias_fraction must lie in (0, 1)")
    if variance_fraction <= 0.0:
        raise ValueError("variance_fraction must be positive")
    headroom = (1.0 - bias_fraction) ** 2
    valid = variance_fraction < 0.5 * headroom
    return FeasibilityCheck(valid, 1.0 - variance_fraction / headroom)


class Type1Plan(NamedTuple):
    """Aggregation schedule for a bias/variance black box; ``success_floor``
    is the :func:`bias_variance_floor` of the fractions it is built from."""

    success_floor: float
    bias_bound: float
    variance_bound: float
    runs: int

    @classmethod
    def from_target(
        cls,
        target: TargetSpec,
        bias_fraction: float = DEFAULT_BIAS_FRACTION_BV,
        variance_fraction: float = DEFAULT_VARIANCE_FRACTION_BV,
    ) -> "Type1Plan":
        check = bias_variance_floor(bias_fraction, variance_fraction)
        if not check.valid:
            raise ValueError(
                "variance_fraction must stay below (1 - bias_fraction)^2 / 2 "
                f"(got r={bias_fraction}, s={variance_fraction})"
            )
        eps, beta = target.epsilon, target.beta
        return cls(
            success_floor=check.success_floor,
            bias_bound=bias_fraction * eps,
            variance_bound=variance_fraction * eps ** (2.0 - 2.0 * beta),
            runs=ceil_int(eps ** (-2.0 * beta)),
        )

    def contract(self) -> Uqae1Contract:
        return Uqae1Contract(self.bias_bound, self.variance_bound)

    def stages(self, target: TargetSpec | None = None) -> tuple:
        """A mean aggregation's one stage (only a phase plan reads ``target``)."""
        return (("aggregate", self.contract(), self.runs),)


def hoeffding_runs(target: TargetSpec, bias_fraction: float, tail_fraction: float) -> int:
    """Run count of the precision/failure plans (type 2 and circular phase).

    With slack ``1 - bias_fraction - tail_fraction`` left of eps for the
    spread of good runs, ``2 ln(4 / delta) eps^(-2 beta) / slack^2`` runs put
    Hoeffding's two-sided tail at half the failure budget.
    """
    if bias_fraction <= 0 or tail_fraction <= 0:
        raise ValueError("fractions must be positive")
    if bias_fraction + tail_fraction >= 1.0:
        raise ValueError("bias_fraction + tail_fraction must stay below 1")
    slack = 1.0 - bias_fraction - tail_fraction
    return ceil_int(
        2.0 * math.log(4.0 / target.delta) * target.epsilon ** (-2.0 * target.beta) / slack**2
    )


class Type2Plan(NamedTuple):
    """Aggregation schedule for a bias/precision/failure black box.

    ``runs`` is fixed first from the overall failure budget; the per-run
    failure probability then divides half that budget across the runs while
    also keeping the conditional bias shift below tail_fraction * eps.
    """

    output_cap: float
    bias_bound: float
    run_precision: float
    run_fail_prob: float
    runs: int

    @classmethod
    def from_target(
        cls,
        target: TargetSpec,
        bias_fraction: float = DEFAULT_BIAS_FRACTION_PF,
        tail_fraction: float = DEFAULT_TAIL_FRACTION_PF,
        output_cap: float = 1.0,
    ) -> "Type2Plan":
        runs = hoeffding_runs(target, bias_fraction, tail_fraction)
        if not 1.0 <= output_cap < math.inf:
            raise ValueError("output_cap must be finite and at least 1")
        eps, delta, beta = target.epsilon, target.delta, target.beta
        run_fail_prob = min(delta / (2.0 * runs), tail_fraction * eps / output_cap)
        return cls(
            output_cap=output_cap,
            bias_bound=bias_fraction * eps,
            run_precision=eps ** (1.0 - beta),
            run_fail_prob=run_fail_prob,
            runs=runs,
        )

    def contract(self) -> Uqae2Contract:
        return Uqae2Contract(
            self.bias_bound, self.run_precision, self.run_fail_prob, self.output_cap
        )

    stages = Type1Plan.stages


def aggregate_type1(
    sampler: Sampler, plan: Type1Plan | Type2Plan, *, seed: SeedSpec, ledger: ResourceLedger
) -> float:
    """Mean of ``plan.runs`` independent runs honouring ``plan.contract()``.

    On a :class:`Type1Plan` (bias/variance contract) the mean lands within
    eps of the truth with probability above the plan's ``success_floor``
    (Chebyshev).  On a :class:`Type2Plan` (precision/failure contract) a
    good/bad decomposition plus a union bound keeps the bad-run mass below
    half the failure budget and Hoeffding on the good part covers the rest,
    so the mean lands within eps with probability at least 1 - delta.

    The runs are the plan's one stage, drawn as :mod:`lowdepth.core` lays out.
    """
    [outcomes] = walk_stages(sampler, plan.stages(), derive_stream(seed, 0).rng(), ledger)
    # the exactly rounded sum of each outcome times its count: fsum of the runs
    return counted_sum(outcomes) / plan.runs


# bound here for bench/tracing.py, which wraps this name apart from aggregate_type1
aggregate_type2 = aggregate_type1


def boost_repetitions(success_floor: float, delta_target: float) -> int:
    """Odd repetition count driving a per-run success floor > 1/2 down to
    failure probability delta_target via the median (Chernoff bound)."""
    if not 0.5 < success_floor < 1.0:
        raise ValueError("success_floor must lie in (1/2, 1)")
    if not 0.0 < delta_target < 1.0:
        raise ValueError("delta_target must lie in (0, 1)")
    raw = math.log(1.0 / delta_target) / (2.0 * (success_floor - 0.5) ** 2)
    repetitions = max(1, ceil_int(raw))
    return repetitions if repetitions % 2 == 1 else repetitions + 1

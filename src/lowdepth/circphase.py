"""Circular arithmetic on [0, 2 pi) and centred low-depth phase estimation.

Angles cannot be averaged directly (the circle has no global mean), so the
estimator first pins down a short arc around a shallow reference estimate
that contains the truth with high probability, and averages only there.
Mapping that arc onto [0, 1], averaging and mapping back is an affine map
of the circular offsets from the arc's centre, so the estimator works with
those offsets directly: the estimate is the reference plus the mean offset,
each distinct estimate's offset taken once and weighted by how many runs
gave that estimate.

:func:`circ_diff` takes plain floats, :class:`Angle` objects or numpy arrays
of angles through one code path; scalar inputs give a Python ``float``,
array inputs an array of the same shape.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .aggregate import DEFAULT_BIAS_FRACTION_PF, DEFAULT_TAIL_FRACTION_PF, hoeffding_runs
from .blackbox import Sampler, Uqpe2Contract, walk_stages
from .core import ResourceLedger, SeedSpec, TargetSpec, counted_sum, derive_stream, reduce_angle

# Tolerance on the escape test |offset| <= half-width; an offset is one
# circular difference, a cancellation of magnitude at most 2 pi.
ARC_TOL = 1e-9

# Half-width of the reference arc built around the preprocessing estimate.
_REF_ARC_HALF_WIDTH = math.pi / 8

# Precision of the preprocessing (reference) call: a quarter circle.
REF_PRECISION = math.pi / 4

class Angle(namedtuple("Angle", "value")):
    """An angle reduced to its canonical representative in [0, 2 pi)."""

    __slots__ = ()

    def __new__(cls, value: float):
        return super().__new__(cls, float(_reduce(value)))


def _reduce(angles):
    """:func:`~lowdepth.core.reduce_angle`, reading an :class:`Angle` as its value."""
    return angles.value if isinstance(angles, Angle) else reduce_angle(angles)


def circ_diff(theta, phi):
    """Signed circular difference in [-pi, pi).

    The unique representative r with theta - phi = r (mod 2 pi); positive
    when the short way from theta back to phi runs clockwise.
    """
    # reduce_angle returns below 2 pi (a % rounded up to 2 pi becomes 0), so this is below pi
    return reduce_angle(_reduce(theta) - _reduce(phi) + math.pi) - math.pi


class PhasePlan(NamedTuple):
    """Schedule of the three-stage circular aggregation."""

    bias_fraction: float
    runs: int
    run_precision: float
    run_fail_prob: float

    @classmethod
    def from_target(
        cls,
        target: TargetSpec,
        bias_fraction: float = DEFAULT_BIAS_FRACTION_PF,
        tail_fraction: float = DEFAULT_TAIL_FRACTION_PF,
    ) -> "PhasePlan":
        runs = hoeffding_runs(target, bias_fraction, tail_fraction)
        eps, delta, beta = target.epsilon, target.delta, target.beta
        if eps >= _REF_ARC_HALF_WIDTH:
            raise ValueError(
                "target precision must stay below pi/8 so the widened arc "
                "spans less than the full circle"
            )
        run_fail_prob = min(delta / (2.0 * (runs + 1)), tail_fraction * eps / (4.0 * math.pi))
        return cls(
            bias_fraction=bias_fraction,
            runs=runs,
            run_precision=eps ** (1.0 - beta),
            run_fail_prob=run_fail_prob,
        )

    def ref_contract(self, target: TargetSpec) -> Uqpe2Contract:
        return Uqpe2Contract(target.epsilon, REF_PRECISION, self.run_fail_prob)

    def main_contract(self, target: TargetSpec) -> Uqpe2Contract:
        return Uqpe2Contract(
            self.bias_fraction * target.epsilon, self.run_precision, self.run_fail_prob
        )

    def stages(self, target: TargetSpec) -> tuple:
        return (("reference", self.ref_contract(target), 1),
                ("main", self.main_contract(target), self.runs))


def lowdepth_phase_estimate(
    sampler: Sampler,
    target: TargetSpec,
    plan: PhasePlan,
    *,
    seed: SeedSpec,
    ledger: ResourceLedger,
) -> Angle:
    """Three-stage circular aggregation of a phase black box on ``plan``.

    Preprocessing runs the sampler once at quarter-circle precision; its
    estimate is the reference.  The main stage runs it ``plan.runs`` times at
    hardware precision.  Postprocessing takes each distinct estimate's
    circular offset from the reference once, in Python floats, and returns
    the reference plus the offsets' mean weighted by the runs on each
    (:func:`~lowdepth.core.counted_sum`, exactly rounded).  That is the arc
    construction of the paper: the arc centred on the reference with
    half-width H = pi/8 + run precision, mapped onto [0, 1] by
    theta -> (offset + H) / (2H), averaged and mapped back.  The map is
    affine, so averaging the fractions and unmapping gives the reference
    plus the mean offset up to rounding.  Any estimate some run
    gave whose offset exceeds H (by more than ``ARC_TOL``) escapes the arc
    and aborts to the zero angle, which the harness counts as a failure.

    The two stages are the plan's, drawn as :mod:`lowdepth.core` lays out.
    """
    rng = derive_stream(seed, 0).rng()
    [(first, _)], estimates = walk_stages(sampler, plan.stages(target), rng, ledger)
    reference = Angle(first)
    offsets = [(circ_diff(estimate, reference), count) for estimate, count in estimates]
    half_width = _REF_ARC_HALF_WIDTH + plan.run_precision
    if max(abs(offset) for offset, _ in offsets) > half_width + ARC_TOL:
        return Angle(0.0)
    return Angle(reference.value + counted_sum(offsets) / plan.runs)

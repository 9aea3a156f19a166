"""Circular arithmetic on [0, 2 pi) and arc-based low-depth phase estimation.

Angles cannot be averaged directly (the circle has no global mean), so the
estimator first pins down a short arc that contains the truth with high
probability, maps that arc isometrically onto [0, 1], averages there, and
maps back.

:func:`circ_diff`, :meth:`Arc.contains` and :func:`arc_map` take plain
floats, :class:`Angle` objects or numpy arrays of angles through one code
path; scalar inputs give a Python ``float`` or ``bool``, array inputs an
array of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blackbox import Uqpe2Contract, draw_runs
from .core import TWO_PI, ResourceLedger, SeedSpec, TargetSpec, ceil_int, derive_stream

# Tolerance on the distance-additivity identity defining arc membership;
# the identity involves one cancellation of magnitude at most 2 pi.
ARC_TOL = 1e-9

# Half-width of the reference arc built around the preprocessing estimate.
_REF_ARC_HALF_WIDTH = math.pi / 8

# A phase sampler draws ``size`` independent runs of one contract from a
# single stage stream and returns them as an array of angles; run i is
# element i of each draw, as for the mean-aggregation samplers.
UqpeSampler = Callable[[Uqpe2Contract, SeedSpec, ResourceLedger, int], np.ndarray]


@dataclass(frozen=True)
class Angle:
    """An angle reduced to its canonical representative in [0, 2 pi)."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(_reduce(self.value)))


def _reduce(angles):
    """Canonical representative(s) in [0, 2 pi): a float for a scalar or an
    :class:`Angle`, an array for an array, both through the same arithmetic."""
    if isinstance(angles, Angle):
        return angles.value
    values = np.asarray(angles, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"angle must be finite, got {angles}")
    if values.ndim == 0:
        values = values.item()
    reduced = values % TWO_PI
    # float modulo may round up to the divisor itself; that angle is 0
    return reduced - TWO_PI * (reduced >= TWO_PI)


def circ_diff(theta, phi):
    """Signed circular difference in [-pi, pi).

    The unique representative r with theta - phi = r (mod 2 pi); positive
    when the short way from theta back to phi runs clockwise.
    """
    r = (_reduce(theta) - _reduce(phi) + math.pi) % TWO_PI - math.pi
    # float modulo rounding at the wrap point can give exactly pi; that is -pi
    return r - TWO_PI * (r >= math.pi)


@dataclass(frozen=True)
class Arc:
    """Counter-clockwise arc from ``start`` to ``end``.

    Arcs span at most half the circle, so membership is equivalent to the
    circular distances to both endpoints summing to the endpoint distance.
    """

    start: Angle
    end: Angle

    def __post_init__(self) -> None:
        if circ_diff(self.start, self.end) >= 0:
            raise ValueError(
                "arc endpoints must satisfy start (-) end < 0 "
                "(counter-clockwise span of at most half the circle)"
            )

    @property
    def length(self) -> float:
        # Equals end (-) start for arcs shorter than pi; written this way it
        # is also correct (+pi) at the half-circle boundary.
        return (self.end.value - self.start.value) % TWO_PI

    def contains(self, theta, tol: float = ARC_TOL):
        to_start = abs(circ_diff(theta, self.start))
        to_end = abs(circ_diff(theta, self.end))
        return abs(to_start + to_end - abs(circ_diff(self.start, self.end))) <= tol


def arc_map(arc: Arc, theta):
    """Map an angle on the arc to its fraction of arc length in [0, 1].

    The map is bijective and difference-preserving up to the arc-length
    normalisation: differences of mapped values are circular differences
    divided by ``arc.length``.
    """
    values = _reduce(theta)
    outside = np.extract(np.logical_not(arc.contains(values)), values)
    if outside.size:
        raise ValueError(f"angle {outside[0]} lies outside the arc")
    fraction = np.clip(circ_diff(values, arc.start) / arc.length, 0.0, 1.0)
    return fraction if isinstance(values, np.ndarray) else float(fraction)


def arc_unmap(arc: Arc, fraction: float) -> Angle:
    """Inverse of :func:`arc_map`: the angle at the given length fraction."""
    if not -ARC_TOL <= fraction <= 1.0 + ARC_TOL:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    return Angle(arc.start.value + fraction * arc.length)


@dataclass(frozen=True)
class PhasePlan:
    """Schedule of the three-stage circular aggregation."""

    bias_fraction: float
    tail_fraction: float
    runs: int
    run_precision: float
    run_fail_prob: float
    ref_precision: float

    @classmethod
    def from_target(
        cls, target: TargetSpec, bias_fraction: float = 0.25, tail_fraction: float = 0.25
    ) -> "PhasePlan":
        if bias_fraction <= 0 or tail_fraction <= 0:
            raise ValueError("fractions must be positive")
        if bias_fraction + tail_fraction >= 1.0:
            raise ValueError("bias_fraction + tail_fraction must stay below 1")
        eps, delta, beta = target.epsilon, target.delta, target.beta
        if eps >= _REF_ARC_HALF_WIDTH:
            raise ValueError(
                "target precision must stay below pi/8 so the widened arc "
                "spans less than the full circle"
            )
        slack = 1.0 - bias_fraction - tail_fraction
        runs = ceil_int(2.0 * math.log(4.0 / delta) * eps ** (-2.0 * beta) / slack**2)
        run_fail_prob = min(delta / (2.0 * (runs + 1)), tail_fraction * eps / (4.0 * math.pi))
        return cls(
            bias_fraction=bias_fraction,
            tail_fraction=tail_fraction,
            runs=runs,
            run_precision=eps ** (1.0 - beta),
            run_fail_prob=run_fail_prob,
            ref_precision=math.pi / 4,
        )

    def ref_contract(self, target: TargetSpec) -> Uqpe2Contract:
        return Uqpe2Contract(target.epsilon, self.ref_precision, self.run_fail_prob)

    def main_contract(self, target: TargetSpec) -> Uqpe2Contract:
        return Uqpe2Contract(
            self.bias_fraction * target.epsilon, self.run_precision, self.run_fail_prob
        )


def lowdepth_phase_estimate(
    sampler: UqpeSampler,
    target: TargetSpec,
    bias_fraction: float = 0.25,
    tail_fraction: float = 0.25,
    *,
    seed: SeedSpec,
    ledger: ResourceLedger,
    diagnostics: dict | None = None,
) -> Angle:
    """Three-stage circular aggregation of a phase black box.

    Preprocessing runs the sampler once at quarter-circle precision and
    centres a quarter-circle arc on the result.  The main stage runs it
    ``runs`` times at hardware precision; postprocessing widens the arc by
    one run-precision on each side, maps all estimates into [0, 1], averages
    and maps back.  Any estimate escaping the widened arc aborts to the
    zero angle, which the harness counts as a failure.

    Each stage calls the sampler once on its own stream: the reference
    stage with ``derive_stream(seed, 0)`` and ``size=1``, the main stage
    with ``derive_stream(seed, 1)`` and ``size=plan.runs``.  Main run i is
    element i of each draw, so the result does not depend on the schedule.

    When a ``diagnostics`` dict is supplied it receives the arc length and
    both the mapped (normalised) and circular (radian) deviations of the
    main-stage estimates, making the normalisation gap between the two
    measurable.
    """
    plan = PhasePlan.from_target(target, bias_fraction, tail_fraction)
    reference = Angle(
        draw_runs(sampler, plan.ref_contract(target), derive_stream(seed, 0), ledger, 1)[0]
    )
    main_contract = plan.main_contract(target)
    estimates = draw_runs(sampler, main_contract, derive_stream(seed, 1), ledger, plan.runs)
    widened = Arc(
        Angle(reference.value - _REF_ARC_HALF_WIDTH - plan.run_precision),
        Angle(reference.value + _REF_ARC_HALF_WIDTH + plan.run_precision),
    )
    if diagnostics is not None:
        diagnostics["arc_length"] = widened.length
        diagnostics["runs"] = plan.runs
        diagnostics["escaped"] = False
    if not widened.contains(estimates).all():
        if diagnostics is not None:
            diagnostics["escaped"] = True
        return Angle(0.0)
    mapped = arc_map(widened, estimates)
    mean_fraction = math.fsum(mapped.tolist()) / plan.runs
    result = arc_unmap(widened, mean_fraction)
    if diagnostics is not None:
        diagnostics["mapped_mean"] = mean_fraction
        diagnostics["mapped_deviations"] = (mapped - mean_fraction).tolist()
        diagnostics["circular_deviations"] = circ_diff(estimates, result).tolist()
    return result

"""Seeded Bernoulli samplers standing in for estimation circuits.

The simulator holds the true amplitude, reproduces exactly the head
probability a device would measure, and charges a :class:`ResourceLedger`
with the depth and query budget that device would have spent.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import Amplitude, ResourceLedger, SeedSpec

# Grid density for sup-norm boundedness certificates.
GRID_POINTS_PER_UNIT = 10_000

# Slack beyond which a polynomial is considered unbounded on [-1, 1].
BOUND_TOL = 1e-9


def _coefficient_evaluator(coefficients):
    coeffs = np.atleast_1d(np.asarray(coefficients, dtype=float))
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("polynomial coefficients must be a nonempty 1-d sequence")
    trimmed = np.trim_zeros(coeffs, "b")
    if trimmed.size == 0:
        trimmed = np.zeros(1)
    degree = trimmed.size - 1
    return (lambda x: npoly.polyval(x, trimmed)), degree


class PolyOracle:
    """Bernoulli sampler with head probability P(a)^2.

    ``poly`` is either an ascending power-basis coefficient sequence or an
    object exposing vectorised ``evaluate`` and ``degree`` (such as the
    Chebyshev-basis polynomials built by :mod:`lowdepth.rallfuller`).
    Construction certifies |P| <= 1 on a dense grid over [-1, 1] unless the
    polynomial carries its own boundedness certificate.
    """

    def __init__(self, poly, amplitude: Amplitude):
        self.poly = poly
        self.amplitude = amplitude
        if hasattr(poly, "evaluate") and hasattr(poly, "degree"):
            evaluate = poly.evaluate
            degree = int(poly.degree)
            certified = bool(getattr(poly, "bounded_certified", False))
        else:
            evaluate, degree = _coefficient_evaluator(poly)
            certified = False
        if not certified:
            grid = np.linspace(-1.0, 1.0, 2 * GRID_POINTS_PER_UNIT + 1)
            worst = float(np.max(np.abs(evaluate(grid))))
            if worst > 1.0 + BOUND_TOL:
                raise ValueError(
                    f"polynomial exceeds unit bound on [-1, 1]: max |P| = {worst}"
                )
        value = float(evaluate(np.asarray(amplitude.value)))
        if abs(value) > 1.0 + BOUND_TOL:
            raise ValueError(f"|P(a)| = {abs(value)} exceeds 1 at the stored amplitude")
        self._evaluate = evaluate
        self.degree = degree
        self.head_probability = min(1.0, value * value)

    def evaluate(self, x):
        return self._evaluate(x)


def poly_sample(
    oracle: PolyOracle,
    shots: int,
    seed: SeedSpec,
    ledger: ResourceLedger,
) -> int:
    """Head count of ``shots`` draws from Bernoulli(P(a)^2).

    Charges depth deg P and ``shots * deg P`` queries, the cost of playing
    the polynomial through a signal-processing circuit.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    heads = int(seed.rng().binomial(shots, oracle.head_probability))
    ledger.charge(oracle.degree, shots * oracle.degree)
    return heads

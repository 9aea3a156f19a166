"""Seeded Bernoulli samplers standing in for estimation circuits.

The simulator holds the true amplitude, reproduces exactly the head
probability a device would measure, and charges a :class:`ResourceLedger`
with the depth and query budget that device would have spent.  The unit
bound |P| <= 1 on [-1, 1] is the polynomial's constructor's to prove; the
oracle checks it only at the stored amplitude.
"""

from __future__ import annotations

import numpy as np

from .core import Amplitude, ResourceLedger

# Slack beyond which |P(a)| is considered to exceed 1.
BOUND_TOL = 1e-9


class PolyOracle:
    """Bernoulli sampler with head probability P(a)^2.

    ``poly`` exposes a vectorised ``evaluate`` and an integer ``degree``,
    such as the Chebyshev-basis :class:`~lowdepth.rallfuller.SemiPellianPoly`,
    whose construction proves |P| <= 1 on [-1, 1].
    """

    def __init__(self, poly, amplitude: Amplitude):
        value = float(poly.evaluate(np.asarray(amplitude.value)))
        if abs(value) > 1.0 + BOUND_TOL:
            raise ValueError(f"|P(a)| = {abs(value)} exceeds 1 at the stored amplitude")
        self.degree = int(poly.degree)
        self.head_probability = min(1.0, value * value)


def poly_sample(
    oracle: PolyOracle,
    shots: int,
    rng: np.random.Generator,
    ledger: ResourceLedger,
) -> int:
    """Head count of ``shots`` draws from Bernoulli(P(a)^2), taken from ``rng``.

    Charges depth deg P and ``shots * deg P`` queries, the cost of playing
    the polynomial through a signal-processing circuit.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    heads = int(rng.binomial(shots, oracle.head_probability))
    ledger.charge(oracle.degree, shots * oracle.degree)
    return heads

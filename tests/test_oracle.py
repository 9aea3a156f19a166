import math

import numpy as np
import pytest

from lowdepth.core import Amplitude, ResourceLedger, SeedSpec, TargetSpec
from lowdepth.oracle import PolyOracle, poly_sample
from lowdepth.rallfuller import ConfidenceInterval, rf_params, semi_pellian


class PowerPoly:
    """Power-basis test polynomial exposing the ``evaluate``/``degree`` pair."""

    def __init__(self, *coefficients):
        self.coefficients = coefficients
        self.degree = len(coefficients) - 1

    def evaluate(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coefficients)


class TestPolyOracle:
    def test_constant_polynomial_always_heads(self):
        oracle = PolyOracle(PowerPoly(1.0), Amplitude(0.2))
        heads = poly_sample(oracle, 50, SeedSpec(5, 0).rng(), ResourceLedger())
        assert heads == 50

    def test_identity_polynomial_head_fraction(self):
        # P(x) = x at a = 0.6 gives head probability 0.36
        oracle = PolyOracle(PowerPoly(0.0, 1.0), Amplitude(0.6))
        assert oracle.head_probability == pytest.approx(0.36, abs=1e-15)
        shots = 200_000
        heads = poly_sample(oracle, shots, SeedSpec(5, 1).rng(), ResourceLedger())
        sigma = math.sqrt(0.36 * 0.64 / shots)
        assert abs(heads / shots - 0.36) < 4 * sigma

    def test_ledger_charges_degree(self):
        ledger = ResourceLedger()
        oracle = PolyOracle(PowerPoly(0.0, 0.0, 0.5), Amplitude(0.5))  # degree 2
        poly_sample(oracle, 30, SeedSpec(5, 2).rng(), ledger)
        poly_sample(oracle, 12, SeedSpec(5, 3).rng(), ledger)
        assert ledger.max_depth == 2
        assert ledger.total_queries == 42 * 2

    def test_semi_pellian_right_segment_head_fraction(self):
        # With the truth in the right decision segment, the head probability
        # is at least (1/2 + gamma)^2; grid evaluation of P is the oracle.
        interval = ConfidenceInterval(0.0, 1.0)
        params = rf_params(interval, 0.5)
        poly = semi_pellian(params.tau, params.eta, params.k, interval, params.gamma)
        truth = 0.95  # inside [a_max - 0.1 width, a_max]
        oracle = PolyOracle(poly, Amplitude(truth))
        p_analytic = float(poly.evaluate(np.asarray(truth))) ** 2
        assert p_analytic >= (0.5 + params.gamma) ** 2
        shots = 100_000
        heads = poly_sample(oracle, shots, SeedSpec(5, 4).rng(), ResourceLedger())
        sigma = math.sqrt(p_analytic * (1 - p_analytic) / shots)
        assert heads / shots >= (0.5 + params.gamma) ** 2 - 3 * sigma

    def test_bounded_certificate_skips_regrid_but_checks_amplitude(self):
        interval = ConfidenceInterval(0.0, 1.0)
        params = rf_params(interval, 0.0)
        poly = semi_pellian(params.tau, params.eta, params.k, interval, params.gamma)
        oracle = PolyOracle(poly, Amplitude(0.5))
        assert 0.0 <= oracle.head_probability <= 1.0

    def test_amplitude_bound_checked_even_for_certified_objects(self):
        with pytest.raises(ValueError):
            PolyOracle(PowerPoly(1.5, 0.0, 0.0), Amplitude(0.5))


class TestTargetSpecIntegration:
    def test_oracle_calls_are_pure_given_seed(self):
        oracle = PolyOracle(PowerPoly(0.0, 0.0, 1.0), Amplitude(0.37))
        seed = SeedSpec(11, 5)
        first = poly_sample(oracle, 1000, seed.rng(), ResourceLedger())
        second = poly_sample(oracle, 1000, seed.rng(), ResourceLedger())
        assert first == second
        TargetSpec(0.1, 0.1, 0.5)  # smoke: shared types interoperate

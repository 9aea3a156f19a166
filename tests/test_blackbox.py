import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lowdepth.blackbox import (
    UQAE1_COST,
    UQAE2_COST,
    UQPE2_COST,
    Uqae1Contract,
    Uqae2Contract,
    Uqpe2Contract,
    apeldoorn_phase_params,
    cornelissen_amp_params,
    cornelissen_phase_params,
    monkey_sample,
    synth_uqae1_sample,
    synth_uqae2_sample,
    synth_uqpe2_sample,
)
from lowdepth.circphase import circ_diff
from lowdepth.core import TWO_PI, Amplitude, ResourceLedger, SeedSpec, TargetSpec, reduce_angle

A = Amplitude(0.3)
SEED = SeedSpec(314159, 0)

PROPERTY = settings(derandomize=True, database=None, deadline=None)
seeds = st.builds(SeedSpec, st.integers(0, 2**64 - 1), st.integers(0, 2**20))
sizes = st.integers(1, 2000)


class ChargeLog(ResourceLedger):
    """Ledger that also records each charge it receives."""

    def __init__(self) -> None:
        super().__init__()
        self.charges = []

    def charge(self, depth: int, queries: int) -> None:
        self.charges.append((depth, queries))
        super().charge(depth, queries)


def assert_one_charge(ledger, cost, contract, size):
    expected = ResourceLedger()
    cost.charge(contract, expected, size)
    assert ledger.charges == [(expected.max_depth, expected.total_queries)]


def assert_binomial(count, size, probability):
    # Six standard deviations: the draws are fixed by derandomised examples,
    # so this only guards against a wrong branch probability.
    assert abs(count - size * probability) <= 6 * math.sqrt(size * probability * (1 - probability)) + 1


class TestSynthUqae1:
    def test_two_point_support(self):
        contract = Uqae1Contract(bias_bound=0.05, variance_bound=0.01)
        values = synth_uqae1_sample(A, contract, 0.0, SEED.rng(), ResourceLedger(), size=10_000)
        assert set(np.round(values, 12)) == {0.2, 0.4}

    def test_mean_and_variance_exact_shape(self):
        contract = Uqae1Contract(bias_bound=0.05, variance_bound=0.01)
        n = 1_000_000
        values = synth_uqae1_sample(A, contract, 0.02, SeedSpec(1, 1).rng(), ResourceLedger(), size=n)
        assert abs(values.mean() - 0.32) < 3 * math.sqrt(0.01 / n)
        assert values.var() <= 0.01 * 1.05

    def test_degenerate_zero_variance_worst_bias(self):
        contract = Uqae1Contract(bias_bound=0.05, variance_bound=0.0)
        for index in range(5):
            values = synth_uqae1_sample(
                A, contract, 0.05, SeedSpec(1, index).rng(), ResourceLedger(), size=1
            )
            assert values[0] == 0.35

    def test_contract_conformance(self):
        contract = Uqae1Contract(bias_bound=0.01, variance_bound=0.004)
        n = 1_000_000
        values = synth_uqae1_sample(A, contract, 0.01, SeedSpec(1, 2).rng(), ResourceLedger(), size=n)
        assert abs(values.mean() - A.value) <= contract.bias_bound + 4 * math.sqrt(
            contract.variance_bound / n
        )
        assert values.var() <= contract.variance_bound * 1.05

    def test_bias_setting_validated(self):
        contract = Uqae1Contract(bias_bound=0.01, variance_bound=0.01)
        with pytest.raises(ValueError):
            synth_uqae1_sample(A, contract, 0.02, SEED.rng(), ResourceLedger(), size=1)

    def test_cost_model_charges(self):
        contract = Uqae1Contract(bias_bound=0.01, variance_bound=0.0025)
        ledger = ResourceLedger()
        synth_uqae1_sample(A, contract, 0.0, SEED.rng(), ledger, size=1)
        assert ledger.max_depth == 20  # ceil(0.0025 ** -0.5)
        expected_queries = math.ceil(20 * math.log(math.e / 0.01) * (1 - 1e-9))
        assert ledger.total_queries == expected_queries


class TestSynthUqae2:
    def test_zero_failure_reduces_to_two_point_within_precision(self):
        contract = Uqae2Contract(bias_bound=0.01, precision=0.05, fail_prob=0.0)
        values = synth_uqae2_sample(A, contract, 0.01, 0.5, SeedSpec(2, 0).rng(), ResourceLedger(), size=5000)
        assert np.all(np.abs(values - A.value) <= 0.05 + 1e-12)
        assert set(np.round(values, 12)) == {round(0.3 + 0.01 - 0.04, 12), round(0.3 + 0.01 + 0.04, 12)}

    def test_tail_rate_matches_fail_prob(self):
        contract = Uqae2Contract(bias_bound=0.01, precision=0.05, fail_prob=0.02)
        n = 1_000_000
        values = synth_uqae2_sample(
            A, contract, 0.0, 0.6, SeedSpec(2, 1).rng(), ResourceLedger(), size=n
        )
        out_rate = float(np.mean(np.abs(values - A.value) > contract.precision))
        assert out_rate <= contract.fail_prob + 4 * math.sqrt(contract.fail_prob / n)
        assert out_rate >= contract.fail_prob - 4 * math.sqrt(contract.fail_prob / n)

    def test_outputs_capped_and_mean_preserved(self):
        contract = Uqae2Contract(bias_bound=0.01, precision=0.05, fail_prob=0.1, output_cap=1.0)
        bias = contract.bias_bound
        tail = 1.0 - A.value - bias  # maximal allowed
        n = 1_000_000
        values = synth_uqae2_sample(A, contract, bias, tail, SeedSpec(2, 2).rng(), ResourceLedger(), size=n)
        assert np.max(np.abs(values)) <= 1.0 + 1e-12
        sigma = values.std() / math.sqrt(n)
        assert abs(values.mean() - (A.value + bias)) < 4 * sigma

    def test_good_part_mean_shift_bounded_by_cap_times_delta(self):
        contract = Uqae2Contract(bias_bound=0.01, precision=0.05, fail_prob=0.05, output_cap=1.0)
        bias = contract.bias_bound
        tail = 1.0 - A.value - bias
        n = 2_000_000
        values = synth_uqae2_sample(A, contract, bias, tail, SeedSpec(2, 3).rng(), ResourceLedger(), size=n)
        good = np.abs(values - A.value) <= contract.precision
        bad_mass = float(np.mean(np.where(good, 0.0, values)))
        # |E[bad part]| <= cap * delta, so the good part's mean is shifted
        # from the overall mean by at most that much.
        assert abs(bad_mass) <= contract.output_cap * contract.fail_prob + 0.01

    def test_preconditions_rejected(self):
        contract = Uqae2Contract(bias_bound=0.01, precision=0.05, fail_prob=0.1)
        with pytest.raises(ValueError):
            synth_uqae2_sample(A, contract, 0.02, 0.1, SEED.rng(), ResourceLedger(), size=1)
        with pytest.raises(ValueError):
            synth_uqae2_sample(A, contract, 0.01, 0.8, SEED.rng(), ResourceLedger(), size=1)
        big_precision = Uqae2Contract(bias_bound=0.01, precision=0.9, fail_prob=0.1)
        with pytest.raises(ValueError):
            synth_uqae2_sample(A, big_precision, 0.0, 0.0, SEED.rng(), ResourceLedger(), size=1)


class TestSynthUqpe2:
    def test_wraps_into_canonical_range(self):
        contract = Uqpe2Contract(bias_bound=0.05, precision=0.2, fail_prob=0.0)
        values = synth_uqpe2_sample(0.02, contract, 0.0, 0.0, SeedSpec(3, 0).rng(), ResourceLedger(), size=2000)
        assert np.all((0.0 <= values) & (values < 2 * math.pi))
        deviations = circ_diff(values, 0.02)
        assert np.all(np.abs(deviations) <= 0.2 + 1e-12)

    def test_circular_bias_matches_setting(self):
        contract = Uqpe2Contract(bias_bound=0.05, precision=0.2, fail_prob=0.0)
        n = 200_000
        values = synth_uqpe2_sample(
            6.27, contract, 0.05, 0.0, SeedSpec(3, 1).rng(), ResourceLedger(), size=n
        )
        deviations = circ_diff(values, 6.27)
        assert abs(deviations.mean() - 0.05) < 4 * deviations.std() / math.sqrt(n)

    def test_good_spread_narrowing(self):
        contract = Uqpe2Contract(bias_bound=0.05, precision=math.pi / 4, fail_prob=0.0)
        values = synth_uqpe2_sample(
            1.0, contract, 0.0, 0.0, SeedSpec(3, 2).rng(), ResourceLedger(), good_spread=0.1, size=500
        )
        deviations = circ_diff(values, 1.0)
        assert np.all(np.abs(np.abs(deviations) - 0.1) < 1e-12)

    def test_rejects_oversized_offsets(self):
        contract = Uqpe2Contract(bias_bound=0.05, precision=0.2, fail_prob=0.1)
        with pytest.raises(ValueError, match="offsets must stay below pi"):
            synth_uqpe2_sample(1.0, contract, 0.0, 3.2, SEED.rng(), ResourceLedger(), size=1)
        with pytest.raises(ValueError, match="good-branch spread"):
            synth_uqpe2_sample(
                1.0, contract, 0.0, 0.0, SEED.rng(), ResourceLedger(), good_spread=0.3, size=1
            )


SIZED_DRAWS = [
    lambda size: synth_uqae1_sample(A, Uqae1Contract(0.1, 0.01), 0.0, SEED.rng(),
                                    ResourceLedger(), size=size),
    lambda size: synth_uqae2_sample(A, Uqae2Contract(0.1, 0.2, 0.1), 0.0, 0.1, SEED.rng(),
                                    ResourceLedger(), size=size),
    lambda size: synth_uqpe2_sample(1.0, Uqpe2Contract(0.1, 0.2, 0.1), 0.0, 0.1,
                                    SEED.rng(), ResourceLedger(), size=size),
]


class TestSharedMixture:
    def test_amplitude_and_phase_samplers_draw_identical_offsets(self):
        # dyadic settings keep every sum exact, so the offsets compare bit for bit
        bias, tail, size = 0.125, 0.25, 1000
        amp_ledger, phase_ledger = ResourceLedger(), ResourceLedger()
        amp = synth_uqae2_sample(Amplitude(0.25), Uqae2Contract(0.125, 0.5, 0.3), bias, tail,
                                 SEED.rng(), amp_ledger, size=size)
        phase = synth_uqpe2_sample(1.0, Uqpe2Contract(0.125, 0.5, 0.3), bias, tail,
                                   SEED.rng(), phase_ledger, size=size)
        assert np.array_equal(amp - 0.375, phase - 1.125)
        assert set(np.abs(amp - 0.375)) == {0.375, 0.25}
        assert UQPE2_COST is UQAE2_COST
        assert amp_ledger == phase_ledger

    @pytest.mark.parametrize("draw", SIZED_DRAWS)
    def test_every_sampler_rejects_an_empty_draw(self, draw):
        assert draw(1).shape == (1,)
        with pytest.raises(ValueError, match="size must be positive"):
            draw(0)

    @pytest.mark.parametrize("draw", SIZED_DRAWS)
    def test_every_sampler_takes_only_an_integer_size(self, draw):
        # int() once turned 2.7 into 2 runs, True into 1 and "3" into 3
        for size in (2.7, True, "3", np.float64(3.0)):
            with pytest.raises(ValueError, match="size must be an integer"):
                draw(size)
        assert draw(np.int64(3)).shape == (3,)


def per_run_offsets(rng, size, fail_prob, spread, tail):
    """Each run's mixture offset by the per-run formula: all coins, then all signs."""
    coins = rng.random(size)
    signs = rng.integers(0, 2, size=size) * 2 - 1
    return ((coins < fail_prob) * (tail - spread) + spread) * signs


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


class TestPerRunFormulaBitIdentity:
    """The mixture samplers compute each outcome once and gather it per run, and the phase
    sampler draws a one-run stage as scalars; every run still holds the bytes the per-run
    formula gives, and each generator ends where the formula's does, so the stage drawn
    next (a phase trial's main stage after its one-run reference) is unchanged too."""

    @PROPERTY
    @given(
        seeds, st.lists(st.integers(1, 2952), min_size=1, max_size=2),
        st.floats(0.0, 0.99) | st.just(0.0), st.floats(0.0, 0.3) | st.just(0.0),
        st.floats(0.0, 0.5), st.floats(-0.1, 0.1), st.floats(0.0, 1.0), st.floats(-7.0, 14.0),
    )
    # a phase trial's stages; no tail draws, then no good-branch spread
    @example(SEED, [1, 2952], 0.0, 0.1, 0.5, 0.05, 0.3, 0.003)
    @example(SEED, [1, 2952], 0.3, 0.0, 0.2, -0.05, 0.9, TWO_PI - 0.01)
    @example(SeedSpec(7, 3), [1, 1], 0.9, 0.2, 0.4, 0.1, 0.0, 0.0)
    @example(SeedSpec(7, 4), [2, 3], 0.5, 0.0, 0.0, -0.1, 1.0, 13.0)
    @example(SeedSpec(7, 5), [1, 5], 0.0, 0.0, 0.3, 0.1, 0.5, -6.5)
    def test_samplers_match_the_per_run_formula(self, seed, stage_sizes, fail_prob, spread, tail,
                                                bias, truth, theta):
        assume(abs(bias) + spread > 1e-6)  # the amplitude precision, whose inverse the cost takes
        amp_contract = Uqae2Contract(abs(bias) + 0.01, abs(bias) + spread, fail_prob, 3.0)
        amp_spread = amp_contract.precision - abs(bias)
        phase_contract = Uqpe2Contract(abs(bias) + 0.01, abs(bias) + spread + 0.1, fail_prob)
        amp_rng, amp_formula_rng, phase_rng, phase_formula_rng = (seed.rng() for _ in range(4))
        for size in stage_sizes:
            amp = synth_uqae2_sample(Amplitude(truth), amp_contract, bias, tail, amp_rng,
                                     ResourceLedger(), size=size)
            offsets = per_run_offsets(amp_formula_rng, size, fail_prob, amp_spread, tail)
            assert_same_bytes(amp, truth + bias + offsets)
            phase = synth_uqpe2_sample(theta, phase_contract, bias, tail, phase_rng,
                                       ResourceLedger(), good_spread=spread, size=size)
            offsets = per_run_offsets(phase_formula_rng, size, fail_prob, spread, tail)
            assert_same_bytes(phase, reduce_angle(theta + bias + offsets))
        # PCG64 keeps the spare half of a word a one-run sign draw took for the next one
        states = [rng.bit_generator.state
                  for rng in (amp_rng, amp_formula_rng, phase_rng, phase_formula_rng)]
        assert states[0] == states[1] == states[2] == states[3]


class TestSamplerContracts:
    """Batched draws realise each contract's two-point law exactly: every
    deviation from a + bias_setting is one of the branch magnitudes with a
    symmetric sign, so the mean is exactly a + bias_setting, the uqae1
    variance exactly the variance bound, and every good-branch draw within
    precision; the branch and sign counts match their probabilities."""

    @PROPERTY
    @given(st.floats(0.0, 1.0), st.floats(1e-4, 0.2), st.floats(-1.0, 1.0), st.floats(0.0, 0.05), seeds, sizes)
    def test_uqae1(self, truth, bias_bound, bias_fraction, variance, seed, size):
        contract = Uqae1Contract(bias_bound=bias_bound, variance_bound=variance)
        bias, ledger = bias_fraction * bias_bound, ChargeLog()
        values = synth_uqae1_sample(Amplitude(truth), contract, bias, seed.rng(), ledger, size=size)
        assert values.shape == (size,)
        deviations = values - (truth + bias)
        np.testing.assert_allclose(np.abs(deviations), math.sqrt(variance), rtol=0, atol=1e-12)
        if math.sqrt(variance) > 1e-9:
            assert_binomial(int(np.sum(deviations > 0)), size, 0.5)
        assert_one_charge(ledger, UQAE1_COST, contract, size)

    @PROPERTY
    @given(
        st.floats(0.0, 0.9), st.floats(0.01, 1.0), st.floats(1e-4, 0.1), st.floats(-1.0, 1.0),
        st.floats(0.0, 0.999), st.floats(0.0, 0.5), seeds, sizes,
    )
    # a subnormal failure probability once overflowed the cost model's log(1/p)
    @example(0.3, 0.5, 0.01, 0.5, 0.5, 2.225e-309, SeedSpec(0, 0), 100)
    def test_uqae2(self, truth, precision_fraction, bias_bound, bias_fraction, tail_fraction,
                   fail_prob, seed, size):
        precision = precision_fraction * (1.0 - truth)
        contract = Uqae2Contract(bias_bound=bias_bound, precision=precision, fail_prob=fail_prob)
        bias = bias_fraction * min(bias_bound, precision)
        tail = tail_fraction * (1.0 - truth - abs(bias))
        ledger = ChargeLog()
        values = synth_uqae2_sample(Amplitude(truth), contract, bias, tail, seed.rng(), ledger, size=size)
        assert values.shape == (size,)
        assert np.all(np.abs(values) <= contract.output_cap + 1e-12)
        magnitudes = np.abs(values - (truth + bias))
        good = np.abs(magnitudes - (precision - abs(bias))) <= 1e-12
        assert np.all(good | (np.abs(magnitudes - tail) <= 1e-12))
        assert np.all(np.abs(values[good] - truth) <= precision + 1e-12)
        if abs(tail - (precision - abs(bias))) > 1e-9:
            assert_binomial(int(np.sum(~good)), size, fail_prob)
        if np.all(magnitudes > 1e-9):
            assert_binomial(int(np.sum(values > truth + bias)), size, 0.5)
        assert_one_charge(ledger, UQAE2_COST, contract, size)

    @PROPERTY
    @given(
        st.floats(0.0, 2 * math.pi, exclude_max=True), st.floats(1e-3, math.pi),
        st.floats(1e-4, 0.1), st.floats(-1.0, 1.0), st.floats(0.0, 0.999), st.floats(0.0, 0.5),
        seeds, sizes,
    )
    # 0.7 + 0.1 - 0.8 is a tiny negative float, which float modulo rounds to 2 pi
    @example(0.7, 0.9, 0.1, 1.0, 0.0, 0.0, SeedSpec(1, 0), 100)
    def test_uqpe2(self, theta, precision, bias_bound, bias_fraction, tail_fraction, fail_prob,
                   seed, size):
        contract = Uqpe2Contract(bias_bound=bias_bound, precision=precision, fail_prob=fail_prob)
        bias = bias_fraction * min(bias_bound, precision)
        tail = tail_fraction * (math.pi - abs(bias))
        ledger = ChargeLog()
        values = synth_uqpe2_sample(theta, contract, bias, tail, seed.rng(), ledger, size=size)
        assert values.shape == (size,)
        assert np.all((0.0 <= values) & (values < 2 * math.pi))
        offsets = circ_diff(values, theta + bias)
        magnitudes = np.abs(offsets)
        good = np.abs(magnitudes - (precision - abs(bias))) <= 1e-9
        assert np.all(good | (np.abs(magnitudes - tail) <= 1e-9))
        assert np.all(np.abs(circ_diff(values[good], theta)) <= precision + 1e-9)
        if abs(tail - (precision - abs(bias))) > 1e-6:
            assert_binomial(int(np.sum(~good)), size, fail_prob)
        if np.all(magnitudes > 1e-6):
            assert_binomial(int(np.sum(offsets > 0)), size, 0.5)
        assert_one_charge(ledger, UQPE2_COST, contract, size)


class TestMonkey:
    def test_deterministic_output(self):
        assert monkey_sample(Amplitude(0.5), 0.1) == 0.4
        values = {monkey_sample(A, 0.05) for _ in range(100)}
        assert values == {0.25}

    def test_zero_variance_over_many_calls(self):
        values = [monkey_sample(A, 0.02) for _ in range(10_000)]
        assert statistics.pvariance(values) == 0.0

    def test_valid_precision_failure_sampler_but_invalid_bias_variance(self):
        # As a precision/failure black box with bias bound = precision and
        # zero failure it conforms; as a bias/variance box with any bias
        # bound below its offset it does not.
        epsilon = 0.05
        value = monkey_sample(A, epsilon)
        assert abs(value - A.value) <= epsilon  # within precision surely
        realised_bias = abs(value - A.value)
        assert realised_bias <= Uqae2Contract(epsilon, epsilon, 0.0).bias_bound
        for too_small in (0.04, 0.01, 1e-6):
            assert realised_bias > Uqae1Contract(too_small, 1.0).bias_bound

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            monkey_sample(A, 0.0)


class TestCostModels:
    def test_queries_never_below_depth(self):
        contract = Uqae2Contract(bias_bound=0.5, precision=0.01, fail_prob=0.9)
        ledger = ResourceLedger()
        UQAE2_COST.charge(contract, ledger, 1)
        assert ledger.total_queries >= ledger.max_depth

    def test_depth_scales_like_inverse_sqrt_variance(self):
        for variance in (0.01, 0.0001):
            contract = Uqae1Contract(bias_bound=0.01, variance_bound=variance)
            assert UQAE1_COST.depth_fn(contract) == math.ceil(variance**-0.5 * (1 - 1e-9))


class TestCornelissenAmpParams:
    def test_depth_scale_example(self):
        params = cornelissen_amp_params(TargetSpec(0.01, 0.1, 0.5))
        assert params.depth_scale == pytest.approx(150.0, rel=1e-12)

    def test_beta_one_depth_scale_independent_of_epsilon(self):
        for epsilon in (0.1, 0.01, 0.001):
            params = cornelissen_amp_params(TargetSpec(epsilon, 0.1, 1.0))
            assert params.depth_scale == pytest.approx(15.0, rel=1e-12)

    @pytest.mark.parametrize("epsilon", [0.1, 0.05, 0.01])
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_inequality_chain(self, epsilon, beta):
        params = cornelissen_amp_params(TargetSpec(epsilon, 0.1, beta))
        spread = epsilon ** (2 - 2 * beta)
        # 91 / K^2 equals (s - s') * eps^(2 - 2 beta) with s = 100/225, s' = 9/225
        assert 91.0 / params.depth_scale**2 == pytest.approx((91.0 / 225.0) * spread, rel=1e-9)
        assert params.bias_bound <= 0.05 * epsilon + 1e-15
        # worst-case variance of the estimator stays within the implied bound
        assert 91.0 / params.depth_scale**2 + params.bias_bound <= params.implied_variance_bound * (
            1 + 1e-9
        )
        assert params.implied_variance_bound == pytest.approx((4.0 / 9.0) * spread, rel=1e-12)


class TestCornelissenPhaseParams:
    def test_depth_scale_example(self):
        params = cornelissen_phase_params(TargetSpec(0.01, 0.1, 0.0))
        assert params.depth_scale == pytest.approx(math.sqrt(3) * 100, rel=1e-12)

    def test_beta_one(self):
        params = cornelissen_phase_params(TargetSpec(0.01, 0.1, 1.0))
        assert params.depth_scale == pytest.approx(math.sqrt(3), rel=1e-12)

    @pytest.mark.parametrize("epsilon", [0.1, 0.02])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_variance_bound_holds(self, epsilon, beta):
        params = cornelissen_phase_params(TargetSpec(epsilon, 0.1, beta))
        spread = epsilon ** (2 - 2 * beta)
        assert 1.0 / params.depth_scale**2 + params.bias_bound <= (4.0 / 9.0) * spread * (1 + 1e-9)


class TestApeldoornPhaseParams:
    @pytest.mark.parametrize("epsilon", [0.1, 0.03, 0.01])
    @pytest.mark.parametrize("delta", [0.3, 0.1, 0.01])
    def test_system_equations_before_rounding(self, epsilon, delta):
        params = apeldoorn_phase_params(TargetSpec(epsilon, delta, 0.5))
        log_term = math.log(4.0 / delta)
        rhs = epsilon**2 * delta / (64.0 * log_term)
        assert math.exp(-params.m / 4.0) == pytest.approx(rhs, rel=1e-6)
        assert math.pi * (params.m + 1) * 2.0**-params.n_real == pytest.approx(rhs / 2.0, rel=1e-6)
        assert (10.0 / params.depth_scale_real) * (1 + 2.0**-params.n_real) == pytest.approx(
            epsilon**0.5, rel=1e-6
        )

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_rounded_values_preserve_inequalities(self, beta):
        epsilon, delta = 0.02, 0.1
        params = apeldoorn_phase_params(TargetSpec(epsilon, delta, beta))
        log_term = math.log(4.0 / delta)
        assert math.pi * (params.m + 1) * 2.0**-params.n <= epsilon**2 * delta / (128.0 * log_term)
        # bias bound 32 pi (m+1) 2^-n <= r eps^2 with r = delta / (4 log(4/delta))
        bias_fraction = delta / (4.0 * log_term)
        assert 32.0 * math.pi * (params.m + 1) * 2.0**-params.n <= bias_fraction * epsilon**2
        # accuracy: (10 / M)(1 + 2^-n) must not exceed the run precision
        assert (10.0 / params.depth_scale) * (1 + 2.0**-params.n) <= epsilon ** (1 - beta) * (
            1 + 1e-9
        )

    def test_register_size_requirement_checked(self):
        params = apeldoorn_phase_params(TargetSpec(0.01, 0.05, 0.5))
        assert params.n >= math.log2(math.pi * params.m)

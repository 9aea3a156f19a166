import math
import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lowdepth.aggregate import Type1Plan, Type2Plan, aggregate_type1, aggregate_type2
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
    uqae1_stage,
    uqae2_stage,
    uqpe2_stage,
    walk_stages,
)
from lowdepth.blackbox import _array_outcomes, _listed_outcomes
from lowdepth.circphase import PhasePlan, circ_diff, lowdepth_phase_estimate
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
    depth, queries = cost.per_run(contract)
    assert ledger.charges == [(depth, queries * size)]


def runs(draw):
    """A sampler's ``(values, counts)`` as one array of its runs, each value ``count`` times."""
    values, counts = draw
    assert len(values) == len(counts) and all(count >= 0 for count in counts)
    return np.repeat(np.asarray(values, dtype=float), counts)


def assert_binomial(count, size, probability):
    # Six standard deviations: the draws are fixed by derandomised examples,
    # so this only guards against a wrong branch probability.
    assert abs(count - size * probability) <= 6 * math.sqrt(size * probability * (1 - probability)) + 1


class TestSynthUqae1:
    def test_two_point_support(self):
        contract = Uqae1Contract(bias_bound=0.05, variance_bound=0.01)
        values = runs(synth_uqae1_sample(A, contract, 0.0, SEED.rng(), ResourceLedger(), size=10_000))
        assert set(np.round(values, 12)) == {0.2, 0.4}

    def test_mean_and_variance_exact_shape(self):
        contract = Uqae1Contract(bias_bound=0.05, variance_bound=0.01)
        n = 1_000_000
        values = runs(synth_uqae1_sample(A, contract, 0.02, SeedSpec(1, 1).rng(), ResourceLedger(),
                                         size=n))
        assert abs(values.mean() - 0.32) < 3 * math.sqrt(0.01 / n)
        assert values.var() <= 0.01 * 1.05

    def test_degenerate_zero_variance_worst_bias(self):
        contract = Uqae1Contract(bias_bound=0.05, variance_bound=0.0)
        for index in range(5):
            values = runs(synth_uqae1_sample(
                A, contract, 0.05, SeedSpec(1, index).rng(), ResourceLedger(), size=1
            ))
            assert values[0] == 0.35

    def test_contract_conformance(self):
        contract = Uqae1Contract(bias_bound=0.01, variance_bound=0.004)
        n = 1_000_000
        values = runs(synth_uqae1_sample(A, contract, 0.01, SeedSpec(1, 2).rng(), ResourceLedger(),
                                         size=n))
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
        values = runs(synth_uqae2_sample(A, contract, 0.01, 0.5, SeedSpec(2, 0).rng(),
                                         ResourceLedger(), size=5000))
        assert np.all(np.abs(values - A.value) <= 0.05 + 1e-12)
        assert set(np.round(values, 12)) == {round(0.3 + 0.01 - 0.04, 12), round(0.3 + 0.01 + 0.04, 12)}

    def test_tail_rate_matches_fail_prob(self):
        contract = Uqae2Contract(bias_bound=0.01, precision=0.05, fail_prob=0.02)
        n = 1_000_000
        values = runs(synth_uqae2_sample(
            A, contract, 0.0, 0.6, SeedSpec(2, 1).rng(), ResourceLedger(), size=n
        ))
        out_rate = float(np.mean(np.abs(values - A.value) > contract.precision))
        assert out_rate <= contract.fail_prob + 4 * math.sqrt(contract.fail_prob / n)
        assert out_rate >= contract.fail_prob - 4 * math.sqrt(contract.fail_prob / n)

    def test_outputs_capped_and_mean_preserved(self):
        contract = Uqae2Contract(bias_bound=0.01, precision=0.05, fail_prob=0.1, output_cap=1.0)
        bias = contract.bias_bound
        tail = 1.0 - A.value - bias  # maximal allowed
        n = 1_000_000
        values = runs(synth_uqae2_sample(A, contract, bias, tail, SeedSpec(2, 2).rng(),
                                         ResourceLedger(), size=n))
        assert np.max(np.abs(values)) <= 1.0 + 1e-12
        sigma = values.std() / math.sqrt(n)
        assert abs(values.mean() - (A.value + bias)) < 4 * sigma

    def test_good_part_mean_shift_bounded_by_cap_times_delta(self):
        contract = Uqae2Contract(bias_bound=0.01, precision=0.05, fail_prob=0.05, output_cap=1.0)
        bias = contract.bias_bound
        tail = 1.0 - A.value - bias
        n = 2_000_000
        values = runs(synth_uqae2_sample(A, contract, bias, tail, SeedSpec(2, 3).rng(),
                                         ResourceLedger(), size=n))
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
        values = runs(synth_uqpe2_sample(0.02, contract, 0.0, 0.0, SeedSpec(3, 0).rng(),
                                         ResourceLedger(), size=2000))
        assert np.all((0.0 <= values) & (values < 2 * math.pi))
        deviations = circ_diff(values, 0.02)
        assert np.all(np.abs(deviations) <= 0.2 + 1e-12)

    def test_circular_bias_matches_setting(self):
        contract = Uqpe2Contract(bias_bound=0.05, precision=0.2, fail_prob=0.0)
        n = 200_000
        values = runs(synth_uqpe2_sample(
            6.27, contract, 0.05, 0.0, SeedSpec(3, 1).rng(), ResourceLedger(), size=n
        ))
        deviations = circ_diff(values, 6.27)
        assert abs(deviations.mean() - 0.05) < 4 * deviations.std() / math.sqrt(n)

    def test_good_spread_narrowing(self):
        contract = Uqpe2Contract(bias_bound=0.05, precision=math.pi / 4, fail_prob=0.0)
        values = runs(synth_uqpe2_sample(
            1.0, contract, 0.0, 0.0, SeedSpec(3, 2).rng(), ResourceLedger(), good_spread=0.1, size=500
        ))
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
        amp = runs(synth_uqae2_sample(Amplitude(0.25), Uqae2Contract(0.125, 0.5, 0.3), bias, tail,
                                      SEED.rng(), amp_ledger, size=size))
        phase = runs(synth_uqpe2_sample(1.0, Uqpe2Contract(0.125, 0.5, 0.3), bias, tail,
                                        SEED.rng(), phase_ledger, size=size))
        assert np.array_equal(amp - 0.375, phase - 1.125)
        assert set(np.abs(amp - 0.375)) == {0.375, 0.25}
        assert UQPE2_COST is UQAE2_COST
        assert amp_ledger == phase_ledger

    @pytest.mark.parametrize("draw", SIZED_DRAWS)
    def test_every_sampler_rejects_an_empty_draw(self, draw):
        assert runs(draw(1)).shape == (1,)
        with pytest.raises(ValueError, match="size must be positive"):
            draw(0)

    @pytest.mark.parametrize("draw", SIZED_DRAWS)
    def test_every_sampler_takes_only_an_integer_size(self, draw):
        # int() once turned 2.7 into 2 runs, True into 1 and "3" into 3
        for size in (2.7, True, "3", np.float64(3.0)):
            with pytest.raises(ValueError, match="size must be an integer"):
                draw(size)
        assert runs(draw(np.int64(3))).shape == (3,)


def per_run_offsets(rng, size, fail_prob, spread, tail):
    """Each run's mixture offset by the per-run formula: all coins, then all signs."""
    coins = rng.random(size)
    signs = rng.integers(0, 2, size=size) * 2 - 1
    return ((coins < fail_prob) * (tail - spread) + spread) * signs


def multiset(runs):
    """An array of runs as a Counter of their float bit patterns."""
    return Counter(np.asarray(runs, dtype=float).view(np.int64).tolist())


class TestPerRunFormulaBitIdentity:
    """The samplers count the runs that land on each outcome instead of returning the runs,
    and draw a one-run stage as scalars; their ``(values, counts)`` still hold, bit for bit,
    the multiset of runs the per-run formula gives, and each generator ends where the
    formula's does, so the stage drawn next (a phase trial's main stage after its one-run
    reference) is unchanged too."""

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
    # the tail equals the spread, so two outcomes hold one value
    @example(SeedSpec(7, 6), [40], 0.5, 0.25, 0.25, 0.0, 0.5, 1.0)
    def test_samplers_match_the_per_run_formula(self, seed, stage_sizes, fail_prob, spread, tail,
                                                bias, truth, theta):
        assume(abs(bias) + spread > 1e-6)  # the amplitude precision, whose inverse the cost takes
        mean_contract = Uqae1Contract(abs(bias) + 0.01, spread**2)
        amp_contract = Uqae2Contract(abs(bias) + 0.01, abs(bias) + spread, fail_prob, 3.0)
        amp_spread = amp_contract.precision - abs(bias)
        phase_contract = Uqpe2Contract(abs(bias) + 0.01, abs(bias) + spread + 0.1, fail_prob)
        rngs = [seed.rng() for _ in range(6)]
        mean_rng, mean_formula_rng, amp_rng, amp_formula_rng, phase_rng, phase_formula_rng = rngs
        for size in stage_sizes:
            mean = synth_uqae1_sample(Amplitude(truth), mean_contract, bias, mean_rng,
                                      ResourceLedger(), size=size)
            signs = mean_formula_rng.integers(0, 2, size=size) * 2 - 1
            expected = truth + bias + math.sqrt(mean_contract.variance_bound) * signs
            assert multiset(runs(mean)) == multiset(expected)
            amp = synth_uqae2_sample(Amplitude(truth), amp_contract, bias, tail, amp_rng,
                                     ResourceLedger(), size=size)
            offsets = per_run_offsets(amp_formula_rng, size, fail_prob, amp_spread, tail)
            assert multiset(runs(amp)) == multiset(truth + bias + offsets)
            phase = synth_uqpe2_sample(theta, phase_contract, bias, tail, phase_rng,
                                       ResourceLedger(), good_spread=spread, size=size)
            offsets = per_run_offsets(phase_formula_rng, size, fail_prob, spread, tail)
            assert multiset(runs(phase)) == multiset(reduce_angle(theta + bias + offsets))
        # PCG64 keeps the spare half of a word a one-run sign draw took for the next one
        states = [rng.bit_generator.state for rng in rngs]
        assert states[0] == states[1]
        assert states[2] == states[3] == states[4] == states[5]


# Each sampler's stage builder, one-call sampler and the arguments they share, as a
# harness stage passes them; the phase ones reduce offsets past 2 pi and build a
# narrowed reference stage.
STAGE_BUILDS = {
    "uqae1": (uqae1_stage, synth_uqae1_sample, (A, Uqae1Contract(0.0125, 0.01), -0.0125), {}),
    "uqae2": (uqae2_stage, synth_uqae2_sample,
              (A, Uqae2Contract(0.025, 0.1, 0.3), 0.025, 0.4), {}),
    "uqpe2": (uqpe2_stage, synth_uqpe2_sample,
              (TWO_PI - 0.01, Uqpe2Contract(0.025, 0.1, 0.3), 0.025, 1.5), {}),
    "uqpe2-reference": (uqpe2_stage, synth_uqpe2_sample,
                        (0.003, Uqpe2Contract(0.1, math.pi / 4, 0.3), -0.1, 1.5),
                        {"good_spread": math.pi / 10 - 0.1}),
}


class TestStageBuiltOnce:
    """A stage built once and drawn by trial after trial, each on its own generator,
    gives what the one-call sampler gives that trial, bit for bit: the values, the
    counts, the ledger's charges and the generator's state afterwards."""

    @pytest.mark.parametrize("sampler", STAGE_BUILDS)
    def test_matches_the_one_call_sampler(self, sampler):
        build, sample, args, kwargs = STAGE_BUILDS[sampler]
        stage = build(*args, **kwargs)
        for seed in (SEED, SeedSpec(0, 0), SeedSpec(7, 3), SeedSpec(2**64 - 1, 2**20)):
            built_rng, call_rng = seed.rng(), seed.rng()
            built_ledger, call_ledger = ChargeLog(), ChargeLog()
            for size in (1, 2, 2952, 1):
                counts = stage.draw(built_rng, built_ledger, size)
                values, call_counts = sample(*args, call_rng, call_ledger, size=size, **kwargs)
                assert [value.hex() for value in stage.values] == [
                    value.hex() for value in values]
                assert counts == call_counts and sum(counts) == size
                assert {type(count) for count in counts} == {int}
            assert built_ledger.charges == call_ledger.charges
            assert built_rng.bit_generator.state == call_rng.bit_generator.state


WALK_TARGET = TargetSpec(0.1, 0.1, 0.5)

# Every estimator draws its stages through walk_stages: each case names the stage
# a bad draw is returned for and runs the estimator with a given sampler.
STAGE_CASES = {
    "type1": ("aggregate", lambda sampler: aggregate_type1(
        sampler, Type1Plan.from_target(WALK_TARGET), seed=SEED, ledger=ResourceLedger())),
    "type2": ("aggregate", lambda sampler: aggregate_type2(
        sampler, Type2Plan.from_target(WALK_TARGET), seed=SEED, ledger=ResourceLedger())),
    **{stage: (stage, lambda sampler: lowdepth_phase_estimate(
        sampler, WALK_TARGET, PhasePlan.from_target(WALK_TARGET), seed=SEED,
        ledger=ResourceLedger())) for stage in ("reference", "main")},
}


def assert_rejected(case, bad, match):
    """The case's estimator, handed ``bad(runs)`` for its stage, names that stage."""
    stage, estimate = STAGE_CASES[case]

    def sampler(served, contract, rng, ledger, size):
        return bad(size) if served == stage else ([1.0], [size])

    with pytest.raises(ValueError, match=f"^stage '{stage}' drew .*{match}"):
        estimate(sampler)


class TestWalkStages:
    @pytest.mark.parametrize("case", STAGE_CASES)
    @pytest.mark.parametrize("bad", [
        lambda size: ([[1.0]], [[size]]),
        lambda size: (1.0, size),
        lambda size: ([1.0, 1.0], [size]),
        lambda size: ([1.0], [size, 0]),
    ], ids=["two-d", "scalar", "fewer-counts", "more-counts"])
    def test_rejects_values_not_1d_or_counts_of_another_length(self, case, bad):
        assert_rejected(case, bad, "expected two 1-D arrays of one length")

    @pytest.mark.parametrize("case", STAGE_CASES)
    @pytest.mark.parametrize("bad", [
        lambda size: ([1.0] * size, [True] * size),
        lambda size: ([1.0], [float(size)]),
        lambda size: ([1.0], np.array([size], dtype=float)),
        lambda size: ([1.0, 2.0], [size + 1, -1]),
    ], ids=["bool", "float", "float-array", "negative"])
    def test_rejects_counts_that_are_not_non_negative_integers(self, case, bad):
        assert_rejected(case, bad, "expected non-negative integers")

    @pytest.mark.parametrize("case", STAGE_CASES)
    def test_rejects_counts_that_do_not_sum_to_the_runs(self, case):
        # one run too many
        assert_rejected(case, lambda size: ([1.0], [size + 1]), "runs, expected")

    @pytest.mark.parametrize("case", STAGE_CASES)
    @pytest.mark.parametrize("bad", [
        lambda size: np.full(size, 1.0),
        lambda size: ([1.0], [size], [0.0]),
        lambda size: 1.0,
    ], ids=["per-run-array", "three-tuple", "scalar"])
    def test_rejects_a_draw_that_is_not_a_pair(self, case, bad):
        # the old protocol's bare per-run array, among others
        assert_rejected(case, bad, r"that is not a \(values, counts\) pair")

    def test_a_per_run_array_of_two_runs_still_names_its_stage(self):
        # two runs unpack into two scalars, which are no 1-D arrays
        def sampler(stage, contract, rng, ledger, size):
            return np.array([0.5, 0.25])

        with pytest.raises(ValueError, match=r"^stage 'pair' drew values of shape \(\)"):
            walk_stages(sampler, [("pair", None, 2)], SEED.rng(), ResourceLedger())

    def test_returns_the_outcomes_some_run_landed_on_as_python_numbers(self):
        def sampler(stage, contract, rng, ledger, size):
            return np.array([0.5, 0.25, 0.5], dtype=np.float32), np.array([2, 0, size - 2])

        stages = [("first", None, 3), ("second", None, 2)]
        draws = walk_stages(sampler, stages, SEED.rng(), ResourceLedger())
        assert draws == [[(0.5, 2), (0.5, 1)], [(0.5, 2)]]
        assert {(type(value), type(count)) for draw in draws for value, count in draw} == {
            (float, int)}


def checked(route):
    """A route's result with each pair's float bits and number types, or its error."""
    try:
        return [(value.hex(), type(value), count, type(count)) for value, count in route()]
    except (TypeError, ValueError, OverflowError) as err:
        return type(err), str(err)


def counted_runs(counts) -> int:
    try:
        return int(sum(int(count) for count in np.asarray(counts).tolist()))
    except (TypeError, ValueError, OverflowError):
        return 0


CONTAINERS = st.sampled_from([list, tuple, np.array])
value_items = (st.floats() | st.floats(-1.0, 1.0) | st.integers(-3, 3)
               | st.floats(-1.0, 1.0).map(np.float64))
count_items = (st.integers(0, 3000) | st.integers(0, 3) | st.integers(-3, -1)
               | st.integers(2**63 - 2, 2**64) | st.booleans() | st.integers(0, 50).map(np.int64)
               | st.floats(0.0, 5.0))


class TestListRoute:
    """walk_stages takes a draw of Python lists without numpy, and accepts and rejects
    every draw exactly as the array route does, with the same messages."""

    @settings(PROPERTY, max_examples=400)
    @given(CONTAINERS, CONTAINERS, st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.lists(st.floats(), min_size=n, max_size=n)
        | st.lists(value_items, min_size=n, max_size=n),
        st.lists(st.integers(0, 3000), min_size=n, max_size=n + 1)
        | st.lists(count_items, min_size=n, max_size=n + 1))),
        st.sampled_from([0, 0, 0, 1, -1]))
    # Python lists and tuples of floats and ints, which the list route takes
    @example(list, list, ([0.5, -0.0, math.nan], [2, 0, 1]), 0)
    @example(tuple, tuple, ([0.5, math.inf], [0, 3]), 0)
    @example(list, list, ([], []), 0)
    # numpy ints, which the array route holds as int64
    @example(list, list, ([0.5, 0.25], [np.int64(2), np.int64(1)]), 0)
    # a bool beside an int is held as int64 and taken; bools alone are refused
    @example(list, list, ([0.5, 0.25], [True, 1]), 0)
    @example(list, list, ([0.5, 0.25], [True, False]), 0)
    # a count past int64 beside a small one is held as a float and refused
    @example(list, list, ([0.5, 0.25], [1, 2**63]), 0)
    @example(list, list, ([0.5], [2**63]), 0)
    @example(list, list, ([0.5, 0.25], [2**63 - 1, 0]), 0)
    # negatives, wrong lengths, wrong sums, ints as values, float counts
    @example(list, list, ([0.5, 0.25], [4, -1]), 0)
    @example(list, list, ([0.5, 0.25], [3]), 0)
    @example(list, list, ([0.5], [3, 0]), 0)
    @example(list, list, ([0.5, 0.25], [2, 1]), 1)
    @example(list, list, ([1, 2], [2, 1]), 0)
    @example(list, list, ([0.5], [3.0]), 0)
    def test_accepts_and_rejects_as_the_array_route(self, values_kind, counts_kind, draw,
                                                    surplus):
        values, counts = values_kind(draw[0]), counts_kind(draw[1])
        runs = counted_runs(counts) + surplus
        array = checked(lambda: _array_outcomes("s", values, counts, runs))
        listed = _listed_outcomes(values, counts, runs)
        assert listed is None or checked(lambda: listed) == array
        if (values_kind is not np.array and counts_kind is not np.array
                and all(type(value) is float for value in values)
                and all(type(count) is int for count in counts) and runs < 2**63):
            # the list route takes every such draw the array route accepts
            assert (listed is None) == (type(array) is tuple)

        def sampler(stage, contract, rng, ledger, size):
            return values, counts

        assert checked(lambda: walk_stages(sampler, [("s", None, runs)], SEED.rng(),
                                           ResourceLedger())[0]) == array


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
        values = runs(synth_uqae1_sample(Amplitude(truth), contract, bias, seed.rng(), ledger,
                                         size=size))
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
        values = runs(synth_uqae2_sample(Amplitude(truth), contract, bias, tail, seed.rng(), ledger,
                                         size=size))
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
        values = runs(synth_uqpe2_sample(theta, contract, bias, tail, seed.rng(), ledger,
                                         size=size))
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
        depth, queries = UQAE2_COST.per_run(contract)
        assert queries >= depth

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

import math

import numpy as np
import pytest

from lowdepth.aggregate import (
    Type1Plan,
    Type2Plan,
    aggregate_type1,
    aggregate_type2,
    bias_variance_floor,
    boost_repetitions,
)
from lowdepth.blackbox import monkey_sample, synth_uqae1_sample, synth_uqae2_sample
from lowdepth.circphase import PhasePlan
from lowdepth.core import Amplitude, ResourceLedger, SeedSpec, TargetSpec, derive_stream

A = Amplitude(0.3)


def worst_bias_sampler(plan):
    def sampler(_stage, contract, rng, ledger, size):
        return synth_uqae1_sample(A, contract, plan.bias_bound, rng, ledger, size=size)

    return sampler


class TestBiasVarianceFloor:
    def test_reference_point(self):
        check = bias_variance_floor(0.05, 100.0 / 225.0)
        assert check.valid
        assert check.success_floor == pytest.approx(1 - (100 / 225) / 0.95**2, abs=1e-12)
        assert check.success_floor == pytest.approx(0.5076, abs=2e-4)

    def test_boundary_is_invalid(self):
        check = bias_variance_floor(0.5, 0.125)  # exactly (1-r)^2 / 2
        assert not check.valid
        assert check.success_floor == pytest.approx(0.5, abs=1e-12)

    def test_vanishing_budgets_push_floor_to_one(self):
        check = bias_variance_floor(1e-9, 1e-9)
        assert check.valid
        assert check.success_floor > 1 - 1e-8

    def test_floor_above_half_whenever_valid(self):
        rng = SeedSpec(0, 0).rng()
        for _ in range(200):
            r = float(rng.uniform(0.01, 0.99))
            s = float(rng.uniform(1e-6, 1.0))
            check = bias_variance_floor(r, s)
            if check.valid:
                assert check.success_floor > 0.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bias_variance_floor(0.0, 0.1)
        with pytest.raises(ValueError):
            bias_variance_floor(0.5, 0.0)


class TestPlans:
    def test_type1_run_counts(self):
        assert Type1Plan.from_target(TargetSpec(0.05, 0.1, 0.0)).runs == 1
        assert Type1Plan.from_target(TargetSpec(0.1, 0.1, 1.0)).runs == 100
        assert Type1Plan.from_target(TargetSpec(0.05, 0.1, 0.5)).runs == 20

    def test_type1_bounds(self):
        plan = Type1Plan.from_target(TargetSpec(0.05, 0.1, 1.0))
        assert plan.bias_bound == pytest.approx(0.05 * 0.05)
        assert plan.variance_bound == pytest.approx(100 / 225)

    def test_type1_rejects_infeasible_fractions(self):
        with pytest.raises(ValueError):
            Type1Plan.from_target(TargetSpec(0.05, 0.1, 0.5), 0.5, 0.2)

    def test_type2_reference_run_count(self):
        target = TargetSpec(0.01, 0.1, 0.5)
        # the circular phase plan reuses the type-2 run count unchanged
        for plan in (
            Type2Plan.from_target(target, 0.25, 0.25, 1.0),
            PhasePlan.from_target(target, 0.25, 0.25),
        ):
            assert plan.runs == 2952  # ceil(2 ln(40) * 100 / 0.25)

    def test_type2_run_fail_prob_joint_with_runs(self):
        plan = Type2Plan.from_target(TargetSpec(0.01, 0.1, 0.5), 0.25, 0.25, 1.0)
        assert plan.run_fail_prob == min(0.1 / (2 * plan.runs), 0.25 * 0.01 / 1.0)
        assert plan.runs * plan.run_fail_prob <= 0.1 / 2 + 1e-12
        assert plan.output_cap * plan.run_fail_prob <= 0.25 * 0.01 + 1e-12

    def test_type2_rejects_overfull_split(self):
        for plan_type in (Type2Plan, PhasePlan):
            with pytest.raises(ValueError, match="must stay below 1"):
                plan_type.from_target(TargetSpec(0.01, 0.1, 0.5), 0.6, 0.5)

    @pytest.mark.parametrize("cap", [0.5, math.nan, math.inf])
    def test_type2_rejects_cap_below_one_or_not_finite(self, cap):
        with pytest.raises(ValueError, match="output_cap"):
            Type2Plan.from_target(TargetSpec(0.01, 0.1, 0.5), 0.25, 0.25, cap)

    def test_simple_model_identity(self):
        # with zero bias and zero per-run failure, 2 ln(2/delta) eps^(-2 beta)
        # runs push the Hoeffding tail exactly to delta
        eps, delta, beta = 0.05, 0.02, 0.5
        runs = 2 * math.log(2 / delta) * eps ** (-2 * beta)
        tail = 2 * math.exp(-runs * eps ** (2 * beta) / 2)
        assert tail == pytest.approx(delta, rel=1e-12)


class TestAggregateType1:
    def test_single_run_at_beta_zero(self):
        target = TargetSpec(0.05, 0.1, 0.0)
        plan = Type1Plan.from_target(target)
        ledger = ResourceLedger()
        value = aggregate_type1(worst_bias_sampler(plan), plan, seed=SeedSpec(10, 0), ledger=ledger)
        # one run: the aggregate IS the run
        expected_depth = math.ceil(plan.variance_bound**-0.5 * (1 - 1e-9))
        assert ledger.max_depth == expected_depth
        assert abs(value - A.value) <= plan.bias_bound + math.sqrt(plan.variance_bound)

    def test_ledger_depth_constant_queries_scale_with_runs(self):
        target = TargetSpec(0.1, 0.1, 1.0)
        plan = Type1Plan.from_target(target)
        ledger = ResourceLedger()
        aggregate_type1(worst_bias_sampler(plan), plan, seed=SeedSpec(10, 1), ledger=ledger)
        per_run_depth = math.ceil(plan.variance_bound**-0.5 * (1 - 1e-9))
        per_run_queries = math.ceil(
            plan.variance_bound**-0.5 * math.log(math.e / plan.bias_bound) * (1 - 1e-9)
        )
        assert ledger.max_depth == per_run_depth
        assert ledger.total_queries == plan.runs * max(per_run_queries, per_run_depth)

    def test_variance_contraction(self):
        # sample variance of the aggregate tracks variance_bound / runs for
        # the exact two-point sampler
        target = TargetSpec(0.25, 0.1, 1.0)  # runs = 16
        plan = Type1Plan.from_target(target)
        runs = plan.runs
        meta = 4000
        sampler = worst_bias_sampler(plan)
        values = [
            aggregate_type1(sampler, plan, seed=SeedSpec(17, 1 + i), ledger=ResourceLedger())
            for i in range(meta)
        ]
        observed = np.var(values)
        expected = plan.variance_bound / runs
        assert observed == pytest.approx(expected, rel=0.15)

    def test_empirical_success_beats_floor(self):
        target = TargetSpec(0.05, 0.1, 0.5)
        plan = Type1Plan.from_target(target)
        floor = plan.success_floor
        sampler = worst_bias_sampler(plan)
        trials = 2000
        wins = sum(
            abs(
                aggregate_type1(sampler, plan, seed=SeedSpec(18, i), ledger=ResourceLedger())
                - A.value
            )
            <= target.epsilon
            for i in range(trials)
        )
        sigma = math.sqrt(floor * (1 - floor) / trials)
        assert wins / trials >= floor - 3 * sigma

    def test_bias_subadditivity(self):
        # alternating per-run bias +/- b: the aggregate's bias stays within
        # the mean of the individual biases (here b, and near zero by symmetry)
        target = TargetSpec(0.1, 0.1, 1.0)  # 100 runs per aggregate
        plan = Type1Plan.from_target(target)
        b = plan.bias_bound

        def alternating(_stage, contract, rng, ledger, size):
            # run i carries bias +b when i is even and -b when it is odd, each its own outcome
            signs = np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
            runs = np.repeat(*synth_uqae1_sample(A, contract, 0.0, rng, ledger, size=size))
            return runs + signs * b, np.ones(size, dtype=int)

        meta = 2000
        values = [
            aggregate_type1(alternating, plan, seed=SeedSpec(19, i), ledger=ResourceLedger())
            for i in range(meta)
        ]
        total_runs = meta * plan.runs
        tolerance = 4 * math.sqrt(plan.variance_bound / total_runs)
        assert abs(np.mean(values) - A.value) <= b + tolerance
        # constant worst bias saturates the subadditive bound
        constant = [
            aggregate_type1(
                worst_bias_sampler(plan), plan, seed=SeedSpec(20, i), ledger=ResourceLedger()
            )
            for i in range(meta)
        ]
        assert abs(np.mean(constant) - A.value) == pytest.approx(b, abs=tolerance)

    def test_monkey_falsification(self):
        # deterministic bias epsilon survives aggregation for every run count
        def monkey(_stage, contract, rng, ledger, size):
            return [monkey_sample(A, 0.05)], [size]

        for beta in (0.0, 0.4, 1.0):
            plan = Type1Plan.from_target(TargetSpec(0.05, 0.1, beta))
            value = aggregate_type1(monkey, plan, seed=SeedSpec(21, 0), ledger=ResourceLedger())
            assert abs(abs(value - A.value) - 0.05) <= 1e-15

    def test_deterministic_given_seed(self):
        target = TargetSpec(0.05, 0.1, 0.5)
        plan = Type1Plan.from_target(target)
        sampler = worst_bias_sampler(plan)
        first = aggregate_type1(sampler, plan, seed=SeedSpec(22, 5), ledger=ResourceLedger())
        second = aggregate_type1(sampler, plan, seed=SeedSpec(22, 5), ledger=ResourceLedger())
        assert first == second

    def test_rejects_infeasible_fractions_before_sampling(self):
        calls = {"count": 0}

        def counting(_stage, contract, rng, ledger, size):
            calls["count"] += 1
            return [0.0], [size]

        with pytest.raises(ValueError):
            aggregate_type1(
                counting,
                Type1Plan.from_target(TargetSpec(0.05, 0.1, 0.5), 0.5, 0.2),
                seed=SeedSpec(23, 0),
                ledger=ResourceLedger(),
            )
        assert calls["count"] == 0

    @pytest.mark.parametrize("draw", [
        lambda rng, size: np.full(2 * size, 0.3)[::2],
        lambda rng, size: rng.random(2 * size)[::2],
        lambda rng, size: np.broadcast_to(0.3, (size,)),
    ], ids=["constant-strided", "random-strided", "broadcast"])
    def test_a_strided_draw_sums_as_its_list(self, draw):
        # each run its own outcome, values and counts both strided views; the mean
        # reads what the lists hold
        plan = Type1Plan.from_target(TargetSpec(0.05, 0.1, 0.5))
        drawn = []

        def sampler(_stage, _contract, rng, _ledger, size):
            drawn.append(draw(rng, size))
            return drawn[-1], np.ones(2 * size, dtype=np.int64)[::2]

        value = aggregate_type1(sampler, plan, seed=SeedSpec(25, 0), ledger=ResourceLedger())
        assert value == math.fsum(drawn[0].tolist()) / plan.runs


class TestAggregateType2:
    def test_failure_rate_within_budget(self):
        target = TargetSpec(0.05, 0.1, 0.5)
        plan = Type2Plan.from_target(target)
        bias = plan.bias_bound
        tail = 1.0 - A.value - bias

        def sampler(_stage, contract, rng, ledger, size):
            return synth_uqae2_sample(A, contract, bias, tail, rng, ledger, size=size)

        trials = 400
        failures = sum(
            abs(
                aggregate_type2(sampler, plan, seed=SeedSpec(30, i), ledger=ResourceLedger())
                - A.value
            )
            > target.epsilon
            for i in range(trials)
        )
        assert failures / trials <= target.delta + 3 * math.sqrt(target.delta / trials)

    def test_rejects_overfull_split(self):
        with pytest.raises(ValueError):
            aggregate_type2(
                lambda _stage, contract, rng, ledger, size: ([0.0], [size]),
                Type2Plan.from_target(TargetSpec(0.05, 0.1, 0.5), 0.7, 0.4),
                seed=SeedSpec(31, 0),
                ledger=ResourceLedger(),
            )


class TestMedianBoost:
    def test_repetition_sizing_reference_value(self):
        # documents how much slack the floor needs: a floor of 0.5076 costs
        # tens of thousands of repetitions to reach 5% failure
        assert boost_repetitions(0.5076, 0.05) == 25933

    def test_empirical_boost(self):
        success = 0.75
        truth = 0.3

        def runner(seed):
            good = seed.rng().random() < success
            return truth if good else truth + 1.0

        def median(seed, repetitions):
            return float(np.median([runner(derive_stream(seed, index))
                                    for index in range(repetitions)]))

        delta_target = 0.05
        repetitions = boost_repetitions(success, delta_target)
        meta = 500
        failures = sum(
            abs(median(SeedSpec(41, i), repetitions) - truth) > 0.5 for i in range(meta)
        )
        assert failures / meta <= delta_target + 3 * math.sqrt(delta_target / meta)


class TestResourceShape:
    def test_depth_and_query_exponents(self):
        # synthetic cost model: depth ~ eps^-(1-beta), queries ~ eps^-(1+beta)
        beta = 0.5
        epsilons = [0.1, 0.05, 0.02, 0.01]
        depths, queries = [], []
        for index, eps in enumerate(epsilons):
            target = TargetSpec(eps, 0.1, beta)
            plan = Type1Plan.from_target(target)
            ledger = ResourceLedger()
            aggregate_type1(
                worst_bias_sampler(plan), plan, seed=SeedSpec(50, index), ledger=ledger
            )
            depths.append(ledger.max_depth)
            queries.append(ledger.total_queries)
        log_eps = np.log(epsilons)
        depth_slope = np.polyfit(log_eps, np.log(depths), 1)[0]
        query_slope = np.polyfit(log_eps, np.log(queries), 1)[0]
        assert abs(depth_slope - (-(1 - beta))) <= 0.15
        assert abs(query_slope - (-(1 + beta))) <= 0.2

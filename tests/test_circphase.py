import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdepth.blackbox import UQPE2_COST, Uqpe2Contract, synth_uqpe2_sample
from lowdepth.circphase import (
    ARC_TOL,
    Angle,
    PhasePlan,
    circ_diff,
    lowdepth_phase_estimate,
)
from lowdepth.core import TWO_PI, ResourceLedger, SeedSpec, TargetSpec

PI = math.pi

# One-degree-multiple grid plus inputs that need reducing, for comparing the
# array path with the scalar one.
GRID = np.append(np.radians(np.arange(0, 360, 3)), [-1e-18, -0.5, TWO_PI, 7 * PI])

PROPERTY = settings(derandomize=True, database=None, deadline=None)

# Finite angles, most of them needing reduction into [0, 2 pi).
angles = st.floats(-8 * PI, 8 * PI)


class TestAngle:
    def test_canonical_reduction(self):
        assert Angle(0.0).value == 0.0
        assert Angle(TWO_PI).value == 0.0
        assert Angle(-0.5).value == pytest.approx(TWO_PI - 0.5, abs=1e-12)
        assert Angle(7 * PI).value == pytest.approx(PI, abs=1e-12)

    def test_tiny_negative_does_not_return_two_pi(self):
        # float modulo can round up to the divisor itself
        assert 0.0 <= Angle(-1e-18).value < TWO_PI

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Angle(math.nan)


class TestCircDiff:
    def test_zero_for_equal_angles(self):
        assert circ_diff(Angle(1.2), Angle(1.2)) == 0.0

    def test_wrap_adjacent_angles(self):
        assert circ_diff(Angle(TWO_PI - 0.01), Angle(0.0)) == pytest.approx(-0.01, abs=1e-12)

    def test_half_turn_maps_to_negative_pi(self):
        assert circ_diff(Angle(0.0), Angle(PI)) == -PI
        assert circ_diff(Angle(PI), Angle(0.0)) == -PI

    def test_range_and_congruence_on_grid(self):
        for i in range(0, 360, 3):
            for j in range(0, 360, 3):
                theta, phi = math.radians(i), math.radians(j)
                r = circ_diff(theta, phi)
                assert -PI <= r < PI
                assert (theta - phi - r) % TWO_PI == pytest.approx(0.0, abs=1e-9) or (
                    theta - phi - r
                ) % TWO_PI == pytest.approx(TWO_PI, abs=1e-9)
        # arrays go through the same code and give the scalar results exactly
        thetas, phis = np.meshgrid(GRID, GRID)
        scalar = [
            [circ_diff(theta, phi) for theta, phi in zip(*rows)]
            for rows in zip(thetas.tolist(), phis.tolist())
        ]
        assert type(scalar[0][1]) is float
        np.testing.assert_array_equal(circ_diff(thetas, phis), scalar)

    @PROPERTY
    @given(st.lists(st.tuples(angles, angles), min_size=1, max_size=16))
    def test_range_and_congruence_property(self, pairs):
        thetas, phis = (np.array(column) for column in zip(*pairs))
        r = circ_diff(thetas, phis)
        assert np.all((-PI <= r) & (r < PI))
        residue = (thetas - phis - r) % TWO_PI
        assert np.all(np.minimum(residue, TWO_PI - residue) <= 1e-9)
        assert r.tolist() == [circ_diff(theta, phi) for theta, phi in pairs]

    def test_minimality_on_grid(self):
        # |circular difference| equals the distance to the nearest 2 pi shift
        for i in range(0, 360, 3):
            for j in range(0, 360, 3):
                theta, phi = math.radians(i), math.radians(j)
                best = min(abs(theta - phi + TWO_PI * k) for k in (-1, 0, 1))
                assert abs(abs(circ_diff(theta, phi)) - best) <= 1e-12

    def test_antisymmetry_almost_everywhere(self):
        for i in range(0, 360, 7):
            for j in range(0, 360, 11):
                theta, phi = math.radians(i), math.radians(j)
                r = circ_diff(theta, phi)
                if abs(r) != PI:
                    assert r == pytest.approx(-circ_diff(phi, theta), abs=1e-12)

    def test_never_exceeds_linear_difference(self):
        for i in range(0, 360, 5):
            for j in range(0, 360, 5):
                theta, phi = math.radians(i), math.radians(j)
                assert abs(circ_diff(theta, phi)) <= abs(theta - phi) + 1e-12


class TestArcMapping:
    """The arc map in centred form: an angle on the arc of half-width h
    around c is c plus its offset circ_diff(theta, c), and maps to the
    fraction (offset + h) / (2h)."""

    def test_wrap_midpoint_example(self):
        # the arc from 7 pi/4 to pi/4 is centred on 0, across the wrap
        centre = Angle(0.0)
        assert circ_diff(Angle(0.0), centre) == 0.0
        assert circ_diff(Angle(7 * PI / 4), centre) == pytest.approx(-PI / 4, abs=1e-12)
        assert circ_diff(Angle(PI / 4), centre) == pytest.approx(PI / 4, abs=1e-12)
        back = Angle(centre.value + circ_diff(Angle(7 * PI / 4), centre))
        assert back.value == pytest.approx(7 * PI / 4, abs=1e-12)

    def test_round_trip_on_random_arcs(self):
        rng = SeedSpec(77, 0).rng()
        for _ in range(1000):
            start = float(rng.uniform(0, TWO_PI))
            length = float(rng.uniform(1e-3, PI - 1e-6))
            centre = start + length / 2
            theta = Angle(start + float(rng.uniform(0, length)))
            back = Angle(centre + circ_diff(theta, centre))
            assert abs(circ_diff(back, theta)) <= 1e-12

    @PROPERTY
    @given(angles, st.floats(-PI / 2, PI / 2))
    def test_round_trip_property(self, centre, offset):
        theta = Angle(centre + offset)
        assert circ_diff(theta, centre) == pytest.approx(offset, abs=1e-9)
        back = Angle(centre + circ_diff(theta, centre))
        assert abs(circ_diff(back, theta)) <= 1e-12

    def test_difference_preserving_up_to_normalisation(self):
        rng = SeedSpec(78, 0).rng()
        for _ in range(300):
            start = float(rng.uniform(0, TWO_PI))
            length = float(rng.uniform(0.1, PI - 1e-6))
            centre = start + length / 2
            theta_1 = Angle(start + float(rng.uniform(0, length)))
            theta_2 = Angle(start + float(rng.uniform(0, length)))
            offsets = circ_diff(np.array([theta_1.value, theta_2.value]), centre)
            fractions = (offsets + length / 2) / length
            assert (fractions[0] - fractions[1]) * length == pytest.approx(
                circ_diff(theta_1, theta_2), abs=1e-9
            )


class TestPhasePlan:
    def test_failure_budget_split(self):
        target = TargetSpec(0.01, 0.1, 0.5)
        plan = PhasePlan.from_target(target)
        assert plan.runs == 2952
        # reference failure plus all main-run failures stay within delta / 2
        assert (plan.runs + 1) * plan.run_fail_prob <= target.delta / 2 + 1e-12

    def test_rejects_coarse_epsilon(self):
        with pytest.raises(ValueError):
            PhasePlan.from_target(TargetSpec(0.5, 0.1, 0.5))

    def test_rejects_overfull_split(self):
        with pytest.raises(ValueError):
            PhasePlan.from_target(TargetSpec(0.01, 0.1, 0.5), 0.6, 0.5)


def make_sampler(truth, *, ref_spread=PI / 10, tail=PI / 2, bias_scale=1.0):
    def sampler(stage, contract, rng, ledger, size):
        bias = bias_scale * contract.bias_bound
        spread = None
        if stage == "reference":
            spread = max(0.0, ref_spread - bias)
        return synth_uqpe2_sample(
            truth, contract, bias, tail, rng, ledger, good_spread=spread, size=size
        )

    return sampler


class TestLowdepthPhaseEstimate:
    def test_zero_noise_sampler_recovers_truth_exactly(self):
        truth = 1.234

        def exact(_stage, contract, rng, ledger, size):
            return np.full(size, truth)

        target = TargetSpec(0.01, 0.1, 0.5)
        estimate = lowdepth_phase_estimate(
            exact, target, PhasePlan.from_target(target), seed=SeedSpec(80, 0),
            ledger=ResourceLedger(),
        )
        assert abs(circ_diff(estimate, truth)) <= 1e-12

    def test_arc_escape_outputs_zero_angle(self):
        truth = 1.0

        def escaping(stage, contract, rng, ledger, size):
            # reference lands on the truth, main runs land opposite
            return np.full(size, truth if stage == "reference" else truth + PI)

        target = TargetSpec(0.01, 0.1, 0.5)
        estimate = lowdepth_phase_estimate(
            escaping, target, PhasePlan.from_target(target), seed=SeedSpec(81, 0),
            ledger=ResourceLedger(),
        )
        assert estimate == Angle(0.0)

    @pytest.mark.parametrize("reference", [1.0, 0.01, TWO_PI - 0.01])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("margin, escapes", [(-1e-6, False), (10 * ARC_TOL, True)])
    def test_escape_boundary(self, reference, side, margin, escapes):
        # every main run sits at one offset from the reference, just inside
        # or just outside the half-width pi/8 + run precision
        target = TargetSpec(0.05, 0.1, 0.5)
        plan = PhasePlan.from_target(target)
        offset = side * (PI / 8 + plan.run_precision + margin)

        def sampler(served, contract, rng, ledger, size):
            at_reference = served == "reference"
            return np.full(size, Angle(reference + (0.0 if at_reference else offset)).value)

        estimate = lowdepth_phase_estimate(
            sampler, target, plan, seed=SeedSpec(89, 0), ledger=ResourceLedger()
        )
        if escapes:
            assert estimate == Angle(0.0)
        else:
            assert abs(circ_diff(estimate, reference + offset)) <= 1e-12

    def test_saturating_reference_defeats_arc_construction(self):
        # a reference draw at its full contracted quarter-circle precision
        # puts the truth outside the arc; some main estimate then escapes
        # and the run aborts to the zero sentinel
        truth = 2.0
        sampler = make_sampler(truth, ref_spread=PI / 4)
        target = TargetSpec(0.05, 0.1, 0.5)
        estimate = lowdepth_phase_estimate(
            sampler, target, PhasePlan.from_target(target), seed=SeedSpec(82, 0),
            ledger=ResourceLedger(),
        )
        assert estimate == Angle(0.0)

    def test_wrap_adjacent_truth_success_rate(self):
        truth = 0.02
        target = TargetSpec(0.01, 0.1, 0.5)
        plan = PhasePlan.from_target(target)
        sampler = make_sampler(truth)
        trials = 120
        failures = 0
        for index in range(trials):
            estimate = lowdepth_phase_estimate(
                sampler, target, plan, seed=SeedSpec(83, index), ledger=ResourceLedger()
            )
            failures += abs(circ_diff(estimate, truth)) > target.epsilon
        assert failures / trials <= target.delta + 3 * math.sqrt(target.delta / trials)

    def test_reference_membership_frequency(self):
        # with the benign reference spread, the truth lands inside the
        # reference arc essentially always
        truth = 5.5
        plan = PhasePlan.from_target(TargetSpec(0.05, 0.1, 0.5))
        contract = Uqpe2Contract(0.05, PI / 4, plan.run_fail_prob)
        hits = 0
        trials = 500
        for index in range(trials):
            ref = synth_uqpe2_sample(
                truth,
                contract,
                0.0,
                PI / 2,
                SeedSpec(84, index).rng(),
                ResourceLedger(),
                good_spread=PI / 10,
                size=1,
            )[0]
            hits += abs(circ_diff(truth, ref)) <= PI / 8
        sigma = math.sqrt(plan.run_fail_prob * (1 - plan.run_fail_prob) / trials) or 1e-3
        assert hits / trials >= 1 - plan.run_fail_prob - 3 * sigma

    def test_ledger_charged_per_run(self):
        ledger = ResourceLedger()
        target = TargetSpec(0.05, 0.2, 0.5)
        plan = PhasePlan.from_target(target)
        lowdepth_phase_estimate(
            make_sampler(0.5), target, plan, seed=SeedSpec(86, 0), ledger=ledger
        )
        assert ledger.max_depth == math.ceil(1 / plan.run_precision * (1 - 1e-9))

        def per_run(contract):
            return max(UQPE2_COST.depth_fn(contract), UQPE2_COST.queries_fn(contract))

        # one reference run plus ``runs`` main runs, each charged once
        assert ledger.total_queries == (
            per_run(plan.ref_contract(target)) + plan.runs * per_run(plan.main_contract(target))
        )

    def test_stage_names_are_the_only_difference(self):
        # at this beta the run precision 0.05^(1 - beta) is exactly the
        # reference precision pi/4, so a sampler tells the stages apart by name
        target = TargetSpec(0.05, 0.1, 0.9193637971580451)
        plan = PhasePlan.from_target(target)
        seen = []

        def recording(stage, contract, rng, ledger, size):
            seen.append((stage, contract, size))
            return np.full(size, 1.0)

        lowdepth_phase_estimate(
            recording, target, plan, seed=SeedSpec(90, 0), ledger=ResourceLedger()
        )
        assert [(stage, size) for stage, _, size in seen] == [("reference", 1), ("main", plan.runs)]
        assert seen[0][1].precision == seen[1][1].precision

    @pytest.mark.parametrize("stage", ["reference", "main"])
    def test_rejects_sampler_returning_wrong_run_count(self, stage):
        def sampler(served, contract, rng, ledger, size):
            # one run too many from the chosen stage only
            extra = served == stage
            return np.full(size + extra, 1.0)

        target = TargetSpec(0.05, 0.1, 0.5)
        with pytest.raises(ValueError, match="shape"):
            lowdepth_phase_estimate(
                sampler, target, PhasePlan.from_target(target), seed=SeedSpec(88, 0),
                ledger=ResourceLedger(),
            )

    def test_rejects_coarse_target(self):
        target = TargetSpec(0.6, 0.1, 0.5)
        with pytest.raises(ValueError):
            lowdepth_phase_estimate(
                make_sampler(1.0),
                target,
                PhasePlan.from_target(target),
                seed=SeedSpec(87, 0),
                ledger=ResourceLedger(),
            )

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowdepth.blackbox import UQPE2_COST, Uqpe2Contract, synth_uqpe2_sample
from lowdepth.circphase import (
    ARC_TOL,
    Angle,
    PhasePlan,
    circ_diff,
    lowdepth_phase_estimate,
)
from lowdepth.core import TWO_PI, ResourceLedger, SeedSpec, TargetSpec, reduce_angle

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


# Where float modulo is delicate: signed zeros and subnormals, values far
# beyond 2 pi, the divisor, its multiples and the float just below it, and a
# tiny negative whose remainder rounds up to 2 pi.
MODULO_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, TWO_PI, -TWO_PI, 4 * PI, -4 * PI,
                math.nextafter(TWO_PI, 0.0), -math.nextafter(TWO_PI, 0.0), -1e-18, PI, -PI]

finite = st.floats(allow_nan=False, allow_infinity=False)
# angles already in [0, 2 pi), as the phase sampler draws them, a -0.0 included
reduced = st.floats(0.0, TWO_PI, exclude_max=True) | st.just(-0.0)
BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)


def modulo_reduce(angles):
    """The reduction as float % computes it: numpy's % on an array, Python's on a float."""
    reduced = angles % TWO_PI
    return reduced - TWO_PI * (reduced >= TWO_PI)


def modulo_circ_diff(theta, phi):
    """The circular difference as float % computes it, with its own fix at pi."""
    r = (modulo_reduce(theta) - modulo_reduce(phi) + PI) % TWO_PI - PI
    return r - TWO_PI * (r >= PI)


def same_bits(actual, expected):
    """Bit-identical: int64 views for arrays, sign-aware equal floats for scalars."""
    if isinstance(expected, np.ndarray):
        return np.array_equal(actual.view(np.int64), expected.view(np.int64))
    return (type(actual) is type(expected) is float and actual == expected
            and math.copysign(1.0, actual) == math.copysign(1.0, expected))


class TestFloatModuloBitIdentity:
    """reduce_angle and circ_diff give bit for bit what float % gives, on
    arrays (fmod plus a shift) and on scalars (Python's %)."""

    @PROPERTY
    @given(st.lists(finite, min_size=1, max_size=32))
    @example(MODULO_EDGES)
    # in [0, 4 pi) with a -0.0, which must still become +0.0 without fmod
    @example([-0.0, 7.0])
    # the ends of (-2 pi, 4 pi), reduced without fmod, and just outside them
    @example([math.nextafter(-TWO_PI, 0.0)])
    @example([-TWO_PI])
    @example([TWO_PI, math.nextafter(2 * TWO_PI, 0.0)])
    @example([2 * TWO_PI])
    @example([])
    def test_reduce_angle(self, values):
        assert same_bits(reduce_angle(np.array(values)), modulo_reduce(np.array(values)))
        for value in values:
            assert same_bits(reduce_angle(value), modulo_reduce(value))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_range_arrays_raise(self, bad):
        for values in ([bad], [0.5, bad, 6.0], [bad, -0.5, 7.0]):
            with pytest.raises(ValueError, match="angle must be finite"):
                reduce_angle(np.array(values))

    @PROPERTY
    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=32)
           | st.lists(st.tuples(reduced, reduced), min_size=1, max_size=32))
    @example([(theta, phi) for theta in MODULO_EDGES for phi in MODULO_EDGES])
    # the reference reduces a -0.0 to +0.0, as reduce_angle's in-range copy does
    @example([(-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, PI), (PI, -0.0)])
    @example([(theta, phi) for theta in (0.0, BELOW_TWO_PI, PI) for phi in (0.0, BELOW_TWO_PI)])
    # arrays in range but for one value below 0 or at 2 pi, which must still be reduced
    @example([(-0.2697867137638703, 1.335453407690074), (-1e-18, 0.3), (6.0, -0.25)])
    @example([(TWO_PI, 0.3), (1.0, TWO_PI), (5.9, 0.7)])
    def test_circ_diff(self, pairs):
        thetas, phis = (np.array(column) for column in zip(*pairs))
        assert same_bits(circ_diff(thetas, phis), modulo_circ_diff(thetas, phis))
        for theta, phi in pairs:
            assert same_bits(circ_diff(theta, phi), modulo_circ_diff(theta, phi))

    def test_dense_sample(self):
        values = np.random.default_rng(0).uniform(-50.0, 50.0, 200_000)
        assert same_bits(reduce_angle(values), modulo_reduce(values))
        thetas, phis = values[::2], values[1::2]
        assert same_bits(circ_diff(thetas, phis), modulo_circ_diff(thetas, phis))


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

    @pytest.mark.parametrize("draw", [
        lambda rng, size: np.full(2 * size, TWO_PI - 0.005)[::2],
        lambda rng, size: (TWO_PI - 0.005 + 0.01 * rng.uniform(-1.0, 1.0, 2 * size))[::2],
        lambda rng, size: np.broadcast_to(TWO_PI - 0.005, (size,)),
    ], ids=["constant-strided", "random-strided", "broadcast"])
    def test_a_strided_draw_estimates_as_its_list(self, draw):
        # the draws sit at the wrap; a strided or broadcast view is reduced
        # and averaged as the list of its values is
        target = TargetSpec(0.01, 0.1, 0.5)
        plan = PhasePlan.from_target(target)
        drawn = []

        def sampler(_stage, _contract, rng, _ledger, size):
            drawn.append(draw(rng, size))
            return drawn[-1]

        estimate = lowdepth_phase_estimate(sampler, target, plan, seed=SeedSpec(81, 0),
                                           ledger=ResourceLedger())
        reference = Angle(drawn[0][0])
        offsets = circ_diff(np.array(drawn[1].tolist()), reference)
        assert estimate == Angle(reference.value + math.fsum(offsets.tolist()) / plan.runs)
        assert estimate != Angle(0.0)

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

import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lowdepth.core import (
    Amplitude,
    ResourceLedger,
    SeedSpec,
    TargetSpec,
    ceil_int,
    counted_sum,
    derive_stream,
    population_variance,
)

# Frozen once from a reference run; guards the cross-run stability of the
# seeding scheme (pure integer arithmetic plus numpy's seed hashing).
GOLDEN_CHILD_STREAMS = [1, 3, 6, 10, 15]
GOLDEN_NESTED_STREAM = 126
GOLDEN_FIRST_DRAWS = [7138484576005690180, 4047939128787533792, 7919168045412322066]


class TestAmplitude:
    def test_bounds_enforced(self):
        Amplitude(0.0)
        Amplitude(1.0)
        with pytest.raises(ValueError):
            Amplitude(-0.001)
        with pytest.raises(ValueError):
            Amplitude(1.001)


class TestTargetSpec:
    def test_accepts_valid(self):
        TargetSpec(0.01, 0.05, 0.0)
        TargetSpec(0.99, 0.99, 1.0)
        TargetSpec(np.float64(0.05), np.float32(0.1), np.float64(0.5))

    @pytest.mark.parametrize(
        "epsilon,delta,beta",
        [(0.0, 0.1, 0.5), (1.0, 0.1, 0.5), (0.1, 0.0, 0.5), (0.1, 1.0, 0.5), (0.1, 0.1, -0.1), (0.1, 0.1, 1.1),
         # a bool is no number, even where its value would lie in range
         (0.1, 0.1, True), (0.1, 0.1, False)],
    )
    def test_rejects_invalid(self, epsilon, delta, beta):
        with pytest.raises(ValueError):
            TargetSpec(epsilon, delta, beta)


class TestResourceLedger:
    def test_charge_semantics(self):
        ledger = ResourceLedger()
        ledger.charge(5, 50)
        ledger.charge(3, 10)
        assert ledger.max_depth == 5
        assert ledger.total_queries == 60

    def test_monotone_and_bounded(self):
        ledger = ResourceLedger()
        rng = SeedSpec(99, 0).rng()
        previous = (0, 0)
        for _ in range(200):
            depth = int(rng.integers(0, 20))
            shots = int(rng.integers(1, 50))
            ledger.charge(depth, shots * max(depth, 1))
            current = (ledger.max_depth, ledger.total_queries)
            assert current[0] >= previous[0] and current[1] >= previous[1]
            previous = current
        assert ledger.max_depth <= ledger.total_queries

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceLedger().charge(-1, 0)
        with pytest.raises(ValueError):
            ResourceLedger().charge(0, -1)


class TestSeeding:
    def test_golden_child_streams(self):
        root = SeedSpec(42, 0)
        assert [derive_stream(root, i).stream_index for i in range(5)] == GOLDEN_CHILD_STREAMS
        assert derive_stream(derive_stream(root, 3), 5).stream_index == GOLDEN_NESTED_STREAM

    def test_golden_draws(self):
        draws = SeedSpec(42, 0).rng().integers(0, 2**63, 3).tolist()
        assert draws == GOLDEN_FIRST_DRAWS

    def test_determinism(self):
        a = derive_stream(SeedSpec(42, 0), 0)
        b = derive_stream(SeedSpec(42, 0), 0)
        assert a == b
        assert a.rng().random() == b.rng().random()

    def test_injective_over_grid(self):
        seen = {}
        for stream in range(40):
            parent = SeedSpec(1, stream)
            for child in range(40):
                derived = derive_stream(parent, child).stream_index
                assert derived not in seen, (stream, child, seen.get(derived))
                seen[derived] = (stream, child)

    def test_tree_rooted_at_zero_is_collision_free(self):
        # Three levels of nesting never alias, and no node equals the root.
        root = SeedSpec(5, 0)
        indices = set()
        frontier = [root]
        for _ in range(3):
            next_frontier = []
            for node in frontier[:10]:
                for child in range(6):
                    derived = derive_stream(node, child)
                    assert derived.stream_index != 0
                    assert derived.stream_index not in indices
                    indices.add(derived.stream_index)
                    next_frontier.append(derived)
            frontier = next_frontier

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=5),
        st.lists(st.integers(0, 10_000), min_size=1, max_size=5),
    )
    def test_injective_over_nested_indices(self, first, second):
        # Distinct child-index paths from stream 0 reach distinct streams.
        assume(first != second)

        def walk(path):
            node = SeedSpec(5, 0)
            for child in path:
                node = derive_stream(node, child)
            return node.stream_index

        assert walk(first) != walk(second)

    def test_distinct_children_distinct_streams(self):
        root = SeedSpec(42, 0)
        first = derive_stream(root, 0).rng().random(8)
        second = derive_stream(root, 1).rng().random(8)
        assert not (first == second).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            SeedSpec(2**64, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, -1)
        with pytest.raises(ValueError):
            derive_stream(SeedSpec(0, 0), -1)


class TestCeilInt:
    def test_plain_values(self):
        assert ceil_int(2951.1) == 2952
        assert ceil_int(0.3) == 1
        assert ceil_int(100.0) == 100

    def test_absorbs_libm_noise(self):
        assert ceil_int(100.00000000000001) == 100
        assert ceil_int(0.1 ** -2) == 100
        assert ceil_int(0.05 ** -1) == 20

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ceil_int(math.inf)


PROPERTY = settings(derandomize=True, database=None, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
# dyadic values of mixed magnitude
dyadic = st.builds(math.ldexp, st.integers(-2**30, 2**30), st.integers(-60, 10))
counts = st.integers(0, 3000) | st.sampled_from([0, 1, 2])


def outcome(function, values):
    """A function's value, or the type and text of the exception it raised."""
    try:
        return function(values)
    except (OverflowError, ValueError) as err:
        return type(err), str(err)


def same_outcome(actual, expected):
    """Sign-aware equal floats, both NaN, or the same exception."""
    if isinstance(expected, float):
        return type(actual) is float and (
            math.isnan(actual) and math.isnan(expected)
            or actual == expected and math.copysign(1.0, actual) == math.copysign(1.0, expected))
    return actual == expected


@st.composite
def counted(draw, elements):
    """A few drawn values, each with a drawn count, zero included."""
    values = draw(st.lists(elements, min_size=1, max_size=6))
    return [(value, draw(counts)) for value in values]


@st.composite
def mixtures(draw):
    """Outcomes shaped like the samplers': centre +/- spread and centre +/- tail, counted."""
    centre = draw(st.floats(-7.0, 7.0))
    spread, tail = draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 4.0))
    return [(centre + offset, draw(counts)) for offset in (-spread, spread, -tail, tail)]


# 2^1000 bounds the runs' summed magnitudes that the int division takes
NEAR_BOUND = math.nextafter(2.0**999, 0.0)


class TestCountedSum:
    """counted_sum gives what math.fsum gives on the runs listed out, bit for bit."""

    @PROPERTY
    @given(counted(finite) | counted(dyadic) | counted(st.floats(-4.0, 4.0)) | mixtures())
    @example([(0.0, 300), (-0.0, 300)])
    @example([(-0.0, 600)])
    @example([(0.0, 0)])
    @example([])
    @example([(5e-324, 1), (-5e-324, 1), (2.5e-323, 1)])
    @example([(1.0, 300), (5e-324, 300)])
    @example([(2.0**-1000, 1), (-(2.0**-1000 - 2.0**-1043), 1)])  # a subnormal sum
    @example([(math.nan, 1), (0.0, 599)])
    @example([(math.nan, 0), (1.0, 3)])  # a value no run landed on is not summed
    @example([(math.inf, 1), (1.0, 1)])
    @example([(-math.inf, 1)])
    @example([(math.inf, 1), (-math.inf, 1)])
    @example([(1e308, 2)])
    @example([(1e308, 2), (-1e308, 2)])  # overflows on the way to an exact 0
    @example([(NEAR_BOUND, 2)])
    @example([(2.0**999, 2)])
    @example([(NEAR_BOUND, 2), (-NEAR_BOUND, 1)])
    # 2^947 is half an ulp of 2^1000 and 2^-1000 breaks the tie: fsum gives
    # 0x1.0000000000001p+1000; the same tie scaled by 2^-100 takes the int division
    @example([(2.0**1000, 1), (2.0**947, 1), (2.0**-1000, 1)])
    @example([(2.0**900, 1), (2.0**847, 1), (2.0**-1000, 1)])
    @example([(2.0**900, 1), (2.0**847, 1)])
    @example([(2.0**847, 2), (2.0**900, 1), (2.0**-1000, 0)])
    def test_matches_fsum_of_the_runs(self, outcomes):
        runs = [value for value, count in outcomes for _ in range(count)]
        assert same_outcome(outcome(counted_sum, outcomes), outcome(math.fsum, runs))

    def test_counts_are_never_listed_out(self):
        assert counted_sum([(0.1, 2**60), (-0.1, 2**60 - 1)]) == 0.1


class TestPopulationVariance:
    @PROPERTY
    @given(st.lists(finite | st.floats(-1.0, 1.0), min_size=1, max_size=40))
    # a constant estimator's variance is exactly +0.0
    @example([0.3] * 80)
    @example([-1e-17] * 10)
    @example([-0.0, 0.0, -0.0])
    @example([5e-324] * 3)
    @example([2.5])
    @example([1e-300, 1.0, 1e300])
    @example([1e308, -1e308])  # overflows: the same OverflowError
    def test_matches_pvariance(self, deviations):
        assert same_outcome(outcome(population_variance, deviations),
                            outcome(statistics.pvariance, deviations))

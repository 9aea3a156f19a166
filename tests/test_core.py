import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lowdepth.core import (
    Amplitude,
    ResourceLedger,
    SeedSpec,
    TargetSpec,
    ceil_int,
    derive_stream,
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

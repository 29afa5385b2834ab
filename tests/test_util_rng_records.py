"""Unit tests for repro.util.rng and repro.util.records."""

import pytest
from hypothesis import given, strategies as st

from repro.util.records import BoundedTable
from repro.util.rng import SeededStream, derive_seed, spread


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_nearby_roots_uncorrelated(self):
        # Hash-based derivation: consecutive roots must not yield
        # consecutive seeds.
        s1, s2 = derive_seed(100), derive_seed(101)
        assert abs(s1 - s2) > 1000

    def test_64_bit_range(self):
        for root in range(20):
            assert 0 <= derive_seed(root, "x") < (1 << 64)


class TestSeededStream:
    def test_same_seed_same_draws(self):
        a = SeededStream(7, "traffic")
        b = SeededStream(7, "traffic")
        assert [a.randint(0, 100) for _ in range(50)] == [
            b.randint(0, 100) for _ in range(50)
        ]

    def test_child_independent_of_parent_draws(self):
        a = SeededStream(7, "x")
        _ = [a.randint(0, 10) for _ in range(5)]
        child_after = a.child("c")
        b = SeededStream(7, "x")
        child_before = b.child("c")
        assert child_after.randint(0, 1 << 30) == child_before.randint(0, 1 << 30)

    def test_bits_width(self):
        s = SeededStream(1)
        for _ in range(100):
            assert 0 <= s.bits(8) < 256

    def test_bits_zero_width(self):
        assert SeededStream(1).bits(0) == 0

    def test_chance_extremes(self):
        s = SeededStream(2)
        assert not s.chance(0.0)
        assert s.chance(1.0)

    def test_chance_rate(self):
        s = SeededStream(3)
        hits = sum(s.chance(0.3) for _ in range(10_000))
        assert 2700 < hits < 3300

    def test_geometric_support(self):
        s = SeededStream(4)
        draws = [s.geometric(0.5) for _ in range(200)]
        assert min(draws) >= 1

    def test_geometric_mean(self):
        s = SeededStream(5)
        draws = [s.geometric(0.25) for _ in range(5000)]
        mean = sum(draws) / len(draws)
        assert 3.5 < mean < 4.5  # E = 1/p = 4

    def test_geometric_invalid_p(self):
        with pytest.raises(ValueError):
            SeededStream(1).geometric(0.0)

    def test_pick_distinct_pairs(self):
        s = SeededStream(6)
        pairs = s.pick_distinct_pairs(16, 10)
        assert len(set(pairs)) == 10
        for m in pairs:
            assert bin(m).count("1") == 2

    def test_getstate_setstate_round_trip(self):
        s = SeededStream(9, "ckpt")
        _ = [s.randint(0, 1000) for _ in range(17)]  # advance mid-stream
        state = s.getstate()
        expected = [s.randint(0, 1000) for _ in range(50)]
        _ = [s.bits(13) for _ in range(5)]  # diverge further
        s.setstate(state)
        assert [s.randint(0, 1000) for _ in range(50)] == expected

    def test_setstate_across_instances(self):
        a = SeededStream(10, "x")
        _ = [a.chance(0.5) for _ in range(9)]
        b = SeededStream(999, "unrelated")
        b.setstate(a.getstate())
        assert [b.randint(0, 10**9) for _ in range(20)] == [
            a.randint(0, 10**9) for _ in range(20)
        ]

    def test_getstate_is_a_copy_not_a_view(self):
        s = SeededStream(11)
        state = s.getstate()
        _ = s.randint(0, 100)
        assert s.getstate() != state  # drawing advanced the live state

    def test_weighted_choice_respects_zero_weight(self):
        s = SeededStream(8)
        picks = {s.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}


class TestSpread:
    def test_proportional(self):
        assert spread(10.0, [1, 1, 2]) == [2.5, 2.5, 5.0]

    def test_zero_weights_raise(self):
        with pytest.raises(ValueError):
            spread(1.0, [0, 0])

    @given(st.lists(st.floats(min_value=0.01, max_value=10), min_size=1, max_size=8))
    def test_sums_to_total(self, weights):
        parts = spread(42.0, weights)
        assert abs(sum(parts) - 42.0) < 1e-9


class TestBoundedTable:
    def test_put_get(self):
        t = BoundedTable(2)
        t.put("a", 1)
        assert t.get("a") == 1

    def test_lru_eviction(self):
        t = BoundedTable(2)
        t.put("a", 1)
        t.put("b", 2)
        t.get("a")  # refresh a
        t.put("c", 3)  # evicts b
        assert "b" not in t
        assert t.get("a") == 1
        assert t.get("c") == 3

    def test_get_default(self):
        t = BoundedTable(1)
        assert t.get("missing", "d") == "d"

    def test_overwrite_does_not_grow(self):
        t = BoundedTable(2)
        t.put("a", 1)
        t.put("a", 2)
        t.put("b", 3)
        assert len(t) == 2
        assert t.get("a") == 2

"""Tests for the windowed entropy accumulator, with property tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.monitor.window import EntropyAccumulator


class TestEntropy:
    def test_empty_is_zero(self):
        assert EntropyAccumulator().entropy() == 0.0

    def test_single_key_is_zero(self):
        acc = EntropyAccumulator()
        acc.add("a", 100)
        assert acc.entropy() == 0.0

    def test_uniform_is_one(self):
        acc = EntropyAccumulator()
        for key in "abcd":
            acc.add(key, 10)
        assert acc.entropy() == pytest.approx(1.0)

    def test_skew_lowers_entropy(self):
        uniform = EntropyAccumulator()
        skewed = EntropyAccumulator()
        for key in "abcd":
            uniform.add(key, 25)
        skewed.add("a", 97)
        for key in "bcd":
            skewed.add(key, 1)
        assert skewed.entropy() < uniform.entropy()

    def test_top(self):
        acc = EntropyAccumulator()
        acc.add("big", 10)
        acc.add("small", 1)
        assert acc.top(1) == [("big", 10)]

    def test_totals_and_distinct(self):
        acc = EntropyAccumulator()
        acc.add("a")
        acc.add("b", 2)
        assert acc.total == 3
        assert acc.distinct == 2

    def test_reset(self):
        acc = EntropyAccumulator()
        acc.add("a")
        acc.reset()
        assert acc.total == 0 and acc.distinct == 0

    @given(st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=200))
    def test_entropy_always_in_unit_interval(self, keys):
        acc = EntropyAccumulator()
        for key in keys:
            acc.add(key)
        assert 0.0 <= acc.entropy() <= 1.0 + 1e-9

    @given(st.integers(min_value=2, max_value=50))
    def test_spoofed_uniform_population_maximal(self, n):
        """n distinct single-shot sources (spoofed flood shape) -> entropy 1."""
        acc = EntropyAccumulator()
        for i in range(n):
            acc.add(f"198.18.0.{i}")
        assert acc.entropy() == pytest.approx(1.0)


class TestEntropyEdgeCases:
    """PR 7 satellite: edge inputs for the exact accumulator that also
    anchor the sketch-backend property bounds."""

    def test_single_key_large_amount(self):
        acc = EntropyAccumulator()
        acc.add("only", 10**9)
        assert acc.entropy() == 0.0
        assert acc.total == 10**9
        assert acc.distinct == 1

    def test_uniform_large_amounts(self):
        acc = EntropyAccumulator()
        for i in range(16):
            acc.add(f"k{i}", 10**6)
        assert acc.entropy() == pytest.approx(1.0)

    def test_mixed_unit_and_bulk_adds_equivalent(self):
        bulk = EntropyAccumulator()
        unit = EntropyAccumulator()
        bulk.add("a", 3)
        bulk.add("b", 2)
        for key in ("a", "a", "a", "b", "b"):
            unit.add(key)
        assert bulk.entropy() == pytest.approx(unit.entropy())
        assert bulk.top(2) == unit.top(2)

    def test_state_bytes_grows_with_keys(self):
        acc = EntropyAccumulator()
        acc.add("a")
        small = acc.state_bytes()
        for i in range(10_000):
            acc.add(f"key-{i}")
        assert acc.state_bytes() > small

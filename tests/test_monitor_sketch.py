"""Tests for the bounded-memory sketch primitives (repro.monitor.sketch)."""

from __future__ import annotations

import math
import random
from collections import Counter
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.sketch import (
    CountMinSketch,
    HeavyHitterSketch,
    HyperLogLog,
    SketchSourceStats,
)
from repro.monitor.window import EntropyAccumulator


def _stream(seed: int, n: int, universe: int) -> list[str]:
    rng = random.Random(seed)
    return [f"10.{rng.randrange(universe)}.0.1" for _ in range(n)]


class TestCountMinSketch:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=4)
        with pytest.raises(ValueError):
            CountMinSketch(depth=0)

    def test_exact_when_sparse(self):
        cms = CountMinSketch(width=1024, depth=4, seed=1)
        for key, amount in (("a", 3), ("b", 1), ("c", 7)):
            cms.add(key, amount)
        assert cms.estimate("a") == 3
        assert cms.estimate("b") == 1
        assert cms.estimate("c") == 7
        assert cms.total == 11

    def test_never_undercounts(self):
        cms = CountMinSketch(width=64, depth=3, seed=2)
        true: dict[str, int] = {}
        for key in _stream(7, 2000, 300):
            cms.add(key)
            true[key] = true.get(key, 0) + 1
        for key, count in true.items():
            assert cms.estimate(key) >= count

    def test_row_sum_bound_and_totals(self):
        cms = CountMinSketch(width=64, depth=3, seed=2)
        for key in _stream(8, 500, 50):
            cms.add(key)
        assert cms.row_totals() == [cms.total] * cms.depth
        # No single estimate can exceed the stream total.
        for key in set(_stream(8, 500, 50)):
            assert cms.estimate(key) <= cms.total

    def test_deterministic_across_instances(self):
        a = CountMinSketch(width=128, depth=4, seed=9)
        b = CountMinSketch(width=128, depth=4, seed=9)
        for key in _stream(3, 300, 40):
            a.add(key)
            b.add(key)
        assert a.row_totals() == b.row_totals()
        assert all(a.estimate(k) == b.estimate(k) for k in set(_stream(3, 300, 40)))

    def test_seed_changes_layout(self):
        a = CountMinSketch(width=128, depth=1, seed=1)
        b = CountMinSketch(width=128, depth=1, seed=2)
        for key in ("x", "y", "z"):
            a.add(key)
            b.add(key)
        assert list(a._rows[0]) != list(b._rows[0])

    def test_reset(self):
        cms = CountMinSketch(width=64, depth=2, seed=5)
        cms.add("k", 10)
        cms.reset()
        assert cms.total == 0
        assert cms.estimate("k") == 0
        assert cms.row_totals() == [0, 0]

    def test_state_bytes_fixed_without_cache(self):
        cms = CountMinSketch(width=256, depth=4, seed=1)
        before = cms.state_bytes()
        for key in _stream(11, 5000, 5000):
            cms.add(key)
        cms.add_bulk(dict.fromkeys(_stream(13, 5000, 5000), 2))
        assert cms.state_bytes() == before


class TestHeavyHitterSketch:
    def test_finds_the_heavy_hitter(self):
        hh = HeavyHitterSketch(width=512, depth=4, topk=4, seed=3)
        for key in _stream(5, 400, 100):
            hh.add(key)
        for _ in range(300):
            hh.add("victim")
        top = hh.top()
        assert top[0][0] == "victim"
        assert top[0][1] >= 300
        assert len(top) <= 4

    def test_candidates_bounded(self):
        hh = HeavyHitterSketch(width=512, depth=4, topk=4, seed=3)
        for i in range(10_000):
            hh.add(f"k{i}")
        assert len(hh._candidates) <= 8  # 2 * topk

    def test_top_deterministic_tiebreak(self):
        a = HeavyHitterSketch(width=512, depth=4, topk=8, seed=3)
        b = HeavyHitterSketch(width=512, depth=4, topk=8, seed=3)
        for key in ("d1", "d2", "d3", "d2"):
            a.add(key)
            b.add(key)
        assert a.top() == b.top()
        assert a.top()[0][0] == "d2"

    def test_reset(self):
        hh = HeavyHitterSketch(width=64, depth=2, topk=2, seed=1)
        hh.add("x", 5)
        hh.reset()
        assert hh.top() == []
        assert hh.total == 0


class TestHyperLogLog:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=3)
        with pytest.raises(ValueError):
            HyperLogLog(precision=17)

    @pytest.mark.parametrize("n", (1, 10, 100, 1000))
    def test_small_range_accuracy(self, n):
        hll = HyperLogLog(precision=12, seed=4)
        for i in range(n):
            hll.add(f"key-{i}")
        assert abs(hll.estimate() - n) <= max(0.05 * n, 2)

    def test_large_range_accuracy(self):
        hll = HyperLogLog(precision=12, seed=4)
        for i in range(200_000):
            hll.add(f"key-{i}")
        assert abs(hll.estimate() - 200_000) <= 6 * hll.relative_error * 200_000

    def test_duplicates_do_not_inflate(self):
        hll = HyperLogLog(precision=10, seed=1)
        for _ in range(5000):
            hll.add("same")
        assert round(hll.estimate()) == 1

    def test_deterministic(self):
        a = HyperLogLog(precision=10, seed=6)
        b = HyperLogLog(precision=10, seed=6)
        for i in range(1000):
            a.add(f"k{i}")
            b.add(f"k{i}")
        assert a.estimate() == b.estimate()

    def test_reset_and_state_bytes(self):
        hll = HyperLogLog(precision=10, seed=1)
        size = hll.state_bytes()
        for i in range(10_000):
            hll.add(f"k{i}")
        hll.add_bulk([f"j{i}" for i in range(10_000)])
        assert hll.state_bytes() == size
        hll.reset()
        assert hll.total == 0
        assert hll.estimate() == 0.0


class TestSketchSourceStats:
    def test_empty(self):
        stats = SketchSourceStats(seed=1)
        assert stats.entropy() == 0.0
        assert stats.distinct == 0

    def test_single_source_entropy_zero(self):
        stats = SketchSourceStats(seed=1)
        for _ in range(500):
            stats.add("10.0.0.1")
        assert stats.entropy() == 0.0
        assert stats.distinct == 1

    def test_spoofed_flood_entropy_near_one(self):
        stats = SketchSourceStats(seed=2)
        for i in range(3000):
            stats.add(f"198.51.{i // 250}.{i % 250}")
        assert stats.entropy() > 0.95

    def test_skew_ranks_below_uniform(self):
        uniform = SketchSourceStats(seed=3)
        skewed = SketchSourceStats(seed=3)
        for i in range(1000):
            uniform.add(f"u{i}")
        for _ in range(900):
            skewed.add("hot")
        for i in range(100):
            skewed.add(f"t{i}")
        assert skewed.entropy() < uniform.entropy()

    def test_bulk_amount_adds(self):
        stats = SketchSourceStats(seed=4)
        stats.add("a", 500)
        stats.add("b", 500)
        assert stats.distinct == 2
        assert stats.entropy() == pytest.approx(1.0, abs=0.01)

    def test_state_bytes_independent_of_stream(self):
        stats = SketchSourceStats(seed=5)
        for i in range(1000):
            stats.add(f"k{i}")
        small = stats.state_bytes()
        for i in range(50_000):
            stats.add(f"k{i}")
        assert stats.state_bytes() <= small * 1.1


class TestKeyedHashLayout:
    """Sketch contents are a function of seed, shape and stream only: the
    counter slots and HLL registers follow from one keyed ``blake2b`` of
    the key, written out here from its definition — the contract that
    keeps fingerprints stable."""

    def test_cms_rows_follow_the_keyed_digest(self):
        cms = CountMinSketch(width=128, depth=4, seed=9)
        rows = [[0] * 128 for _ in range(4)]
        key = ((9 ^ (0xC31 * 0x9E3779B97F4A7C15)) & (2**64 - 1)).to_bytes(8, "little")
        for k in _stream(21, 4000, 60):
            cms.add(k)
            digest = int.from_bytes(
                blake2b(k.encode(), digest_size=8, key=key).digest(), "little"
            )
            h1, h2 = digest & 0xFFFFFFFF, (digest >> 32) | 1
            for i, row in enumerate(rows):
                row[(h1 + i * h2) % 128] += 1
        assert [list(r) for r in cms._rows] == rows
        assert cms.total == 4000

    def test_hll_registers_follow_the_keyed_digest(self):
        hll = HyperLogLog(precision=10, seed=3)
        registers = [0] * 1024
        key = ((3 ^ (0x41F * 0x9E3779B97F4A7C15)) & (2**64 - 1)).to_bytes(8, "little")
        for k in _stream(22, 4000, 500):
            hll.add(k)
            value = int.from_bytes(
                blake2b(k.encode(), digest_size=8, key=key).digest(), "little"
            )
            rank = 54 - (value >> 10).bit_length() + 1
            registers[value & 1023] = max(registers[value & 1023], rank)
        assert list(hll._registers) == registers


class TestHashMemoization:
    """The sketches memoize nothing per key: a sketch that has folded any
    number of keys and been ``reset()`` behaves exactly like a fresh one."""

    @pytest.mark.parametrize("warm_keys", (0, 3, 256))
    def test_source_stats_identical_across_window_folds(self, warm_keys):
        """Bulk folds match sequential adds window after window: nothing
        from an earlier window (keys, candidates, the heavy-hitter floor)
        leaks into the next after ``reset()``."""
        stats = SketchSourceStats(width=256, depth=4, topk=8, precision=10, seed=42)
        golden = SketchSourceStats(width=256, depth=4, topk=8, precision=10, seed=42)
        stats.add_bulk({f"warm{i}": i + 1 for i in range(warm_keys)})
        stats.reset()
        stream = _stream(23, 20_000, 200)
        for fold in range(5):
            counts = Counter(stream[fold * 4000 : (fold + 1) * 4000])
            stats.add_bulk(counts)
            for key, amount in counts.items():
                golden.add(key, amount)
            assert stats.distinct == golden.distinct
            assert stats.entropy() == golden.entropy()
            assert stats.hitters.top() == golden.hitters.top()
            stats.reset()
            golden.reset()


# ------------------------------------------------- property-based bounds


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=400))
def test_cms_error_bound_on_random_streams(keys):
    """Count-min never undercounts; overcount is bounded by the stream
    total (hard row-sum bound) on arbitrary streams."""
    cms = CountMinSketch(width=64, depth=4, seed=13)
    true: dict[str, int] = {}
    for value in keys:
        key = f"k{value}"
        cms.add(key)
        true[key] = true.get(key, 0) + 1
    for key, count in true.items():
        estimate = cms.estimate(key)
        assert count <= estimate <= cms.total


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=500))
def test_hll_error_bound_on_random_streams(keys):
    """HyperLogLog distinct estimates stay within 6 sigma + 3 of exact."""
    hll = HyperLogLog(precision=12, seed=17)
    for value in keys:
        hll.add(f"k{value}")
    exact = len(set(keys))
    tolerance = 6 * hll.relative_error * exact + 3
    assert abs(hll.estimate() - exact) <= tolerance


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=1, max_value=50),
        ),
        min_size=1,
        max_size=200,
    )
)
def test_sketch_entropy_tracks_exact_on_random_streams(pairs):
    """The streaming entropy estimate stays within 0.15 absolute of the
    exact normalized entropy on random skewed streams (the bound the
    sketch oracle enforces end to end)."""
    stats = SketchSourceStats(width=1024, depth=4, topk=8, precision=12, seed=19)
    exact = EntropyAccumulator()
    for value, amount in pairs:
        key = f"10.0.{value}.1"
        stats.add(key, amount)
        exact.add(key, amount)
    assert 0.0 <= stats.entropy() <= 1.0
    assert abs(stats.entropy() - exact.entropy()) <= 0.15
    tolerance = 6 * 1.04 / math.sqrt(4096) * exact.distinct + 3
    assert abs(stats.distinct - exact.distinct) <= tolerance

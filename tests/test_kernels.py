"""The monitor plane's bulk paths against their sequential definitions.

:mod:`repro.kernels` folds a whole window in one pass; the contract is
*byte identity* with the per-key (sketches) or per-packet (feature
backends) path it replaced, not approximation.  These properties drive
both over adversarial key/value distributions — all-unique, all-repeat,
interleaved, unicode keys — and assert sketch state and folded features
match bit for bit.  Two tests pin the import footprint: every import
under ``src/repro`` names the stdlib or ``repro`` itself, and loading the
runtime entry points pulls in neither numpy nor networkx.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.monitor.features import (
    ExactFeatureBackend,
    FeatureExtractor,
    SketchFeatureBackend,
)
from repro.monitor.sketch import (
    CountMinSketch,
    HeavyHitterSketch,
    HyperLogLog,
    _hash64,
)
from repro.net.headers import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN

REPO = Path(__file__).resolve().parents[1]

# Adversarial key distributions: a wide pool (draws are mostly
# first-touch), a two-key pool (all-repeat), and a unicode pool.
# Sampling interleaves them naturally across examples.
_KEY_POOLS = (
    tuple(f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}" for i in range(4000)),
    ("10.1.0.1", "10.1.0.2"),
    tuple(f"πρξ-{i}·☃" for i in range(64)),
)


@st.composite
def _key_counts(draw) -> dict[str, int]:
    """A first-touch-ordered key -> amount dict."""
    pool = draw(st.sampled_from(_KEY_POOLS))
    keys = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=120))
    counts: dict[str, int] = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + draw(st.integers(1, 1000))
    return counts


@st.composite
def _windows(draw) -> list[tuple[list[int], list[str], list[str]]]:
    """1-3 observation windows of parallel (flags, src, dst) columns."""
    pool = draw(st.sampled_from(_KEY_POOLS))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 120))
        flags = draw(
            st.lists(
                st.one_of(st.just(-1), st.integers(0, 255)),
                min_size=n,
                max_size=n,
            )
        )
        src = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        dst = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        out.append((flags, src, dst))
    return out


def _feed(fx: FeatureExtractor, windows) -> list:
    features = []
    for i, (flags, src, dst) in enumerate(windows):
        fx._b_flags.extend(flags)
        fx._b_src.extend(src)
        fx._b_dst.extend(dst)
        fx.packets_observed += len(flags)
        features.append(fx.close_window(float(i + 1)))
    return features


def _is_syn(fl: int) -> bool:
    return fl >= 0 and bool(fl & TCP_SYN) and not fl & TCP_ACK


def _flag_counts(flags: list[int]) -> dict[str, int]:
    """The window's scalar features, one naive pass per field."""
    tcp = [fl for fl in flags if fl >= 0]
    return {
        "total_packets": len(flags),
        "tcp_packets": len(tcp),
        "syn_count": sum(map(_is_syn, tcp)),
        "synack_count": sum(1 for fl in tcp if fl & TCP_SYN and fl & TCP_ACK),
        "ack_count": sum(1 for fl in tcp if fl & TCP_ACK and not fl & TCP_SYN),
        "rst_count": sum(1 for fl in tcp if fl & TCP_RST),
        "fin_count": sum(1 for fl in tcp if fl & TCP_FIN),
        "udp_packets": len(flags) - len(tcp),
    }


def _assert_window(features, summary, flags) -> None:
    """One closed window against a reference backend's summary."""
    for name, value in _flag_counts(flags).items():
        assert getattr(features, name) == value, name
    for name in summary._fields:
        assert getattr(features, name) == getattr(summary, name), name


class TestSketchTwins:
    """Each sketch's bulk add against its own sequential ``add``."""

    @settings(max_examples=60, deadline=None)
    @given(counts=_key_counts(), seed=st.integers(0, 2**16))
    def test_cms_bulk_matches_sequential_adds_bytewise(self, counts, seed):
        # width=64 forces slot collisions: the post-add estimate of a
        # key depends on every earlier key that shares one of its slots.
        reference = CountMinSketch(width=64, depth=4, seed=seed)
        ref_ests = [reference.add(k, c) for k, c in counts.items()]
        sketch = CountMinSketch(width=64, depth=4, seed=seed)
        assert sketch.add_bulk(counts) == ref_ests
        assert sketch.total == reference.total
        assert [r.tobytes() for r in sketch._rows] == [
            r.tobytes() for r in reference._rows
        ]

    @settings(max_examples=60, deadline=None)
    @given(counts=_key_counts(), seed=st.integers(0, 2**16))
    def test_cms_bulk_add_kernel_matches_sequential_adds(self, counts, seed):
        reference = CountMinSketch(width=64, depth=4, seed=seed)
        ref_ests = [reference.add(k, c) for k, c in counts.items()]
        sketch = CountMinSketch(width=64, depth=4, seed=seed)
        digests = [_hash64(sketch._hasher, key) for key in counts]
        ests = kernels.cms_bulk_add(sketch._rows, 64, digests, list(counts.values()))
        assert ests == ref_ests
        assert [r.tobytes() for r in sketch._rows] == [
            r.tobytes() for r in reference._rows
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        first=_key_counts(), second=_key_counts(), seed=st.integers(0, 2**16)
    )
    def test_heavy_hitter_bulk_state_identical(self, first, second, seed):
        # Two bulk folds into one window: the second re-touches keys
        # already in the candidate set (raising the floor key among them).
        reference = HeavyHitterSketch(width=64, depth=4, topk=4, seed=seed)
        sketch = HeavyHitterSketch(width=64, depth=4, topk=4, seed=seed)
        for counts in (first, second):
            for key, amount in counts.items():
                reference.add(key, amount)
            sketch.add_bulk(counts)
            # Candidate *order* is state too: eviction and top() break
            # ties by it.
            assert list(sketch._candidates.items()) == list(
                reference._candidates.items()
            )
            assert sketch.top() == reference.top()
            assert [r.tobytes() for r in sketch.cms._rows] == [
                r.tobytes() for r in reference.cms._rows
            ]

    def test_heavy_hitter_floor_ties_keep_candidate_order(self):
        # topk=2 holds four candidates, all tied at 1 after the first
        # fold.  In the second, "x" fails to beat the floor "a", raising
        # "a" moves the floor to the next tie "b", ties at the floor
        # never evict ("v"), and evictions take tied candidates in
        # insertion order.
        folds = (
            {"a": 1, "b": 1, "c": 1, "d": 1},
            {"x": 1, "a": 4, "y": 2, "b": 1, "z": 2, "w": 3, "v": 2},
        )
        reference = HeavyHitterSketch(width=4096, depth=4, topk=2, seed=7)
        sketch = HeavyHitterSketch(width=4096, depth=4, topk=2, seed=7)
        for counts in folds:
            for key, amount in counts.items():
                reference.add(key, amount)
            sketch.add_bulk(counts)
        expected = [("a", 5), ("b", 2), ("z", 2), ("w", 3)]
        assert list(reference._candidates.items()) == expected
        assert list(sketch._candidates.items()) == expected
        assert sketch.top() == reference.top()

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.sampled_from(_KEY_POOLS[0] + _KEY_POOLS[2]), max_size=150
        ),
        seed=st.integers(0, 2**16),
    )
    def test_hll_bulk_registers_match_sequential(self, keys, seed):
        reference = HyperLogLog(precision=8, seed=seed)
        for key in keys:
            reference.add(key)
        hll = HyperLogLog(precision=8, seed=seed)
        hll.add_bulk(keys)
        assert bytes(hll._registers) == bytes(reference._registers)
        assert hll.estimate() == reference.estimate()


class TestFoldTwins:
    """``close_window``'s one-pass fold against a reference backend fed
    without it: flag counts from naive per-field passes, per-address
    state from per-packet (exact) or per-key (sketch) adds."""

    @settings(max_examples=40, deadline=None)
    @given(windows=_windows())
    def test_exact_fold_features_identical(self, windows):
        fx = FeatureExtractor(backend="exact")
        reference = ExactFeatureBackend()
        for features, (flags, src, dst) in zip(_feed(fx, windows), windows):
            for fl, s, d in zip(flags, src, dst):
                if fl < 0:
                    reference.add_udp(s, d)
                elif _is_syn(fl):
                    reference.add_syn(s, d)
            _assert_window(features, reference.summarize(1.0), flags)
            reference.reset()
        accounting = fx.accounting()
        assert accounting["backend_syn_adds"] == reference.syn_adds
        assert accounting["backend_udp_adds"] == reference.udp_adds
        assert accounting["folded_total"] == sum(len(w[0]) for w in windows)

    @settings(max_examples=40, deadline=None)
    @given(windows=_windows())
    def test_sketch_fold_state_identical(self, windows):
        fx = FeatureExtractor(backend="sketch", sketch_width=64)
        reference = SketchFeatureBackend(width=64)
        for features, (flags, src, dst) in zip(_feed(fx, windows), windows):
            # Whole-window amounts, applied per key in first-touch order.
            udp = [fl < 0 for fl in flags]
            syn = [_is_syn(fl) for fl in flags]
            sources = Counter(s for s, u, y in zip(src, udp, syn) if u or y)
            for key, amount in sources.items():
                reference.sources.add(key, amount)
            for key, amount in Counter(d for d, y in zip(dst, syn) if y).items():
                reference.syn_dsts.add(key, amount)
            for key, amount in Counter(d for d, u in zip(dst, udp) if u).items():
                reference.udp_dsts.add(key, amount)
            _assert_window(features, reference.summarize(1.0), flags)
            reference.reset()
        accounting = fx.accounting()
        assert accounting["folded_syn"] == accounting["backend_syn_adds"]
        assert accounting["folded_udp"] == accounting["backend_udp_adds"]


class TestImportFootprint:
    """``repro`` is stdlib-only: it has no runtime dependency."""

    def test_every_import_is_stdlib_or_repro(self):
        allowed = set(sys.stdlib_module_names) | {"repro", "__future__"}
        foreign = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                foreign += [
                    f"{path.relative_to(REPO)}:{node.lineno} {name}"
                    for name in names
                    if name.partition(".")[0] not in allowed
                ]
        assert not foreign, foreign

    def test_runtime_imports_neither_numpy_nor_networkx(self):
        code = """
            import sys
            import repro
            import repro.cli
            import repro.harness.fuzzer
            import repro.harness.parallel
            import repro.sim.sharded
            import repro.service

            heavy = {"numpy", "networkx"} & set(sys.modules)
            assert not heavy, f"imported at load: {sorted(heavy)}"
            print("OK")
        """
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            cwd=REPO,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

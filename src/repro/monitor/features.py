"""Per-window feature extraction from sampled packet headers.

The monitor tier is deliberately cheap: it looks only at header fields
(flags, addresses) of *sampled* packets and reduces each window to a
:class:`WindowFeatures` record.  Counts are scaled by the inverse
sampling probability so features estimate true traffic volumes.

The extractor is columnar: ``observe`` only appends ``(flags, src,
dst)`` to flat per-window batch lists, and ``close_window`` folds the
whole batch in arrival order through a pluggable *feature backend*:

* ``exact`` — per-source :class:`EntropyAccumulator` and full
  per-destination dicts (memory grows with distinct addresses; the
  historical behavior, byte-identical features).
* ``sketch`` — count-min / HyperLogLog summaries from
  :mod:`repro.monitor.sketch` (memory fixed by sketch geometry, so a
  million spoofed sources cost the same as a hundred).

Detectors read only :class:`WindowFeatures`, so they run unchanged on
either backend.  The batch buffers themselves are O(sampled packets per
window) in both modes and are recycled at every close; the backend
holds all per-address state, which is what ``state_bytes`` reports.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

from repro import kernels
from repro.net.headers import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN
from repro.net.packet import Packet
from repro.monitor.sketch import HeavyHitterSketch, SketchSourceStats
from repro.monitor.window import EntropyAccumulator

#: Default seed for the sketch backend's keyed hashing.  Any fixed value
#: works; it only has to be identical across runs and spawn workers.
DEFAULT_SKETCH_SEED = 0xD5EED


@dataclass(frozen=True)
class WindowFeatures:
    """Summary of one observation window at one monitor."""

    window_start: float
    window_end: float
    total_packets: float
    tcp_packets: float
    syn_count: float
    synack_count: float
    ack_count: float
    rst_count: float
    fin_count: float
    udp_packets: float
    distinct_sources: int
    source_entropy: float
    top_destination: str | None
    top_destination_syns: float
    per_destination_syns: dict[str, float] = field(default_factory=dict)
    top_udp_destination: str | None = None
    top_udp_destination_packets: float = 0.0
    per_destination_udp: dict[str, float] = field(default_factory=dict)
    #: Which feature backend produced this window ("exact" or "sketch");
    #: a sketch window's per-destination maps are its heavy-hitter
    #: candidates and need not sum to ``syn_count``/``udp_packets``.
    backend: str = "exact"

    @property
    def duration(self) -> float:
        """Window length in seconds."""
        return self.window_end - self.window_start

    @property
    def syn_rate(self) -> float:
        """Estimated SYN arrivals per second."""
        return self.syn_count / self.duration if self.duration > 0 else 0.0

    @property
    def udp_rate(self) -> float:
        """Estimated UDP datagrams per second."""
        return self.udp_packets / self.duration if self.duration > 0 else 0.0

    @property
    def syn_ack_imbalance(self) -> float:
        """SYNs per completing ACK; ~1-2 for benign traffic, >>1 in floods.

        A SYN flood sends SYNs that are never followed by the final ACK
        of the handshake, so this ratio diverges.  The +1 regularizer
        keeps quiet windows finite.
        """
        return self.syn_count / (self.ack_count + 1.0)


class _Summary(NamedTuple):
    """Backend contribution to one window's features."""

    distinct_sources: int
    source_entropy: float
    top_destination: str | None
    top_destination_syns: float
    per_destination_syns: dict[str, float]
    top_udp_destination: str | None
    top_udp_destination_packets: float
    per_destination_udp: dict[str, float]


class ExactFeatureBackend:
    """Historical exact per-address state: dicts plus an entropy counter."""

    name = "exact"

    __slots__ = ("sources", "syn_adds", "udp_adds", "_dst_syns", "_dst_udp")

    def __init__(self) -> None:
        self.sources = EntropyAccumulator()
        self._dst_syns: dict[str, int] = {}
        self._dst_udp: dict[str, int] = {}
        # Lifetime add counters (never reset): the monitor-accounting
        # invariant ties them to the extractor's folded totals.
        self.syn_adds = 0
        self.udp_adds = 0

    def add_syn(self, src: str, dst: str) -> None:
        self.syn_adds += 1
        self.sources.add(src)
        counts = self._dst_syns
        counts[dst] = counts.get(dst, 0) + 1

    def add_udp(self, src: str, dst: str) -> None:
        self.udp_adds += 1
        self.sources.add(src)
        counts = self._dst_udp
        counts[dst] = counts.get(dst, 0) + 1

    def fold(
        self,
        src_counts: Counter,
        syn_dst_counts: Counter,
        udp_dst_counts: Counter,
        n_syn: int,
        n_udp: int,
    ) -> None:
        """Merge whole-window per-key counts (first-touch order).

        Byte-identical to the equivalent per-packet ``add_syn``/
        ``add_udp`` sequence: dict/Counter insertion order under a
        first-touch-ordered merge matches sequential adds, so every
        downstream tie-break and the entropy summation order survive.
        """
        self.syn_adds += n_syn
        self.udp_adds += n_udp
        self.sources.add_counts(src_counts)
        counts = self._dst_syns
        for dst, c in syn_dst_counts.items():
            counts[dst] = counts.get(dst, 0) + c
        counts = self._dst_udp
        for dst, c in udp_dst_counts.items():
            counts[dst] = counts.get(dst, 0) + c

    def summarize(self, scale: float) -> _Summary:
        dst_counts = self._dst_syns
        # max() iterates in insertion (first-increment) order, matching the
        # Counter-snapshot tie-breaking the detectors were tuned against.
        top_dst = max(dst_counts, key=dst_counts.get) if dst_counts else None
        udp_counts = self._dst_udp
        top_udp = max(udp_counts, key=udp_counts.get) if udp_counts else None
        return _Summary(
            distinct_sources=self.sources.distinct,
            source_entropy=self.sources.entropy(),
            top_destination=top_dst,
            top_destination_syns=(
                dst_counts.get(top_dst, 0) * scale if top_dst else 0.0
            ),
            per_destination_syns={ip: c * scale for ip, c in dst_counts.items()},
            top_udp_destination=top_udp,
            top_udp_destination_packets=(
                udp_counts.get(top_udp, 0) * scale if top_udp else 0.0
            ),
            per_destination_udp={ip: c * scale for ip, c in udp_counts.items()},
        )

    def reset(self) -> None:
        self._dst_syns.clear()
        self._dst_udp.clear()
        self.sources.reset()

    def state_bytes(self) -> int:
        """Resident bytes of per-address state — O(distinct addresses)."""
        total = self.sources.state_bytes()
        for counts in (self._dst_syns, self._dst_udp):
            total += sys.getsizeof(counts)
            total += sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in counts.items())
        return total


class SketchFeatureBackend:
    """Bounded-memory per-address state built on :mod:`repro.monitor.sketch`.

    Per-destination maps are the heavy-hitter candidate top-k; distinct
    sources and entropy come from the HyperLogLog/heavy-hitter
    estimators.
    """

    name = "sketch"

    __slots__ = ("syn_dsts", "udp_dsts", "sources", "syn_adds", "udp_adds")

    def __init__(
        self,
        width: int = 1024,
        depth: int = 4,
        topk: int = 8,
        hll_precision: int = 12,
        seed: int = DEFAULT_SKETCH_SEED,
    ) -> None:
        self.syn_dsts = HeavyHitterSketch(width, depth, topk, seed=seed ^ 0x515)
        self.udp_dsts = HeavyHitterSketch(width, depth, topk, seed=seed ^ 0xAD9)
        self.sources = SketchSourceStats(
            width, depth, topk, hll_precision, seed=seed
        )
        self.syn_adds = 0
        self.udp_adds = 0

    def add_syn(self, src: str, dst: str) -> None:
        self.syn_adds += 1
        self.sources.add(src)
        self.syn_dsts.add(dst)

    def add_udp(self, src: str, dst: str) -> None:
        self.udp_adds += 1
        self.sources.add(src)
        self.udp_dsts.add(dst)

    def fold(
        self,
        src_counts: Counter,
        syn_dst_counts: Counter,
        udp_dst_counts: Counter,
        n_syn: int,
        n_udp: int,
    ) -> None:
        """Bulk-add whole-window per-key counts into the sketches.

        One keyed hash per *unique* key per sketch; the
        heavy-hitter candidate set sees one whole-window amount per key.
        """
        self.syn_adds += n_syn
        self.udp_adds += n_udp
        self.sources.add_bulk(src_counts)
        self.syn_dsts.add_bulk(syn_dst_counts)
        self.udp_dsts.add_bulk(udp_dst_counts)

    def summarize(self, scale: float) -> _Summary:
        syn_top = self.syn_dsts.top()
        udp_top = self.udp_dsts.top()
        top_dst, top_syns = syn_top[0] if syn_top else (None, 0)
        top_udp, top_udp_n = udp_top[0] if udp_top else (None, 0)
        return _Summary(
            distinct_sources=self.sources.distinct,
            source_entropy=self.sources.entropy(),
            top_destination=top_dst,
            top_destination_syns=top_syns * scale,
            per_destination_syns={ip: c * scale for ip, c in syn_top},
            top_udp_destination=top_udp,
            top_udp_destination_packets=top_udp_n * scale,
            per_destination_udp={ip: c * scale for ip, c in udp_top},
        )

    def reset(self) -> None:
        self.syn_dsts.reset()
        self.udp_dsts.reset()
        self.sources.reset()

    def state_bytes(self) -> int:
        """Resident bytes of sketch state — O(width * depth), not sources."""
        return (
            self.syn_dsts.state_bytes()
            + self.udp_dsts.state_bytes()
            + self.sources.state_bytes()
        )


class FeatureExtractor:
    """Accumulates sampled packets and closes windows into features.

    ``observe`` is the per-packet hot path and does no classification
    work beyond reading the transport header: it appends the TCP flag
    byte (``-1`` for UDP) and the addresses to flat batch lists.  The
    whole batch is folded once per window by ``close_window``, in
    arrival order so the exact backend's dict insertion order — and
    therefore every downstream tie-break — matches the historical
    per-packet path byte for byte.
    """

    def __init__(
        self,
        sampling_probability: float = 1.0,
        *,
        backend: str = "exact",
        sketch_width: int = 1024,
        sketch_depth: int = 4,
        sketch_topk: int = 8,
        hll_precision: int = 12,
        sketch_seed: int = DEFAULT_SKETCH_SEED,
        track_state_bytes: bool = False,
    ) -> None:
        if not 0 < sampling_probability <= 1:
            raise ValueError("sampling probability must be in (0, 1]")
        self.sampling_probability = sampling_probability
        self._scale = 1.0 / sampling_probability
        if backend == "exact":
            self.backend: ExactFeatureBackend | SketchFeatureBackend = (
                ExactFeatureBackend()
            )
        elif backend == "sketch":
            self.backend = SketchFeatureBackend(
                width=sketch_width,
                depth=sketch_depth,
                topk=sketch_topk,
                hll_precision=hll_precision,
                seed=sketch_seed,
            )
        else:
            raise ValueError(f"unknown feature backend: {backend!r}")
        self.track_state_bytes = track_state_bytes
        #: Peak backend state_bytes() sampled at window close (only
        #: populated when ``track_state_bytes`` is set; sampling the
        #: exact backend is O(distinct addresses)).
        self.peak_state_bytes = 0
        # Raw (unscaled) packets fed in; ties the extractor to the tap's
        # sampled count in the monitor-accounting invariant.
        self.packets_observed = 0
        # Cumulative raw packets/SYNs/UDP folded by close_window; with
        # the pending batch these reconcile against packets_observed and
        # the backend's lifetime add counters.
        self.folded_total = 0
        self.folded_syn_total = 0
        self.folded_udp_total = 0
        # Columnar per-window batch: parallel lists of the TCP flag byte
        # (-1 = UDP) and the flow addresses.  IP packets that are neither
        # TCP nor UDP, and non-IP packets, only count toward the window
        # total and are tallied in _n_plain instead of being appended.
        self._b_flags: list[int] = []
        self._b_src: list[str] = []
        self._b_dst: list[str] = []
        self._n_plain = 0
        self._window_start = 0.0

    @property
    def pending_packets(self) -> int:
        """Raw packets observed since the last close (not yet folded)."""
        return len(self._b_flags) + self._n_plain

    def set_sampling_probability(self, sampling_probability: float) -> None:
        """Runtime retune of the sampling rate (validated).

        Takes effect immediately: packets already accumulated in the
        open window scale with the *new* probability when it closes —
        the window summary is an estimate either way.
        """
        if not 0 < sampling_probability <= 1:
            raise ValueError("sampling probability must be in (0, 1]")
        self.sampling_probability = sampling_probability
        self._scale = 1.0 / sampling_probability

    def observe(self, packet: Packet) -> None:
        """Feed one sampled packet (header inspection only).

        Only primitive header fields are copied into the batch, never
        the packet itself, so a window holds no frames alive.
        """
        self.packets_observed += 1
        ip = packet.ip
        if ip is None:
            self._n_plain += 1
            return
        tcp = packet.tcp
        if tcp is not None:
            self._b_flags.append(tcp.flags)
        elif packet.udp is not None:
            self._b_flags.append(-1)
        else:
            self._n_plain += 1
            return
        self._b_src.append(ip.src_ip)
        self._b_dst.append(ip.dst_ip)

    def close_window(self, now: float) -> WindowFeatures:
        """Fold the batch through the backend, summarize, and reset.

        The flag column is classified in one pass
        (:func:`repro.kernels.classify_flags`), the address columns are
        reduced to first-touch-ordered per-key Counters, and the backend
        ingests the whole window through ``fold`` — one state touch per
        *unique* key instead of one per packet.
        """
        backend = self.backend
        flags_list = self._b_flags
        n_batch = len(flags_list)
        fold = kernels.classify_flags(
            flags_list, TCP_SYN, TCP_ACK, TCP_RST, TCP_FIN
        )
        src_counts = Counter(compress(self._b_src, fold.src_sel))
        syn_dst_counts = Counter(compress(self._b_dst, fold.syn_sel))
        udp_dst_counts = Counter(compress(self._b_dst, fold.udp_sel))
        backend.fold(
            src_counts, syn_dst_counts, udp_dst_counts, fold.n_syn, fold.n_udp
        )
        n_tcp, n_syn, n_synack, n_ack, n_rst, n_fin, n_udp = fold[:7]
        scale = self._scale
        summary = backend.summarize(scale)
        features = WindowFeatures(
            window_start=self._window_start,
            window_end=now,
            total_packets=(n_batch + self._n_plain) * scale,
            tcp_packets=n_tcp * scale,
            syn_count=n_syn * scale,
            synack_count=n_synack * scale,
            ack_count=n_ack * scale,
            rst_count=n_rst * scale,
            fin_count=n_fin * scale,
            udp_packets=n_udp * scale,
            distinct_sources=summary.distinct_sources,
            source_entropy=summary.source_entropy,
            top_destination=summary.top_destination,
            top_destination_syns=summary.top_destination_syns,
            per_destination_syns=summary.per_destination_syns,
            top_udp_destination=summary.top_udp_destination,
            top_udp_destination_packets=summary.top_udp_destination_packets,
            per_destination_udp=summary.per_destination_udp,
            backend=backend.name,
        )
        self.folded_total += n_batch + self._n_plain
        self.folded_syn_total += n_syn
        self.folded_udp_total += n_udp
        if self.track_state_bytes:
            state = backend.state_bytes()
            if state > self.peak_state_bytes:
                self.peak_state_bytes = state
        flags_list.clear()
        self._b_src.clear()
        self._b_dst.clear()
        self._n_plain = 0
        backend.reset()
        self._window_start = now
        return features

    def state_bytes(self) -> int:
        """Resident bytes of the backend's per-address state."""
        return self.backend.state_bytes()

    def accounting(self) -> dict[str, int]:
        """Counters for the monitor-accounting invariant checker."""
        backend = self.backend
        return {
            "observed": self.packets_observed,
            "folded_total": self.folded_total,
            "pending": self.pending_packets,
            "folded_syn": self.folded_syn_total,
            "folded_udp": self.folded_udp_total,
            "backend_syn_adds": backend.syn_adds,
            "backend_udp_adds": backend.udp_adds,
        }

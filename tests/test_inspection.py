"""Tests for the DPI engine and handshake tracker."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.inspection.dpi import DpiEngine
from repro.inspection.tracker import HandshakeTracker
from repro.net.headers import TCP_ACK, TCP_FIN, TCP_PSH, TCP_RST, TCP_SYN, TcpHeader, UdpHeader
from repro.net.host import Host
from repro.net.packet import Packet

MAC = "00:00:00:00:00:01"
VICTIM = "10.0.0.1"


def seg(src_ip, sport, flags, dst_ip=VICTIM, dport=80):
    return Packet.tcp_packet(
        MAC, MAC, src_ip, dst_ip, TcpHeader(sport, dport, flags=flags)
    )


class TestHandshakeTracker:
    def test_syn_then_ack_counts_completion(self):
        tracker = HandshakeTracker(VICTIM, started_at=0.0)
        tracker.observe(seg("10.0.0.5", 1000, TCP_SYN), 0.1)
        tracker.observe(seg("10.0.0.5", 1000, TCP_ACK), 0.2)
        evidence = tracker.snapshot(0.3)
        assert evidence.syn_total == 1
        assert evidence.completion_total == 1
        assert evidence.completion_ratio == 1.0
        assert evidence.syns["10.0.0.5"] == 1 and evidence.completions["10.0.0.5"] == 1

    def test_syn_without_ack_is_abandoned(self):
        tracker = HandshakeTracker(VICTIM, 0.0)
        tracker.observe(seg("198.18.0.1", 2000, TCP_SYN), 0.1)
        evidence = tracker.snapshot(1.0)
        assert evidence.completion_ratio == 0.0
        assert evidence.syns["198.18.0.1"] - evidence.completions.get("198.18.0.1", 0) == 1

    def test_syn_retransmission_not_double_counted(self):
        tracker = HandshakeTracker(VICTIM, 0.0)
        for t in (0.1, 0.2, 0.3):
            tracker.observe(seg("10.0.0.5", 1000, TCP_SYN), t)
        assert tracker.snapshot(1.0).syn_total == 1

    def test_distinct_tuples_are_distinct_handshakes(self):
        tracker = HandshakeTracker(VICTIM, 0.0)
        tracker.observe(seg("10.0.0.5", 1000, TCP_SYN), 0.1)
        tracker.observe(seg("10.0.0.5", 1001, TCP_SYN), 0.1)
        evidence = tracker.snapshot(1.0)
        assert evidence.syn_total == 2
        assert evidence.syns["10.0.0.5"] == 2

    def test_rst_clears_pending_without_completion(self):
        tracker = HandshakeTracker(VICTIM, 0.0)
        tracker.observe(seg("10.0.0.5", 1000, TCP_SYN), 0.1)
        tracker.observe(seg("10.0.0.5", 1000, TCP_RST), 0.2)
        tracker.observe(seg("10.0.0.5", 1000, TCP_ACK), 0.3)  # stale, ignored
        evidence = tracker.snapshot(1.0)
        assert evidence.completion_total == 0
        assert evidence.resets["10.0.0.5"] == 1

    def test_ack_without_syn_ignored(self):
        tracker = HandshakeTracker(VICTIM, 0.0)
        tracker.observe(seg("10.0.0.5", 1000, TCP_ACK), 0.1)
        assert tracker.snapshot(1.0).completion_total == 0

    def test_traffic_to_other_destination_ignored(self):
        tracker = HandshakeTracker(VICTIM, 0.0)
        tracker.observe(seg("10.0.0.5", 1000, TCP_SYN, dst_ip="10.0.0.99"), 0.1)
        assert tracker.snapshot(1.0).syn_total == 0

    def test_attacker_and_suspect_classification(self):
        tracker = HandshakeTracker(VICTIM, 0.0)
        # Heavy hitter: 10 SYNs from distinct ports, no completion.
        for port in range(10):
            tracker.observe(seg("203.0.113.1", 5000 + port, TCP_SYN), 0.1)
        # Spoofed drizzle: 1 SYN each.
        for i in range(5):
            tracker.observe(seg(f"198.18.0.{i + 1}", 1000, TCP_SYN), 0.1)
        # Benign completer.
        tracker.observe(seg("10.0.0.5", 1000, TCP_SYN), 0.1)
        tracker.observe(seg("10.0.0.5", 1000, TCP_ACK), 0.2)
        evidence = tracker.snapshot(1.0)
        assert evidence.attacker_sources(min_syns=5) == ["203.0.113.1"]
        suspects = evidence.suspect_sources(below_syns=5)
        assert len(suspects) == 5 and all(s.startswith("198.18.") for s in suspects)
        assert evidence.completed_sources() == ["10.0.0.5"]

    def test_window_duration(self):
        tracker = HandshakeTracker(VICTIM, 2.0)
        evidence = tracker.snapshot(5.0)
        assert evidence.duration == pytest.approx(3.0)


class _ReferenceTracker:
    """One object per source, keyed by ``(src, sport, dport)`` tuples: the
    tracker semantics the per-source counters must reproduce."""

    class Source:
        def __init__(self):
            self.syns = self.completions = self.resets = 0

    def __init__(self, victim_ip):
        self.victim_ip = victim_ip
        self.sources = {}
        self.pending = set()
        self.syn_total = self.completion_total = 0

    def observe(self, packet):
        if packet.ip.dst_ip != self.victim_ip:
            return
        src, header = packet.ip.src_ip, packet.tcp
        key = (src, header.src_port, header.dst_port)
        source = self.sources.setdefault(src, self.Source())
        flags = header.flags
        if flags & TCP_SYN and not flags & TCP_ACK:
            if key not in self.pending:
                self.pending.add(key)
                source.syns += 1
                self.syn_total += 1
        elif flags & TCP_RST:
            source.resets += 1
            self.pending.discard(key)
        elif flags & TCP_ACK and key in self.pending:
            self.pending.discard(key)
            source.completions += 1
            self.completion_total += 1

    def attacker_sources(self, min_syns):
        return [ip for ip, s in self.sources.items() if s.syns >= min_syns and s.completions == 0]

    def suspect_sources(self, below_syns):
        return [ip for ip, s in self.sources.items() if s.completions == 0 and s.syns < below_syns]

    def completed_sources(self):
        return [ip for ip, s in self.sources.items() if s.completions > 0]


_SOURCES = ("10.0.0.5", "198.18.0.1", "198.18.7.9", "203.0.113.1")
_FLAGS = (TCP_SYN, TCP_ACK, TCP_RST, TCP_SYN | TCP_ACK, TCP_RST | TCP_ACK,
          TCP_FIN | TCP_ACK, TCP_PSH | TCP_ACK, TCP_FIN)
_segments = st.lists(
    st.tuples(
        st.sampled_from(_SOURCES),
        st.sampled_from((1000, 1001, 1002)),
        st.sampled_from((80, 443)),
        st.sampled_from(_FLAGS),
        st.sampled_from((VICTIM, VICTIM, VICTIM, "10.0.0.99")),
    ),
    max_size=60,
)


class TestCountersMatchTheReference:
    @settings(max_examples=300, deadline=None)
    @given(segments=_segments)
    @example(segments=[  # a retransmitted SYN, then its completion
        ("10.0.0.5", 1000, 80, TCP_SYN, VICTIM), ("10.0.0.5", 1000, 80, TCP_SYN, VICTIM),
        ("10.0.0.5", 1000, 80, TCP_ACK, VICTIM),
    ])
    @example(segments=[  # a RST before the ACK leaves the ACK stale
        ("198.18.0.1", 1000, 80, TCP_SYN, VICTIM), ("198.18.0.1", 1000, 80, TCP_RST, VICTIM),
        ("198.18.0.1", 1000, 80, TCP_ACK, VICTIM),
    ])
    @example(segments=[  # sources seen only through an ACK or an RST
        ("203.0.113.1", 1000, 80, TCP_ACK, VICTIM), ("198.18.7.9", 1001, 80, TCP_RST, VICTIM),
        ("10.0.0.5", 1002, 443, TCP_SYN, VICTIM),
    ])
    def test_totals_counts_and_lists_agree(self, segments):
        tracker, reference = HandshakeTracker(VICTIM, 0.0), _ReferenceTracker(VICTIM)
        for i, (src, sport, dport, flags, dst) in enumerate(segments):
            packet = seg(src, sport, flags, dst_ip=dst, dport=dport)
            tracker.observe(packet, i * 0.01)
            reference.observe(packet)
        evidence = tracker.snapshot(1.0)
        assert evidence.syn_total == reference.syn_total
        assert evidence.completion_total == reference.completion_total
        assert evidence.source_count == len(reference.sources)
        assert list(evidence.syns) == list(reference.sources)
        for ip, source in reference.sources.items():
            assert evidence.syns[ip] == source.syns
            assert evidence.completions.get(ip, 0) == source.completions
            assert evidence.resets.get(ip, 0) == source.resets
        for threshold in range(1, 5):
            assert evidence.attacker_sources(threshold) == reference.attacker_sources(threshold)
            assert evidence.suspect_sources(threshold) == reference.suspect_sources(threshold)
        assert evidence.completed_sources() == reference.completed_sources()


class TestDpiEngine:
    @pytest.fixture
    def engine(self, sim):
        host = Host(sim, "dpi", "192.0.2.1", "00:0d:0d:0d:0d:01")
        return DpiEngine(host)

    def _deliver(self, engine, packet):
        """Short-circuit the link: frames arrive at the sniffer directly."""
        engine.host.on_packet(packet, engine.host.port)

    def test_frames_parsed_from_bytes(self, engine):
        self._deliver(engine, seg("10.0.0.5", 1000, TCP_SYN))
        assert engine.stats.frames_received == 1
        assert engine.stats.frames_parsed == 1
        assert engine.stats.parse_errors == 0

    def test_tracked_only_for_active_victims(self, engine):
        engine.start_inspection(VICTIM)
        self._deliver(engine, seg("10.0.0.5", 1000, TCP_SYN))
        self._deliver(engine, seg("10.0.0.5", 1000, TCP_SYN, dst_ip="10.0.0.99"))
        assert engine.stats.frames_tracked == 1
        evidence = engine.evidence(VICTIM)
        assert evidence is not None and evidence.syn_total == 1

    def test_stop_inspection_returns_final_evidence(self, engine):
        engine.start_inspection(VICTIM)
        self._deliver(engine, seg("10.0.0.5", 1000, TCP_SYN))
        evidence = engine.stop_inspection(VICTIM)
        assert evidence is not None and evidence.syn_total == 1
        assert engine.evidence(VICTIM) is None
        assert VICTIM not in engine.active_victims

    def test_stop_unknown_victim_returns_none(self, engine):
        assert engine.stop_inspection("10.9.9.9") is None

    def test_start_is_idempotent(self, engine):
        first = engine.start_inspection(VICTIM)
        second = engine.start_inspection(VICTIM)
        assert first is second

    def test_observers_see_parsed_packets(self, engine):
        seen = []
        engine.add_observer(seen.append)
        self._deliver(engine, seg("10.0.0.5", 1000, TCP_SYN))
        assert len(seen) == 1
        assert seen[0].tcp is not None

    def test_observers_and_trackers_get_the_mirrored_frame_itself(self, engine):
        engine.start_inspection(VICTIM)
        tracked = []
        for tracker in (engine._trackers[VICTIM], engine._udp_trackers[VICTIM]):
            observe = tracker.observe
            tracker.observe = lambda p, now, observe=observe: (tracked.append(p), observe(p, now))
        seen = []
        engine.add_observer(seen.append)
        syn = seg("10.0.0.5", 1000, TCP_SYN)
        datagram = Packet.udp_packet(MAC, MAC, "198.18.0.1", VICTIM, UdpHeader(53, 53), b"x")
        self._deliver(engine, syn)
        self._deliver(engine, datagram)
        assert len(seen) == len(tracked) == 2
        assert seen[0] is syn and tracked[0] is syn
        assert seen[1] is datagram and tracked[1] is datagram

    def test_multiple_victims_tracked_independently(self, engine):
        engine.start_inspection(VICTIM)
        engine.start_inspection("10.0.0.2")
        self._deliver(engine, seg("198.18.0.1", 1, TCP_SYN, dst_ip=VICTIM))
        self._deliver(engine, seg("198.18.0.2", 2, TCP_SYN, dst_ip="10.0.0.2"))
        assert engine.evidence(VICTIM).syn_total == 1
        assert engine.evidence("10.0.0.2").syn_total == 1

"""Tests for feature extraction from sampled packets."""

from __future__ import annotations

import pytest

from repro.monitor.features import FeatureExtractor
from repro.net.headers import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN, TcpHeader, UdpHeader
from repro.net.packet import Packet

MAC = "00:00:00:00:00:01"


def tcp(flags, src_ip="10.0.0.1", dst_ip="10.0.0.2", sport=1000):
    return Packet.tcp_packet(MAC, MAC, src_ip, dst_ip, TcpHeader(sport, 80, flags=flags))


def udp(src_ip="10.0.0.1", dst_ip="10.0.0.2"):
    return Packet.udp_packet(MAC, MAC, src_ip, dst_ip, UdpHeader(1, 2))


class TestCounting:
    def test_flag_classification(self):
        fx = FeatureExtractor()
        fx.observe(tcp(TCP_SYN))
        fx.observe(tcp(TCP_SYN | TCP_ACK))
        fx.observe(tcp(TCP_ACK))
        fx.observe(tcp(TCP_RST | TCP_ACK))
        fx.observe(tcp(TCP_FIN | TCP_ACK))
        fx.observe(udp())
        features = fx.close_window(1.0)
        assert features.syn_count == 1
        assert features.synack_count == 1
        assert features.ack_count == 3  # ACK, RST|ACK, FIN|ACK all carry ACK
        assert features.rst_count == 1
        assert features.fin_count == 1
        assert features.udp_packets == 1
        assert features.total_packets == 6

    def test_window_resets(self):
        fx = FeatureExtractor()
        fx.observe(tcp(TCP_SYN))
        fx.close_window(1.0)
        features = fx.close_window(2.0)
        assert features.syn_count == 0
        assert features.window_start == 1.0
        assert features.window_end == 2.0

    def test_syn_rate(self):
        fx = FeatureExtractor()
        for _ in range(10):
            fx.observe(tcp(TCP_SYN))
        features = fx.close_window(0.5)
        assert features.syn_rate == pytest.approx(20.0)

    def test_syn_ack_imbalance(self):
        fx = FeatureExtractor()
        for _ in range(30):
            fx.observe(tcp(TCP_SYN))
        fx.observe(tcp(TCP_ACK))
        features = fx.close_window(1.0)
        assert features.syn_ack_imbalance == pytest.approx(15.0)

    def test_non_ip_packet_ignored_gracefully(self):
        from repro.net.headers import EthernetHeader

        fx = FeatureExtractor()
        fx.observe(Packet(eth=EthernetHeader(MAC, MAC, 0x0806)))
        features = fx.close_window(1.0)
        assert features.total_packets == 1
        assert features.tcp_packets == 0


class TestSources:
    def test_distinct_sources_and_entropy(self):
        fx = FeatureExtractor()
        for i in range(16):
            fx.observe(tcp(TCP_SYN, src_ip=f"198.18.0.{i + 1}"))
        features = fx.close_window(1.0)
        assert features.distinct_sources == 16
        assert features.source_entropy == pytest.approx(1.0)

    def test_single_source_entropy_zero(self):
        fx = FeatureExtractor()
        for _ in range(16):
            fx.observe(tcp(TCP_SYN))
        features = fx.close_window(1.0)
        assert features.source_entropy == 0.0

    def test_top_destination(self):
        fx = FeatureExtractor()
        for _ in range(5):
            fx.observe(tcp(TCP_SYN, dst_ip="10.0.0.9"))
        fx.observe(tcp(TCP_SYN, dst_ip="10.0.0.8"))
        features = fx.close_window(1.0)
        assert features.top_destination == "10.0.0.9"
        assert features.top_destination_syns == 5
        assert features.per_destination_syns == {"10.0.0.9": 5, "10.0.0.8": 1}

    def test_no_syns_no_top_destination(self):
        fx = FeatureExtractor()
        fx.observe(tcp(TCP_ACK))
        features = fx.close_window(1.0)
        assert features.top_destination is None
        assert features.top_destination_syns == 0


class TestSampling:
    def test_counts_scaled_by_inverse_probability(self):
        fx = FeatureExtractor(sampling_probability=0.1)
        for _ in range(10):
            fx.observe(tcp(TCP_SYN))
        features = fx.close_window(1.0)
        assert features.syn_count == pytest.approx(100.0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor(sampling_probability=0.0)
        with pytest.raises(ValueError):
            FeatureExtractor(sampling_probability=1.5)

    def test_duration_property(self):
        fx = FeatureExtractor()
        fx.close_window(1.0)
        features = fx.close_window(3.5)
        assert features.duration == pytest.approx(2.5)


class TestUdpFeatures:
    def test_udp_per_destination_counts(self):
        fx = FeatureExtractor()
        for _ in range(5):
            fx.observe(udp(dst_ip="10.0.0.9"))
        fx.observe(udp(dst_ip="10.0.0.8"))
        features = fx.close_window(1.0)
        assert features.top_udp_destination == "10.0.0.9"
        assert features.top_udp_destination_packets == 5
        assert features.per_destination_udp == {"10.0.0.9": 5, "10.0.0.8": 1}

    def test_udp_rate(self):
        fx = FeatureExtractor()
        for _ in range(20):
            fx.observe(udp())
        features = fx.close_window(0.5)
        assert features.udp_rate == pytest.approx(40.0)

    def test_udp_sources_feed_entropy(self):
        fx = FeatureExtractor()
        for i in range(8):
            fx.observe(udp(src_ip=f"198.18.0.{i + 1}"))
        features = fx.close_window(1.0)
        assert features.distinct_sources == 8
        assert features.source_entropy == pytest.approx(1.0)

    def test_no_udp_means_no_top_udp_destination(self):
        fx = FeatureExtractor()
        fx.observe(tcp(TCP_SYN))
        features = fx.close_window(1.0)
        assert features.top_udp_destination is None
        assert features.per_destination_udp == {}

    def test_udp_scaling_with_sampling(self):
        fx = FeatureExtractor(sampling_probability=0.25)
        for _ in range(10):
            fx.observe(udp())
        features = fx.close_window(1.0)
        assert features.udp_packets == pytest.approx(40.0)
        assert features.top_udp_destination_packets == pytest.approx(40.0)


class TestReusedAccumulators:
    """The per-window counters/dicts are recycled in place across windows;
    nothing from a closed window may leak into the next one, and the
    per-destination dicts handed out must not alias the live ones."""

    def test_second_window_starts_from_zero(self):
        fx = FeatureExtractor()
        for _ in range(5):
            fx.observe(tcp(TCP_SYN))
        fx.observe(udp())
        first = fx.close_window(1.0)
        assert first.syn_count == 5 and first.udp_packets == 1
        second = fx.close_window(2.0)
        assert second.total_packets == 0
        assert second.syn_count == 0 and second.udp_packets == 0
        assert second.distinct_sources == 0
        assert second.per_destination_syns == {}
        assert second.per_destination_udp == {}
        assert second.window_start == 1.0 and second.window_end == 2.0

    def test_emitted_dicts_do_not_alias_live_state(self):
        fx = FeatureExtractor()
        fx.observe(tcp(TCP_SYN, dst_ip="10.0.0.9"))
        fx.observe(udp(dst_ip="10.0.0.9"))
        first = fx.close_window(1.0)
        # New traffic after the close must not mutate the emitted record.
        for _ in range(3):
            fx.observe(tcp(TCP_SYN, dst_ip="10.0.0.7"))
            fx.observe(udp(dst_ip="10.0.0.7"))
        assert first.per_destination_syns == {"10.0.0.9": 1}
        assert first.per_destination_udp == {"10.0.0.9": 1}
        second = fx.close_window(2.0)
        assert second.per_destination_syns == {"10.0.0.7": 3}
        assert second.per_destination_udp == {"10.0.0.7": 3}


class TestSketchBackend:
    """PR 7: the sketch feature backend must produce the same scalar
    fields as exact and bounded-estimate maps."""

    def test_scalars_match_exact(self):
        exact = FeatureExtractor()
        sketch = FeatureExtractor(backend="sketch")
        for i in range(50):
            for fx in (exact, sketch):
                fx.observe(tcp(TCP_SYN, src_ip=f"10.1.{i}.1", dst_ip="10.0.0.2"))
                fx.observe(udp(src_ip=f"10.2.{i}.1", dst_ip="10.0.0.3"))
        a = exact.close_window(1.0)
        b = sketch.close_window(1.0)
        for name in (
            "window_start", "window_end", "total_packets", "tcp_packets",
            "syn_count", "synack_count", "ack_count", "rst_count",
            "fin_count", "udp_packets",
        ):
            assert getattr(a, name) == getattr(b, name), name
        assert a.backend == "exact" and b.backend == "sketch"

    def test_sketch_estimates_bounded(self):
        sketch = FeatureExtractor(backend="sketch")
        for i in range(200):
            sketch.observe(tcp(TCP_SYN, src_ip=f"10.1.{i % 40}.1", dst_ip="10.0.0.2"))
        features = sketch.close_window(1.0)
        # Count-min never undercounts the single true destination.
        assert features.top_destination == "10.0.0.2"
        assert features.top_destination_syns >= 200
        # HLL distinct estimate is near the 40 true sources.
        assert abs(features.distinct_sources - 40) <= 5
        assert 0.0 <= features.source_entropy <= 1.0

    def test_sketch_deterministic_across_instances(self):
        runs = []
        for _ in range(2):
            fx = FeatureExtractor(backend="sketch")
            for i in range(100):
                fx.observe(tcp(TCP_SYN, src_ip=f"10.1.{i}.1", dst_ip="10.0.0.2"))
            runs.append(fx.close_window(1.0))
        assert runs[0] == runs[1]

    def test_sketch_windows_reset(self):
        fx = FeatureExtractor(backend="sketch")
        for i in range(30):
            fx.observe(tcp(TCP_SYN, src_ip=f"10.1.{i}.1"))
        first = fx.close_window(1.0)
        second = fx.close_window(2.0)
        assert first.syn_count == 30
        assert second.syn_count == 0
        assert second.distinct_sources == 0
        assert second.per_destination_syns == {}

    def test_sketch_state_bytes_bounded(self):
        # Sketch state is geometry: 20x the sources moves it only by the
        # candidate keys' string sizes (the committed E13 memory claims).
        peaks = []
        for n_sources in (1_000, 20_000):
            fx = FeatureExtractor(backend="sketch", track_state_bytes=True)
            for i in range(n_sources):
                fx.observe(tcp(TCP_SYN, src_ip=f"10.{i >> 8}.{i & 255}.1"))
            fx.close_window(1.0)
            peaks.append(fx.peak_state_bytes)
        few, many = peaks
        assert abs(many - few) < 0.005 * few
        # The memory ceiling: source-independent, so any window shows it.
        assert many < 512 * 1024, f"sketch state {many} bytes exceeds 512 KiB"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor(backend="bogus")


class TestPerDestinationCap:
    """Exact per-destination maps keep every key."""

    def test_default_uncapped_full_maps(self):
        fx = FeatureExtractor()
        for i in range(20):
            fx.observe(tcp(TCP_SYN, dst_ip=f"10.9.{i}.1"))
        fx.observe(udp(dst_ip="10.9.0.2"))
        features = fx.close_window(1.0)
        assert len(features.per_destination_syns) == 20
        assert sum(features.per_destination_syns.values()) == features.syn_count
        assert features.per_destination_udp == {"10.9.0.2": 1}


class TestAccounting:
    """PR 7: the batched fold's conservation counters feed the invariant
    checker; every observed packet must be folded or still pending."""

    def test_observed_equals_folded_plus_pending(self):
        fx = FeatureExtractor()
        for _ in range(6):
            fx.observe(tcp(TCP_SYN))
        fx.close_window(1.0)
        for _ in range(4):
            fx.observe(udp())
        acct = fx.accounting()
        assert acct["observed"] == 10
        assert acct["folded_total"] == 6
        assert acct["pending"] == 4
        assert fx.pending_packets == 4

    def test_backend_adds_match_folded_totals(self):
        for backend in ("exact", "sketch"):
            fx = FeatureExtractor(backend=backend)
            for i in range(12):
                fx.observe(tcp(TCP_SYN, src_ip=f"10.1.{i}.1"))
            for _ in range(7):
                fx.observe(udp())
            fx.observe(tcp(TCP_ACK))  # folded but not a SYN/UDP add
            fx.close_window(1.0)
            acct = fx.accounting()
            assert acct["folded_syn"] == acct["backend_syn_adds"] == 12
            assert acct["folded_udp"] == acct["backend_udp_adds"] == 7
            assert acct["folded_total"] == 20

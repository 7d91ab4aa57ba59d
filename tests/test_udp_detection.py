"""Tests for UDP flood evidence, signature, detector and pipeline."""

from __future__ import annotations

import pytest

from repro.core.signatures import UdpFloodSignature, UdpFloodSignatureConfig, Verdict
from repro.inspection.udp import UdpTracker
from repro.monitor.detectors import UdpRateDetector
from repro.net.headers import UdpHeader
from repro.net.packet import Packet

MAC = "00:00:00:00:00:01"
VICTIM = "10.0.0.1"


def dgram(src_ip, dst_port=53, dst_ip=VICTIM, payload=b"x" * 64):
    return Packet.udp_packet(
        MAC, MAC, src_ip, dst_ip, UdpHeader(4444, dst_port), payload
    )


def flood_evidence(n_sources=40, per_source=3, duration=1.0, port=53):
    tracker = UdpTracker(VICTIM, 0.0)
    t = 0.0
    for i in range(n_sources):
        for _ in range(per_source):
            t += duration / (n_sources * per_source)
            tracker.observe(dgram(f"198.18.0.{i % 250 + 1}", dst_port=port), t)
    return tracker.snapshot(duration)


class TestUdpTracker:
    def test_counts_packets_and_bytes(self):
        tracker = UdpTracker(VICTIM, 0.0)
        tracker.observe(dgram("198.18.0.1"), 0.1)
        tracker.observe(dgram("198.18.0.2"), 0.2)
        evidence = tracker.snapshot(1.0)
        assert evidence.packet_total == 2
        assert evidence.byte_total == 2 * dgram("198.18.0.1").size_bytes
        assert evidence.source_count == 2

    def test_ignores_other_destinations_and_tcp(self):
        from repro.net.headers import TCP_SYN, TcpHeader

        tracker = UdpTracker(VICTIM, 0.0)
        tracker.observe(dgram("198.18.0.1", dst_ip="10.0.0.9"), 0.1)
        tcp = Packet.tcp_packet(MAC, MAC, "198.18.0.1", VICTIM, TcpHeader(1, 2, flags=TCP_SYN))
        tracker.observe(tcp, 0.2)
        assert tracker.snapshot(1.0).packet_total == 0

    def test_port_concentration(self):
        tracker = UdpTracker(VICTIM, 0.0)
        for i in range(9):
            tracker.observe(dgram(f"198.18.0.{i + 1}", dst_port=53), 0.1)
        tracker.observe(dgram("198.18.0.99", dst_port=123), 0.2)
        evidence = tracker.snapshot(1.0)
        assert evidence.top_port_share == pytest.approx(0.9)

    def test_heavy_and_light_sources(self):
        tracker = UdpTracker(VICTIM, 0.0)
        for _ in range(30):
            tracker.observe(dgram("203.0.113.1"), 0.1)
        tracker.observe(dgram("198.18.0.1"), 0.1)
        evidence = tracker.snapshot(1.0)
        assert evidence.heavy_sources(min_packets=20) == ["203.0.113.1"]
        assert evidence.light_sources(below_packets=20) == ["198.18.0.1"]

    def test_packet_rate(self):
        evidence = flood_evidence(n_sources=50, per_source=4, duration=2.0)
        assert evidence.packet_rate == pytest.approx(100.0, rel=0.05)


class TestUdpSignature:
    def test_spoofed_flood_confirmed(self):
        report = UdpFloodSignature().evaluate(flood_evidence(n_sources=60, per_source=3))
        assert report.verdict is Verdict.CONFIRMED
        assert report.signature == "udp-flood"
        assert report.constituent("volume").triggered
        assert report.constituent("port-concentration").triggered
        assert report.constituent("dispersion").triggered

    def test_quiet_refuted(self):
        tracker = UdpTracker(VICTIM, 0.0)
        report = UdpFloodSignature().evaluate(tracker.snapshot(1.0))
        assert report.verdict is Verdict.REFUTED

    def test_low_rate_refuted(self):
        evidence = flood_evidence(n_sources=40, per_source=1, duration=10.0)  # 4 pps
        report = UdpFloodSignature().evaluate(evidence)
        assert report.verdict is Verdict.REFUTED

    def test_sparse_evidence_inconclusive(self):
        evidence = flood_evidence(n_sources=5, per_source=2, duration=0.1)
        report = UdpFloodSignature().evaluate(evidence)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_scattered_ports_not_confirmed(self):
        """High rate spread over many ports (e.g. port scan) is not a
        concentrated flood."""
        tracker = UdpTracker(VICTIM, 0.0)
        for i in range(200):
            tracker.observe(dgram(f"198.18.0.{i % 100 + 1}", dst_port=1000 + i), 0.5)
        report = UdpFloodSignature().evaluate(tracker.snapshot(1.0))
        assert report.verdict is not Verdict.CONFIRMED

    def test_heavy_hitter_confirmed_without_dispersion(self):
        """A single very heavy source still satisfies dispersion."""
        tracker = UdpTracker(VICTIM, 0.0)
        for _ in range(300):
            tracker.observe(dgram("203.0.113.1"), 0.5)
        report = UdpFloodSignature().evaluate(tracker.snapshot(1.0))
        assert report.verdict is Verdict.CONFIRMED
        assert report.attacker_sources == ("203.0.113.1",)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UdpFloodSignatureConfig(min_packet_observations=0)
        with pytest.raises(ValueError):
            UdpFloodSignatureConfig(min_top_port_share=0.0)


class TestUdpRateDetector:
    def _features(self, udp_rate):
        from tests.test_monitor_detectors import window
        import dataclasses

        base = window(syn_rate=0.0)
        return dataclasses.replace(
            base, udp_packets=udp_rate * base.duration,
            top_udp_destination=VICTIM, top_udp_destination_packets=udp_rate,
        )

    def test_fires_above_threshold(self):
        detector = UdpRateDetector(udp_rate_threshold=100)
        assert detector.update(self._features(250)) is not None
        assert detector.update(self._features(50)) is None

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            UdpRateDetector(udp_rate_threshold=0)


class TestUdpPipeline:
    def test_udp_flood_confirmed_end_to_end(self):
        from repro.core import SpiConfig, SpiSystem
        from repro.topology import dumbbell
        from repro.workload import (
            StandardWorkload,
            UdpFloodAttacker,
            UdpFloodConfig,
            WorkloadConfig,
        )
        from repro.workload.attacker import AttackSchedule

        net, roles = dumbbell(n_clients=2, n_attackers=1)
        wl = StandardWorkload(net, roles, WorkloadConfig())
        spi = SpiSystem(net, SpiConfig())
        spi.deploy_inspector("s2")
        spi.deploy_monitor("s2", UdpRateDetector(udp_rate_threshold=150))
        attacker = UdpFloodAttacker(
            net.hosts["atk1"], net.rng.child("udp"),
            UdpFloodConfig(victim_ip=wl.victim_ip, rate_pps=600,
                           schedule=AttackSchedule(start_s=3.0)),
        )
        wl.start(with_attack=False)
        attacker.start()
        net.run(until=12.0)
        assert spi.stats.confirmed == 1
        assert spi.mitigation.is_active(wl.victim_ip)
        verdict = net.tracer.first("correlator.verdict")
        assert verdict is not None

    def test_benign_udp_chatter_refuted(self):
        """Moderate legitimate UDP (e.g. DNS) alerts but is refuted."""
        from repro.core import SpiConfig, SpiSystem
        from repro.sim.process import PeriodicTask
        from repro.topology import single_switch
        from repro.net.headers import UdpHeader

        net, roles = single_switch(n_clients=2, n_attackers=0)
        spi = SpiSystem(net, SpiConfig())
        spi.deploy_inspector("s1")
        spi.deploy_monitor("s1", UdpRateDetector(udp_rate_threshold=30))
        victim_ip = net.hosts["srv1"].ip
        cli = net.hosts["cli1"]
        rng = net.rng.child("dns")
        # Legitimate chatter: one real source, scattered ports, ~60 pps.
        chatter = PeriodicTask(
            net.sim, 1.0 / 60.0,
            lambda: cli.send_udp(
                victim_ip, UdpHeader(rng.randint(1024, 60000), rng.randint(1024, 60000)),
                b"q" * 32,
            ),
        )
        chatter.start()
        net.run(until=10.0)
        assert spi.stats.alerts_received >= 1
        assert spi.stats.confirmed == 0
        assert not spi.mitigation.is_active(victim_ip)

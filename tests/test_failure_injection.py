"""Tests for lossy links and pulsing attack schedules."""

from __future__ import annotations

import pytest

from repro.net.headers import TCP_SYN, TcpHeader
from repro.net.link import Link, LinkEnd
from repro.sim.rng import SeededRng
from repro.workload.attacker import AttackSchedule
from tests.test_net_link import Sink, make_packet


class TestLossyLinks:
    def test_loss_rate_approximately_matches(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        rng = SeededRng(7)
        link = Link(sim, a.port, b.port, bandwidth_bps=1e9,
                    loss_probability=0.3, rng=rng)
        for _ in range(1000):
            a.port.send(make_packet())
            sim.run()
        lost = link.stats_for(a.port).packets_lost
        assert 230 <= lost <= 370  # ~5 sigma around 300
        assert len(b.received) == 1000 - lost

    def test_zero_loss_by_default(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = Link(sim, a.port, b.port)
        for _ in range(50):
            a.port.send(make_packet())
        sim.run()
        assert link.stats_for(a.port).packets_lost == 0
        assert len(b.received) == 50

    def test_loss_is_deterministic_per_seed(self, sim):
        def run_once():
            from repro.sim.engine import Simulator

            local_sim = Simulator()
            a, b = Sink(local_sim, "a"), Sink(local_sim, "b")
            Link(local_sim, a.port, b.port, bandwidth_bps=1e9,
                 loss_probability=0.2, rng=SeededRng(42))
            for _ in range(200):
                a.port.send(make_packet())
                local_sim.run()
            return len(b.received)

        assert run_once() == run_once()

    def test_invalid_loss_probability(self, sim):
        with pytest.raises(ValueError):
            LinkEnd(sim, 1e6, 0.0, 10, loss_probability=1.0, rng=SeededRng(1))
        with pytest.raises(ValueError):
            LinkEnd(sim, 1e6, 0.0, 10, loss_probability=-0.1, rng=SeededRng(1))

    def test_lossy_link_requires_rng(self, sim):
        with pytest.raises(ValueError):
            LinkEnd(sim, 1e6, 0.0, 10, loss_probability=0.1)

    def test_builder_wires_loss(self):
        from repro.topology.builder import LinkSpec, Network

        net = Network(seed=1, default_link=LinkSpec(loss_probability=0.5))
        net.add_host("h1", with_tcp=False)
        net.add_host("h2", with_tcp=False)
        net.link("h1", "h2")
        net.finalize()
        h1, h2 = net.hosts["h1"], net.hosts["h2"]
        # Pace sends so the drop-tail queue never interferes with the
        # loss measurement.
        for i in range(200):
            net.sim.schedule(
                i * 0.001,
                lambda: h1.send_tcp(h2.ip, TcpHeader(1, 2, flags=TCP_SYN)),
            )
        net.run(until=1.0)
        stats = net.links[0].stats_for(h1.port)
        assert stats.packets_dropped == 0
        assert 60 <= stats.packets_lost <= 140

    def test_tcp_survives_moderate_loss(self, sim, rng):
        """Handshake + data complete over a 10%-loss link (retransmits)."""
        from tests.conftest import HostPair

        pair = HostPair.__new__(HostPair)
        from repro.net.host import Host
        from repro.tcp.stack import TcpStack

        pair.sim = sim
        pair.a = Host(sim, "a", "10.0.0.1", "00:00:00:00:00:01")
        pair.b = Host(sim, "b", "10.0.0.2", "00:00:00:00:00:02")
        Link(sim, pair.a.port, pair.b.port, loss_probability=0.1, rng=rng.child("wire"))
        pair.a.arp_table[pair.b.ip] = pair.b.mac
        pair.b.arp_table[pair.a.ip] = pair.a.mac
        pair.stack_a = TcpStack(pair.a, rng.child("a"))
        pair.stack_b = TcpStack(pair.b, rng.child("b"))
        got = []

        def on_accept(conn):
            conn.on_data = lambda c, d: got.append(d) if d else None

        pair.stack_b.listen(80, on_accept=on_accept)
        outcomes = []
        pair.stack_a.connect(
            "10.0.0.2", 80,
            on_established=lambda c: (outcomes.append("up"), c.send(b"payload")),
            on_failed=lambda c, r: outcomes.append(r),
        )
        sim.run(until=30.0)
        # With retries, a 10% loss link should almost always succeed; if
        # the handshake did fail it must be a clean syn-timeout.
        assert outcomes and outcomes[0] in ("up", "syn-timeout")
        if outcomes[0] == "up":
            assert got == [b"payload"]


class TestAttackSchedule:
    def test_continuous_default(self):
        schedule = AttackSchedule(start_s=5.0, duration_s=10.0)
        assert schedule.rate_multiplier(4.9) == 0.0
        assert schedule.rate_multiplier(5.0) == 1.0
        assert schedule.rate_multiplier(14.9) == 1.0
        assert schedule.rate_multiplier(15.0) == 0.0

    def test_ramp(self):
        schedule = AttackSchedule(start_s=0.0, ramp_s=4.0)
        assert schedule.rate_multiplier(1.0) == pytest.approx(0.25)
        assert schedule.rate_multiplier(3.0) == pytest.approx(0.75)
        assert schedule.rate_multiplier(5.0) == 1.0

    def test_pulsing(self):
        schedule = AttackSchedule(start_s=10.0, pulse_on_s=1.0, pulse_off_s=4.0)
        assert schedule.rate_multiplier(10.5) == 1.0  # first pulse
        assert schedule.rate_multiplier(11.5) == 0.0  # off phase
        assert schedule.rate_multiplier(14.9) == 0.0
        assert schedule.rate_multiplier(15.5) == 1.0  # second pulse

    def test_pulsing_respects_duration(self):
        schedule = AttackSchedule(
            start_s=0.0, duration_s=6.0, pulse_on_s=1.0, pulse_off_s=1.0
        )
        assert schedule.rate_multiplier(4.5) == 1.0
        assert schedule.rate_multiplier(6.5) == 0.0

    def test_half_specified_pulse_rejected(self):
        with pytest.raises(ValueError):
            AttackSchedule(pulse_on_s=1.0)
        with pytest.raises(ValueError):
            AttackSchedule(pulse_off_s=1.0)

    def test_pulsing_attacker_emission_pattern(self, sim, rng):
        """A pulsed attacker emits during on-phases only."""
        from repro.net.host import Host
        from repro.workload.attacker import SynFloodAttacker, SynFloodConfig

        attacker_host = Host(sim, "atk", "10.0.0.9", "00:00:00:00:00:09")
        victim_host = Host(sim, "v", "10.0.0.1", "00:00:00:00:00:01")
        Link(sim, attacker_host.port, victim_host.port, bandwidth_bps=1e9)
        attacker_host.arp_table[victim_host.ip] = victim_host.mac
        arrivals = []
        victim_host.add_sniffer(lambda p: arrivals.append(sim.now))
        attacker = SynFloodAttacker(
            attacker_host, rng,
            SynFloodConfig(
                victim_ip=victim_host.ip, rate_pps=500,
                schedule=AttackSchedule(start_s=2.0, pulse_on_s=1.0, pulse_off_s=2.0),
            ),
        )
        attacker.start()
        sim.run(until=8.0)
        # Pulses: [2,3) and [5,6); nothing in (3.1, 4.9) or before 2.
        assert arrivals, "attacker must emit during pulses"
        assert not [t for t in arrivals if t < 2.0]
        assert not [t for t in arrivals if 3.1 < t < 4.9]
        assert [t for t in arrivals if 2.0 <= t <= 3.1]
        assert [t for t in arrivals if 5.0 <= t <= 6.1]

"""Direct tests for the workload package: servers, clients, attackers,
flash crowds and the standard profile."""

from __future__ import annotations

import pytest

from repro.topology import single_switch
from repro.workload import (
    AttackSchedule,
    FlashCrowd,
    FlashCrowdSpec,
    StandardWorkload,
    SynFloodAttacker,
    SynFloodConfig,
    UdpFloodAttacker,
    UdpFloodConfig,
    WebClient,
    WebServer,
    WorkloadConfig,
)


@pytest.fixture
def rig():
    net, roles = single_switch(n_clients=2, n_attackers=1)
    return net, roles


class TestWebServer:
    def test_serves_request(self, rig):
        net, roles = rig
        server = WebServer(net.stack("srv1"), response_bytes=500)
        got = []
        client = WebClient(
            net.stack("cli1"), server_ip=server.ip, rng=net.rng.child("c")
        )
        client.start(initial_delay=0.1)
        net.run(until=3.0)
        assert server.stats.requests_served >= 1
        assert server.stats.bytes_served >= 500
        assert server.stats.accepted >= 1

    def test_half_open_gauge(self, rig):
        net, roles = rig
        server = WebServer(net.stack("srv1"), backlog=10)
        attacker = SynFloodAttacker(
            net.hosts["atk1"], net.rng.child("a"),
            SynFloodConfig(victim_ip=server.ip, rate_pps=300,
                           schedule=AttackSchedule(start_s=0.5)),
        )
        attacker.start()
        net.run(until=2.0)
        assert server.half_open == 10
        assert server.backlog_drops > 0


class TestWebClient:
    def test_records_attempt_lifecycle(self, rig):
        net, roles = rig
        server = WebServer(net.stack("srv1"))
        client = WebClient(
            net.stack("cli1"), server_ip=server.ip, rng=net.rng.child("c"),
            think_time_s=0.2,
        )
        client.start()
        net.run(until=5.0)
        stats = client.stats
        assert stats.started() >= 5
        assert stats.successes() == stats.started() - stats.failures() or True
        latencies = stats.request_latencies()
        assert latencies and all(lat > 0 for lat in latencies)

    def test_stop_halts_new_attempts(self, rig):
        net, roles = rig
        server = WebServer(net.stack("srv1"))
        client = WebClient(
            net.stack("cli1"), server_ip=server.ip, rng=net.rng.child("c"),
            think_time_s=0.2,
        )
        client.start()
        net.run(until=2.0)
        client.stop()
        count = client.stats.started()
        net.run(until=5.0)
        assert client.stats.started() == count

    def test_failures_recorded_when_no_listener(self, rig):
        net, roles = rig
        client = WebClient(
            net.stack("cli1"), server_ip=net.hosts["srv1"].ip,
            rng=net.rng.child("c"), think_time_s=0.3,
        )
        client.start()
        net.run(until=3.0)
        assert client.stats.failures() >= 1
        assert client.stats.attempts[0].failure_reason == "reset"


class TestAttackers:
    def test_syn_flood_rate_approximately_right(self, rig):
        net, roles = rig
        victim = net.hosts["srv1"]
        count = []
        victim.add_sniffer(lambda p: count.append(1) if p.tcp is not None else None)
        attacker = SynFloodAttacker(
            net.hosts["atk1"], net.rng.child("a"),
            SynFloodConfig(victim_ip=victim.ip, rate_pps=200,
                           schedule=AttackSchedule(start_s=0.0)),
        )
        attacker.start()
        net.run(until=5.0)
        # ~1000 expected; Poisson 5 sigma.
        assert 800 <= attacker.packets_sent <= 1200
        assert len(count) >= 790  # flood floods through L2 learning

    def test_spoof_pool_bounds_sources(self, rig):
        net, roles = rig
        victim = net.hosts["srv1"]
        sources = set()
        victim.add_sniffer(
            lambda p: sources.add(p.ip.src_ip) if p.ip is not None else None
        )
        attacker = SynFloodAttacker(
            net.hosts["atk1"], net.rng.child("a"),
            SynFloodConfig(victim_ip=victim.ip, rate_pps=400, spoof_pool_size=5,
                           schedule=AttackSchedule(start_s=0.0)),
        )
        attacker.start()
        net.run(until=3.0)
        attack_sources = {s for s in sources if s.startswith("198.18.")}
        assert len(attack_sources) == 5

    def test_no_spoof_uses_real_address(self, rig):
        net, roles = rig
        victim = net.hosts["srv1"]
        sources = set()
        victim.add_sniffer(
            lambda p: sources.add(p.ip.src_ip) if p.ip is not None else None
        )
        attacker = SynFloodAttacker(
            net.hosts["atk1"], net.rng.child("a"),
            SynFloodConfig(victim_ip=victim.ip, rate_pps=100, spoof=False,
                           schedule=AttackSchedule(start_s=0.0)),
        )
        attacker.start()
        net.run(until=2.0)
        assert net.hosts["atk1"].ip in sources

    def test_attack_stops_at_duration_end(self, rig):
        net, roles = rig
        attacker = SynFloodAttacker(
            net.hosts["atk1"], net.rng.child("a"),
            SynFloodConfig(victim_ip=net.hosts["srv1"].ip, rate_pps=200,
                           schedule=AttackSchedule(start_s=0.0, duration_s=2.0)),
        )
        attacker.start()
        net.run(until=2.5)
        sent = attacker.packets_sent
        net.run(until=5.0)
        assert attacker.packets_sent == sent

    def test_udp_flood_carries_payload(self, rig):
        net, roles = rig
        victim = net.hosts["srv1"]
        sizes = []
        victim.add_sniffer(
            lambda p: sizes.append(len(p.payload)) if p.udp is not None else None
        )
        attacker = UdpFloodAttacker(
            net.hosts["atk1"], net.rng.child("a"),
            UdpFloodConfig(victim_ip=victim.ip, rate_pps=200, payload_bytes=256,
                           schedule=AttackSchedule(start_s=0.0)),
        )
        attacker.start()
        net.run(until=2.0)
        assert sizes and all(s == 256 for s in sizes)

    def test_double_start_is_noop(self, rig):
        net, roles = rig
        attacker = SynFloodAttacker(
            net.hosts["atk1"], net.rng.child("a"),
            SynFloodConfig(victim_ip=net.hosts["srv1"].ip, rate_pps=100),
        )
        attacker.start()
        attacker.start()
        net.run(until=1.0)

    def test_config_validation(self, rig):
        net, _ = rig
        with pytest.raises(ValueError):
            # Missing victim is caught at attacker construction.
            SynFloodAttacker(
                net.hosts["atk1"], net.rng.child("x"), SynFloodConfig(rate_pps=100)
            )
        with pytest.raises(ValueError):
            SynFloodConfig(victim_ip="10.0.0.1", rate_pps=0)
        with pytest.raises(ValueError):
            UdpFloodConfig(victim_ip="10.0.0.1", rate_pps=100, payload_bytes=-1)
        with pytest.raises(ValueError):
            UdpFloodConfig(victim_ip="10.0.0.1", spoof_pool_size=-1)

    @pytest.mark.parametrize("config", [SynFloodConfig, UdpFloodConfig])
    @pytest.mark.parametrize("prefix", ["198.018.", "300.", "198.18.x.", "1.2.3.-4", " 198.", "1.2.3.4.5", "1..2."])
    def test_spoof_prefix_must_draw_valid_addresses(self, config, prefix):
        with pytest.raises(ValueError, match="spoof prefix"):
            config(victim_ip="10.0.0.1", spoof_prefix=prefix)

    @pytest.mark.parametrize("config", [SynFloodConfig, UdpFloodConfig])
    @pytest.mark.parametrize("prefix", ["", "198.18.", "198.18", "10.0.0.5", "0."])
    def test_spoof_prefix_accepts_canonical_octets(self, config, prefix):
        assert config(victim_ip="10.0.0.1", spoof_prefix=prefix).spoof_prefix == prefix


class TestAttackSchedule:
    def test_ramp_longer_than_duration_never_reaches_full_rate(self):
        schedule = AttackSchedule(start_s=1.0, duration_s=2.0, ramp_s=10.0)
        assert schedule.rate_multiplier(1.0) == 0.0  # ramp starts from zero
        assert schedule.rate_multiplier(2.0) == pytest.approx(0.1)
        assert schedule.rate_multiplier(3.0 - 1e-9) == pytest.approx(0.2)
        # The window closes mid-ramp: the multiplier drops to zero, not 1.
        assert schedule.rate_multiplier(3.0) == 0.0

    def test_window_is_half_open_at_exact_end(self):
        schedule = AttackSchedule(start_s=2.0, duration_s=3.0)
        assert schedule.rate_multiplier(2.0) == 1.0  # start is inclusive
        assert schedule.rate_multiplier(5.0 - 1e-9) == 1.0
        assert schedule.rate_multiplier(5.0) == 0.0  # end is exclusive

    def test_pulse_boundary_is_half_open(self):
        schedule = AttackSchedule(pulse_on_s=1.0, pulse_off_s=1.0)
        assert schedule.rate_multiplier(0.0) == 1.0
        assert schedule.rate_multiplier(1.0 - 1e-9) == 1.0
        assert schedule.rate_multiplier(1.0) == 0.0  # phase == pulse_on_s: off
        assert schedule.rate_multiplier(2.0 - 1e-9) == 0.0
        assert schedule.rate_multiplier(2.0) == 1.0  # wraps to the next pulse

    def test_window_edge_wins_mid_pulse(self):
        # duration_s ends inside an on-pulse: the window edge silences the
        # attack even though the pulse phase alone would keep it firing.
        schedule = AttackSchedule(
            duration_s=4.5, pulse_on_s=1.0, pulse_off_s=1.0
        )
        assert schedule.rate_multiplier(4.5 - 1e-9) == 1.0  # phase 0.5: on
        assert schedule.rate_multiplier(4.5) == 0.0

    def test_burst_tick_with_zero_due_packets(self, rig):
        # A pulsing flood whose off-phase spans many burst horizons: every
        # arrival crafted inside an off-phase is suppressed, the burst
        # machinery keeps rescheduling itself through the silence, and the
        # flood resumes on the next on-phase.
        net, roles = rig
        attacker = UdpFloodAttacker(
            net.hosts["atk1"], net.rng.child("a"),
            UdpFloodConfig(
                victim_ip=net.hosts["srv1"].ip, rate_pps=400,
                schedule=AttackSchedule(pulse_on_s=0.2, pulse_off_s=0.6),
            ),
        )
        attacker.start()
        net.run(until=1.0)  # on [0, 0.2), off [0.2, 0.8), on [0.8, 1.0)
        sent_at_1s = attacker.packets_sent
        assert sent_at_1s > 0
        assert sent_at_1s < 400 * 0.5  # duty cycle 0.25: well under half
        net.run(until=1.5)  # entirely inside the second off-phase
        assert attacker.packets_sent == sent_at_1s
        net.run(until=1.8)  # third on-phase [1.6, 1.8)
        assert attacker.packets_sent > sent_at_1s


class TestFlashCrowd:
    def test_crowd_completes_handshakes(self, rig):
        net, roles = rig
        server = WebServer(net.stack("srv1"), backlog=256)
        crowd = FlashCrowd(
            [net.stack(c) for c in roles.clients],
            net.rng.child("crowd"),
            FlashCrowdSpec(start_s=1.0, duration_s=3.0, connections_per_second=80),
            server.ip,
        )
        net.run(until=8.0)
        assert crowd.connections_started > 150
        assert crowd.connections_completed / crowd.connections_started > 0.95
        assert crowd.connections_failed == 0

    def test_crowd_config_validation(self, rig):
        net, roles = rig
        with pytest.raises(ValueError):
            FlashCrowdSpec(connections_per_second=0)
        with pytest.raises(ValueError):
            FlashCrowdSpec(duration_s=0)
        with pytest.raises(ValueError):
            FlashCrowd([], net.rng, FlashCrowdSpec(), "10.0.0.1")
        with pytest.raises(ValueError):
            # Missing server is caught at crowd construction.
            FlashCrowd([net.stack("cli1")], net.rng, FlashCrowdSpec(), "")


class TestStandardWorkload:
    def test_udp_attack_kind(self, rig):
        net, roles = rig
        wl = StandardWorkload(
            net, roles,
            WorkloadConfig(attack_kind="udp", attack_rate_pps=200, attack_start_s=0.5),
        )
        wl.start()
        net.run(until=3.0)
        assert isinstance(next(iter(wl.attackers.values())), UdpFloodAttacker)
        assert wl.attack_packets_sent() > 200

    def test_invalid_attack_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(attack_kind="icmp")

    def test_rate_split_across_attackers(self):
        net, roles = single_switch(n_clients=1, n_attackers=4)
        wl = StandardWorkload(net, roles, WorkloadConfig(attack_rate_pps=400))
        rates = [a.config.rate_pps for a in wl.attackers.values()]
        assert rates == [100.0] * 4

    def test_attackers_round_robin_over_servers(self):
        net, roles = single_switch(n_clients=0, n_attackers=4, n_servers=2)
        wl = StandardWorkload(net, roles, WorkloadConfig())
        servers = [net.hosts[name].ip for name in roles.servers]
        victims = [a.config.victim_ip for a in wl.attackers.values()]
        assert victims == servers * 2
        assert wl.victim_ip == servers[0]

    @pytest.mark.parametrize("reference", [False, True])
    def test_udp_flood_honours_the_spoof_pool(self, reference):
        # Both the burst path and the per-arrival reference path.
        net, roles = single_switch(n_clients=0, n_attackers=1, reference=reference)
        sources = set()
        net.hosts["srv1"].add_sniffer(
            lambda p: sources.add(p.ip.src_ip) if p.udp is not None else None
        )
        wl = StandardWorkload(net, roles, WorkloadConfig(
            attack_kind="udp", attack_rate_pps=400, attack_start_s=0.0,
            spoof_pool_size=5,
        ))
        wl.start()
        net.run(until=2.0)
        assert wl.attack_packets_sent() > 400
        assert 1 < len(sources) <= 5

    def test_started_success_rate_no_attempts_is_one(self, rig):
        net, roles = rig
        wl = StandardWorkload(net, roles, WorkloadConfig())
        assert wl.started_success_rate(0, 1) == 1.0

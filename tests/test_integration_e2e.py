"""End-to-end reproduction assertions: the paper's headline claims.

These are the integration tests that tie the whole stack together and
pin the *shape* of each claim (C1-C4 in DESIGN.md) rather than absolute
numbers.
"""

from __future__ import annotations

import pytest

from repro.harness.record import run_record
from repro.harness.scenario import FlashCrowdSpec, ScenarioConfig, run_scenario
from repro.harness.sweep import apply_overrides
from repro.workload.profiles import WorkloadConfig

ATTACK = ScenarioConfig(
    topology="dumbbell",
    topology_params={"n_clients": 3, "n_attackers": 2},
    duration_s=30.0,
    defense="spi",
    workload=WorkloadConfig(
        attack_rate_pps=400.0, attack_start_s=5.0, attack_duration_s=1000.0,
        server_backlog=64,
    ),
)


class TestClaimC1FastAlertCarefulVerification:
    """C1: quick alert, bounded verification, fast mitigation."""

    def test_milestone_ordering_and_magnitudes(self):
        result = run_scenario(ATTACK)
        timeline = result.timeline()
        assert timeline.time_to_alert is not None
        # Alert within ~2 monitor windows of attack start.
        assert timeline.time_to_alert < 1.5
        # Verification adds roughly the verification window.
        assert 0.5 <= timeline.verification_overhead <= 3.5
        # Total time to mitigation in single-digit seconds.
        assert timeline.time_to_mitigation < 5.0

    def test_attack_confirmed_exactly_once(self):
        result = run_scenario(ATTACK)
        assert result.spi.stats.confirmed == 1
        assert result.spi.stats.inconclusive == 0


class TestClaimC2Accuracy:
    """C2: floods are caught; flash crowds are not mitigated."""

    def test_flood_always_detected_across_seeds(self):
        for seed in (1, 2, 3):
            result = run_scenario(apply_overrides(ATTACK, {"seed": seed}))
            assert result.spi.stats.confirmed == 1, f"seed {seed} missed the flood"

    def test_flash_crowd_zero_verified_detections(self):
        config = apply_overrides(
            ATTACK,
            {
                "with_attack": False,
                "detector": "static",
                "detector_params": {"syn_rate_threshold": 60.0},
                "flash_crowd": FlashCrowdSpec(
                    start_s=6.0, duration_s=8.0, connections_per_second=200.0
                ),
            },
        )
        result = run_scenario(config)
        assert result.spi.stats.alerts_received >= 1, "crowd should trip the monitor"
        assert result.spi.stats.confirmed == 0
        assert result.spi.stats.refuted >= 1
        # The crowd itself was served.
        crowd = result.flash_crowd
        assert crowd.connections_completed / crowd.connections_started > 0.9

    def test_monitor_only_mitigates_the_crowd_spi_does_not(self):
        """The comparison that motivates verification."""
        crowd = FlashCrowdSpec(start_s=6.0, duration_s=8.0, connections_per_second=200.0)
        overrides = {
            "with_attack": False,
            "detector": "static",
            "detector_params": {"syn_rate_threshold": 60.0},
            "flash_crowd": crowd,
        }
        spi = run_scenario(apply_overrides(ATTACK, overrides))
        monitor_only = run_scenario(
            apply_overrides(ATTACK, {**overrides, "defense": "monitor-only"})
        )
        assert len(monitor_only.detection_times()) >= 1  # false positives
        assert spi.detection_times() == []  # all refuted


class TestClaimC3BoundedWorkload:
    """C3: selective inspection keeps the OVS inspection load small."""

    def test_spi_inspects_small_fraction(self):
        result = run_scenario(ATTACK)
        assert result.inspected_fraction() < 0.15

    def test_always_on_inspects_everything(self):
        result = run_scenario(apply_overrides(ATTACK, {"defense": "always-on"}))
        assert result.inspected_fraction() == 1.0

    def test_spi_workload_beats_always_on(self):
        spi = run_scenario(ATTACK)
        always = run_scenario(apply_overrides(ATTACK, {"defense": "always-on"}))
        assert spi.inspected_fraction() < always.inspected_fraction() / 5
        assert run_record(spi).mirror_cpu_share < run_record(always).mirror_cpu_share

    def test_mirrors_do_not_persist_after_verdict(self):
        result = run_scenario(ATTACK)
        from repro.core.config import SPI_MIRROR_COOKIE

        for switch in result.net.switches.values():
            assert switch.table.entries_with_cookie(SPI_MIRROR_COOKIE) == []


class TestClaimC4ServiceProtection:
    """C4/E4: mitigation restores benign service."""

    def test_undefended_flood_collapses_service(self):
        result = run_scenario(apply_overrides(ATTACK, {"defense": "none"}))
        assert result.success_rate(0.0, 5.0) > 0.9
        assert result.success_rate(10.0, 30.0) < 0.3

    def test_spi_restores_service(self):
        result = run_scenario(ATTACK)
        post_mitigation = result.success_rate(10.0, 30.0)
        assert post_mitigation > 0.85

    def test_mitigation_does_not_harm_benign_sources(self):
        result = run_scenario(ATTACK)
        record = result.spi.mitigation.records[0]
        benign_ips = {
            result.net.hosts[name].ip for name in result.roles.clients
        }
        assert not (set(record.blocked_sources) & benign_ips)
        for prefix in record.blocked_prefixes:
            from repro.net.addresses import ip_in_subnet

            assert not any(ip_in_subnet(ip, prefix) for ip in benign_ips)

    def test_flood_dropped_at_ingress_edge(self):
        result = run_scenario(ATTACK)
        # The attacker-side switch (s1 on the dumbbell) does the dropping.
        assert result.net.switches["s1"].counters.packets_dropped_by_rule > 100


class TestCrossTopology:
    @pytest.mark.parametrize(
        "topology,params",
        [
            ("single", {"n_clients": 2, "n_attackers": 1}),
            ("star", {"n_arms": 2, "clients_per_arm": 1, "n_attackers": 1}),
            ("linear", {"n_switches": 3, "n_attackers": 1}),
            ("tree", {"depth": 2, "fanout": 2, "n_attackers": 1}),
        ],
    )
    def test_pipeline_works_on_every_topology(self, topology, params):
        config = apply_overrides(
            ATTACK, {"topology": topology, "topology_params": params, "duration_s": 20.0}
        )
        result = run_scenario(config)
        assert result.spi.stats.confirmed == 1, f"flood missed on {topology}"
        assert result.success_rate(12.0, 20.0) > 0.7


class TestDynamicArpIntegration:
    """The full SPI pipeline on a slice running real ARP resolution."""

    def test_attack_detected_and_mitigated_with_dynamic_arp(self):
        from repro.core import SpiConfig, SpiSystem
        from repro.monitor import EwmaDetector
        from repro.net.arp import ArpService
        from repro.topology.builder import Network
        from repro.workload import (
            AttackSchedule,
            SynFloodAttacker,
            SynFloodConfig,
            WebClient,
            WebServer,
        )

        net = Network(seed=11)
        net.add_switch("s1")
        for name in ("srv", "cli", "atk"):
            net.add_host(name)
            net.link(name, "s1")
        net.finalize(static_arp=False)
        # Hosts resolve each other dynamically.
        for name in ("srv", "cli", "atk"):
            ArpService(net.hosts[name])

        server = WebServer(net.stack("srv"), backlog=32)
        client = WebClient(
            net.stack("cli"), server_ip=server.ip, rng=net.rng.child("c")
        )
        attacker = SynFloodAttacker(
            net.hosts["atk"], net.rng.child("a"),
            SynFloodConfig(victim_ip=server.ip, rate_pps=300,
                           schedule=AttackSchedule(start_s=5.0)),
        )
        spi = SpiSystem(net, SpiConfig())
        spi.deploy_inspector("s1")
        spi.deploy_monitor("s1", EwmaDetector())

        client.start()
        attacker.start()
        net.run(until=20.0)

        # ARP actually resolved something (the fabric worked).
        assert net.hosts["cli"].arp_table == {}  # no static entries
        assert client.stats.successes(0, 5.0) >= 1
        # The spoofed flood's backscatter ARP requests went unanswered.
        srv_arp = net.hosts["srv"]
        assert srv_arp.arp_failures == 0  # sends went through the ARP queue
        # Detection and mitigation still work end to end.
        assert spi.stats.confirmed == 1
        assert spi.mitigation.is_active(server.ip)
        assert client.stats.successes(12.0, 20.0) >= 1

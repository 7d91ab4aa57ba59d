"""Tests for the SPI pipeline: correlator, coordinator, end-to-end verdicts."""

from __future__ import annotations

import pytest

from repro.core.budget import BudgetConfig
from repro.core.config import SpiConfig
from repro.core.spi import SpiSystem
from repro.core.signatures import SynFloodSignatureConfig
from repro.monitor.detectors import EwmaDetector, StaticThresholdDetector
from repro.monitor.monitor import MonitorConfig
from repro.topology import dumbbell, single_switch
from repro.workload.flashcrowd import FlashCrowd, FlashCrowdSpec
from repro.workload.profiles import StandardWorkload, WorkloadConfig
from repro.workload.servers import WebServer


def deploy_spi(net, roles, spi_config=None, detector=None, switch=None):
    spi = SpiSystem(net, spi_config or SpiConfig())
    edge = switch or net.switch_of_host(roles.servers[0]).name
    spi.deploy_inspector(edge)
    spi.deploy_monitor(edge, detector or EwmaDetector())
    return spi


class TestConfirmedAttack:
    def test_flood_is_confirmed_and_mitigated(self):
        net, roles = dumbbell(n_clients=2, n_attackers=1)
        wl = StandardWorkload(
            net, roles, WorkloadConfig(attack_rate_pps=300, attack_start_s=5.0)
        )
        spi = deploy_spi(net, roles)
        wl.start()
        net.run(until=15.0)
        assert spi.stats.alerts_received >= 1
        assert spi.stats.confirmed == 1
        assert spi.stats.refuted == 0
        assert spi.mitigation.is_active(wl.victim_ip)

    def test_mirror_rules_installed_then_removed(self):
        net, roles = dumbbell(n_clients=2, n_attackers=1)
        wl = StandardWorkload(
            net, roles, WorkloadConfig(attack_rate_pps=300, attack_start_s=5.0)
        )
        spi = deploy_spi(net, roles)
        wl.start()
        net.run(until=15.0)
        tracer = net.tracer
        installed = tracer.first("spi.mirror_installed")
        removed = tracer.first("spi.mirror_removed")
        assert installed is not None and removed is not None
        assert installed.time < removed.time
        # No mirror rules remain.
        from repro.core.config import SPI_MIRROR_COOKIE

        for switch in net.switches.values():
            assert switch.table.entries_with_cookie(SPI_MIRROR_COOKIE) == []

    def test_inspection_only_during_window(self):
        net, roles = dumbbell(n_clients=2, n_attackers=1)
        wl = StandardWorkload(
            net, roles, WorkloadConfig(attack_rate_pps=300, attack_start_s=5.0)
        )
        spi = deploy_spi(net, roles)
        wl.start()
        net.run(until=30.0)
        # Mirrored packets exist but are a small share of total traffic.
        fraction = spi.mirrored_fraction()
        assert 0.0 < fraction < 0.2

    def test_alert_suppressed_while_mitigated(self):
        net, roles = dumbbell(n_clients=2, n_attackers=1)
        wl = StandardWorkload(
            net, roles,
            WorkloadConfig(attack_rate_pps=300, attack_start_s=5.0, attack_duration_s=1000),
        )
        # Attacker edge monitor still sees the flood after victim-edge
        # mitigation; its alerts must be suppressed.
        spi = deploy_spi(net, roles)
        spi.deploy_monitor("s1", EwmaDetector())
        wl.start()
        net.run(until=20.0)
        assert spi.stats.confirmed == 1
        assert spi.stats.suppressed_mitigated >= 1

    def test_timeline_ordering(self):
        net, roles = dumbbell(n_clients=2, n_attackers=1)
        wl = StandardWorkload(
            net, roles, WorkloadConfig(attack_rate_pps=300, attack_start_s=5.0)
        )
        spi = deploy_spi(net, roles)
        wl.start()
        net.run(until=15.0)
        from repro.metrics.detection import extract_timeline

        timeline = extract_timeline(net.tracer, 5.0)
        assert timeline.time_to_alert is not None
        assert timeline.time_to_alert < timeline.time_to_verdict
        assert timeline.time_to_verdict <= timeline.time_to_mitigation
        assert timeline.verification_overhead > 0


class TestRefutedAlert:
    def test_flash_crowd_refuted_not_mitigated(self):
        net, roles = single_switch(n_clients=4, n_attackers=1)
        wl = StandardWorkload(net, roles, WorkloadConfig())
        spi = deploy_spi(
            net, roles, detector=StaticThresholdDetector(syn_rate_threshold=50)
        )
        crowd = FlashCrowd(
            [net.stack(c) for c in roles.clients],
            net.rng.child("crowd"),
            FlashCrowdSpec(start_s=3.0, duration_s=5.0, connections_per_second=150.0),
            wl.victim_ip,
        )
        wl.start(with_attack=False)
        net.run(until=15.0)
        assert spi.stats.alerts_received >= 1  # monitor did false-alarm
        assert spi.stats.confirmed == 0
        assert spi.stats.refuted >= 1
        assert not spi.mitigation.is_active(wl.victim_ip)
        assert crowd.connections_completed > 0

    def test_crowd_then_flood_both_handled(self):
        net, roles = single_switch(n_clients=4, n_attackers=1)
        wl = StandardWorkload(
            net, roles,
            WorkloadConfig(attack_rate_pps=400, attack_start_s=15.0, attack_duration_s=10),
        )
        spi = deploy_spi(
            net, roles, detector=StaticThresholdDetector(syn_rate_threshold=50)
        )
        FlashCrowd(
            [net.stack(c) for c in roles.clients],
            net.rng.child("crowd"),
            FlashCrowdSpec(start_s=3.0, duration_s=4.0, connections_per_second=150.0),
            wl.victim_ip,
        )
        wl.start()
        net.run(until=25.0)
        assert spi.stats.refuted >= 1
        assert spi.stats.confirmed == 1


class TestBudgetIntegration:
    def test_second_victim_queues_when_budget_one(self):
        from repro.topology.builder import Network
        from repro.workload.attacker import AttackSchedule, SynFloodAttacker, SynFloodConfig

        net = Network(seed=1)
        net.add_switch("s1")
        for name in ("srv1", "srv2", "atk1", "atk2"):
            net.add_host(name)
            net.link(name, "s1")
        net.finalize()
        spi = SpiSystem(
            net,
            SpiConfig(
                budget=BudgetConfig(max_concurrent=1, max_queue=4),
                verification_window_s=3.0,
                monitor=MonitorConfig(window_s=0.5, holddown_s=1.0),
            ),
        )
        spi.deploy_inspector("s1")
        spi.deploy_monitor("s1", StaticThresholdDetector(50), name="mon")
        servers = [WebServer(net.stack("srv1")), WebServer(net.stack("srv2"))]
        for i, server in enumerate(servers):
            attacker = SynFloodAttacker(
                net.hosts[f"atk{i + 1}"],
                net.rng.child(f"a{i}"),
                SynFloodConfig(victim_ip=server.ip, rate_pps=300,
                               schedule=AttackSchedule(start_s=2.0)),
            )
            attacker.start()
        net.run(until=20.0)
        assert spi.stats.confirmed == 2
        assert spi.stats.inspections_queued >= 1
        assert spi.budget.granted >= 2

    def test_duplicate_alert_for_open_case_ignored(self):
        net, roles = dumbbell(n_clients=2, n_attackers=1)
        wl = StandardWorkload(
            net, roles, WorkloadConfig(attack_rate_pps=400, attack_start_s=2.0)
        )
        config = SpiConfig(
            verification_window_s=3.0,
            monitor=MonitorConfig(window_s=0.5, holddown_s=0.5),
        )
        spi = deploy_spi(net, roles, spi_config=config)
        wl.start()
        net.run(until=10.0)
        assert spi.stats.duplicate_alerts >= 1
        assert spi.stats.inspections_started == 1


class TestDeployment:
    def test_double_inspector_rejected(self):
        net, roles = single_switch()
        spi = SpiSystem(net)
        spi.deploy_inspector("s1")
        with pytest.raises(RuntimeError):
            spi.deploy_inspector("s1")

    def test_duplicate_monitor_name_rejected(self):
        net, roles = single_switch()
        spi = SpiSystem(net)
        spi.deploy_monitor("s1")
        with pytest.raises(ValueError):
            spi.deploy_monitor("s1")

    def test_alert_without_inspector_is_safe(self):
        net, roles = single_switch(n_clients=1, n_attackers=1)
        wl = StandardWorkload(
            net, roles, WorkloadConfig(attack_rate_pps=300, attack_start_s=1.0)
        )
        spi = SpiSystem(net)
        spi.deploy_monitor("s1", StaticThresholdDetector(50))
        wl.start()
        net.run(until=5.0)  # must not raise
        assert spi.stats.alerts_received >= 1
        assert spi.stats.inspections_started == 0

    def test_stop_halts_monitors(self):
        net, roles = single_switch()
        spi = SpiSystem(net)
        monitor = spi.deploy_monitor("s1")
        net.run(until=1.2)
        spi.stop()
        closed = monitor.windows_closed
        net.run(until=3.0)
        assert monitor.windows_closed == closed

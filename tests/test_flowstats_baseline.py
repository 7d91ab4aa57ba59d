"""Tests for the flow-stats (control-plane-only) detection baseline."""

from __future__ import annotations

import pytest

from repro.baselines.flowstats import FlowStatsDefense
from repro.mitigation.manager import MitigationConfig, MitigationManager, MitigationMode
from repro.topology import single_switch
from repro.workload.profiles import StandardWorkload, WorkloadConfig


def make_rig(attack_rate=400.0, attack_start=3.0):
    net, roles = single_switch(n_clients=3, n_attackers=1)
    wl = StandardWorkload(
        net, roles,
        WorkloadConfig(attack_rate_pps=attack_rate, attack_start_s=attack_start,
                       attack_duration_s=1000),
    )
    return net, roles, wl


class TestFlowStats:
    def test_detects_flood_within_polls(self):
        net, roles, wl = make_rig(attack_start=3.0)
        defense = FlowStatsDefense(net, poll_period_s=1.0, pps_threshold=150)
        wl.start()
        net.run(until=10.0)
        times = defense.detection_times()
        assert times, "flood must be detected"
        # First detection within ~2 poll periods of onset.
        assert times[0] - 3.0 <= 2.1
        assert defense.detections[0].victim_ip == wl.victim_ip
        defense.stop()

    def test_quiet_network_no_detection(self):
        net, roles, wl = make_rig()
        defense = FlowStatsDefense(net, pps_threshold=150)
        wl.start(with_attack=False)
        net.run(until=8.0)
        assert defense.detection_times() == []
        defense.stop()

    def test_counters(self):
        net, roles, wl = make_rig()
        defense = FlowStatsDefense(net, poll_period_s=0.5)
        wl.start(with_attack=False)
        net.run(until=3.2)
        assert defense.stats.polls == 6
        assert defense.stats.replies >= defense.stats.polls - 1
        defense.stop()

    def test_holddown_limits_repeat_detections(self):
        net, roles, wl = make_rig()
        defense = FlowStatsDefense(
            net, pps_threshold=150, detection_holddown_s=100.0
        )
        wl.start()
        net.run(until=12.0)
        assert defense.stats.detections == 1
        defense.stop()

    def test_shield_mitigation_applied(self):
        net, roles, wl = make_rig()
        manager = MitigationManager(
            net.controller, MitigationConfig(mode=MitigationMode.SHIELD_VICTIM)
        )
        defense = FlowStatsDefense(net, pps_threshold=150, mitigation=manager)
        wl.start()
        net.run(until=10.0)
        assert defense.stats.mitigations == 1
        assert manager.is_active(wl.victim_ip)
        assert manager.records[0].shielded
        defense.stop()

    def test_validation(self):
        net, _, _ = make_rig()
        with pytest.raises(ValueError):
            FlowStatsDefense(net, poll_period_s=0)
        with pytest.raises(ValueError):
            FlowStatsDefense(net, pps_threshold=0)

    def test_harness_integration(self):
        from repro.harness import ScenarioConfig, run_scenario

        result = run_scenario(
            ScenarioConfig(
                topology="single",
                topology_params={"n_clients": 2, "n_attackers": 1},
                defense="flow-stats",
                duration_s=12.0,
                workload=WorkloadConfig(attack_rate_pps=400, attack_start_s=3.0),
            )
        )
        assert isinstance(result.defense, FlowStatsDefense)
        assert result.detection_times()

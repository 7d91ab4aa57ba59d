"""Tests for the comparison baselines."""

from __future__ import annotations

import pytest

from repro.baselines.tapdpi import TapDpi
from repro.baselines.threshold_only import MonitorOnlyDefense
from repro.mitigation.manager import MitigationConfig, MitigationManager, MitigationMode
from repro.monitor.detectors import StaticThresholdDetector
from repro.topology import single_switch
from repro.workload.profiles import StandardWorkload, WorkloadConfig


def make_rig(attack_rate=400.0, attack_start=2.0, duration=1000.0):
    net, roles = single_switch(n_clients=3, n_attackers=1)
    wl = StandardWorkload(
        net, roles,
        WorkloadConfig(
            attack_rate_pps=attack_rate, attack_start_s=attack_start,
            attack_duration_s=duration,
        ),
    )
    return net, roles, wl


class TestAlwaysOn:
    def test_detects_flood(self):
        net, roles, wl = make_rig()
        dpi = TapDpi(net.switches["s1"])
        wl.start()
        net.run(until=10.0)
        assert dpi.stats.detections >= 1
        assert dpi.detections[0].victim_ip == wl.victim_ip
        dpi.stop()

    def test_inspects_everything(self):
        net, roles, wl = make_rig()
        dpi = TapDpi(net.switches["s1"])
        wl.start()
        net.run(until=5.0)
        assert dpi.stats.inspected_fraction == 1.0
        assert dpi.stats.packets_inspected == dpi.stats.packets_seen > 0
        dpi.stop()

    def test_charges_switch_mirror_cost(self):
        net, roles, wl = make_rig()
        dpi = TapDpi(net.switches["s1"])
        wl.start()
        net.run(until=5.0)
        assert net.switches["s1"].workload.breakdown().get("mirror", 0) > 0
        dpi.stop()

    def test_quiet_traffic_no_detection(self):
        net, roles, wl = make_rig()
        dpi = TapDpi(net.switches["s1"])
        wl.start(with_attack=False)
        net.run(until=8.0)
        assert dpi.stats.detections == 0
        dpi.stop()

    def test_mitigation_applied_when_manager_given(self):
        net, roles, wl = make_rig()
        manager = MitigationManager(net.controller)
        dpi = TapDpi(net.switches["s1"], mitigation=manager)
        wl.start()
        net.run(until=10.0)
        assert manager.is_active(wl.victim_ip)
        dpi.stop()

    def test_holddown_limits_repeat_detections(self):
        net, roles, wl = make_rig()
        dpi = TapDpi(net.switches["s1"], detection_holddown_s=100.0)
        wl.start()
        net.run(until=15.0)
        assert dpi.stats.detections == 1
        dpi.stop()


class TestSampled:
    def test_duty_fraction_bounds_inspection(self):
        net, roles, wl = make_rig()
        dpi = TapDpi(net.switches["s1"], period_s=2.0, duty_fraction=0.25)
        wl.start()
        net.run(until=20.0)
        assert 0.1 < dpi.stats.inspected_fraction < 0.5
        dpi.stop()

    def test_detects_long_flood(self):
        net, roles, wl = make_rig()
        dpi = TapDpi(net.switches["s1"], period_s=2.0, duty_fraction=0.25)
        wl.start()
        net.run(until=20.0)
        assert dpi.stats.detections >= 1
        dpi.stop()

    def test_misses_flood_entirely_inside_off_phase(self):
        # Attack lives entirely within the off-phase of a long period.
        net, roles, wl = make_rig(attack_start=3.0, duration=2.0)
        dpi = TapDpi(net.switches["s1"], period_s=10.0, duty_fraction=0.2)
        wl.start()
        net.run(until=20.0)
        assert dpi.stats.detections == 0
        dpi.stop()

    def test_invalid_parameters(self):
        net, _, _ = make_rig()
        with pytest.raises(ValueError):
            TapDpi(net.switches["s1"], duty_fraction=0.0)
        with pytest.raises(ValueError):
            TapDpi(net.switches["s1"], period_s=0.0)


class TestMonitorOnly:
    def test_alert_is_detection(self):
        net, roles, wl = make_rig()
        defense = MonitorOnlyDefense(net)
        defense.deploy_monitor("s1", StaticThresholdDetector(100))
        wl.start()
        net.run(until=6.0)
        assert defense.stats.alerts >= 1
        assert len(defense.detection_times()) == defense.stats.alerts
        defense.stop()

    def test_detection_is_fast(self):
        net, roles, wl = make_rig(attack_start=2.0)
        defense = MonitorOnlyDefense(net)
        defense.deploy_monitor("s1", StaticThresholdDetector(100))
        wl.start()
        net.run(until=6.0)
        # First alert within one monitor window + bus latency of onset.
        assert defense.detection_times()[0] - 2.0 < 0.6
        defense.stop()

    def test_mitigates_via_shield(self):
        net, roles, wl = make_rig()
        manager = MitigationManager(
            net.controller, MitigationConfig(mode=MitigationMode.SHIELD_VICTIM)
        )
        defense = MonitorOnlyDefense(net, mitigation=manager)
        defense.deploy_monitor("s1", StaticThresholdDetector(100))
        wl.start()
        net.run(until=6.0)
        assert defense.stats.mitigations >= 1
        assert manager.is_active(wl.victim_ip)
        defense.stop()

    def test_no_mitigation_without_manager(self):
        net, roles, wl = make_rig()
        defense = MonitorOnlyDefense(net)
        defense.deploy_monitor("s1", StaticThresholdDetector(100))
        wl.start()
        net.run(until=6.0)
        assert defense.stats.mitigations == 0
        defense.stop()

"""Tests for the scenario runner and sweep helpers."""

from __future__ import annotations

import pickle

import pytest

from repro.harness.fingerprint import fingerprint, owned_rows
from repro.harness.record import run_record
from repro.harness.scenario import (
    DEFENSES,
    FlashCrowdSpec,
    ScenarioConfig,
    run_scenario,
)
from repro.harness.sweep import apply_overrides, grid, run_sweep
from repro.workload.profiles import WorkloadConfig

FAST = dict(
    topology="single",
    topology_params={"n_clients": 2, "n_attackers": 1},
    duration_s=12.0,
    workload=WorkloadConfig(attack_rate_pps=300, attack_start_s=3.0, attack_duration_s=1000),
)


class TestConfigValidation:
    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(topology="moebius")

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(defense="prayers")

    def test_unknown_detector_rejected(self):
        # Caught at config time, not inside build_scenario in a pool worker.
        with pytest.raises(ValueError, match="unknown detector 'ewmaa'"):
            ScenarioConfig(detector="ewmaa")

    def test_duration_positive(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=0)


class TestRunScenario:
    @pytest.mark.parametrize("defense", DEFENSES)
    def test_every_defense_runs(self, defense):
        result = run_scenario(ScenarioConfig(defense=defense, **FAST))
        assert result.net.sim.now == pytest.approx(12.0)
        if defense in ("spi", "always-on"):
            assert result.detection_times(), f"{defense} should detect"

    def test_spi_result_accessors(self):
        result = run_scenario(ScenarioConfig(defense="spi", **FAST))
        assert result.victim_ip == result.workload.victim_ip
        assert result.attack_window == (3.0, 12.0)
        assert 0 <= result.success_rate() <= 1
        assert result.inspected_fraction() > 0
        assert run_record(result).switch_busy_s > 0
        timeline = result.timeline()
        assert timeline.time_to_mitigation is not None

    def test_no_attack_scenario(self):
        config = ScenarioConfig(defense="spi", with_attack=False, **FAST)
        result = run_scenario(config)
        assert result.detection_times() == []
        assert result.success_rate() > 0.95

    def test_flash_crowd_attached(self):
        config = ScenarioConfig(
            defense="none",
            flash_crowd=FlashCrowdSpec(start_s=2.0, duration_s=3.0,
                                       connections_per_second=50),
            with_attack=False,
            **FAST,
        )
        result = run_scenario(config)
        assert result.flash_crowd is not None
        assert result.flash_crowd.connections_started > 50

    def test_determinism_same_seed(self):
        a = run_scenario(ScenarioConfig(defense="spi", seed=7, **FAST))
        b = run_scenario(ScenarioConfig(defense="spi", seed=7, **FAST))
        assert a.detection_times() == b.detection_times()
        assert a.success_rate() == b.success_rate()
        assert a.workload.attack_packets_sent() == b.workload.attack_packets_sent()

    def test_different_seed_differs(self):
        a = run_scenario(ScenarioConfig(defense="spi", seed=1, **FAST))
        b = run_scenario(ScenarioConfig(defense="spi", seed=2, **FAST))
        assert a.workload.attack_packets_sent() != b.workload.attack_packets_sent()

    def test_monitor_placement_override(self):
        config = ScenarioConfig(
            defense="spi",
            topology="dumbbell",
            duration_s=12.0,
            workload=WorkloadConfig(attack_rate_pps=300, attack_start_s=3.0),
            monitor_switches=("s1", "s2"),
        )
        result = run_scenario(config)
        assert len(result.spi.monitors) == 2


class TestRunRecord:
    @pytest.mark.parametrize("defense", ["spi", "none", "always-on"])
    def test_record_is_plain_picklable_data(self, defense):
        result = run_scenario(ScenarioConfig(defense=defense, **FAST))
        record = run_record(result)
        assert pickle.loads(pickle.dumps(record)) == record
        assert record.counters == fingerprint(result)
        assert record.success_rate(0, 3.0) == result.success_rate(0, 3.0)
        if defense == "spi":
            assert [case.state for case in record.cases] == ["confirmed"]
            assert record.mitigation["active_blocks"]
        else:
            assert record.cases == ()
        if defense == "none":
            assert record.mitigation == {"active_blocks": [], "whitelist": []}

    def test_single_process_run_is_the_one_slice_case(self):
        result = run_scenario(ScenarioConfig(**FAST))
        net = result.net
        whole = owned_rows(result, net.switches, net.stacks)
        assert fingerprint(result) == fingerprint(result, [whole])


class TestOverrides:
    def test_flat_override(self):
        base = ScenarioConfig()
        updated = apply_overrides(base, {"seed": 9})
        assert updated.seed == 9 and base.seed == 1

    def test_nested_override(self):
        base = ScenarioConfig()
        updated = apply_overrides(base, {"workload.attack_rate_pps": 999.0})
        assert updated.workload.attack_rate_pps == 999.0
        assert base.workload.attack_rate_pps != 999.0

    def test_deep_nested_override(self):
        base = ScenarioConfig()
        updated = apply_overrides(base, {"spi.budget.max_concurrent": 5})
        assert updated.spi.budget.max_concurrent == 5

    def test_mixed_levels(self):
        base = ScenarioConfig()
        updated = apply_overrides(
            base, {"seed": 3, "workload.attack_start_s": 7.0, "spi.verification_window_s": 2.0}
        )
        assert updated.seed == 3
        assert updated.workload.attack_start_s == 7.0
        assert updated.spi.verification_window_s == 2.0

    def test_non_dataclass_path_rejected(self):
        with pytest.raises(TypeError):
            apply_overrides(ScenarioConfig(), {"topology.liquid": 1})

    def test_unknown_field_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown override path 'sed'"):
            apply_overrides(ScenarioConfig(), {"sed": 9})

    def test_unknown_nested_field_names_full_path(self):
        with pytest.raises(
            KeyError, match="unknown override path 'workload.attack_rate_pp'"
        ):
            apply_overrides(ScenarioConfig(), {"workload.attack_rate_pp": 1.0})

    def test_error_lists_valid_fields(self):
        with pytest.raises(KeyError) as excinfo:
            apply_overrides(ScenarioConfig(), {"workload.nope": 1.0})
        message = str(excinfo.value)
        assert "WorkloadConfig" in message
        assert "attack_rate_pps" in message


class TestGrid:
    def test_cartesian_product(self):
        points = grid(a=[1, 2], b=["x", "y"])
        assert len(points) == 4
        assert {"a": 1, "b": "x"} in points
        assert {"a": 2, "b": "y"} in points

    def test_single_axis(self):
        assert grid(a=[1]) == [{"a": 1}]

    def test_run_sweep(self):
        base = ScenarioConfig(defense="none", **FAST)
        results = run_sweep(base, grid(seed=[1, 2]))
        assert len(results) == 2
        assert results[0][0] == {"seed": 1}
        assert results[0][1].config.seed == 1

"""Property-based round-trip tests for scenario config serialization.

Hypothesis builds randomized :class:`ScenarioConfig` trees — including
the invariant-checking and execution-strategy fields the differential
oracle flips (``check_invariants``, ``invariant_period_s``,
``reference``) — and asserts the ``config_to_dict`` → JSON text →
``config_from_dict`` pipeline reproduces the exact dataclass, the same
transport the CLI's ``--save``/``--config`` replay and the spawn-pool
workers rely on for determinism.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.scenario import FlashCrowdSpec, ScenarioConfig
from repro.harness.serialize import config_from_dict, config_to_dict
from repro.harness.sweep import apply_overrides
from repro.workload.profiles import WorkloadConfig

finite = st.floats(min_value=0.001, max_value=1e4, allow_nan=False,
                   allow_infinity=False)


@st.composite
def workloads(draw):
    return WorkloadConfig(
        attack_kind=draw(st.sampled_from(("syn", "udp"))),
        attack_rate_pps=draw(finite),
        attack_start_s=draw(finite),
        attack_duration_s=draw(st.one_of(finite, st.just(float("inf")))),
        server_backlog=draw(st.integers(1, 512)),
        request_bytes=draw(st.integers(1, 4000)),
        spoof=draw(st.booleans()),
        spoof_pool_size=draw(st.integers(0, 64)),
    )


@st.composite
def flash_crowds(draw):
    return FlashCrowdSpec(
        start_s=draw(finite),
        duration_s=draw(finite),
        connections_per_second=draw(finite),
    )


@st.composite
def configs(draw):
    config = ScenarioConfig(
        topology=draw(st.sampled_from(("single", "dumbbell", "star", "linear"))),
        topology_params=draw(st.dictionaries(
            st.sampled_from(("n_clients", "n_attackers")),
            st.integers(1, 4), max_size=2,
        )),
        seed=draw(st.integers(0, 10_000)),
        duration_s=draw(finite),
        defense=draw(st.sampled_from(
            ("spi", "monitor-only", "always-on", "sampled", "flow-stats", "none")
        )),
        detector=draw(st.sampled_from(("ewma", "static", "cusum", "entropy"))),
        detector_params=draw(st.dictionaries(
            st.sampled_from(("h", "k", "threshold")), finite, max_size=2,
        )),
        workload=draw(workloads()),
        with_attack=draw(st.booleans()),
        link_loss_probability=draw(st.floats(0.0, 0.5)),
        syn_cookies=draw(st.booleans()),
        flash_crowd=draw(st.one_of(st.none(), flash_crowds())),
        monitor_switches=draw(st.one_of(
            st.none(),
            st.tuples(st.sampled_from(("s1", "core", "edge1"))),
        )),
        check_invariants=draw(st.booleans()),
        invariant_period_s=draw(finite),
        reference=draw(st.booleans()),
    )
    if draw(st.booleans()):
        config = apply_overrides(config, {
            "spi.budget.max_concurrent": draw(st.integers(1, 8)),
            "spi.verification_window_s": draw(finite),
        })
    return config


class TestConfigRoundTrip:
    @given(config=configs())
    @settings(max_examples=80, deadline=None)
    def test_dict_and_json_roundtrip_exactly(self, config):
        data = config_to_dict(config)
        rebuilt = config_from_dict(json.loads(json.dumps(data)))
        assert rebuilt == config

    @given(config=configs())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_idempotent(self, config):
        once = config_to_dict(config)
        rebuilt = config_from_dict(once)
        assert config_to_dict(rebuilt) == once

    @given(config=configs())
    @settings(max_examples=40, deadline=None)
    def test_strategy_fields_survive_transport(self, config):
        data = json.loads(json.dumps(config_to_dict(config)))
        rebuilt = config_from_dict(data)
        assert rebuilt.check_invariants == config.check_invariants
        assert rebuilt.invariant_period_s == config.invariant_period_s
        assert rebuilt.reference == config.reference

    def test_legacy_config_without_new_fields_defaults_cleanly(self):
        # Configs saved before the invariant subsystem existed have no
        # check_invariants/reference keys; they must load at the defaults.
        data = config_to_dict(ScenarioConfig())
        for key in ("check_invariants", "invariant_period_s", "reference"):
            del data[key]
        rebuilt = config_from_dict(data)
        assert rebuilt.check_invariants is False
        assert rebuilt.reference is False


class TestUnknownAndRetiredKeys:
    def test_unknown_keys_are_rejected_at_every_level(self):
        # Both typos used to load silently as the defaults.
        with pytest.raises(ValueError) as top:
            config_from_dict({"sheilds": 4})
        assert "'sheilds'" in str(top.value)
        assert "ScenarioConfig" in str(top.value) and "shards" in str(top.value)
        with pytest.raises(ValueError) as nested:
            config_from_dict({"workload": {"atack_rate_pps": 9999}})
        assert "'workload.atack_rate_pps'" in str(nested.value)
        assert "attack_rate_pps" in str(nested.value)
        with pytest.raises(ValueError, match="'spi.monitor.bakend'"):
            config_from_dict({"spi": {"monitor": {"bakend": "sketch"}}})
        with pytest.raises(ValueError, match="'flash_crowd.start'"):
            config_from_dict({"flash_crowd": {"start": 1.0}})

    def test_free_form_param_dicts_are_not_field_checked(self):
        config = config_from_dict({"topology_params": {"n_clients": 2},
                                   "detector_params": {"anything": 1.0}})
        assert config.topology_params == {"n_clients": 2}

    def test_retired_strategy_keys_load_only_at_their_old_defaults(self):
        # Every config save_config wrote before the collapse carries these.
        saved = {**config_to_dict(ScenarioConfig(seed=9)), "engine": "optimized",
                 "microflow_cache": True, "pooling": True,
                 "burst_coalescing": True}
        assert config_from_dict(saved) == ScenarioConfig(seed=9)
        for key, value in (("engine", "reference"), ("engine", "calendar"),
                           ("pooling", False), ("burst_coalescing", False)):
            with pytest.raises(ValueError) as retired:
                config_from_dict({**saved, key: value})
            assert repr(key) in str(retired.value)
            assert "reference" in str(retired.value)
        # Retired only at the top level: nested they are plain typos.
        with pytest.raises(ValueError, match="'workload.pooling'"):
            config_from_dict({"workload": {"pooling": True}})

    def test_retired_microflow_cache_loads_at_either_value(self):
        # Every table is a linear scan now, so a config that asked for one
        # describes every run, and one that asked for the cache still loads.
        saved = config_to_dict(ScenarioConfig(seed=9))
        for value in (True, False):
            loaded = config_from_dict({**saved, "microflow_cache": value})
            assert loaded == ScenarioConfig(seed=9)
        with pytest.raises(ValueError, match="'microflow_cache'"):
            config_from_dict({**saved, "microflow_cache": "off"})
        with pytest.raises(ValueError, match="'workload.microflow_cache'"):
            config_from_dict({"workload": {"microflow_cache": False}})

    def test_retired_defense_keys_load_only_at_their_old_defaults(self):
        # Every config save_config wrote while these were fields.
        saved = {**config_to_dict(ScenarioConfig(defense="sampled")),
                 "sampled_period_s": 5.0, "sampled_duty": 0.2,
                 "flowstats_poll_s": 1.0, "flowstats_pps_threshold": 200.0,
                 "baseline_mitigates": True}
        assert config_from_dict(saved) == ScenarioConfig(defense="sampled")
        for key, value in (("sampled_period_s", 2.0), ("sampled_duty", 1.0),
                           ("flowstats_poll_s", 0.5),
                           ("flowstats_pps_threshold", 150.0),
                           ("baseline_mitigates", False)):
            with pytest.raises(ValueError) as retired:
                config_from_dict({**saved, key: value})
            message = str(retired.value)
            assert repr(key) in message and repr(saved[key]) in message
            assert "defense table" in message and "reference" not in message

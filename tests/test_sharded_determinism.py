"""The sharded oracle: byte-identical fingerprints at any shard count.

The non-negotiable bar for :mod:`repro.sim.sharded`: partitioning a
scenario across shard engines — with cut links, remote control
channels and the alert bus all serialized through per-epoch boundary
batches — must reproduce the single-process fingerprint byte for byte.
These tests hold that bar across topologies, defenses, shard counts,
failure injection (link loss), and both worker transports (inline and
real spawn processes).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.harness.fuzzer import fingerprint_json
from repro.harness.record import run_record
from repro.harness.scenario import FlashCrowdSpec, ScenarioConfig, run_scenario
from repro.sim.sharded import ShardedRun, run_sharded_scenario
from repro.workload.profiles import WorkloadConfig


def _config(**overrides) -> ScenarioConfig:
    base = dict(
        topology="linear",
        topology_params={"n_switches": 3, "clients_per_switch": 1, "n_attackers": 1},
        duration_s=3.0,
        seed=7,
        check_invariants=True,
        workload=WorkloadConfig(attack_start_s=1.0, attack_rate_pps=300.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _assert_parity(config: ScenarioConfig, shard_counts=(1, 2, 4)) -> None:
    single = fingerprint_json(run_scenario(config))
    for shards in shard_counts:
        sharded = fingerprint_json(
            run_sharded_scenario(replace(config, shards=shards), inline=True)
        )
        assert sharded == single, f"shards={shards} diverged"


def test_parity_spi_linear():
    _assert_parity(_config())


def test_parity_spi_dumbbell_with_link_loss():
    _assert_parity(
        _config(
            topology="dumbbell",
            topology_params={"n_clients": 3, "n_attackers": 1},
            link_loss_probability=0.02,
        )
    )


def test_parity_monitor_only_star():
    _assert_parity(
        _config(
            topology="star",
            topology_params={"n_arms": 3, "clients_per_arm": 1, "n_attackers": 1},
            defense="monitor-only",
        )
    )


def test_parity_flow_stats_polling():
    # Every poll crosses shard boundaries twice (request down, reply
    # up) for every remote switch; replies from different shards arrive
    # at the controller at identical times.
    _assert_parity(_config(defense="flow-stats"))


def test_parity_udp_attack_udp_detector():
    _assert_parity(
        _config(
            detector="udp-rate",
            workload=WorkloadConfig(
                attack_kind="udp", attack_start_s=1.0, attack_rate_pps=400.0
            ),
        )
    )


def test_parity_with_real_worker_processes():
    # The actual deployment shape: spawn-started workers, pickled
    # epoch batches over pipes.
    config = _config(duration_s=2.0)
    single = fingerprint_json(run_scenario(config))
    sharded = fingerprint_json(run_sharded_scenario(replace(config, shards=2)))
    assert sharded == single


def test_run_scenario_dispatches_on_shards():
    result = run_scenario(_config(shards=2, duration_s=1.5))
    assert result.is_sharded
    assert result.fingerprint_data is not None
    # Delegated accessors answer from the coordinator's scenario.
    assert result.config.shards == 2
    assert result.net.sim.now == pytest.approx(1.5)


def test_sharded_run_reports_cross_shard_traffic():
    # Guard against a vacuous oracle: the partition must actually cut
    # links and traffic must actually cross them.
    run = ShardedRun(_config(shards=2, duration_s=2.0), inline=True)
    assert run.coordinator.partition.cut_links, "partition cut nothing"
    assert run.lookahead > 0 and run.lookahead != float("inf")
    result = run.run_to_completion()
    data = result.fingerprint_data
    net = run.coordinator.result.net
    cut_rows = []
    for index in run.coordinator.partition.cut_links:
        link = net.links[index]
        for iface in (link.a, link.b):
            key = f"{iface.node.name}:{iface.port_no}"
            cut_rows.extend(
                row for row in data["links"] if row["from"] == key
            )
    assert sum(row["sent"] for row in cut_rows) > 0
    assert sum(row["delivered"] for row in cut_rows) > 0


def test_merged_fingerprint_shape_matches_single_process():
    config = _config(duration_s=1.5)
    single = json.loads(fingerprint_json(run_scenario(config)))
    sharded = json.loads(
        fingerprint_json(run_sharded_scenario(replace(config, shards=2), inline=True))
    )
    assert set(single) == set(sharded)
    assert set(single["switches"]) == set(sharded["switches"])
    for row_a, row_b in zip(single["links"], sharded["links"]):
        assert set(row_a) == set(row_b)


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_run_record_matches_single_process(shards):
    # The record's reported-but-unfingerprinted numbers (switch CPU,
    # monitor state) and the flash-crowd counters have no other oracle: a
    # coordinator that answered from its own replicas would undercount the
    # former, one that grafted its own slice would double-count the latter.
    config = _config(
        duration_s=4.0,
        flash_crowd=FlashCrowdSpec(
            start_s=1.5, duration_s=1.5, connections_per_second=60.0
        ),
    )
    single = run_record(run_scenario(config))
    assert single.flash_crowd[0] > 0 and single.switch_busy_s > 0
    sharded = run_record(
        run_sharded_scenario(replace(config, shards=shards), inline=True)
    )
    assert replace(sharded, config=config) == single


def test_shard_count_validation():
    with pytest.raises(ValueError):
        _config(shards=0)
    with pytest.raises(ValueError):
        ShardedRun(_config(shards=-1))

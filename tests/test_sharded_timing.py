"""Adversarial timing cases for the sharded epoch protocol.

The conservative barrier admits events *strictly below* ``LBTS + λ``,
so the protocol's sharpest edges are exactly at the horizon: a cut-link
frame emitted while executing the LBTS event arrives at ``LBTS + λ`` —
one ulp past the epoch limit — and must be deferred, ordered, and
delivered identically to the single-process run.  These tests aim
straight at those edges:

* boundary-exact arrivals (every cut-link hop lands on the horizon);
* simultaneous cross-shard arrivals (monitors on different shards
  publishing alerts at identical simulated times);
* operator mutations landing mid-epoch at off-grid times;
* advancing to arbitrary targets, which must pin every shard clock to
  the same instant.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.harness.fuzzer import fingerprint, fingerprint_json
from repro.harness.scenario import ScenarioConfig, build_scenario, finish_scenario, run_scenario
from repro.sim.sharded import ShardedRun, run_sharded_scenario
from repro.workload.profiles import WorkloadConfig

#: Builder defaults for the three cross-shard surfaces (builder.py).
LINK_DELAY_S = 0.001
CHANNEL_LATENCY_S = 0.002


def _config(**overrides) -> ScenarioConfig:
    base = dict(
        topology="linear",
        topology_params={"n_switches": 4, "clients_per_switch": 1, "n_attackers": 1},
        duration_s=3.0,
        seed=21,
        check_invariants=True,
        workload=WorkloadConfig(attack_start_s=1.0, attack_rate_pps=250.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_lookahead_is_the_tightest_cross_shard_surface():
    # With cut links (1 ms), remote control channels (2 ms) and the
    # alert bus (5 ms) all exporting, the cut link must win.
    run = ShardedRun(_config(shards=2), inline=True)
    try:
        assert run.lookahead == pytest.approx(LINK_DELAY_S)
    finally:
        run.close()
    # Without a controller there are no channels: still the link delay.
    run = ShardedRun(_config(shards=2, defense="none"), inline=True)
    try:
        assert run.lookahead == pytest.approx(LINK_DELAY_S)
    finally:
        run.close()


def test_boundary_exact_arrivals_defer_to_the_next_epoch():
    # Pure datapath run: λ equals the cut-link delay, so a frame whose
    # transmission completes while executing the LBTS event arrives at
    # exactly LBTS + λ — the first excluded instant of the epoch.  Every
    # cut-link hop is therefore a boundary-exact arrival, and the
    # fingerprint must still match byte for byte.
    config = _config(defense="none")
    single = fingerprint_json(run_scenario(config))
    for shards in (2, 4):
        sharded = fingerprint_json(
            run_sharded_scenario(replace(config, shards=shards), inline=True)
        )
        assert sharded == single, f"shards={shards} diverged at the horizon"


def test_simultaneous_cross_shard_alerts_order_deterministically():
    # Monitors deployed on every switch share one window schedule, so
    # shards publish alerts at *identical* simulated times; the ingest
    # order at the coordinator must not depend on which worker replied
    # first.
    config = _config(
        defense="monitor-only",
        monitor_switches=("s1", "s2", "s3", "s4"),
        detector="static",
        detector_params={"syn_rate_threshold": 60.0},
        duration_s=4.0,
        workload=WorkloadConfig(attack_start_s=1.0, attack_rate_pps=400.0),
    )
    single_result = run_scenario(config)
    assert len(fingerprint(single_result)["alerts"]) > 0, "no alerts: vacuous test"
    single = fingerprint_json(single_result)
    for shards in (2, 3, 4):
        sharded = fingerprint_json(
            run_sharded_scenario(replace(config, shards=shards), inline=True)
        )
        assert sharded == single, f"shards={shards} reordered simultaneous alerts"


def test_mid_epoch_operator_block_matches_single_process():
    # An operator block lands at an arbitrary off-grid simulated time,
    # mid-epoch; the resulting FlowMods cross to worker shards through
    # the channel stubs and must drop exactly the same packets as the
    # single-process run.
    config = _config(duration_s=4.0)

    def schedule_block(result) -> None:
        attacker = next(iter(sorted(result.workload.attackers.items())))[1]
        manager = result.mitigation_manager()
        result.net.sim.schedule_at(
            1.2345,
            lambda: manager.block_source(attacker.host.ip),
            "test.operator_block",
        )

    baseline = build_scenario(config)
    schedule_block(baseline)
    baseline.net.run(until=config.duration_s)
    finish_scenario(baseline)
    single = fingerprint_json(baseline)

    unblocked = fingerprint_json(run_scenario(config))
    assert single != unblocked, "block changed nothing: vacuous test"

    for shards in (2, 4):
        run = ShardedRun(replace(config, shards=shards), inline=True)
        schedule_block(run.coordinator.result)
        sharded = fingerprint_json(run.run_to_completion())
        assert sharded == single, f"shards={shards} diverged after the block"


def test_advance_pins_every_clock_to_the_target():
    # Between epochs all shard clocks must agree exactly: a run
    # advanced in pieces lands every shard on each target.
    run = ShardedRun(_config(shards=3), inline=True)
    try:
        for target in (0.7, 1.3, 1.9):
            assert run.advance(target) == pytest.approx(target)
            assert run.now == pytest.approx(target)
        result = run.run_to_completion()
        assert result.net.sim.now == pytest.approx(3.0)
    finally:
        run.close()

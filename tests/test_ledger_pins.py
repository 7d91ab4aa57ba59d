"""The names ``benchmarks/ledger`` resolves under ``src/``, held in tier-1.

The ledger's traced pass patches entry points by ``setattr`` on names it
looks up unconditionally (``trace.WRAPS``), and its workloads and layer
table read a few stats fields by name.  A rename under ``src/`` would
otherwise surface only when the benchmark pipeline runs; here it fails
``pytest -x -q``.  The ledger modules are imported read-only
(``trace`` is stdlib-only at top level).
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from benchmarks.ledger.trace import WRAPS, _resolve


@pytest.mark.parametrize(
    "module_name,dotted", [(module, dotted) for module, dotted, _layer in WRAPS]
)
def test_wrapped_entry_point_resolves(module_name, dotted):
    # What ``trace.install`` does per entry: resolve the holder, then read
    # the attribute from the holder's own ``__dict__`` (an inherited or
    # re-exported name would not patch).
    holder, attr = _resolve(module_name, dotted)
    assert callable(holder.__dict__[attr])


def test_fingerprint_is_reexported_by_the_fuzzer():
    # layers.py:14, workloads.py:29 and ledger/tests/test_trace.py:8 import
    # the fingerprint from the fuzzer; its one implementation lives in
    # repro.harness.fingerprint.
    from repro.harness import fingerprint, fuzzer

    assert fuzzer.fingerprint is fingerprint.fingerprint
    assert fuzzer.fingerprint_json is fingerprint.fingerprint_json


def test_provenance_and_tally_names():
    # trace.py:301 and environment.py:60-61.
    from repro import kernels
    from repro.harness import transport

    assert callable(kernels.__dict__["prefer_numpy"])
    assert kernels.prefer_numpy(10**6) is False
    assert kernels.active_backend() == "scalar"
    assert transport.resolve_transport("auto") in ("shm", "pickle")


def test_pool_stats_surface():
    # workloads.py::_sweep_prepare/_sweep_check.
    from repro.harness import parallel

    for name in (
        "run_tasks", "shutdown_pool",
        "pool_transport_stats", "reset_pool_transport_stats",
    ):
        assert callable(getattr(parallel, name))
    assert {
        "transport", "shm_results", "shm_bytes", "pickle_results", "shm_fallbacks",
    } <= {f.name for f in fields(parallel.PoolTransportStats)}


def test_packet_pool_attribute_reads_as_no_pool():
    # layers.py::_scenario_counts reads ``net.packet_pool``; falsy means
    # "no pool" and ``net.pool_hit_ratio`` reports 0.
    from repro.topology.builder import Network

    assert not Network().packet_pool


def test_scenario_result_names():
    # What layers.py::_scenario_counts and workloads.py::_scenario_facts /
    # sweep_extract read off a finished SPI run.
    from repro.harness.scenario import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig(duration_s=8.0))
    monitors = list(result.spi.monitors.values())
    assert monitors
    for monitor in monitors:
        extractor = monitor.extractor
        assert extractor.packets_observed > 0
        assert max(extractor.peak_state_bytes, extractor.state_bytes()) > 0
        assert monitor.windows_closed > 0 and monitor.alerts_emitted >= 1
    assert sum(record.rule_count for record in result.spi.mitigation.records) > 0
    # A constant shim: the flow table has no cache, so the ledger's
    # ``openflow.microflow_hit_ratio`` reads 0 on every row.
    assert result.flow_table_stats().microflow_hit_rate == 0.0
    timeline = result.timeline()
    assert timeline.time_to_alert is not None
    assert timeline.time_to_mitigation is not None
    assert result.workload.client_latencies()
    assert result.workload.client_successes() > 0


def test_sharded_transport_stats_keys():
    # workloads.py::_sharded_check copies the dict; layers.py reads these.
    from repro.harness.scenario import ScenarioConfig
    from repro.sim.sharded import run_sharded_scenario
    from repro.workload.profiles import WorkloadConfig

    config = ScenarioConfig(
        topology="linear",
        topology_params={"n_switches": 2, "clients_per_switch": 1, "n_attackers": 1},
        duration_s=1.5,
        shards=2,
        workload=WorkloadConfig(attack_start_s=0.5, attack_rate_pps=200.0),
    )
    stats = run_sharded_scenario(config, inline=True).transport_stats
    for key in (
        "epochs", "boundary_records",
        "batch_bytes_to_workers", "batch_bytes_from_workers",
    ):
        assert stats[key] > 0, key


@pytest.mark.parametrize("reference", [False, True])
def test_arrival_events_are_charged_to_the_workload(reference):
    # trace.py::event_owner follows a ``repro.sim.process`` callback to the
    # owner's ``_fn``; without that the ~100 k flood arrivals of
    # ``synflood_edge`` would move from ``workload`` to ``sim``.
    from benchmarks.ledger.trace import event_owner
    from repro.topology import single_switch
    from repro.workload import (
        FlashCrowd, FlashCrowdSpec, SynFloodAttacker, SynFloodConfig,
    )

    net, roles = single_switch(n_clients=2, n_attackers=1, reference=reference)
    victim_ip = net.hosts["srv1"].ip
    attacker = SynFloodAttacker(
        net.hosts["atk1"], net.rng.child("a"),
        SynFloodConfig(victim_ip=victim_ip, rate_pps=400),
    )
    crowd = FlashCrowd(
        [net.stack(name) for name in roles.clients], net.rng.child("crowd"),
        FlashCrowdSpec(start_s=0.0, duration_s=1.0, connections_per_second=400),
        victim_ip,
    )
    attacker.start()
    net.run(until=0.2)
    for generator, owner in (
        (attacker, "SynFloodAttacker._emit"), (crowd, "FlashCrowd._spawn"),
    ):
        arrivals = generator._arrivals
        expected = (
            {arrivals._arrive} if reference else {arrivals._burst, arrivals._deliver}
        )
        assert {event.fn for event in arrivals._events} == expected
        for fn in (
            arrivals._burst, arrivals._deliver, arrivals._arrive,
            arrivals.start, arrivals.stop,
        ):
            assert event_owner(fn) == ("workload", owner)

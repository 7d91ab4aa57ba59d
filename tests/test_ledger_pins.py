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

"""Worker failure handling: structured errors and sibling teardown.

A sharded run is only as robust as its worst worker.  These tests kill
and sabotage real spawn-started worker processes and assert the
coordinator converts every failure mode into a structured
:class:`ShardWorkerError` (naming the shard and protocol stage) and
tears the surviving siblings down.
"""

from __future__ import annotations

import pytest

from repro.harness.scenario import ScenarioConfig
from repro.harness.serialize import config_to_dict
from repro.harness.shards import ShardWorker, ShardWorkerError, shutdown_workers
from repro.sim.sharded import ShardedRun
from repro.workload.profiles import WorkloadConfig


def _config(**overrides) -> ScenarioConfig:
    base = dict(
        topology="linear",
        topology_params={"n_switches": 3, "clients_per_switch": 1, "n_attackers": 1},
        duration_s=5.0,
        seed=5,
        workload=WorkloadConfig(attack_start_s=1.0, attack_rate_pps=200.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _wait_dead(processes, timeout_s: float = 5.0) -> bool:
    for process in processes:
        process.join(timeout=timeout_s)
    return all(not p.is_alive() for p in processes)


def test_killed_worker_raises_structured_error_and_tears_down_siblings():
    run = ShardedRun(_config(shards=3))
    processes = [worker.process for worker in run.workers]
    assert len(processes) == 2 and all(p.is_alive() for p in processes)
    run.advance(1.0)
    # SIGKILL one worker mid-run: no error reply, no EOF courtesy — the
    # coordinator must notice the corpse on its own.
    processes[0].kill()
    processes[0].join(timeout=5.0)
    with pytest.raises(ShardWorkerError) as excinfo:
        run.advance(run.duration)
    error = excinfo.value
    assert error.shard == 1  # the worker we killed
    assert error.stage in ("epoch", "pin")
    assert "died" in error.detail or "pipe closed" in error.detail
    # Sibling teardown: every worker process is gone.
    assert _wait_dead(processes)
    run.close()


def test_remote_exception_carries_traceback_home():
    worker = ShardWorker(1, config_to_dict(_config(shards=2)))
    try:
        worker.ready()
        with pytest.raises(ShardWorkerError) as excinfo:
            worker.call(("no_such_op", 1, 2), "bogus")
        error = excinfo.value
        assert error.shard == 1
        assert error.stage == "bogus"
        assert "no_such_op" in error.detail
        assert "ValueError" in error.remote_traceback
    finally:
        shutdown_workers([worker])
        assert _wait_dead([worker.process])


def test_worker_build_failure_surfaces_at_construction():
    # An unbuildable config must fail the handshake, not hang the pipe.
    bad = config_to_dict(_config(shards=2))
    worker = ShardWorker(1, {**bad, "topology": "no-such-topology"})
    try:
        with pytest.raises(ShardWorkerError) as excinfo:
            worker.ready()
        assert excinfo.value.stage == "build"
    finally:
        shutdown_workers([worker])


def test_shutdown_workers_is_idempotent_and_final():
    run = ShardedRun(_config(shards=2, duration_s=1.0))
    result = run.run_to_completion()
    assert result.fingerprint_data is not None
    assert run.workers == []  # released at finalize
    run.close()  # second shutdown is a no-op

"""Conservative epoch barrier driving a fleet of shard runtimes.

The synchronization protocol is classic conservative parallel DES
(LBTS / null messages), collapsed to one round trip per epoch:

1. **LBTS.**  The coordinator computes ``T`` — the minimum over every
   shard's earliest pending event time and every routed-but-undelivered
   boundary record's arrival time.  No event anywhere can exist before
   ``T``.
2. **Horizon.**  With lookahead ``λ`` (the minimum latency of any
   cross-shard surface, identical on every shard), any message emitted
   while executing events at times ``≥ T`` arrives at ``≥ T + λ``.  So
   every event *strictly before* ``T + λ`` is safe: the epoch's run
   limit is the largest float below ``T + λ`` (capped by the advance
   target).
3. **Exchange.**  Each shard ingests the records routed to it, runs to
   the limit, and returns its new earliest event time plus the records
   it emitted.  The coordinator routes those by destination for the
   next epoch — they all arrive beyond the limit just run, so no shard
   ever receives a message in its past.

Shard 0 lives in the coordinator process (the controller, correlator,
mitigation manager and every alert subscriber run there); shards
``1..n-1`` are spawned :class:`~repro.harness.shards.ShardWorker`
processes, or ``InlineShardWorker`` stand-ins when ``inline=True``.
A worker failure anywhere surfaces as
:class:`~repro.harness.shards.ShardWorkerError` after the surviving
siblings are torn down.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.harness.fingerprint import fingerprint, graft_workload
from repro.harness.scenario import ScenarioConfig, ScenarioResult, effective_config
from repro.harness.serialize import config_to_dict
from repro.harness.shards import (
    InlineShardWorker,
    ShardWorker,
    ShardWorkerError,
    shutdown_workers,
)
from repro.sim.sharded.runtime import ShardRuntime

__all__ = ["ShardedRun", "ShardedResult", "run_sharded_scenario"]


class ShardedResult:
    """A finished sharded run: coordinator result + every shard's slice.

    Delegates every accessor to the coordinator's
    :class:`ScenarioResult` (detections, mitigation state, config, the
    trace — all centralized state is exact there, and the workers'
    workload ledgers are grafted onto it) while keeping the per-shard
    ``slices`` of the distributed counters
    (:func:`repro.harness.fingerprint.owned_rows`) and the
    ``fingerprint_data`` assembled from them.
    """

    def __init__(
        self,
        base: ScenarioResult,
        slices: list[dict[str, Any]],
        transport_stats: Optional[dict[str, Any]] = None,
    ):
        self._base = base
        self.slices = slices
        self.fingerprint_data = fingerprint(base, slices)
        #: Boundary-exchange telemetry: epoch count and packed-batch
        #: bytes/records in each direction.
        self.transport_stats = transport_stats or {}

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)

    # Datapath-wide aggregates answered from the summed rows — the
    # coordinator's replicas of foreign switches saw no traffic, so the
    # delegated implementations would undercount.

    def buffer_evictions(self) -> int:
        """Packet-in buffer evictions across all shards' switches."""
        return self.fingerprint_data["buffer_evictions"]

    def inspected_fraction(self) -> float:
        """Share of datapath packets deep-inspected, topology-wide."""
        return self.fingerprint_data["inspected_fraction"]


class ShardedRun:
    """One sharded scenario being driven epoch by epoch."""

    def __init__(
        self,
        config: ScenarioConfig,
        *,
        inline: bool = False,
        timeout_s: Optional[float] = None,
    ) -> None:
        if config.shards < 1:
            raise ValueError("shard count must be >= 1")
        config = effective_config(config)
        self.config = config
        self.duration = config.duration_s
        self.coordinator = ShardRuntime(config, 0)
        self.lookahead = self.coordinator.lookahead
        self.result: Optional[ShardedResult] = None
        #: Barrier rounds run so far (telemetry; benchmarks report it).
        self.epochs = 0
        #: Boundary records routed through the barrier (all shard pairs,
        #: coordinator-local included).
        self.boundary_records = 0
        self.workers: list = []
        self._pending: list[list[tuple[int, list[tuple]]]] = [
            [] for _ in range(config.shards)
        ]
        self._next = [math.inf] * config.shards
        try:
            config_data = config_to_dict(config)
            for shard in range(1, config.shards):
                if inline:
                    self.workers.append(InlineShardWorker(shard, config_data))
                elif timeout_s is None:
                    self.workers.append(ShardWorker(shard, config_data))
                else:
                    self.workers.append(
                        ShardWorker(shard, config_data, timeout_s=timeout_s)
                    )
            self._next[0] = self.coordinator.next_time()
            for worker in self.workers:
                self._next[worker.shard] = worker.ready()
        except BaseException:
            shutdown_workers(self.workers)
            raise

    # ------------------------------------------------------------- barrier

    @property
    def now(self) -> float:
        """The coordinator's pinned clock (all shards agree at barriers)."""
        return self.coordinator.result.net.sim.now

    def _lbts(self) -> float:
        """Lower bound on any future event time, anywhere."""
        bound = min(self._next)
        for batches in self._pending:
            for _src, records in batches:
                for record in records:
                    bound = min(bound, record[0])
        return bound

    def _route(self, src: int, outbox: list[tuple]) -> None:
        self.boundary_records += len(outbox)
        by_dest: dict[int, list[tuple]] = {}
        for record in outbox:
            by_dest.setdefault(record[5], []).append(record)
        for dest, records in by_dest.items():
            self._pending[dest].append((src, records))

    def _exchange(self, batches: list, limit: float, stage: str) -> None:
        """One barrier round: every shard ingests ``batches[shard]`` and
        runs to ``limit``; dispatch everywhere, then collect everywhere.

        Workers receive their requests before the coordinator's own
        (in-process) turn runs, so worker epochs overlap the
        coordinator's simulation wall-clock.
        """
        try:
            for worker in self.workers:
                worker.send(("epoch", batches[worker.shard], limit))
            self.coordinator.ingest(batches[0])
            self.coordinator.run_until(limit)
            self._next[0] = self.coordinator.next_time()
            self._route(0, self.coordinator.take_outbox())
            for worker in self.workers:
                next_time, outbox = worker.recv(stage)
                self._next[worker.shard] = next_time
                self._route(worker.shard, outbox)
        except BaseException:
            shutdown_workers(self.workers)
            raise

    def _run_epoch(self, cap: float) -> bool:
        """Run one epoch of events at times ``<= cap``; False when none."""
        lbts = self._lbts()
        if lbts > cap:
            return False
        if math.isinf(self.lookahead):
            limit = cap
        else:
            limit = min(math.nextafter(lbts + self.lookahead, -math.inf), cap)
            limit = max(limit, lbts)
        batches = self._pending
        self._pending = [[] for _ in range(self.config.shards)]
        self._exchange(batches, limit, "epoch")
        self.epochs += 1
        return True

    def _pin(self, target: float) -> None:
        """Advance every idle clock to ``target`` (no events remain there)."""
        if self.now >= target:
            return
        self._exchange([[] for _ in range(self.config.shards)], target, "pin")

    # ------------------------------------------------------------- driving

    def advance(self, target: float) -> float:
        """Run every shard's events up to ``target`` (inclusive); pin clocks."""
        target = min(target, self.duration)
        while self._run_epoch(target):
            pass
        self._pin(target)
        return self.now

    def finalize(self) -> ShardedResult:
        """Close every shard, collect the slices, release the workers."""
        if self.result is not None:
            return self.result
        try:
            for worker in self.workers:
                worker.send(("finish", self.duration))
            own = self.coordinator.finish(self.duration)
            reports = [worker.recv("finish") for worker in self.workers]
        except BaseException:
            shutdown_workers(self.workers)
            raise
        # The workers' slices only: grafting sums flash-crowd counters.
        graft_workload(self.coordinator.result, reports)
        stats = {
            "epochs": self.epochs,
            "boundary_records": self.boundary_records,
            "batch_bytes_to_workers": sum(
                worker.batch_bytes_out for worker in self.workers
            ),
            "batch_records_to_workers": sum(
                worker.batch_records_out for worker in self.workers
            ),
            "batch_bytes_from_workers": sum(
                worker.batch_bytes_in for worker in self.workers
            ),
            "batch_records_from_workers": sum(
                worker.batch_records_in for worker in self.workers
            ),
        }
        self.result = ShardedResult(self.coordinator.result, [own, *reports], stats)
        shutdown_workers(self.workers)
        self.workers = []
        return self.result

    def run_to_completion(self) -> ShardedResult:
        """The batch path: all epochs, then finalize."""
        self.advance(self.duration)
        return self.finalize()

    def close(self) -> None:
        """Release worker processes (idempotent)."""
        shutdown_workers(self.workers)
        self.workers = []


def run_sharded_scenario(
    config: ScenarioConfig, *, inline: bool = False
) -> ShardedResult:
    """Build, run and merge one sharded scenario (the batch path)."""
    return ShardedRun(config, inline=inline).run_to_completion()

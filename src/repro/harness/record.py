"""One plain, picklable answer to "what happened in this run".

:func:`run_record` reduces a finished :class:`ScenarioResult` (or
:class:`ShardedResult`) to a :class:`RunRecord`.  It is an ordinary
``extract=`` reducer for :func:`repro.harness.parallel.run_scenarios` —
every E-table and the ``repro run`` summary are functions of the record
— and the only code outside ``ScenarioResult`` and
:mod:`repro.harness.fingerprint` that walks a run's live objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.harness.fingerprint import fingerprint, slices_of
from repro.harness.scenario import ScenarioConfig
from repro.metrics.detection import DetectionTimeline
from repro.workload.clients import WebClientStats

__all__ = ["CaseLog", "RunRecord", "run_record"]


@dataclass(frozen=True)
class CaseLog:
    """One aggregate's journey through verification (a finished
    :class:`repro.core.correlator.VerificationCase`, as plain data)."""

    victim_ip: str
    alerted_at: float
    inspect_started_at: Optional[float]
    verdict_at: Optional[float]
    state: str
    extensions_used: int
    #: SYNs the verdict rested on; ``None`` when no report was scored.
    syn_total: Optional[int]


@dataclass(frozen=True)
class RunRecord:
    """Everything the harness reports about one finished run."""

    config: ScenarioConfig
    #: Exactly :func:`repro.harness.fingerprint.fingerprint`.
    counters: dict[str, Any]
    timeline: DetectionTimeline
    #: Whole per-client attempt ledgers, so any phase window can be asked.
    clients: dict[str, WebClientStats]
    cases: tuple[CaseLog, ...]
    #: ``ScenarioResult.mitigation_state()`` at the end of the run.
    mitigation: dict[str, Any]
    #: ``(started, completed, failed)`` connections; ``None`` without a crowd.
    flash_crowd: Optional[tuple[int, int, int]]
    controller_msgs: int
    # Reported but never fingerprinted (they differ on the reference
    # twins); summed over every process's slice of the topology.
    switch_busy_s: float
    mirror_cpu_share: float
    monitor_peak_bytes: int

    def success_rate(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Benign request success fraction within a phase (1.0 when idle)."""
        ledgers = self.clients.values()
        good = sum(ledger.successes(start, end) for ledger in ledgers)
        total = good + sum(ledger.failures(start, end) for ledger in ledgers)
        return good / total if total else 1.0

    def latencies(self, start: float = 0.0, end: float = float("inf")) -> list[float]:
        """All successful benign request latencies within a phase."""
        return [
            latency
            for ledger in self.clients.values()
            for latency in ledger.request_latencies(start, end)
        ]


def run_record(result) -> RunRecord:
    """Reduce one finished run to its :class:`RunRecord`."""
    slices = slices_of(result)
    counters = fingerprint(result, slices)
    unpinned = {
        name: row for piece in slices for name, row in piece["unpinned"].items()
    }
    # Sorted, so the float sums do not depend on how the topology was cut.
    per_switch = [unpinned[name] for name in sorted(unpinned)]
    correlator = result.spi.correlator if result.spi is not None else None
    crowds = [piece["flash_crowd"] for piece in slices]
    crowds = [crowd for crowd in crowds if crowd is not None]
    return RunRecord(
        config=result.config,
        counters=counters,
        timeline=result.timeline(),
        clients={
            name: client.stats for name, client in result.workload.clients.items()
        },
        cases=tuple(
            CaseLog(
                victim_ip=case.victim_ip,
                alerted_at=case.alert.time,
                inspect_started_at=case.inspect_started_at,
                verdict_at=case.verdict_at,
                state=case.state.value,
                extensions_used=case.extensions_used,
                syn_total=None if case.report is None else case.report.syn_total,
            )
            for case in (correlator.cases if correlator is not None else ())
        ),
        mitigation=result.mitigation_state(),
        flash_crowd=tuple(map(sum, zip(*crowds))) if crowds else None,
        controller_msgs=result.net.controller.messages_received,
        switch_busy_s=sum(row["busy_s"] for row in per_switch),
        mirror_cpu_share=(
            sum(row["mirror_share"] for row in per_switch) / len(per_switch)
            if per_switch else 0.0
        ),
        monitor_peak_bytes=max(
            (row["monitor_peak_bytes"] for row in per_switch), default=0
        ),
    )

"""The correlator: verification state machine per suspected victim.

One :class:`VerificationCase` tracks a victim from alert to verdict:

    ALERTED --(mirror installed)--> INSPECTING --(window closes)-->
        score signature --> CONFIRMED | REFUTED
                        \\-> INCONCLUSIVE --(extend, bounded)--> ...

Timing fields on the case are the raw material for experiment E1's
response-time table: alert time, inspection start, verdict time.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import SpiConfig
from repro.core.signatures import (
    SignatureReport,
    SynFloodSignature,
    UdpFloodSignature,
    Verdict,
)
from repro.inspection.dpi import DpiEngine
from repro.monitor.alerts import Alert
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.sim.trace import Tracer

_case_ids = itertools.count(1)


class CaseState(enum.Enum):
    """Lifecycle of a verification case."""

    ALERTED = "alerted"
    INSPECTING = "inspecting"
    CONFIRMED = "confirmed"
    REFUTED = "refuted"
    ABANDONED = "abandoned"


@dataclass
class VerificationCase:
    """One victim's journey through verification."""

    victim_ip: str
    alert: Alert
    opened_at: float
    state: CaseState = CaseState.ALERTED
    inspect_started_at: Optional[float] = None
    verdict_at: Optional[float] = None
    extensions_used: int = 0
    report: Optional[SignatureReport] = None
    case_id: int = field(default_factory=lambda: next(_case_ids))

    @property
    def alert_to_verdict(self) -> Optional[float]:
        """Seconds from the triggering alert to the final verdict."""
        if self.verdict_at is None:
            return None
        return self.verdict_at - self.alert.time

    @property
    def inspection_duration(self) -> Optional[float]:
        """Seconds spent deep-inspecting."""
        if self.verdict_at is None or self.inspect_started_at is None:
            return None
        return self.verdict_at - self.inspect_started_at


VerdictCallback = Callable[[VerificationCase, SignatureReport], None]


class Correlator:
    """Scores DPI evidence against the signature when windows close."""

    def __init__(
        self,
        sim: Simulator,
        dpi: DpiEngine,
        config: SpiConfig,
        tracer: Tracer,
        on_verdict: VerdictCallback,
    ) -> None:
        self.sim = sim
        self.dpi = dpi
        self.config = config
        self.tracer = tracer
        self.on_verdict = on_verdict
        self.signature = SynFloodSignature(config.signature)
        self.udp_signature = UdpFloodSignature(config.udp_signature)
        self.cases: list[VerificationCase] = []
        self.active: dict[str, VerificationCase] = {}
        self._timers: dict[str, Timer] = {}

    def has_case(self, victim_ip: str) -> bool:
        """True while a case for this victim is open."""
        return victim_ip in self.active

    def open_case(self, alert: Alert, victim_ip: str) -> VerificationCase:
        """Create a case; inspection begins when the SPI app installs mirrors."""
        case = VerificationCase(victim_ip=victim_ip, alert=alert, opened_at=self.sim.now)
        self.cases.append(case)
        self.active[victim_ip] = case
        self.tracer.emit(
            "correlator.case_opened",
            f"case#{case.case_id} victim={victim_ip} from {alert.monitor}",
            victim=victim_ip,
            case_id=case.case_id,
        )
        return case

    def begin_inspection(self, case: VerificationCase) -> None:
        """Mirrors are in place: start the verification window."""
        case.state = CaseState.INSPECTING
        case.inspect_started_at = self.sim.now
        self.dpi.start_inspection(case.victim_ip)
        timer = Timer(self.sim, lambda: self._window_closed(case), "correlator.window")
        self._timers[case.victim_ip] = timer
        timer.start(self.config.verification_window_s)

    def abandon(self, victim_ip: str) -> None:
        """Drop a case without a verdict (e.g. mirrors could not install)."""
        case = self.active.pop(victim_ip, None)
        if case is None:
            return
        case.state = CaseState.ABANDONED
        timer = self._timers.pop(victim_ip, None)
        if timer is not None:
            timer.cancel()
        self.dpi.stop_inspection(victim_ip)

    # ------------------------------------------------------------ internal

    def _window_closed(self, case: VerificationCase) -> None:
        report = self._score(case.victim_ip)
        if report is None:
            self._finalize(case, None)
            return
        if (
            report.verdict is Verdict.INCONCLUSIVE
            and case.extensions_used < self.config.max_window_extensions
        ):
            case.extensions_used += 1
            self.tracer.emit(
                "correlator.window_extended",
                f"case#{case.case_id} victim={case.victim_ip} "
                f"extension={case.extensions_used}",
                victim=case.victim_ip,
                completion=report.completion_ratio,
            )
            self._timers[case.victim_ip].start(self.config.verification_window_s)
            return
        self._finalize(case, report)

    def _score(self, victim_ip: str) -> Optional[SignatureReport]:
        """Evaluate both signatures and merge the verdicts.

        Any confirmed signature confirms the case; otherwise an
        inconclusive one keeps it open; only unanimous refutation (or no
        evidence at all) refutes.  The TCP report is preferred for
        reporting when verdicts tie.
        """
        reports: list[SignatureReport] = []
        tcp_evidence = self.dpi.evidence(victim_ip)
        if tcp_evidence is not None:
            reports.append(self.signature.evaluate(tcp_evidence))
        udp_evidence = self.dpi.udp_evidence(victim_ip)
        if udp_evidence is not None:
            reports.append(self.udp_signature.evaluate(udp_evidence))
        if not reports:
            return None
        for verdict in (Verdict.CONFIRMED, Verdict.INCONCLUSIVE, Verdict.REFUTED):
            for report in reports:
                if report.verdict is verdict:
                    return report
        return reports[0]

    def _finalize(self, case: VerificationCase, report: Optional[SignatureReport]) -> None:
        self._timers.pop(case.victim_ip, None)
        self.active.pop(case.victim_ip, None)
        self.dpi.stop_inspection(case.victim_ip)
        case.verdict_at = self.sim.now
        if report is None or report.verdict is Verdict.INCONCLUSIVE:
            # An exhausted inconclusive case is treated as refuted (no
            # mitigation on weak evidence) but kept distinguishable.
            case.state = CaseState.REFUTED
        elif report.verdict is Verdict.CONFIRMED:
            case.state = CaseState.CONFIRMED
        else:
            case.state = CaseState.REFUTED
        case.report = report
        self.tracer.emit(
            "correlator.verdict",
            f"case#{case.case_id} victim={case.victim_ip} {case.state.value}",
            victim=case.victim_ip,
            verdict=case.state.value,
            completion=report.completion_ratio if report else None,
            syn_total=report.syn_total if report else 0,
        )
        if report is not None:
            self.on_verdict(case, report)
        else:
            self.on_verdict(
                case,
                SignatureReport(
                    verdict=Verdict.INCONCLUSIVE,
                    constituents=(),
                    syn_total=0,
                    completion_ratio=1.0,
                    source_count=0,
                ),
            )

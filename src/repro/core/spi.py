"""The SPI system facade: deploy, wire and run the whole pipeline.

``SpiSystem`` composes monitors, alert bus, correlator, DPI inspector,
inspection budget and mitigation manager onto an existing
:class:`repro.topology.builder.Network`:

    spi = SpiSystem(net, SpiConfig())
    spi.deploy_inspector("s2")          # SPAN port + DPI host on s2
    spi.deploy_monitor("s2", EwmaDetector())
    # ... start workloads, net.run(...)

Alert handling implements the paper's on-demand selectivity: an alert
for victim V asks the budget for a slot; granted slots install mirror
rules scoped to V on the inspection switch; the correlator scores the
mirrored evidence; a confirmed verdict mitigates and a refuted one just
removes the mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.core.budget import InspectionBudget
from repro.core.config import SPI_MIRROR_COOKIE, SpiConfig
from repro.core.correlator import Correlator, VerificationCase
from repro.core.defense import Defense
from repro.core.signatures import SignatureReport, Verdict
from repro.inspection.dpi import DpiEngine
from repro.mitigation.manager import MitigationManager
from repro.monitor.alerts import Alert, AlertBus
from repro.monitor.detectors import AnomalyDetector, EwmaDetector
from repro.monitor.monitor import TrafficMonitor
from repro.net.headers import ETHERTYPE_IPV4, PROTO_TCP
from repro.net.host import Host
from repro.openflow.actions import Flood, Mirror, Output
from repro.openflow.match import Match
from repro.topology.builder import Network


@dataclass
class SpiStats:
    """Pipeline-level outcome counters."""

    alerts_received: int = 0
    inspections_started: int = 0
    inspections_queued: int = 0
    inspections_rejected: int = 0
    duplicate_alerts: int = 0
    suppressed_mitigated: int = 0
    confirmed: int = 0
    refuted: int = 0
    inconclusive: int = 0


class SpiSystem(Defense):
    """Selective Packet Inspection deployed on one network."""

    def __init__(self, net: Network, config: SpiConfig | None = None) -> None:
        super().__init__()
        self.net = net
        self.config = config or SpiConfig()
        self.stats = SpiStats()
        self.bus = AlertBus(net.sim, latency_s=self.config.alert_latency_s)
        self.budget = InspectionBudget(self.config.budget)
        self.mitigation = MitigationManager(
            net.controller, self.config.mitigation, net.tracer
        )
        self.inspector_host: Optional[Host] = None
        self.dpi: Optional[DpiEngine] = None
        self.correlator: Optional[Correlator] = None
        self._inspect_switch: Optional[str] = None
        self._span_port: Optional[int] = None
        self._pending_alerts: dict[str, Alert] = {}
        self.bus.subscribe(self._on_alert)

    # ----------------------------------------------------------- deployment

    def deploy_inspector(self, switch_name: str) -> DpiEngine:
        """Create the DPI host on a SPAN port of ``switch_name``."""
        if self.dpi is not None:
            raise RuntimeError("inspector already deployed")
        host = Host(
            self.net.sim,
            f"dpi-{switch_name}",
            "192.0.2.250",  # TEST-NET: never a data-plane address
            "00:0d:0d:0d:0d:01",
        )
        self._span_port = self.net.add_span_port(switch_name, host)
        self._inspect_switch = switch_name
        self.inspector_host = host
        self.dpi = DpiEngine(host)
        self.correlator = Correlator(
            self.net.sim, self.dpi, self.config, self.net.tracer, self._on_verdict
        )
        return self.dpi

    def deploy_monitor(
        self,
        switch_name: str,
        detector: AnomalyDetector | None = None,
        name: str | None = None,
    ) -> TrafficMonitor:
        """Attach a sampling monitor to a switch."""
        name = name or f"mon-{switch_name}"
        if name in self.monitors:
            raise ValueError(f"monitor {name!r} already deployed")
        monitor = TrafficMonitor(
            name=name,
            switch=self.net.switches[switch_name],
            detector=detector or EwmaDetector(),
            bus=self.bus,
            rng=self.net.rng.child(f"monitor.{name}"),
            config=self.config.monitor,
        )
        self.monitors[name] = monitor
        return monitor

    # ---------------------------------------------------------- retuning

    def retune(
        self,
        verification_window_s: float | None = None,
        max_window_extensions: int | None = None,
    ) -> SpiConfig:
        """Validated runtime reconfiguration of the DPI verification knobs.

        The replacement config revalidates through ``SpiConfig``'s own
        invariants before anything is applied, then propagates to the
        correlator (which reads the window length when it opens or
        extends a case — in-flight cases keep the deadline they already
        armed).  Returns the config in force.
        """
        updates: dict[str, Any] = {}
        if verification_window_s is not None:
            updates["verification_window_s"] = float(verification_window_s)
        if max_window_extensions is not None:
            updates["max_window_extensions"] = int(max_window_extensions)
        if updates:
            self.config = replace(self.config, **updates)
            if self.correlator is not None:
                self.correlator.config = self.config
        return self.config

    # ------------------------------------------------------------- pipeline

    def _on_alert(self, alert: Alert) -> None:
        self.stats.alerts_received += 1
        self.net.tracer.emit(
            "spi.alert",
            alert.describe(),
            victim=alert.victim_ip,
            monitor=alert.monitor,
            detector=alert.detection.detector,
        )
        victim = alert.victim_ip
        if victim is None or self.correlator is None:
            return
        if self.mitigation.is_active(victim):
            self.stats.suppressed_mitigated += 1
            return
        if self.correlator.has_case(victim):
            self.stats.duplicate_alerts += 1
            return
        outcome = self.budget.request(victim)
        if outcome == "granted":
            self._start_inspection(alert, victim)
        elif outcome == "queued":
            self.stats.inspections_queued += 1
            self._pending_alerts[victim] = alert
        elif outcome == "rejected":
            self.stats.inspections_rejected += 1
        else:  # duplicate slot request: already being worked
            self.stats.duplicate_alerts += 1

    def _start_inspection(self, alert: Alert, victim: str) -> None:
        assert self.correlator is not None
        case = self.correlator.open_case(alert, victim)
        self._install_mirrors(victim)
        self.stats.inspections_started += 1
        self.net.tracer.emit(
            "spi.inspect_start",
            f"victim={victim} case#{case.case_id}",
            victim=victim,
            case_id=case.case_id,
        )
        self.correlator.begin_inspection(case)

    def _install_mirrors(self, victim_ip: str) -> None:
        assert self._inspect_switch is not None and self._span_port is not None
        switch = self.net.switches[self._inspect_switch]
        victim_mac = self._victim_mac(victim_ip)
        if victim_mac is not None:
            self.mitigation.note_victim_mac(victim_ip, victim_mac)
        l2 = self.net.l2
        out_port = (
            l2.port_for(switch.datapath_id, victim_mac) if victim_mac is not None else None
        )
        forward = (Output(out_port),) if out_port is not None else (Flood(),)
        actions = forward + (Mirror(self._span_port),)
        match = Match(
            eth_type=ETHERTYPE_IPV4,
            ip_dst=victim_ip,
            ip_proto=PROTO_TCP if self.config.mirror_tcp_only else None,
        )
        # Safety timeout: mirrors cannot outlive the worst-case window run.
        worst_case = self.config.verification_window_s * (
            self.config.max_window_extensions + 2
        )
        self.net.controller.add_flow(
            switch.datapath_id,
            match=match,
            actions=actions,
            priority=self.config.mirror_priority,
            hard_timeout=worst_case,
            cookie=SPI_MIRROR_COOKIE,
        )
        self.net.tracer.emit(
            "spi.mirror_installed",
            f"victim={victim_ip} on {self._inspect_switch} span={self._span_port}",
            victim=victim_ip,
            switch=self._inspect_switch,
        )

    def _remove_mirrors(self, victim_ip: str) -> None:
        assert self._inspect_switch is not None
        switch = self.net.switches[self._inspect_switch]
        self.net.controller.delete_flows(
            switch.datapath_id,
            Match(eth_type=ETHERTYPE_IPV4, ip_dst=victim_ip),
            cookie=SPI_MIRROR_COOKIE,
        )
        self.net.tracer.emit(
            "spi.mirror_removed", f"victim={victim_ip}", victim=victim_ip
        )

    def _on_verdict(self, case: VerificationCase, report: SignatureReport) -> None:
        victim = case.victim_ip
        self._remove_mirrors(victim)
        if report.verdict is Verdict.CONFIRMED:
            self.stats.confirmed += 1
            self.net.tracer.emit(
                "spi.confirmed",
                f"victim={victim} sources={len(report.attacker_sources)} "
                f"completion={report.completion_ratio:.2f}",
                victim=victim,
                attacker_sources=len(report.attacker_sources),
            )
            self.mitigation.mitigate(
                victim,
                attacker_sources=report.attacker_sources,
                suspect_sources=report.suspect_sources,
                completed_sources=report.completed_sources,
            )
        elif report.verdict is Verdict.REFUTED:
            self.stats.refuted += 1
            self.net.tracer.emit(
                "spi.refuted",
                f"victim={victim} completion={report.completion_ratio:.2f}",
                victim=victim,
            )
        else:
            self.stats.inconclusive += 1
        follower = self.budget.release(victim)
        if follower is not None:
            pending = self._pending_alerts.pop(follower, None)
            if pending is not None:
                self._start_inspection(pending, follower)
            else:
                self.budget.release(follower)

    # ------------------------------------------------------------- helpers

    def _victim_mac(self, victim_ip: str) -> Optional[str]:
        """Resolve a victim MAC from the slice's address registry."""
        for host in self.net.hosts.values():
            if host.ip == victim_ip:
                return host.mac
        return None

    # ------------------------------------------------------------ telemetry

    def detection_times(self) -> list[float]:
        """Timestamps of confirmed verdicts."""
        return [e.time for e in self.net.tracer.entries("spi.confirmed")]

    def alert_times(self) -> list[float]:
        """Timestamps of every alert the pipeline received."""
        return [e.time for e in self.net.tracer.entries("spi.alert")]

    def inspected_fraction(self, mirrored: int, packets_in: int) -> float:
        """SPI inspects exactly what its rules mirror."""
        return mirrored / packets_in if packets_in else 0.0

    def fingerprint_rows(self) -> dict[str, Any]:
        """Pipeline counters, plus the DPI engine's once deployed."""
        rows = {"spi": dict(vars(self.stats))}
        if self.dpi is not None:
            rows["dpi"] = dict(vars(self.dpi.stats))
        return rows

    def mirrored_fraction(self) -> float:
        """Share of datapath packets that were mirrored for inspection.

        The headline E3 quantity: selective inspection keeps this small
        where always-on DPI holds it at 1.0.
        """
        counters = [switch.counters for switch in self.net.switches.values()]
        return self.inspected_fraction(
            sum(c.packets_mirrored for c in counters),
            sum(c.packets_in for c in counters),
        )

"""Tap-fed DPI: always-on and duty-cycled inspection in one class.

A tap-based inspector sees every ingress packet of a switch (as a SPAN
of all ports would), charges the switch's workload meter for each packet
it actually inspects, reconstructs handshakes per destination, and
scores every destination against the SYN-flood signature at the end of
each on-phase.  Its duty cycle is the only knob:

* the defaults (``period_s=1.0, duty_fraction=1.0``) never switch the
  tap off — the accuracy upper bound the paper argues is unaffordable,
  every packet charged as a mirror copy, and the baseline selective
  inspection's E3 win is measured against;
* a fraction below 1 inspects the first slice of each period and is
  blind in between — the pre-SDN compromise: cheap, but detection waits
  out the off-phase and short floods can be missed entirely, the
  weakness alert-driven inspection removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.defense import Defense
from repro.core.signatures import SignatureReport, SynFloodSignature, SynFloodSignatureConfig, Verdict
from repro.inspection.tracker import HandshakeTracker
from repro.mitigation.manager import MitigationManager
from repro.net.flowkey import FlowKey
from repro.net.headers import TCP_ACK, TCP_SYN
from repro.net.packet import Packet
from repro.sim.process import PeriodicTask
from repro.switch.ovs import OpenFlowSwitch


@dataclass
class TapDpiStats:
    """Inspection workload and outcome counters."""

    packets_seen: int = 0
    packets_inspected: int = 0
    bytes_inspected: int = 0
    evaluations: int = 0
    detections: int = 0

    @property
    def inspected_fraction(self) -> float:
        """Share of the switch's traffic this baseline deep-inspected."""
        return self.packets_inspected / self.packets_seen if self.packets_seen else 0.0


@dataclass
class BaselineDetection:
    """One confirmed detection by a baseline."""

    time: float
    victim_ip: str
    report: SignatureReport


class TapDpi(Defense):
    """Inspect during the first ``duty_fraction`` of every ``period_s``."""

    coordinator_only = True

    def __init__(
        self,
        switch: OpenFlowSwitch,
        period_s: float = 1.0,
        duty_fraction: float = 1.0,
        signature_config: SynFloodSignatureConfig | None = None,
        mitigation: Optional[MitigationManager] = None,
        detection_holddown_s: float = 5.0,
    ) -> None:
        if not 0 < duty_fraction <= 1:
            raise ValueError("duty fraction must be in (0, 1]")
        if period_s <= 0:
            raise ValueError("period must be positive")
        super().__init__()
        self.switch = switch
        self.period_s = period_s
        self._on_s = period_s * duty_fraction
        self.signature = SynFloodSignature(signature_config)
        self.mitigation = mitigation
        self.detection_holddown_s = detection_holddown_s
        self.stats = TapDpiStats()
        self.detections: list[BaselineDetection] = []
        self._trackers: dict[str, HandshakeTracker] = {}
        self._holddown_until: dict[str, float] = {}
        self._task = PeriodicTask(
            switch.sim, period_s, self._evaluate_all, "tapdpi.evaluate"
        )
        switch.attach_tap(self._tap)
        # Evaluate at the end of each on-phase, when a window of evidence
        # is complete, so a flood caught in the on-phase is scored
        # immediately rather than after the blind off-phase too.
        self._task.start(initial_delay=self._on_s)

    def stop(self) -> None:
        """Halt periodic evaluation."""
        self._task.stop()

    # --------------------------------------------------------------- tap

    def _tap(self, packet: Packet, in_port: int, key: FlowKey) -> None:
        self.stats.packets_seen += 1
        if self.switch.sim.now % self.period_s >= self._on_s:
            return  # off-phase (never, at duty fraction 1)
        self.stats.packets_inspected += 1
        self.stats.bytes_inspected += packet.size_bytes
        # Inspection is a SPAN copy: charge the switch exactly as the
        # Mirror action would.
        self.switch.workload.charge_mirror(packet.size_bytes)
        if packet.tcp is None or packet.ip is None:
            return
        flags = packet.tcp.flags
        if not (flags & TCP_SYN or flags & TCP_ACK):
            return
        dst = key.ip_dst
        tracker = self._trackers.get(dst)
        if tracker is None:
            if not (flags & TCP_SYN and not flags & TCP_ACK):
                return  # only start tracking a destination on a fresh SYN
            tracker = HandshakeTracker(dst, self.switch.sim.now)
            self._trackers[dst] = tracker
        tracker.observe(packet, self.switch.sim.now, key=key)

    # --------------------------------------------------------- evaluation

    def _evaluate_all(self) -> None:
        now = self.switch.sim.now
        for victim_ip, tracker in list(self._trackers.items()):
            evidence = tracker.snapshot(now)
            if evidence.syn_total == 0:
                del self._trackers[victim_ip]
                continue
            self.stats.evaluations += 1
            report = self.signature.evaluate(evidence)
            if report.verdict is Verdict.CONFIRMED:
                self._detect(victim_ip, report, now)
            # Tumble the window: fresh tracker each evaluation period.
            del self._trackers[victim_ip]

    def _detect(self, victim_ip: str, report: SignatureReport, now: float) -> None:
        if now < self._holddown_until.get(victim_ip, 0.0):
            return
        self._holddown_until[victim_ip] = now + self.detection_holddown_s
        self.stats.detections += 1
        self.detections.append(
            BaselineDetection(time=now, victim_ip=victim_ip, report=report)
        )
        if self.mitigation is not None and not self.mitigation.is_active(victim_ip):
            self.mitigation.mitigate(
                victim_ip,
                attacker_sources=report.attacker_sources,
                suspect_sources=report.suspect_sources,
                completed_sources=report.completed_sources,
            )

    # ------------------------------------------------------------ defense

    def detection_times(self) -> list[float]:
        """Timestamps of all confirmed detections."""
        return [d.time for d in self.detections]

    def inspected_fraction(self, mirrored: int, packets_in: int) -> float:
        """The tap's own count: it inspects without mirror rules."""
        return self.stats.inspected_fraction

    def fingerprint_rows(self) -> dict[str, Any]:
        """The tap's workload and outcome counters."""
        return {"tap_dpi": dict(vars(self.stats))}

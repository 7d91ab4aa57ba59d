"""Monitor-only defense: mitigate straight off the anomaly alert.

The "quick" tier of the paper without the "careful" one: every monitor
alert is treated as a confirmed attack.  Detection is as fast as an
alert, but a flash crowd triggers mitigation against legitimate users —
the false-alarm cost experiments E2 and E6 quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.defense import Defense
from repro.mitigation.manager import MitigationManager
from repro.monitor.alerts import Alert, AlertBus
from repro.monitor.detectors import AnomalyDetector, EwmaDetector
from repro.monitor.monitor import MonitorConfig, TrafficMonitor
from repro.topology.builder import Network


@dataclass
class MonitorOnlyStats:
    """Alert-equals-detection counters."""

    alerts: int = 0
    mitigations: int = 0


class MonitorOnlyDefense(Defense):
    """Alerts become detections (and optionally mitigations) immediately."""

    def __init__(
        self,
        net: Network,
        mitigation: Optional[MitigationManager] = None,
        monitor_config: MonitorConfig | None = None,
        alert_latency_s: float = 0.005,
    ) -> None:
        super().__init__()
        self.net = net
        self.mitigation = mitigation
        self.monitor_config = monitor_config or MonitorConfig()
        self.bus = AlertBus(net.sim, latency_s=alert_latency_s)
        self.stats = MonitorOnlyStats()
        self.detections: list[Alert] = []
        self.bus.subscribe(self._on_alert)

    def deploy_monitor(
        self, switch_name: str, detector: AnomalyDetector | None = None
    ) -> TrafficMonitor:
        """Attach a sampling monitor to a switch."""
        name = f"mon-{switch_name}"
        monitor = TrafficMonitor(
            name=name,
            switch=self.net.switches[switch_name],
            detector=detector or EwmaDetector(),
            bus=self.bus,
            rng=self.net.rng.child(f"monitor-only.{name}"),
            config=self.monitor_config,
        )
        self.monitors[name] = monitor
        return monitor

    def detection_times(self) -> list[float]:
        """Timestamps of all alert-detections."""
        return [a.time for a in self.detections]

    # Every alert is a detection.
    alert_times = detection_times

    def _on_alert(self, alert: Alert) -> None:
        self.stats.alerts += 1
        self.detections.append(alert)
        self.net.tracer.emit(
            "baseline.monitor_only_detection",
            alert.describe(),
            victim=alert.victim_ip,
        )
        victim = alert.victim_ip
        if self.mitigation is None or victim is None:
            return
        if not self.mitigation.is_active(victim):
            self.stats.mitigations += 1
            for host in self.net.hosts.values():
                if host.ip == victim:
                    self.mitigation.note_victim_mac(victim, host.mac)
                    break
            # No DPI evidence exists: the best a monitor-only defense can
            # do is shield the victim wholesale (configure its manager
            # with MitigationMode.SHIELD_VICTIM).
            self.mitigation.mitigate(victim, attacker_sources=(), suspect_sources=())

"""What the harness asks of whichever defense a scenario runs.

A scenario deploys exactly one defense (``repro.harness.scenario``
builds it from its name).  Every defense — SPI and each comparison
baseline — answers the same questions, so the harness, the sharded
runtime and the control-plane service ask the one object instead of
naming defenses.  This base class is also the ``none`` defense: no
monitors, no alerts, no mitigation.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.mitigation.manager import MitigationManager
from repro.monitor.alerts import AlertBus
from repro.monitor.monitor import TrafficMonitor


class Defense:
    """A deployed defense; the base answers every question with "none"."""

    #: True for defenses that live with the controller (centralized
    #: pollers and taps): a sharded run stops them on worker shards.
    coordinator_only = False
    #: The alert bus its monitors publish on, if it has one.
    bus: Optional[AlertBus] = None
    #: The manager it mitigates through, if it mitigates.
    mitigation: Optional[MitigationManager] = None

    def __init__(self) -> None:
        self.monitors: dict[str, TrafficMonitor] = {}

    def detection_times(self) -> list[float]:
        """Timestamps of the defense's confirmed detections."""
        return []

    def alert_times(self) -> list[float]:
        """Timestamps of its raw (unverified) alerts, where it has them."""
        return []

    def inspected_fraction(self, mirrored: int, packets_in: int) -> float:
        """Share of datapath packets it deep-inspected, given the switches'
        summed mirror and ingress counters."""
        return 0.0

    def fingerprint_rows(self) -> dict[str, Any]:
        """Its own counters, as the fingerprint reports them."""
        return {}

    def stop(self) -> None:
        """Halt its periodic work (end of scenario)."""
        for monitor in self.monitors.values():
            monitor.stop()

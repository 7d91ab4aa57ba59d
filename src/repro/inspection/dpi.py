"""The DPI engine: read mirrored frames, maintain per-victim trackers.

The engine lives on an inspector host cabled to a switch SPAN port.  It
receives *frames* (whatever the Mirror action copied) and routes TCP
frames to the :class:`HandshakeTracker` registered for their destination.
It reads the frame it is handed: a frame is an immutable value equal to
its wire bytes' parse on every construction path, so packing and
re-parsing it would return the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.inspection.tracker import HandshakeEvidence, HandshakeTracker
from repro.inspection.udp import UdpEvidence, UdpTracker
from repro.net.host import Host
from repro.net.packet import Packet


@dataclass
class DpiStats:
    """Inspection workload counters (feeds experiment E3).  Every frame is
    inspected, so ``frames_parsed`` equals ``frames_received`` and
    ``parse_errors`` is 0; the run fingerprint carries both."""

    frames_received: int = 0
    bytes_received: int = 0
    frames_parsed: int = 0
    parse_errors: int = 0
    frames_tracked: int = 0


class DpiEngine:
    """Byte-level inspector bound to one inspector host."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.stats = DpiStats()
        self._trackers: dict[str, HandshakeTracker] = {}
        self._udp_trackers: dict[str, UdpTracker] = {}
        self._observers: list[Callable[[Packet], None]] = []
        host.promiscuous = True
        host.add_sniffer(self._on_frame)

    @property
    def active_victims(self) -> list[str]:
        """Victim addresses currently under inspection."""
        return list(self._trackers)

    def start_inspection(self, victim_ip: str) -> HandshakeTracker:
        """Open (or return the existing) trackers for ``victim_ip``.

        Both the TCP handshake tracker and the UDP volumetric tracker
        are armed; the correlator decides which signatures to score.
        """
        tracker = self._trackers.get(victim_ip)
        if tracker is None:
            tracker = HandshakeTracker(victim_ip, self.host.sim.now)
            self._trackers[victim_ip] = tracker
            self._udp_trackers[victim_ip] = UdpTracker(victim_ip, self.host.sim.now)
        return tracker

    def stop_inspection(self, victim_ip: str) -> Optional[HandshakeEvidence]:
        """Close the trackers and return the final TCP evidence."""
        self._udp_trackers.pop(victim_ip, None)
        tracker = self._trackers.pop(victim_ip, None)
        if tracker is None:
            return None
        return tracker.snapshot(self.host.sim.now)

    def evidence(self, victim_ip: str) -> Optional[HandshakeEvidence]:
        """TCP handshake evidence so far for an active inspection."""
        tracker = self._trackers.get(victim_ip)
        if tracker is None:
            return None
        return tracker.snapshot(self.host.sim.now)

    def udp_evidence(self, victim_ip: str) -> Optional[UdpEvidence]:
        """UDP volumetric evidence so far for an active inspection."""
        tracker = self._udp_trackers.get(victim_ip)
        if tracker is None:
            return None
        return tracker.snapshot(self.host.sim.now)

    def add_observer(self, observer: Callable[[Packet], None]) -> None:
        """Watch every inspected frame (baselines, tests)."""
        self._observers.append(observer)

    # ------------------------------------------------------------ internal

    def _on_frame(self, frame: Packet) -> None:
        stats = self.stats
        stats.frames_received += 1
        stats.bytes_received += frame.size_bytes
        stats.frames_parsed += 1
        for observer in self._observers:
            observer(frame)
        ip = frame.ip
        if ip is None:
            return
        if frame.tcp is not None:
            tracker = self._trackers.get(ip.dst_ip)
        elif frame.udp is not None:
            tracker = self._udp_trackers.get(ip.dst_ip)
        else:
            return
        if tracker is not None:
            stats.frames_tracked += 1
            tracker.observe(frame, self.host.sim.now)

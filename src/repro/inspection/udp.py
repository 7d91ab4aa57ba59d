"""UDP flood evidence: volumetric tracking of mirrored datagrams.

UDP has no handshake to reconstruct, so the inspectable signature is
volumetric and structural: sustained packet/byte rate toward the victim,
a dispersed (spoofed) source population, and concentration on one or few
destination ports.  The tracker reduces mirrored datagrams to that
evidence; :class:`repro.core.signatures.UdpFloodSignature` scores it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.net.packet import Packet


@dataclass
class UdpEvidence:
    """Aggregate UDP observations for one victim's inspection window."""

    victim_ip: str
    window_start: float
    window_end: float
    packet_total: int = 0
    byte_total: int = 0
    source_counts: Counter = field(default_factory=Counter)
    port_counts: Counter = field(default_factory=Counter)

    @property
    def duration(self) -> float:
        """Inspection window length in seconds."""
        return self.window_end - self.window_start

    @property
    def packet_rate(self) -> float:
        """Datagrams per second over the window."""
        return self.packet_total / self.duration if self.duration > 0 else 0.0

    @property
    def source_count(self) -> int:
        """Distinct source addresses observed."""
        return len(self.source_counts)

    @property
    def top_port_share(self) -> float:
        """Fraction of datagrams aimed at the most-hit destination port."""
        if not self.packet_total:
            return 0.0
        return self.port_counts.most_common(1)[0][1] / self.packet_total

    def heavy_sources(self, min_packets: int) -> list[str]:
        """Sources above the per-source volume threshold."""
        return [ip for ip, n in self.source_counts.items() if n >= min_packets]

    def light_sources(self, below_packets: int) -> list[str]:
        """Low-volume sources (the spoofed drizzle), for prefix blocking."""
        return [ip for ip, n in self.source_counts.items() if n < below_packets]


class UdpTracker:
    """Accumulates UDP datagrams mirrored toward one victim."""

    def __init__(self, victim_ip: str, started_at: float) -> None:
        self.victim_ip = victim_ip
        self._evidence = UdpEvidence(
            victim_ip=victim_ip, window_start=started_at, window_end=started_at
        )

    def observe(self, packet: Packet, now: float) -> None:
        """Feed one mirrored frame addressed to the victim."""
        if packet.udp is None or packet.ip is None or packet.ip.dst_ip != self.victim_ip:
            return
        ev = self._evidence
        ev.packet_total += 1
        ev.byte_total += packet.size_bytes
        ev.source_counts[packet.ip.src_ip] += 1
        ev.port_counts[packet.udp.dst_port] += 1

    def snapshot(self, now: float) -> UdpEvidence:
        """The evidence so far (window end stamped to ``now``)."""
        self._evidence.window_end = now
        return self._evidence

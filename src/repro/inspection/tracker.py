"""Handshake reconstruction from one side of the conversation.

The mirror rule copies traffic *to* the victim, so the tracker sees each
client's SYN and — only if the handshake is completing — that client's
final ACK on the same 4-tuple.  A source that keeps sending SYNs and
never ACKs is leaving half-open connections behind: the defining
signature constituent of a SYN flood.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.headers import TCP_ACK, TCP_RST, TCP_SYN
from repro.net.packet import Packet


@dataclass
class SourceEvidence:
    """What inspection learned about one source address."""

    src_ip: str
    syns: int = 0
    completions: int = 0
    resets: int = 0
    first_seen: float = 0.0
    last_seen: float = 0.0

    @property
    def abandoned(self) -> int:
        """Handshakes begun and never completed."""
        return max(0, self.syns - self.completions)

    @property
    def completion_ratio(self) -> float:
        """Fraction of this source's handshakes that completed."""
        return self.completions / self.syns if self.syns else 1.0


@dataclass
class HandshakeEvidence:
    """Aggregate verdict input for one victim's inspection window."""

    victim_ip: str
    window_start: float
    window_end: float
    syn_total: int = 0
    completion_total: int = 0
    sources: dict[str, SourceEvidence] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Inspection window length in seconds."""
        return self.window_end - self.window_start

    @property
    def source_count(self) -> int:
        """Distinct source addresses observed."""
        return len(self.sources)

    @property
    def completion_ratio(self) -> float:
        """Completed handshakes / initiated handshakes (1.0 when quiet)."""
        return self.completion_total / self.syn_total if self.syn_total else 1.0

    def attacker_sources(self, min_syns: int = 1) -> list[str]:
        """Sources with >= ``min_syns`` SYNs and zero completions.

        With ``min_syns`` above a benign client's per-window attempt
        count, this isolates heavy hitters (non-spoofed attackers);
        spoofed sources send ~1 SYN each and land in
        :meth:`suspect_sources` instead.
        """
        return [
            ip
            for ip, ev in self.sources.items()
            if ev.syns >= min_syns and ev.completions == 0
        ]

    def suspect_sources(self, below_syns: int) -> list[str]:
        """Zero-completion sources *below* the heavy-hitter threshold.

        Individually indistinguishable from an unlucky benign client,
        but collectively (grouped by prefix density) they reveal a
        spoofed flood; the mitigation manager aggregates them.
        """
        return [
            ip
            for ip, ev in self.sources.items()
            if ev.completions == 0 and ev.syns < below_syns
        ]

    def completed_sources(self) -> list[str]:
        """Sources that completed at least one handshake (whitelist feed)."""
        return [ip for ip, ev in self.sources.items() if ev.completions > 0]


class HandshakeTracker:
    """Per-victim handshake state machine over mirrored client->victim frames."""

    def __init__(self, victim_ip: str, started_at: float) -> None:
        self.victim_ip = victim_ip
        self.started_at = started_at
        self._evidence = HandshakeEvidence(
            victim_ip=victim_ip, window_start=started_at, window_end=started_at
        )
        # 4-tuples with an outstanding (unacknowledged) SYN.
        self._pending: set[tuple[str, int, int]] = set()

    def observe(self, packet: Packet, now: float) -> None:
        """Feed one mirrored frame addressed to the victim."""
        if packet.tcp is None or packet.ip is None or packet.ip.dst_ip != self.victim_ip:
            return
        self._evidence.window_end = now
        header = packet.tcp
        src_ip = packet.ip.src_ip
        conn_key = (src_ip, header.src_port, header.dst_port)
        source = self._evidence.sources.get(src_ip)
        if source is None:
            source = SourceEvidence(src_ip=src_ip, first_seen=now)
            self._evidence.sources[src_ip] = source
        source.last_seen = now
        flags = header.flags
        if flags & TCP_SYN and not flags & TCP_ACK:
            if conn_key not in self._pending:
                self._pending.add(conn_key)
                source.syns += 1
                self._evidence.syn_total += 1
            # A repeated SYN on the same tuple is a retransmission, not
            # a new handshake; it contributes no fresh evidence.
        elif flags & TCP_RST:
            source.resets += 1
            self._pending.discard(conn_key)
        elif flags & TCP_ACK and conn_key in self._pending:
            self._pending.discard(conn_key)
            source.completions += 1
            self._evidence.completion_total += 1

    def snapshot(self, now: float) -> HandshakeEvidence:
        """The evidence accumulated so far (window end stamped to ``now``)."""
        self._evidence.window_end = now
        return self._evidence

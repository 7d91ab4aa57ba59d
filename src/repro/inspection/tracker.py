"""Handshake reconstruction from one side of the conversation.

The mirror rule copies traffic *to* the victim, so the tracker sees each
client's SYN and — only if the handshake is completing — that client's
final ACK on the same 4-tuple.  A source that keeps sending SYNs and
never ACKs is leaving half-open connections behind: the defining
signature constituent of a SYN flood.

Evidence is counters keyed by source address, not an object per source:
a spoofed flood brings a new source with nearly every SYN, so what the
window holds per source is what it costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addresses import ip_to_int
from repro.net.headers import TCP_ACK, TCP_RST, TCP_SYN
from repro.net.packet import Packet


@dataclass
class HandshakeEvidence:
    """Aggregate verdict input for one victim's inspection window.

    ``syns`` holds every source seen, in first-seen order, with its
    handshakes begun: a source seen only through an ACK or an RST is
    there with zero.  ``completions`` and ``resets`` hold only the
    sources that have some.
    """

    victim_ip: str
    window_start: float
    window_end: float
    syn_total: int = 0
    completion_total: int = 0
    syns: dict[str, int] = field(default_factory=dict)
    completions: dict[str, int] = field(default_factory=dict)
    resets: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Inspection window length in seconds."""
        return self.window_end - self.window_start

    @property
    def source_count(self) -> int:
        """Distinct source addresses observed."""
        return len(self.syns)

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
            ip for ip, n in self.syns.items()
            if n >= min_syns and not self.completions.get(ip)
        ]

    def suspect_sources(self, below_syns: int) -> list[str]:
        """Zero-completion sources *below* the heavy-hitter threshold.

        Individually indistinguishable from an unlucky benign client,
        but collectively (grouped by prefix density) they reveal a
        spoofed flood; the mitigation manager aggregates them.
        """
        return [
            ip for ip, n in self.syns.items()
            if n < below_syns and not self.completions.get(ip)
        ]

    def completed_sources(self) -> list[str]:
        """Sources that completed at least one handshake (whitelist feed)."""
        return [ip for ip in self.syns if self.completions.get(ip)]


class HandshakeTracker:
    """Per-victim handshake state machine over mirrored client->victim frames."""

    def __init__(self, victim_ip: str, started_at: float) -> None:
        self.victim_ip = victim_ip
        self._evidence = HandshakeEvidence(
            victim_ip=victim_ip, window_start=started_at, window_end=started_at
        )
        # 4-tuples with an outstanding (unacknowledged) SYN, one int each:
        # source address << 32 | source port << 16 | destination port.
        self._pending: set[int] = set()

    def observe(self, packet: Packet, now: float) -> None:
        """Feed one mirrored frame addressed to the victim."""
        header = packet.tcp
        ip = packet.ip
        if header is None or ip is None or ip.dst_ip != self.victim_ip:
            return
        evidence = self._evidence
        src_ip = ip.src_ip
        syns = evidence.syns
        conn_key = ip_to_int(src_ip) << 32 | header.src_port << 16 | header.dst_port
        flags = header.flags
        if flags & TCP_SYN and not flags & TCP_ACK:
            # A repeated SYN on the same tuple is a retransmission, not
            # a new handshake; it contributes no fresh evidence.
            if conn_key not in self._pending:
                self._pending.add(conn_key)
                syns[src_ip] = syns.get(src_ip, 0) + 1
                evidence.syn_total += 1
            return
        syns.setdefault(src_ip, 0)
        if flags & TCP_RST:
            evidence.resets[src_ip] = evidence.resets.get(src_ip, 0) + 1
            self._pending.discard(conn_key)
        elif flags & TCP_ACK and conn_key in self._pending:
            self._pending.discard(conn_key)
            completions = evidence.completions
            completions[src_ip] = completions.get(src_ip, 0) + 1
            evidence.completion_total += 1

    def snapshot(self, now: float) -> HandshakeEvidence:
        """The evidence accumulated so far (window end stamped to ``now``)."""
        self._evidence.window_end = now
        return self._evidence

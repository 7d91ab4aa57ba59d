"""Control-plane message vocabulary (OpenFlow 1.0 subset).

Messages travel over :class:`repro.openflow.channel.ControlChannel`; the
dataclasses carry the structured payloads the controller apps and the
switch exchange.  ``wire_size()`` approximates the on-wire byte count so
the channel can model control-plane bandwidth consumption (a quantity the
paper's workload-balancing argument cares about).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.net.packet import Packet
from repro.openflow.actions import Action
from repro.openflow.flowtable import FlowEntry, RemovedReason, TableStats
from repro.openflow.match import Match

_xids = itertools.count(1)


def next_xid() -> int:
    """Allocate a transaction id."""
    return next(_xids)


@dataclass
class Message:
    """Base control message."""

    HEADER_BYTES = 8

    def wire_size(self) -> int:
        """Approximate encoded size in bytes."""
        return self.HEADER_BYTES


class PacketInReason(enum.Enum):
    """Why the switch punted a packet."""

    NO_MATCH = "no_match"
    ACTION = "action"


@dataclass
class PacketIn(Message):
    """Switch -> controller: a punted packet."""

    datapath_id: int
    buffer_id: int
    in_port: int
    packet: Packet
    reason: PacketInReason = PacketInReason.NO_MATCH
    xid: int = field(default_factory=next_xid)

    def wire_size(self) -> int:
        # OF1.0 sends up to miss_send_len bytes of the frame.
        return self.HEADER_BYTES + 10 + min(self.packet.size_bytes, 128)


@dataclass
class PacketOut(Message):
    """Controller -> switch: emit a (possibly buffered) packet."""

    buffer_id: int
    actions: tuple[Action, ...]
    in_port: int = 0
    packet: Optional[Packet] = None
    xid: int = field(default_factory=next_xid)

    def wire_size(self) -> int:
        size = self.HEADER_BYTES + 8 + 8 * len(self.actions)
        if self.packet is not None:
            size += self.packet.size_bytes
        return size


class FlowModCommand(enum.Enum):
    """FlowMod commands (subset)."""

    ADD = "add"
    DELETE = "delete"


@dataclass
class FlowMod(Message):
    """Controller -> switch: install or remove rules."""

    command: FlowModCommand
    match: Match
    actions: tuple[Action, ...] = ()
    priority: int = 100
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0
    buffer_id: Optional[int] = None
    notify_removed: bool = False
    xid: int = field(default_factory=next_xid)

    def wire_size(self) -> int:
        return self.HEADER_BYTES + 64 + 8 * len(self.actions)


@dataclass
class FlowRemoved(Message):
    """Switch -> controller: an entry expired or was deleted."""

    datapath_id: int
    entry: FlowEntry
    reason: RemovedReason
    xid: int = field(default_factory=next_xid)

    def wire_size(self) -> int:
        return self.HEADER_BYTES + 80


@dataclass
class FlowStatsRequest(Message):
    """Controller -> switch: dump matching flow counters."""

    filter_match: Match = field(default_factory=Match.any)
    xid: int = field(default_factory=next_xid)

    def wire_size(self) -> int:
        return self.HEADER_BYTES + 44


@dataclass
class FlowStatsEntry:
    """One row of a flow-stats reply."""

    match: Match
    priority: int
    packets: int
    bytes: int
    duration: float
    cookie: int


@dataclass
class FlowStatsReply(Message):
    """Switch -> controller: flow counters.

    Carries an OFPST_TABLE-style :class:`TableStats` snapshot alongside
    the per-flow rows, so lookup hit and miss counts reach experiment
    reports through the same stats plumbing.
    """

    datapath_id: int
    entries: list[FlowStatsEntry]
    table_stats: Optional[TableStats] = None
    xid: int = 0

    def wire_size(self) -> int:
        # 24 bytes approximates the ofp_table_stats row when present.
        return self.HEADER_BYTES + 88 * len(self.entries) + (
            24 if self.table_stats is not None else 0
        )


@dataclass
class PortStatsRequest(Message):
    """Controller -> switch: dump port counters."""

    port_no: Optional[int] = None  # None = all ports
    xid: int = field(default_factory=next_xid)

    def wire_size(self) -> int:
        return self.HEADER_BYTES + 8


@dataclass
class PortStatsEntry:
    """One row of a port-stats reply."""

    port_no: int
    rx_packets: int
    tx_packets: int
    rx_bytes: int = 0
    tx_bytes: int = 0
    tx_dropped: int = 0


@dataclass
class PortStatsReply(Message):
    """Switch -> controller: port counters."""

    datapath_id: int
    entries: list[PortStatsEntry]
    xid: int = 0

    def wire_size(self) -> int:
        return self.HEADER_BYTES + 104 * len(self.entries)


@dataclass
class EchoRequest(Message):
    """Liveness probe."""

    xid: int = field(default_factory=next_xid)


@dataclass
class EchoReply(Message):
    """Liveness response."""

    xid: int = 0


@dataclass
class BarrierRequest(Message):
    """Ask the switch to finish all preceding messages first."""

    xid: int = field(default_factory=next_xid)


@dataclass
class BarrierReply(Message):
    """All messages before the barrier have been processed."""

    xid: int = 0


@dataclass
class FeaturesRequest(Message):
    """Controller -> switch: describe yourself (datapath id, ports)."""

    xid: int = field(default_factory=next_xid)


@dataclass
class FeaturesReply(Message):
    """Switch -> controller: datapath id and physical port numbers."""

    datapath_id: int
    ports: list[int] = field(default_factory=list)
    xid: int = 0

    def wire_size(self) -> int:
        return self.HEADER_BYTES + 24 + 48 * len(self.ports)

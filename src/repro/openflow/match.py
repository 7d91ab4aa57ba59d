"""The OpenFlow 1.0 twelve-tuple match (minus VLAN fields).

``None`` in a field means wildcard.  IP fields accept either an exact
address (``"10.0.0.5"``) or a CIDR prefix (``"10.0.0.0/24"``), which is
how the SPI coordinator scopes a mirror rule to a victim aggregate.

IP constraints are compiled to (network-int, mask) pairs once at
``Match`` construction; the per-packet check is then two integer ANDs
against the :class:`~repro.net.flowkey.FlowKey` the switch extracted at
ingress, never a string parse.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.net.addresses import parse_cidr
from repro.net.flowkey import FlowKey
from repro.net.packet import Packet

# Field names the dataclass machinery reports for specificity/subsumes;
# compiled prefix attributes are deliberately not dataclass fields.
_IP_FIELDS = ("ip_src", "ip_dst")


@dataclass(frozen=True)
class Match:
    """A flow-table match; all fields optional (``None`` = wildcard)."""

    in_port: Optional[int] = None
    eth_src: Optional[str] = None
    eth_dst: Optional[str] = None
    eth_type: Optional[int] = None
    ip_src: Optional[str] = None
    ip_dst: Optional[str] = None
    ip_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None

    def __post_init__(self) -> None:
        # Precompile the IP constraints (frozen dataclass: go around the
        # immutability guard).  A Match is built once and consulted per
        # packet, so all string parsing happens here.
        src = parse_cidr(self.ip_src) if self.ip_src is not None else None
        dst = parse_cidr(self.ip_dst) if self.ip_dst is not None else None
        object.__setattr__(self, "_src_prefix", src)
        object.__setattr__(self, "_dst_prefix", dst)

    @classmethod
    def any(cls) -> "Match":
        """The all-wildcard match (table-miss rules)."""
        return cls()

    def specificity(self) -> int:
        """Number of constrained fields; used for human-readable dumps."""
        return sum(1 for f in fields(self) if getattr(self, f.name) is not None)

    def matches_key(self, key: FlowKey) -> bool:
        """True if the flow identified by ``key`` satisfies the match.

        This is the canonical matching path: the switch extracts one
        :class:`FlowKey` per ingress packet and every rule in the linear
        scan tests against it.
        """
        if self.in_port is not None and key.in_port != self.in_port:
            return False
        if self.eth_src is not None and key.eth_src != self.eth_src:
            return False
        if self.eth_dst is not None and key.eth_dst != self.eth_dst:
            return False
        if self.eth_type is not None and key.eth_type != self.eth_type:
            return False
        src_prefix = self._src_prefix
        dst_prefix = self._dst_prefix
        if src_prefix is not None or dst_prefix is not None or self.ip_proto is not None:
            if key.ip_src_int is None:
                return False
            if src_prefix is not None and key.ip_src_int & src_prefix[1] != src_prefix[0]:
                return False
            if dst_prefix is not None and key.ip_dst_int & dst_prefix[1] != dst_prefix[0]:
                return False
            if self.ip_proto is not None and key.ip_proto != self.ip_proto:
                return False
        if self.tp_src is not None or self.tp_dst is not None:
            if key.tp_src is None:
                return False
            if self.tp_src is not None and key.tp_src != self.tp_src:
                return False
            if self.tp_dst is not None and key.tp_dst != self.tp_dst:
                return False
        return True

    def matches(self, packet: Packet, in_port: int) -> bool:
        """True if ``packet`` arriving on ``in_port`` satisfies the match."""
        return self.matches_key(FlowKey.from_packet(packet, in_port))

    def subsumes(self, other: "Match") -> bool:
        """True if every packet matching ``other`` also matches ``self``.

        Used for OFPFC_DELETE with a filter match, as OVS implements it.
        """
        for f in fields(self):
            mine = getattr(self, f.name)
            if mine is None:
                continue
            theirs = getattr(other, f.name)
            if theirs is None:
                return False
            if f.name in _IP_FIELDS:
                if not _prefix_subsumes(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    def describe(self) -> str:
        """Compact textual form for traces and table dumps."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                parts.append(f"{f.name}={value}")
        return ",".join(parts) if parts else "*"


def _prefix_subsumes(mine: str, theirs: str) -> bool:
    """Does my (possibly CIDR) field cover their (possibly CIDR) field?"""
    mine_net, mine_mask = parse_cidr(mine)
    theirs_net, theirs_mask = parse_cidr(theirs)
    # Prefix masks: theirs is at least as long iff it is numerically >= mine.
    return theirs_mask >= mine_mask and theirs_net & mine_mask == mine_net

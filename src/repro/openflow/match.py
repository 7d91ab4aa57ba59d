"""The OpenFlow 1.0 twelve-tuple match (minus VLAN fields).

``None`` in a field means wildcard.  IP fields accept either an exact
address (``"10.0.0.5"`` or ``"10.0.0.5/32"``) or a CIDR prefix
(``"10.0.0.0/24"``), which is how the SPI coordinator scopes a mirror
rule to a victim aggregate.

Each IP field is compiled once, at construction, and stored in the
canonical text of :func:`~repro.net.addresses.canonical_cidr`, so two
spellings of one rule compare equal.  An exact address is
then compared as a string against the packet's own (canonical) address;
only a true prefix converts the packet's address to an integer, for two
ANDs.  :meth:`Match.matches` reads the packet's headers directly: the
packet is the flow key.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.net.addresses import canonical_cidr, ip_to_int, parse_cidr
from repro.net.packet import Packet

# Field names whose values are (possibly CIDR) address text.
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
        # A Match is built once and consulted per packet, so all address
        # parsing happens here (frozen dataclass: go around the guard).
        # ``_ip_src_prefix`` is (network, mask) for a true prefix and None
        # for one address, which is matched by its canonical text alone.
        for name in _IP_FIELDS:
            text = getattr(self, name)
            prefix = None
            if text is not None:
                text = canonical_cidr(text)
                if "/" in text:
                    prefix = parse_cidr(text)
                object.__setattr__(self, name, text)
            object.__setattr__(self, f"_{name}_prefix", prefix)

    @classmethod
    def any(cls) -> "Match":
        """The all-wildcard match (table-miss rules)."""
        return cls()

    def matches(self, packet: Packet, in_port: int) -> bool:
        """True if ``packet`` arriving on ``in_port`` satisfies the match.

        The one matching path: every rule in the flow table's linear scan
        tests the ingress packet's headers here.
        """
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.eth_src is not None and packet.eth.src_mac != self.eth_src:
            return False
        if self.eth_dst is not None and packet.eth.dst_mac != self.eth_dst:
            return False
        if self.eth_type is not None and packet.eth.ethertype != self.eth_type:
            return False
        ip = packet.ip
        if ip is None:
            return (self.ip_src is None and self.ip_dst is None and self.ip_proto is None
                    and self.tp_src is None and self.tp_dst is None)
        if self.ip_src is not None:
            prefix = self._ip_src_prefix
            if prefix is None:
                if ip.src_ip != self.ip_src:
                    return False
            elif ip_to_int(ip.src_ip) & prefix[1] != prefix[0]:
                return False
        if self.ip_dst is not None:
            prefix = self._ip_dst_prefix
            if prefix is None:
                if ip.dst_ip != self.ip_dst:
                    return False
            elif ip_to_int(ip.dst_ip) & prefix[1] != prefix[0]:
                return False
        if self.ip_proto is not None and ip.protocol != self.ip_proto:
            return False
        if self.tp_src is not None or self.tp_dst is not None:
            l4 = packet.tcp or packet.udp
            if l4 is None:
                return False
            if self.tp_src is not None and l4.src_port != self.tp_src:
                return False
            if self.tp_dst is not None and l4.dst_port != self.tp_dst:
                return False
        return True

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

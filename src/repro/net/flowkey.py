"""The canonical flow key: one header extraction per ingress packet.

Every layer of the datapath — flow-table matching, monitor feature
extraction, DPI handshake tracking — needs the same
handful of header fields (in_port + Ethernet + 5-tuple).  Before this
module each layer re-derived them from the packet independently; now the
switch extracts a :class:`FlowKey` once at ingress and threads it
through taps, lookup and counters, exactly as Open vSwitch computes its
``struct flow`` once in ``flow_extract()`` and keys every cache level
off it.

``FlowKey`` is frozen and hashable.  The IP addresses are carried both
as canonical dotted-quad strings (what matches and reports display) and
as 32-bit integers (what prefix matching needs), so CIDR checks never
re-parse address strings per packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.net.addresses import ip_to_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (packet imports us)
    from repro.net.packet import Packet

_new_key = tuple.__new__


class FlowKey(NamedTuple):
    """Exact-match header fields of one packet arriving on one port.

    ``None`` marks an absent layer (non-IP frame, no L4 ports); derived
    integer addresses are ``None`` exactly when their string form is.
    A named tuple rather than a dataclass: keys are built and hashed on
    every datapath lookup, and tuple construction/hashing run in C.
    """

    in_port: int
    eth_src: str
    eth_dst: str
    eth_type: int
    ip_src: Optional[str] = None
    ip_dst: Optional[str] = None
    ip_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None
    ip_src_int: Optional[int] = None
    ip_dst_int: Optional[int] = None

    @classmethod
    def from_packet(cls, packet: "Packet", in_port: int = 0) -> "FlowKey":
        """Extract the key from structured headers (the single parse point).

        Called once per ingress hop; nothing is cached on the packet.
        """
        eth = packet.eth
        ip = packet.ip
        # Positional ``tuple.__new__`` in field order: the generated
        # keyword ``__new__`` is a Python frame per key.
        if ip is None:
            return _new_key(cls, (
                in_port, eth.src_mac, eth.dst_mac, eth.ethertype,
                None, None, None, None, None, None, None,
            ))
        l4 = packet.tcp or packet.udp
        src_ip = ip.src_ip
        dst_ip = ip.dst_ip
        return _new_key(cls, (
            in_port, eth.src_mac, eth.dst_mac, eth.ethertype,
            src_ip, dst_ip, ip.protocol,
            None if l4 is None else l4.src_port,
            None if l4 is None else l4.dst_port,
            ip_to_int(src_ip), ip_to_int(dst_ip),
        ))

    def conn_key(self) -> tuple[str, int, int]:
        """(src_ip, src_port, dst_port): the DPI half-open connection key."""
        return (self.ip_src or self.eth_src, self.tp_src or 0, self.tp_dst or 0)

    def describe(self) -> str:
        """Compact textual form for traces."""
        if self.ip_src is None:
            return f"port{self.in_port} {self.eth_src}->{self.eth_dst}"
        return (
            f"port{self.in_port} {self.ip_src}:{self.tp_src or 0}->"
            f"{self.ip_dst}:{self.tp_dst or 0} proto={self.ip_proto}"
        )

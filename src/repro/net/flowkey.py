"""The canonical flow key: one header extraction per ingress packet.

Every layer of the datapath — flow-table matching, microflow caching,
monitor feature extraction, DPI handshake tracking — needs the same
handful of header fields (in_port + Ethernet + 5-tuple).  Before this
module each layer re-derived them from the packet independently; now the
switch extracts a :class:`FlowKey` once at ingress and threads it
through taps, lookup and counters, exactly as Open vSwitch computes its
``struct flow`` once in ``flow_extract()`` and keys every cache level
off it.

``FlowKey`` is frozen and hashable, so it doubles as the exact-match key
of the flow table's microflow cache.  The IP addresses are carried both
as canonical dotted-quad strings (what matches and reports display) and
as 32-bit integers (what prefix matching needs), so CIDR checks never
re-parse address strings per packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.net.addresses import ip_to_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (packet imports us)
    from repro.net.packet import Packet


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

        The result is memoized on the packet (invalidated on any header
        reassignment), so re-extracting the key for the same hop — switch
        ingress, then mirror, then DPI — costs one attribute probe.
        """
        memo = packet._fkobj
        if memo is not None and memo[0] == in_port:
            return memo[1]
        eth = packet.eth
        ip = packet.ip
        if ip is None:
            key = cls(
                in_port=in_port,
                eth_src=eth.src_mac,
                eth_dst=eth.dst_mac,
                eth_type=eth.ethertype,
            )
            object.__setattr__(packet, "_fkobj", (in_port, key))
            return key
        tp_src: Optional[int] = None
        tp_dst: Optional[int] = None
        if packet.tcp is not None:
            tp_src = packet.tcp.src_port
            tp_dst = packet.tcp.dst_port
        elif packet.udp is not None:
            tp_src = packet.udp.src_port
            tp_dst = packet.udp.dst_port
        key = cls(
            in_port=in_port,
            eth_src=eth.src_mac,
            eth_dst=eth.dst_mac,
            eth_type=eth.ethertype,
            ip_src=ip.src_ip,
            ip_dst=ip.dst_ip,
            ip_proto=ip.protocol,
            tp_src=tp_src,
            tp_dst=tp_dst,
            ip_src_int=ip_to_int(ip.src_ip),
            ip_dst_int=ip_to_int(ip.dst_ip),
        )
        object.__setattr__(packet, "_fkobj", (in_port, key))
        return key

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

"""The packet container that flows through links, switches and hosts.

A :class:`Packet` carries the structured headers (for flow-table matching
and DPI inside the simulated network) *and* can serialize itself to wire
bytes.  ``parse_packet`` is the inverse, and ``parse_packet(p.to_bytes())
== p`` for every constructor, so readers of the headers read the packet
itself; only the shard codec packs and parses, between processes.

``Packet.to_bytes()`` is the only code that produces wire bytes.  Flood
generators build their packets through a :class:`FloodTemplate` (one frame
shape per flood flow, stamped per packet with the spoofed source and L4
header), which assembles fields only: bytes are made when somebody reads
them.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Optional

from repro.net.headers import (
    ETHERTYPE_IPV4,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    HeaderError,
    IcmpHeader,
    IPv4Header,
    TcpHeader,
    UdpHeader,
)

_new = tuple.__new__  # built positionally: every field, in order

_TCP_TOTAL = IPv4Header.LENGTH + TcpHeader.LENGTH
_UDP_TOTAL = IPv4Header.LENGTH + UdpHeader.LENGTH
_ICMP_TOTAL = IPv4Header.LENGTH + IcmpHeader.LENGTH


def _frame_size(ip, tcp, udp, icmp, payload: bytes) -> int:
    """Bytes ``to_bytes()`` produces for these fields (no IPv4 options)."""
    size = EthernetHeader.LENGTH + len(payload)
    if ip is not None:
        size += IPv4Header.LENGTH
        if tcp is not None:
            size += TcpHeader.LENGTH
        elif udp is not None:
            size += UdpHeader.LENGTH
        elif icmp is not None:
            size += IcmpHeader.LENGTH
    return size


class _PacketFields(NamedTuple):
    eth: EthernetHeader
    ip: Optional[IPv4Header]
    tcp: Optional[TcpHeader]
    udp: Optional[UdpHeader]
    icmp: Optional[IcmpHeader]
    payload: bytes
    size_bytes: int


class Packet(_PacketFields):
    """A frame in flight: Ethernet + optional IPv4 + optional L4 header.

    An immutable value, like the headers it holds: a frame is never
    edited in flight, so switches forward, flood and mirror the same
    object, and assigning a field raises ``AttributeError``.
    ``size_bytes`` (the wire size every link reads) is computed once,
    when the frame is built; ``Packet(...)``, ``_replace`` and ``_make``
    all derive it from the other fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        eth: EthernetHeader,
        ip: Optional[IPv4Header] = None,
        tcp: Optional[TcpHeader] = None,
        udp: Optional[UdpHeader] = None,
        icmp: Optional[IcmpHeader] = None,
        payload: bytes = b"",
    ) -> "Packet":
        return _new(cls, (eth, ip, tcp, udp, icmp, payload,
                          _frame_size(ip, tcp, udp, icmp, payload)))

    def __getnewargs__(self) -> tuple:
        return self[:6]  # pickle rebuilds through __new__

    @classmethod
    def _make(cls, iterable) -> "Packet":
        """From the six fields before ``size_bytes``, which is derived."""
        return cls(*iterable)

    def _replace(self, **changes) -> "Packet":
        """A new packet with ``changes`` applied and its size recomputed."""
        return Packet(**dict(zip(self._fields[:6], self), **changes))

    @classmethod
    def tcp_packet(
        cls,
        src_mac: str,
        dst_mac: str,
        src_ip: str,
        dst_ip: str,
        tcp: TcpHeader,
        payload: bytes = b"",
        ttl: int = 64,
    ) -> "Packet":
        """Build a full Ethernet/IPv4/TCP packet with correct lengths."""
        total_length = _TCP_TOTAL + len(payload)
        return _new(cls, (
            _new(EthernetHeader, (src_mac, dst_mac, ETHERTYPE_IPV4)),
            _new(IPv4Header, (src_ip, dst_ip, PROTO_TCP, total_length, ttl, 0, 0)),
            tcp, None, None, payload, EthernetHeader.LENGTH + total_length,
        ))

    @classmethod
    def udp_packet(
        cls,
        src_mac: str,
        dst_mac: str,
        src_ip: str,
        dst_ip: str,
        udp: UdpHeader,
        payload: bytes = b"",
        ttl: int = 64,
    ) -> "Packet":
        """Build a full Ethernet/IPv4/UDP packet with correct lengths."""
        total_length = _UDP_TOTAL + len(payload)
        return _new(cls, (
            _new(EthernetHeader, (src_mac, dst_mac, ETHERTYPE_IPV4)),
            _new(IPv4Header, (src_ip, dst_ip, PROTO_UDP, total_length, ttl, 0, 0)),
            None, udp, None, payload, EthernetHeader.LENGTH + total_length,
        ))

    @classmethod
    def icmp_packet(
        cls,
        src_mac: str,
        dst_mac: str,
        src_ip: str,
        dst_ip: str,
        icmp: IcmpHeader,
        payload: bytes = b"",
        ttl: int = 64,
    ) -> "Packet":
        """Build a full Ethernet/IPv4/ICMP packet with correct lengths."""
        total_length = _ICMP_TOTAL + len(payload)
        return _new(cls, (
            _new(EthernetHeader, (src_mac, dst_mac, ETHERTYPE_IPV4)),
            _new(IPv4Header, (src_ip, dst_ip, PROTO_ICMP, total_length, ttl, 0, 0)),
            None, None, icmp, payload, EthernetHeader.LENGTH + total_length,
        ))

    @property
    def src_ip(self) -> str | None:
        """IPv4 source if present."""
        return self.ip.src_ip if self.ip is not None else None

    @property
    def dst_ip(self) -> str | None:
        """IPv4 destination if present."""
        return self.ip.dst_ip if self.ip is not None else None

    def to_bytes(self) -> bytes:
        """Serialize the whole frame to wire format."""
        parts = [self.eth.pack()]
        if self.ip is not None:
            parts.append(self.ip.pack())
            if self.tcp is not None:
                parts.append(self.tcp.pack(self.ip.src_ip, self.ip.dst_ip, self.payload))
            elif self.udp is not None:
                parts.append(self.udp.pack(self.ip.src_ip, self.ip.dst_ip, self.payload))
            elif self.icmp is not None:
                parts.append(self.icmp.pack(self.payload))
            else:
                parts.append(self.payload)
        else:
            parts.append(self.payload)
        return b"".join(parts)

    def describe(self) -> str:
        """One-line human-readable summary for traces."""
        if self.tcp is not None and self.ip is not None:
            return (
                f"TCP {self.ip.src_ip}:{self.tcp.src_port} -> "
                f"{self.ip.dst_ip}:{self.tcp.dst_port} [{self.tcp.flag_names()}]"
            )
        if self.udp is not None and self.ip is not None:
            return f"UDP {self.ip.src_ip}:{self.udp.src_port} -> {self.ip.dst_ip}:{self.udp.dst_port}"
        if self.icmp is not None and self.ip is not None:
            return f"ICMP type={self.icmp.icmp_type} {self.ip.src_ip} -> {self.ip.dst_ip}"
        return f"ETH {self.eth.src_mac} -> {self.eth.dst_mac} type=0x{self.eth.ethertype:04x}"


class FloodTemplate:
    """One immutable flood shape (MACs, victim, protocol, payload).

    ``stamp()`` builds a packet from the shared Ethernet header and
    payload plus what varies per packet — spoofed source and the L4
    header — with the size fixed by the template.  No bytes are made:
    a flood frame is serialized by ``to_bytes()`` only when the shard
    codec carries it to another process, and never in a one-process run.
    """

    __slots__ = ("dst_ip", "dst_port", "protocol", "_is_udp",
                 "_total_length", "_size_bytes", "_eth", "_payload")

    def __init__(
        self, src_mac: str, dst_mac: str, dst_ip: str, dst_port: int,
        protocol: int, payload: bytes = b"",
    ) -> None:
        if protocol == PROTO_TCP:
            self._is_udp, total = False, _TCP_TOTAL
        elif protocol == PROTO_UDP:
            self._is_udp, total = True, _UDP_TOTAL
        else:
            raise ValueError(f"flood templates are TCP or UDP, got protocol {protocol}")
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.protocol = protocol
        self._total_length = total + len(payload)
        self._size_bytes = EthernetHeader.LENGTH + self._total_length
        self._eth = _new(EthernetHeader, (src_mac, dst_mac, ETHERTYPE_IPV4))
        self._payload = payload

    def stamp(self, src_ip: str, l4_header: TcpHeader | UdpHeader) -> Packet:
        """A finished packet, equal to what ``tcp_packet``/``udp_packet`` build.

        ``l4_header.dst_port`` must be the template's ``dst_port``.
        """
        ip = _new(IPv4Header, (
            src_ip, self.dst_ip, self.protocol, self._total_length, 64, 0, 0,
        ))
        if self._is_udp:
            return _new(Packet, (self._eth, ip, None, l4_header, None,
                                 self._payload, self._size_bytes))
        return _new(Packet, (self._eth, ip, l4_header, None, None,
                             self._payload, self._size_bytes))


def parse_packet(raw: bytes, verify: bool = True) -> Packet:
    """Parse wire bytes back into a :class:`Packet`.

    The shard codec's entry point: a frame crossing to another process
    travels as bytes and is rebuilt here.  The IPv4 header checksum is
    always verified; ``verify=False`` skips only the TCP/UDP/ICMP
    checksums.  IPv4 options are skipped and dropped.
    """
    eth, rest = EthernetHeader.unpack(raw)
    if eth.ethertype != ETHERTYPE_IPV4:
        return Packet(eth, payload=rest)
    ip, l4 = IPv4Header.unpack(rest)
    protocol = ip.protocol
    _check_l4_length(protocol, l4)
    tcp = udp = icmp = None
    try:
        if protocol == PROTO_TCP:
            tcp, payload = TcpHeader.unpack(l4, ip.src_ip, ip.dst_ip, verify=verify)
        elif protocol == PROTO_UDP:
            udp, payload = UdpHeader.unpack(l4, ip.src_ip, ip.dst_ip, verify=verify)
        elif protocol == PROTO_ICMP:
            icmp, payload = IcmpHeader.unpack(l4, verify=verify)
        else:
            payload = l4
    except HeaderError:
        raise
    except (struct.error, IndexError, ValueError) as exc:
        # Bytes can arrive mangled in arbitrary ways; a caller must see
        # a HeaderError, never a codec-internal error.
        raise HeaderError(f"malformed L4 bytes (proto={protocol}): {exc}") from exc
    return Packet(eth, ip, tcp, udp, icmp, payload)


_L4_HEADER_LENGTHS = {
    PROTO_TCP: ("TCP", TcpHeader.LENGTH),
    PROTO_UDP: ("UDP", UdpHeader.LENGTH),
    PROTO_ICMP: ("ICMP", IcmpHeader.LENGTH),
}


def _check_l4_length(protocol: int, l4: bytes) -> None:
    """Reject truncated L4 bytes with a clear, uniform HeaderError."""
    spec = _L4_HEADER_LENGTHS.get(protocol)
    if spec is None:
        return
    name, length = spec
    if len(l4) < length:
        raise HeaderError(
            f"truncated {name} segment: {len(l4)} bytes < {length}-byte header"
        )

"""The packet container that flows through links, switches and hosts.

A :class:`Packet` carries the structured headers (for efficient flow-table
matching inside the simulated OVS) *and* can serialize itself to wire bytes
(for the DPI path).  ``parse_packet`` is the inverse, used by the inspector
to prove the bytes genuinely round-trip.

``Packet.to_bytes()`` is the only code that produces wire bytes.  Flood
generators build their packets through a :class:`FloodTemplate` (one frame
shape per flood flow, stamped per packet with the spoofed source and L4
header), which assembles fields only: bytes are made when somebody reads
them.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Optional

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

_packet_ids = itertools.count(1)

_new = tuple.__new__  # headers are built positionally: every field, in order

# Fields whose mutation changes the wire image / flow identity; assigning
# any of them drops the serialization, size and flow-key memos.
_WIRE_FIELDS = frozenset({"eth", "ip", "tcp", "udp", "icmp", "payload"})


@dataclass(init=False, slots=True)
class Packet:
    """A frame in flight: Ethernet + optional IPv4 + optional L4 header.

    The frame memoizes its wire serialization, size and
    :class:`~repro.net.flowkey.FlowKey`; the memos are dropped
    automatically when a header or the payload is reassigned, so mirror
    copies, pcap export and the DPI re-parse share one serialization
    without ever observing stale bytes.  Fields live in slots, so a
    packet carries no per-instance ``__dict__``.
    """

    eth: EthernetHeader
    ip: Optional[IPv4Header] = None
    tcp: Optional[TcpHeader] = None
    udp: Optional[UdpHeader] = None
    icmp: Optional[IcmpHeader] = None
    payload: bytes = b""
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    created_at: float = 0.0
    _wire: Optional[bytes] = field(default=None, repr=False, compare=False)
    # (in_port, FlowKey) pair memoized by FlowKey.from_packet.
    _fkobj: Optional[tuple] = field(default=None, repr=False, compare=False)
    _size: Optional[int] = field(default=None, repr=False, compare=False)

    # Hand-written so construction writes the slots through
    # ``object.__setattr__``: routing every dataclass-generated assignment
    # through the memo-invalidating __setattr__ below costs ~2x on the
    # per-packet hot path.  Every slot is written, memos included: an
    # unwritten slot raises on read.
    def __init__(
        self,
        eth: EthernetHeader,
        ip: Optional[IPv4Header] = None,
        tcp: Optional[TcpHeader] = None,
        udp: Optional[UdpHeader] = None,
        icmp: Optional[IcmpHeader] = None,
        payload: bytes = b"",
        packet_id: Optional[int] = None,
        created_at: float = 0.0,
    ) -> None:
        set_ = object.__setattr__
        set_(self, "eth", eth)
        set_(self, "ip", ip)
        set_(self, "tcp", tcp)
        set_(self, "udp", udp)
        set_(self, "icmp", icmp)
        set_(self, "payload", payload)
        set_(self, "packet_id", next(_packet_ids) if packet_id is None else packet_id)
        set_(self, "created_at", created_at)
        set_(self, "_wire", None)
        set_(self, "_fkobj", None)
        set_(self, "_size", None)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in _WIRE_FIELDS:
            object.__setattr__(self, "_wire", None)
            object.__setattr__(self, "_fkobj", None)
            object.__setattr__(self, "_size", None)

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
        created_at: float = 0.0,
    ) -> "Packet":
        """Build a full Ethernet/IPv4/TCP packet with correct lengths."""
        total_length = IPv4Header.LENGTH + TcpHeader.LENGTH + len(payload)
        ip = _new(IPv4Header, (src_ip, dst_ip, PROTO_TCP, total_length, ttl, 0, 0))
        eth = _new(EthernetHeader, (src_mac, dst_mac, ETHERTYPE_IPV4))
        return cls(eth=eth, ip=ip, tcp=tcp, payload=payload, created_at=created_at)

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
        created_at: float = 0.0,
    ) -> "Packet":
        """Build a full Ethernet/IPv4/UDP packet with correct lengths."""
        total_length = IPv4Header.LENGTH + UdpHeader.LENGTH + len(payload)
        ip = _new(IPv4Header, (src_ip, dst_ip, PROTO_UDP, total_length, ttl, 0, 0))
        eth = _new(EthernetHeader, (src_mac, dst_mac, ETHERTYPE_IPV4))
        return cls(eth=eth, ip=ip, udp=udp, payload=payload, created_at=created_at)

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
        created_at: float = 0.0,
    ) -> "Packet":
        """Build a full Ethernet/IPv4/ICMP packet with correct lengths."""
        total_length = IPv4Header.LENGTH + IcmpHeader.LENGTH + len(payload)
        ip = _new(IPv4Header, (src_ip, dst_ip, PROTO_ICMP, total_length, ttl, 0, 0))
        eth = _new(EthernetHeader, (src_mac, dst_mac, ETHERTYPE_IPV4))
        return cls(eth=eth, ip=ip, icmp=icmp, payload=payload, created_at=created_at)

    @property
    def size_bytes(self) -> int:
        """Frame size on the wire, used for link transmission timing (memoized)."""
        size = self._size
        if size is not None:
            return size
        size = EthernetHeader.LENGTH
        if self.ip is not None:
            size += IPv4Header.LENGTH
        if self.tcp is not None:
            size += TcpHeader.LENGTH
        elif self.udp is not None:
            size += UdpHeader.LENGTH
        elif self.icmp is not None:
            size += IcmpHeader.LENGTH
        size += len(self.payload)
        object.__setattr__(self, "_size", size)
        return size

    @property
    def src_ip(self) -> str | None:
        """IPv4 source if present."""
        return self.ip.src_ip if self.ip is not None else None

    @property
    def dst_ip(self) -> str | None:
        """IPv4 destination if present."""
        return self.ip.dst_ip if self.ip is not None else None

    def copy(self) -> "Packet":
        """Shallow per-header copy with a fresh packet id (for mirroring).

        Headers and payload are immutable, so the copy inherits the
        serialization memo: mirroring then exporting/inspecting a frame
        packs its bytes once, not once per consumer.
        """
        clone = object.__new__(_Unguarded)
        clone.eth = self.eth
        clone.ip = self.ip
        clone.tcp = self.tcp
        clone.udp = self.udp
        clone.icmp = self.icmp
        clone.payload = self.payload
        clone.packet_id = next(_packet_ids)
        clone.created_at = self.created_at
        clone._wire = self._wire
        clone._fkobj = self._fkobj
        clone._size = self._size
        clone.__class__ = Packet
        return clone

    def to_bytes(self) -> bytes:
        """Serialize the whole frame to wire format (memoized).

        The packed frame is cached until a header or the payload is
        reassigned, so mirror/pcap/DPI touches of the same frame share
        one serialization.
        """
        cached = self._wire
        if cached is not None:
            return cached
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
        raw = b"".join(parts)
        object.__setattr__(self, "_wire", raw)
        return raw

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


class _Unguarded:
    """``Packet``'s slot layout without its memo-dropping ``__setattr__``.

    ``copy`` and ``stamp`` fill every slot of one with plain attribute
    stores, then retype it to ``Packet`` (``__class__`` assignment is
    allowed because the layouts are identical): about a quarter of the
    cost of writing the slots through ``object.__setattr__``, and these
    two run once per forwarded or flood frame.
    """

    __slots__ = Packet.__slots__


class FloodTemplate:
    """One immutable flood shape (MACs, victim, protocol, payload).

    ``stamp()`` builds a packet from the shared Ethernet header and
    payload plus what varies per packet — spoofed source and the L4
    header.  ``_size`` is warm at birth because every link reads it;
    ``_wire`` is left unset, so a flood frame is serialized by
    ``to_bytes()`` the first time DPI, pcap or the shard codec reads it,
    and never if nobody does (most of a flood is forwarded or dropped
    unread).
    """

    __slots__ = ("dst_ip", "dst_port", "protocol", "_is_udp",
                 "_total_length", "_size", "_eth", "_payload")

    def __init__(
        self, src_mac: str, dst_mac: str, dst_ip: str, dst_port: int,
        protocol: int, payload: bytes = b"",
    ) -> None:
        if protocol == PROTO_TCP:
            self._is_udp, l4_length = False, TcpHeader.LENGTH
        elif protocol == PROTO_UDP:
            self._is_udp, l4_length = True, UdpHeader.LENGTH
        else:
            raise ValueError(f"flood templates are TCP or UDP, got protocol {protocol}")
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.protocol = protocol
        self._total_length = IPv4Header.LENGTH + l4_length + len(payload)
        self._size = EthernetHeader.LENGTH + self._total_length
        self._eth = _new(EthernetHeader, (src_mac, dst_mac, ETHERTYPE_IPV4))
        self._payload = payload

    def stamp(self, src_ip: str, l4_header: TcpHeader | UdpHeader, created_at: float) -> Packet:
        """A finished packet, field-identical to ``tcp_packet``/``udp_packet``.

        ``l4_header.dst_port`` must be the template's ``dst_port``.
        """
        packet = object.__new__(_Unguarded)
        packet.eth = self._eth
        packet.ip = _new(IPv4Header, (
            src_ip, self.dst_ip, self.protocol, self._total_length, 64, 0, 0,
        ))
        if self._is_udp:
            packet.tcp, packet.udp = None, l4_header
        else:
            packet.tcp, packet.udp = l4_header, None
        packet.icmp = None
        packet.payload = self._payload
        packet.packet_id = next(_packet_ids)
        packet.created_at = created_at
        packet._wire = None
        packet._fkobj = None
        packet._size = self._size
        packet.__class__ = Packet
        return packet


def parse_packet(raw: bytes, verify: bool = True) -> Packet:
    """Parse wire bytes back into a :class:`Packet`.

    This is the DPI entry point: the inspector receives mirrored frames as
    bytes and reconstructs the header stack.  The IPv4 header checksum is
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
        # Mirrored frames can arrive mangled in arbitrary ways; the DPI
        # engine must see a HeaderError, never a codec-internal error.
        raise HeaderError(f"malformed L4 bytes (proto={protocol}): {exc}") from exc
    # Built once with every header: no memo to invalidate on a fresh frame.
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

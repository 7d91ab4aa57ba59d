"""Wire-format protocol headers: Ethernet, IPv4, TCP, UDP, ICMP.

Each header is an immutable named tuple with ``pack()`` / ``unpack()``
that round-trip through genuine network byte order, including the Internet
checksum for IPv4/TCP/UDP/ICMP.  The round trip is the identity, so the
DPI engine in ``repro.inspection`` reads these values as a SPAN-port
monitor reads the fields off the wire; the shard codec packs them.

Named tuples, like the :class:`~repro.net.packet.Packet` that holds them,
because every simulated frame is built from them: hot paths build them in
C with ``tuple.__new__(Header, (...))`` (every field, in declaration
order), not the generated keyword ``__new__``.
"""

from __future__ import annotations

import struct
import sys
from socket import inet_ntoa
from typing import NamedTuple

from repro.net.addresses import bytes_to_mac, ip_to_int, mac_to_bytes

ETHERTYPE_IPV4 = 0x0800

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

_new = tuple.__new__


class HeaderError(ValueError):
    """Raised when bytes cannot be parsed as the expected header."""


_NATIVE_IS_LITTLE = sys.byteorder == "little"


def internet_checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum over ``data`` (odd lengths zero-padded).

    The 16-bit words are summed in native byte order at C speed
    (``memoryview.cast`` + ``sum``); the ones-complement sum commutes
    with byte order, so folding and then byte-swapping the result yields
    exactly the big-endian checksum of the word-at-a-time reference.
    Two folds suffice for any frame shorter than 128 KiB.
    """
    if len(data) % 2:
        data += b"\x00"
    total = sum(memoryview(data).cast("H"))
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    if _NATIVE_IS_LITTLE:
        total = ((total & 0xFF) << 8) | (total >> 8)
    return (~total) & 0xFFFF


#: destination MAC, source MAC, ethertype.
_ETH = struct.Struct("!6s6sH")


class EthernetHeader(NamedTuple):
    """Ethernet II frame header (no VLAN tag)."""

    src_mac: str
    dst_mac: str
    ethertype: int = ETHERTYPE_IPV4

    LENGTH = 14

    def pack(self) -> bytes:
        """Serialize to 14 bytes of wire format."""
        return _ETH.pack(mac_to_bytes(self.dst_mac), mac_to_bytes(self.src_mac), self.ethertype)

    @classmethod
    def unpack(cls, raw: bytes) -> tuple["EthernetHeader", bytes]:
        """Parse a frame; returns the header and the remaining payload."""
        if len(raw) < cls.LENGTH:
            raise HeaderError(f"Ethernet frame too short: {len(raw)} bytes")
        dst, src, ethertype = _ETH.unpack_from(raw)
        return _new(cls, (bytes_to_mac(src), bytes_to_mac(dst), ethertype)), raw[14:]


#: version/IHL, TOS, total length, id, flags+fragment, TTL, protocol,
#: checksum, then both addresses: as 32-bit integers to pack (the
#: checksum sums them, and the strict ``ip_to_int`` yields them), as raw
#: 4-byte fields to parse (``inet_ntoa`` formats them in C).
_IPV4_OUT = struct.Struct("!BBHHHBBHII")
_IPV4_IN = struct.Struct("!BBHHHBBH4s4s")


class IPv4Header(NamedTuple):
    """IPv4 header.

    ``pack`` writes no options (IHL 5); ``unpack`` accepts any IHL and
    drops the options it skips, so the header it returns re-packs to the
    20-byte form.
    """

    src_ip: str
    dst_ip: str
    protocol: int
    total_length: int = 20
    ttl: int = 64
    identification: int = 0
    dscp: int = 0

    LENGTH = 20

    def pack(self) -> bytes:
        """Serialize to 20 bytes; the checksum is summed from the fields
        (flags, fragment offset and ECN are zero), so it packs once."""
        src = ip_to_int(self.src_ip)
        dst = ip_to_int(self.dst_ip)
        tos = self.dscp << 2
        total = (
            (0x4500 | tos) + self.total_length + self.identification
            + ((self.ttl << 8) | self.protocol)
            + (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
        )
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        return _IPV4_OUT.pack(
            0x45, tos, self.total_length, self.identification, 0,
            self.ttl, self.protocol, ~total & 0xFFFF, src, dst,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> tuple["IPv4Header", bytes]:
        """Parse and checksum-verify; returns the header and the L4 bytes.

        The L4 bytes start after ``4 * IHL`` (options are skipped and not
        kept) and end at ``total_length``, so link-layer padding is cut.
        """
        if len(raw) < cls.LENGTH:
            raise HeaderError(f"IPv4 header too short: {len(raw)} bytes")
        (version_ihl, tos, total_length, identification, _flags_frag,
         ttl, protocol, _checksum, src, dst) = _IPV4_IN.unpack_from(raw)
        if version_ihl >> 4 != 4:
            raise HeaderError(f"not IPv4 (version={version_ihl >> 4})")
        header_length = (version_ihl & 0x0F) * 4
        if header_length < cls.LENGTH:
            raise HeaderError(f"bad IPv4 IHL {header_length // 4} (minimum is 5)")
        if len(raw) < header_length:
            raise HeaderError(f"IPv4 header too short: {len(raw)} bytes < {header_length}")
        if total_length < header_length:
            raise HeaderError(f"IPv4 total length {total_length} < IHL {header_length // 4}")
        if internet_checksum(raw[:header_length]) != 0:
            raise HeaderError("IPv4 header checksum mismatch")
        header = _new(cls, (
            inet_ntoa(src), inet_ntoa(dst), protocol, total_length, ttl,
            identification, tos >> 2,
        ))
        return header, raw[header_length:total_length]

    def decrement_ttl(self) -> "IPv4Header":
        """New header with TTL reduced by one (router forwarding)."""
        if self.ttl <= 0:
            raise HeaderError("TTL already zero")
        return self._replace(ttl=self.ttl - 1)


#: source, destination, zero, protocol, L4 length.
_PSEUDO = struct.Struct("!IIxBH")


def _pseudo_header(src_ip: str, dst_ip: str, protocol: int, length: int) -> bytes:
    """IPv4 pseudo-header used by TCP/UDP checksums."""
    return _PSEUDO.pack(ip_to_int(src_ip), ip_to_int(dst_ip), protocol, length)


#: ports, seq, ack, data offset, flags, window, checksum, urgent pointer.
_TCP = struct.Struct("!HHIIBBHHH")


class TcpHeader(NamedTuple):
    """TCP header without options (data offset fixed at 5)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    LENGTH = 20

    @property
    def syn(self) -> bool:
        """True if the SYN flag is set."""
        return bool(self.flags & TCP_SYN)

    @property
    def ack_flag(self) -> bool:
        """True if the ACK flag is set."""
        return bool(self.flags & TCP_ACK)

    @property
    def rst(self) -> bool:
        """True if the RST flag is set."""
        return bool(self.flags & TCP_RST)

    @property
    def fin(self) -> bool:
        """True if the FIN flag is set."""
        return bool(self.flags & TCP_FIN)

    def flag_names(self) -> str:
        """Human-readable flag string, e.g. ``"SYN|ACK"``."""
        names = []
        for bit, name in ((TCP_SYN, "SYN"), (TCP_ACK, "ACK"), (TCP_FIN, "FIN"),
                          (TCP_RST, "RST"), (TCP_PSH, "PSH")):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) if names else "-"

    def pack(self, src_ip: str, dst_ip: str, payload: bytes = b"") -> bytes:
        """Serialize with a valid checksum over the IPv4 pseudo-header."""
        src_port, dst_port, seq, ack, flags, window = self
        seq &= 0xFFFFFFFF
        ack &= 0xFFFFFFFF
        pseudo = _pseudo_header(src_ip, dst_ip, PROTO_TCP, self.LENGTH + len(payload))
        checksum = internet_checksum(
            pseudo + _TCP.pack(src_port, dst_port, seq, ack, 5 << 4, flags, window, 0, 0)
            + payload
        )
        head = _TCP.pack(src_port, dst_port, seq, ack, 5 << 4, flags, window, checksum, 0)
        return head + payload

    @classmethod
    def unpack(cls, raw: bytes, src_ip: str, dst_ip: str, verify: bool = True
               ) -> tuple["TcpHeader", bytes]:
        """Parse (and optionally checksum-verify); returns header + payload."""
        if len(raw) < cls.LENGTH:
            raise HeaderError(f"TCP header too short: {len(raw)} bytes")
        src_port, dst_port, seq, ack, offset_byte, flags, window, _checksum, _urgent = (
            _TCP.unpack_from(raw)
        )
        data_offset = (offset_byte >> 4) * 4
        if data_offset < 20 or data_offset > len(raw):
            raise HeaderError(f"bad TCP data offset {data_offset}")
        if verify:
            pseudo = _pseudo_header(src_ip, dst_ip, PROTO_TCP, len(raw))
            if internet_checksum(pseudo + raw) != 0:
                raise HeaderError("TCP checksum mismatch")
        header = _new(cls, (src_port, dst_port, seq, ack, flags, window))
        return header, raw[data_offset:]


#: ports, length, checksum.
_UDP = struct.Struct("!HHHH")


class UdpHeader(NamedTuple):
    """UDP header."""

    src_port: int
    dst_port: int

    LENGTH = 8

    def pack(self, src_ip: str, dst_ip: str, payload: bytes = b"") -> bytes:
        """Serialize with a valid checksum over the IPv4 pseudo-header."""
        length = self.LENGTH + len(payload)
        pseudo = _pseudo_header(src_ip, dst_ip, PROTO_UDP, length)
        checksum = internet_checksum(
            pseudo + _UDP.pack(self.src_port, self.dst_port, length, 0) + payload
        )
        if checksum == 0:
            checksum = 0xFFFF
        return _UDP.pack(self.src_port, self.dst_port, length, checksum) + payload

    @classmethod
    def unpack(cls, raw: bytes, src_ip: str, dst_ip: str, verify: bool = True
               ) -> tuple["UdpHeader", bytes]:
        """Parse (and optionally checksum-verify); returns header + payload."""
        if len(raw) < cls.LENGTH:
            raise HeaderError(f"UDP header too short: {len(raw)} bytes")
        src_port, dst_port, length, checksum = _UDP.unpack_from(raw)
        if length < cls.LENGTH or length > len(raw):
            raise HeaderError(f"bad UDP length {length}")
        if verify and checksum != 0:
            pseudo = _pseudo_header(src_ip, dst_ip, PROTO_UDP, length)
            if internet_checksum(pseudo + raw[:length]) != 0:
                raise HeaderError("UDP checksum mismatch")
        return _new(cls, (src_port, dst_port)), raw[8:length]


#: type, code, checksum, identifier, sequence.
_ICMP = struct.Struct("!BBHHH")


class IcmpHeader(NamedTuple):
    """ICMP header (echo request/reply shapes)."""

    icmp_type: int
    code: int = 0
    identifier: int = 0
    sequence: int = 0

    LENGTH = 8
    ECHO_REQUEST = 8
    ECHO_REPLY = 0

    def pack(self, payload: bytes = b"") -> bytes:
        """Serialize with a valid ICMP checksum."""
        icmp_type, code, identifier, sequence = self
        checksum = internet_checksum(
            _ICMP.pack(icmp_type, code, 0, identifier, sequence) + payload
        )
        return _ICMP.pack(icmp_type, code, checksum, identifier, sequence) + payload

    @classmethod
    def unpack(cls, raw: bytes, verify: bool = True) -> tuple["IcmpHeader", bytes]:
        """Parse (and optionally checksum-verify); returns header + payload."""
        if len(raw) < cls.LENGTH:
            raise HeaderError(f"ICMP header too short: {len(raw)} bytes")
        icmp_type, code, _checksum, identifier, sequence = _ICMP.unpack_from(raw)
        if verify and internet_checksum(raw) != 0:
            raise HeaderError("ICMP checksum mismatch")
        return _new(cls, (icmp_type, code, identifier, sequence)), raw[8:]

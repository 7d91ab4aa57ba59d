"""Wire-format protocol headers: Ethernet, IPv4, TCP, UDP, ICMP.

Each header is an immutable dataclass with ``pack()`` / ``unpack()`` that
round-trip through genuine network byte order, including the Internet
checksum for IPv4/TCP/UDP/ICMP.  The DPI engine in ``repro.inspection``
operates on these bytes, so inspection cost and fidelity match what a real
monitor attached to an OVS SPAN port would see.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass, replace

from repro.net.addresses import bytes_to_mac, int_to_ip, ip_to_int, mac_to_bytes

ETHERTYPE_IPV4 = 0x0800

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


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


@dataclass(frozen=True)
class EthernetHeader:
    """Ethernet II frame header (no VLAN tag)."""

    src_mac: str
    dst_mac: str
    ethertype: int = ETHERTYPE_IPV4

    LENGTH = 14

    def pack(self) -> bytes:
        """Serialize to 14 bytes of wire format."""
        return mac_to_bytes(self.dst_mac) + mac_to_bytes(self.src_mac) + struct.pack(
            "!H", self.ethertype
        )

    @classmethod
    def unpack(cls, raw: bytes) -> tuple["EthernetHeader", bytes]:
        """Parse a frame; returns the header and the remaining payload."""
        if len(raw) < cls.LENGTH:
            raise HeaderError(f"Ethernet frame too short: {len(raw)} bytes")
        dst = bytes_to_mac(raw[0:6])
        src = bytes_to_mac(raw[6:12])
        (ethertype,) = struct.unpack("!H", raw[12:14])
        return cls(src_mac=src, dst_mac=dst, ethertype=ethertype), raw[14:]


#: version/IHL, TOS, total length, id, flags+fragment, TTL, protocol,
#: checksum, then both addresses as 32-bit integers.
_IPV4 = struct.Struct("!BBHHHBBHII")


@dataclass(frozen=True)
class IPv4Header:
    """IPv4 header without options (IHL fixed at 5)."""

    src_ip: str
    dst_ip: str
    protocol: int
    total_length: int = 20
    ttl: int = 64
    identification: int = 0
    dscp: int = 0

    LENGTH = 20

    def pack(self) -> bytes:
        """Serialize to 20 bytes with a valid header checksum."""
        version_ihl = (4 << 4) | 5
        without_checksum = _IPV4.pack(
            version_ihl,
            self.dscp << 2,
            self.total_length,
            self.identification,
            0,  # flags + fragment offset: never fragmented in this model
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            ip_to_int(self.src_ip),
            ip_to_int(self.dst_ip),
        )
        checksum = internet_checksum(without_checksum)
        return without_checksum[:10] + struct.pack("!H", checksum) + without_checksum[12:]

    @classmethod
    def unpack(cls, raw: bytes) -> tuple["IPv4Header", bytes]:
        """Parse and checksum-verify; returns header and L4 payload."""
        if len(raw) < cls.LENGTH:
            raise HeaderError(f"IPv4 header too short: {len(raw)} bytes")
        head = raw[:20]
        (
            version_ihl,
            dscp_ecn,
            total_length,
            identification,
            _flags_frag,
            ttl,
            protocol,
            _checksum,
            src,
            dst,
        ) = _IPV4.unpack(head)
        if version_ihl >> 4 != 4:
            raise HeaderError(f"not IPv4 (version={version_ihl >> 4})")
        if internet_checksum(head) != 0:
            raise HeaderError("IPv4 header checksum mismatch")
        header = cls(
            src_ip=int_to_ip(src),
            dst_ip=int_to_ip(dst),
            protocol=protocol,
            total_length=total_length,
            ttl=ttl,
            identification=identification,
            dscp=dscp_ecn >> 2,
        )
        return header, raw[20:]

    def decrement_ttl(self) -> "IPv4Header":
        """New header with TTL reduced by one (router forwarding)."""
        if self.ttl <= 0:
            raise HeaderError("TTL already zero")
        return replace(self, ttl=self.ttl - 1)


def _pseudo_header(src_ip: str, dst_ip: str, protocol: int, length: int) -> bytes:
    """IPv4 pseudo-header used by TCP/UDP checksums."""
    return struct.pack(
        "!IIBBH", ip_to_int(src_ip), ip_to_int(dst_ip), 0, protocol, length
    )


@dataclass(frozen=True)
class TcpHeader:
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
        without_checksum = struct.pack(
            "!HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            5 << 4,
            self.flags,
            self.window,
            0,
            0,
        )
        pseudo = _pseudo_header(src_ip, dst_ip, PROTO_TCP, len(without_checksum) + len(payload))
        checksum = internet_checksum(pseudo + without_checksum + payload)
        return without_checksum[:16] + struct.pack("!H", checksum) + without_checksum[18:] + payload

    @classmethod
    def unpack(cls, raw: bytes, src_ip: str, dst_ip: str, verify: bool = True
               ) -> tuple["TcpHeader", bytes]:
        """Parse (and optionally checksum-verify); returns header + payload."""
        if len(raw) < cls.LENGTH:
            raise HeaderError(f"TCP header too short: {len(raw)} bytes")
        src_port, dst_port, seq, ack, offset_byte, flags, window, _checksum, _urgent = (
            struct.unpack("!HHIIBBHHH", raw[:20])
        )
        data_offset = (offset_byte >> 4) * 4
        if data_offset < 20 or data_offset > len(raw):
            raise HeaderError(f"bad TCP data offset {data_offset}")
        if verify:
            pseudo = _pseudo_header(src_ip, dst_ip, PROTO_TCP, len(raw))
            if internet_checksum(pseudo + raw) != 0:
                raise HeaderError("TCP checksum mismatch")
        header = cls(
            src_port=src_port, dst_port=dst_port, seq=seq, ack=ack, flags=flags, window=window
        )
        return header, raw[data_offset:]


@dataclass(frozen=True)
class UdpHeader:
    """UDP header."""

    src_port: int
    dst_port: int

    LENGTH = 8

    def pack(self, src_ip: str, dst_ip: str, payload: bytes = b"") -> bytes:
        """Serialize with a valid checksum over the IPv4 pseudo-header."""
        length = self.LENGTH + len(payload)
        without_checksum = struct.pack("!HHHH", self.src_port, self.dst_port, length, 0)
        pseudo = _pseudo_header(src_ip, dst_ip, PROTO_UDP, length)
        checksum = internet_checksum(pseudo + without_checksum + payload)
        if checksum == 0:
            checksum = 0xFFFF
        return without_checksum[:6] + struct.pack("!H", checksum) + payload

    @classmethod
    def unpack(cls, raw: bytes, src_ip: str, dst_ip: str, verify: bool = True
               ) -> tuple["UdpHeader", bytes]:
        """Parse (and optionally checksum-verify); returns header + payload."""
        if len(raw) < cls.LENGTH:
            raise HeaderError(f"UDP header too short: {len(raw)} bytes")
        src_port, dst_port, length, checksum = struct.unpack("!HHHH", raw[:8])
        if length < cls.LENGTH or length > len(raw):
            raise HeaderError(f"bad UDP length {length}")
        if verify and checksum != 0:
            pseudo = _pseudo_header(src_ip, dst_ip, PROTO_UDP, length)
            if internet_checksum(pseudo + raw[:length]) != 0:
                raise HeaderError("UDP checksum mismatch")
        return cls(src_port=src_port, dst_port=dst_port), raw[8:length]


@dataclass(frozen=True)
class IcmpHeader:
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
        without_checksum = struct.pack(
            "!BBHHH", self.icmp_type, self.code, 0, self.identifier, self.sequence
        )
        checksum = internet_checksum(without_checksum + payload)
        return without_checksum[:2] + struct.pack("!H", checksum) + without_checksum[4:] + payload

    @classmethod
    def unpack(cls, raw: bytes, verify: bool = True) -> tuple["IcmpHeader", bytes]:
        """Parse (and optionally checksum-verify); returns header + payload."""
        if len(raw) < cls.LENGTH:
            raise HeaderError(f"ICMP header too short: {len(raw)} bytes")
        icmp_type, code, _checksum, identifier, sequence = struct.unpack("!BBHHH", raw[:8])
        if verify and internet_checksum(raw) != 0:
            raise HeaderError("ICMP checksum mismatch")
        return cls(icmp_type=icmp_type, code=code, identifier=identifier, sequence=sequence), raw[8:]

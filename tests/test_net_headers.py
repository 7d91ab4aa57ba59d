"""Tests for wire-format headers: roundtrips, checksums, corruption."""

from __future__ import annotations

import pickle
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.headers import (
    ETHERTYPE_IPV4,
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    EthernetHeader,
    HeaderError,
    IcmpHeader,
    IPv4Header,
    TcpHeader,
    UdpHeader,
    internet_checksum,
)
from repro.net.packet import FloodTemplate, Packet, parse_packet

ports = st.integers(min_value=0, max_value=65535)
seqs = st.integers(min_value=0, max_value=2**32 - 1)
octet = st.integers(min_value=0, max_value=255)
ips = st.tuples(octet, octet, octet, octet).map(lambda t: ".".join(map(str, t)))


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example-style data.
        assert internet_checksum(b"\x00\x01\xf2\x03\xf4\xf5\xf6\xf7") == 0x220D

    def test_checksum_of_data_plus_checksum_is_zero(self):
        data = b"hello world!"
        checksum = internet_checksum(data)
        verified = internet_checksum(data + bytes([checksum >> 8, checksum & 0xFF]))
        assert verified == 0

    def test_odd_length_padding(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")


class TestEthernet:
    def test_roundtrip(self):
        header = EthernetHeader("00:00:00:00:00:01", "00:00:00:00:00:02", ETHERTYPE_IPV4)
        packed = header.pack()
        assert len(packed) == 14
        parsed, rest = EthernetHeader.unpack(packed + b"payload")
        assert parsed == header
        assert rest == b"payload"

    def test_too_short_rejected(self):
        with pytest.raises(HeaderError):
            EthernetHeader.unpack(b"\x00" * 13)

    def test_dst_comes_first_on_wire(self):
        header = EthernetHeader("00:00:00:00:00:01", "ff:ff:ff:ff:ff:ff")
        packed = header.pack()
        assert packed[:6] == b"\xff" * 6


class TestIPv4:
    def test_roundtrip(self):
        header = IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP, total_length=40, ttl=64)
        parsed, rest = IPv4Header.unpack(header.pack() + b"xx")
        assert parsed == header
        assert rest == b"xx"

    def test_checksum_corruption_detected(self):
        packed = bytearray(IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP).pack())
        packed[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(HeaderError):
            IPv4Header.unpack(bytes(packed))

    def test_non_ipv4_version_rejected(self):
        packed = bytearray(IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP).pack())
        packed[0] = (6 << 4) | 5
        with pytest.raises(HeaderError):
            IPv4Header.unpack(bytes(packed))

    def test_too_short_rejected(self):
        with pytest.raises(HeaderError):
            IPv4Header.unpack(b"\x45" + b"\x00" * 10)

    def test_decrement_ttl(self):
        header = IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP, ttl=2)
        assert header.decrement_ttl().ttl == 1
        with pytest.raises(HeaderError):
            IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP, ttl=0).decrement_ttl()

    @given(src=ips, dst=ips, ttl=st.integers(min_value=1, max_value=255))
    def test_roundtrip_property(self, src, dst, ttl):
        header = IPv4Header(src, dst, PROTO_TCP, total_length=20, ttl=ttl)
        parsed, _ = IPv4Header.unpack(header.pack())
        assert parsed == header


class TestTcp:
    def test_roundtrip_with_payload(self):
        header = TcpHeader(1234, 80, seq=42, ack=7, flags=TCP_SYN | TCP_ACK, window=1000)
        packed = header.pack("10.0.0.1", "10.0.0.2", b"data")
        parsed, payload = TcpHeader.unpack(packed, "10.0.0.1", "10.0.0.2")
        assert parsed == header
        assert payload == b"data"

    def test_checksum_covers_pseudo_header(self):
        header = TcpHeader(1, 2, flags=TCP_SYN)
        packed = header.pack("10.0.0.1", "10.0.0.2")
        # Parsing with the wrong addresses must fail the checksum.
        with pytest.raises(HeaderError):
            TcpHeader.unpack(packed, "10.0.0.1", "10.0.0.99")

    def test_checksum_corruption_detected(self):
        packed = bytearray(TcpHeader(1, 2, flags=TCP_SYN).pack("10.0.0.1", "10.0.0.2"))
        packed[4] ^= 0x01  # corrupt seq
        with pytest.raises(HeaderError):
            TcpHeader.unpack(bytes(packed), "10.0.0.1", "10.0.0.2")

    def test_verify_false_skips_checksum(self):
        packed = bytearray(TcpHeader(1, 2, flags=TCP_SYN).pack("10.0.0.1", "10.0.0.2"))
        packed[4] ^= 0x01
        parsed, _ = TcpHeader.unpack(bytes(packed), "10.0.0.1", "10.0.0.2", verify=False)
        assert parsed.src_port == 1

    def test_flag_properties(self):
        syn = TcpHeader(1, 2, flags=TCP_SYN)
        assert syn.syn and not syn.ack_flag and not syn.rst and not syn.fin
        synack = TcpHeader(1, 2, flags=TCP_SYN | TCP_ACK)
        assert synack.syn and synack.ack_flag
        rstfin = TcpHeader(1, 2, flags=TCP_RST | TCP_FIN)
        assert rstfin.rst and rstfin.fin

    def test_flag_names(self):
        assert TcpHeader(1, 2, flags=TCP_SYN | TCP_ACK).flag_names() == "SYN|ACK"
        assert TcpHeader(1, 2, flags=0).flag_names() == "-"
        assert TcpHeader(1, 2, flags=TCP_PSH).flag_names() == "PSH"

    def test_too_short_rejected(self):
        with pytest.raises(HeaderError):
            TcpHeader.unpack(b"\x00" * 10, "10.0.0.1", "10.0.0.2")

    @given(
        src_port=ports, dst_port=ports, seq=seqs, ack=seqs,
        flags=st.integers(min_value=0, max_value=0x3F),
        payload=st.binary(max_size=64),
    )
    def test_roundtrip_property(self, src_port, dst_port, seq, ack, flags, payload):
        header = TcpHeader(src_port, dst_port, seq=seq, ack=ack, flags=flags)
        packed = header.pack("172.16.0.1", "172.16.0.2", payload)
        parsed, got = TcpHeader.unpack(packed, "172.16.0.1", "172.16.0.2")
        assert parsed == header
        assert got == payload


class TestUdp:
    def test_roundtrip(self):
        header = UdpHeader(5353, 53)
        packed = header.pack("10.0.0.1", "10.0.0.2", b"query")
        parsed, payload = UdpHeader.unpack(packed, "10.0.0.1", "10.0.0.2")
        assert parsed == header
        assert payload == b"query"

    def test_checksum_corruption_detected(self):
        packed = bytearray(UdpHeader(1, 2).pack("10.0.0.1", "10.0.0.2", b"x"))
        packed[8] ^= 0xFF
        with pytest.raises(HeaderError):
            UdpHeader.unpack(bytes(packed), "10.0.0.1", "10.0.0.2")

    def test_bad_length_field_rejected(self):
        packed = bytearray(UdpHeader(1, 2).pack("10.0.0.1", "10.0.0.2"))
        packed[4:6] = (999).to_bytes(2, "big")
        with pytest.raises(HeaderError):
            UdpHeader.unpack(bytes(packed), "10.0.0.1", "10.0.0.2")

    @given(src_port=ports, dst_port=ports, payload=st.binary(max_size=64))
    def test_roundtrip_property(self, src_port, dst_port, payload):
        header = UdpHeader(src_port, dst_port)
        packed = header.pack("10.1.0.1", "10.1.0.2", payload)
        parsed, got = UdpHeader.unpack(packed, "10.1.0.1", "10.1.0.2")
        assert parsed == header
        assert got == payload


class TestIcmp:
    def test_roundtrip(self):
        header = IcmpHeader(IcmpHeader.ECHO_REQUEST, identifier=7, sequence=3)
        parsed, payload = IcmpHeader.unpack(header.pack(b"ping"))
        assert parsed == header
        assert payload == b"ping"

    def test_checksum_corruption_detected(self):
        packed = bytearray(IcmpHeader(8).pack(b"x"))
        packed[4] ^= 0xFF
        with pytest.raises(HeaderError):
            IcmpHeader.unpack(bytes(packed))

    def test_too_short_rejected(self):
        with pytest.raises(HeaderError):
            IcmpHeader.unpack(b"\x08\x00")


MAC_A = "00:00:00:00:00:01"
MAC_B = "00:00:00:00:00:02"

# (header, every field by keyword, exact repr): the contract callers rely
# on, whatever the headers are built from.
CONTRACT = [
    (
        EthernetHeader(MAC_A, MAC_B),
        dict(src_mac=MAC_A, dst_mac=MAC_B, ethertype=ETHERTYPE_IPV4),
        "EthernetHeader(src_mac='00:00:00:00:00:01', dst_mac='00:00:00:00:00:02',"
        " ethertype=2048)",
    ),
    (
        IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP),
        dict(src_ip="10.0.0.1", dst_ip="10.0.0.2", protocol=PROTO_TCP,
             total_length=20, ttl=64, identification=0, dscp=0),
        "IPv4Header(src_ip='10.0.0.1', dst_ip='10.0.0.2', protocol=6, total_length=20,"
        " ttl=64, identification=0, dscp=0)",
    ),
    (
        TcpHeader(1, 80, flags=TCP_SYN),
        dict(src_port=1, dst_port=80, seq=0, ack=0, flags=TCP_SYN, window=65535),
        "TcpHeader(src_port=1, dst_port=80, seq=0, ack=0, flags=2, window=65535)",
    ),
    (
        UdpHeader(5353, 53),
        dict(src_port=5353, dst_port=53),
        "UdpHeader(src_port=5353, dst_port=53)",
    ),
    (
        IcmpHeader(IcmpHeader.ECHO_REQUEST, identifier=7, sequence=3),
        dict(icmp_type=8, code=0, identifier=7, sequence=3),
        "IcmpHeader(icmp_type=8, code=0, identifier=7, sequence=3)",
    ),
]


@pytest.mark.parametrize(
    "header,fields,text", CONTRACT, ids=[type(h).__name__ for h, _, _ in CONTRACT]
)
class TestHeaderContract:
    def test_fields_are_read_only(self, header, fields, text):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(header, name, 0)

    def test_hashable_and_equal_to_itself_rebuilt(self, header, fields, text):
        rebuilt = type(header)(**fields)
        assert rebuilt == header
        assert hash(rebuilt) == hash(header)
        assert {header: 1}[rebuilt] == 1

    def test_pickle_round_trips(self, header, fields, text):
        clone = pickle.loads(pickle.dumps(header))
        assert clone == header and type(clone) is type(header)

    def test_repr_text(self, header, fields, text):
        assert repr(header) == text


def test_decrement_ttl_returns_a_new_header():
    header = IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP, ttl=9)
    lower = header.decrement_ttl()
    assert lower is not header
    assert header.ttl == 9
    assert lower == IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP, ttl=8)


def _with_ipv4_options(frame: bytes, options: bytes) -> bytes:
    """``frame`` with ``options`` spliced after its 20-byte IPv4 header;
    IHL, total length and the header checksum are rewritten to match."""
    eth, ip, l4 = frame[:14], bytearray(frame[14:34]), frame[34:]
    header_length = 20 + len(options)
    ip[0] = (4 << 4) | (header_length // 4)
    struct.pack_into("!H", ip, 2, header_length + len(l4))
    struct.pack_into("!H", ip, 10, 0)
    head = bytes(ip) + options
    checksum = internet_checksum(head)
    return eth + head[:10] + struct.pack("!H", checksum) + head[12:] + l4


class TestIPv4HeaderLength:
    """The parse honours IHL: options are skipped, short IHLs rejected."""

    def _syn(self) -> Packet:
        return Packet.tcp_packet(
            MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", TcpHeader(1234, 80, seq=7, flags=TCP_SYN),
            b"hi",
        )

    def test_nop_option_frame_parses(self):
        packet = self._syn()
        raw = _with_ipv4_options(packet.to_bytes(), b"\x01" * 4)
        parsed = parse_packet(raw)
        assert parsed.tcp == packet.tcp
        assert parsed.payload == b"hi"
        assert parsed.ip.src_ip == "10.0.0.1" and parsed.ip.total_length == 24 + 22
        assert parse_packet(raw, verify=False).tcp == packet.tcp

    def test_ihl_below_five_rejected(self):
        raw = bytearray(self._syn().to_bytes())
        raw[14] = (4 << 4) | 4
        with pytest.raises(HeaderError, match="IHL"):
            parse_packet(bytes(raw))
        with pytest.raises(HeaderError, match="IHL"):
            IPv4Header.unpack(bytes(raw[14:]))

    def test_total_length_below_header_length_rejected(self):
        raw = _with_ipv4_options(self._syn().to_bytes(), b"\x01" * 4)
        ip = bytearray(raw[14:38])
        struct.pack_into("!H", ip, 2, 22)
        struct.pack_into("!H", ip, 10, 0)
        struct.pack_into("!H", ip, 10, internet_checksum(bytes(ip)))
        with pytest.raises(HeaderError, match="total length"):
            IPv4Header.unpack(bytes(ip) + raw[38:])

    def test_ihl_past_the_frame_rejected(self):
        raw = bytearray(IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP).pack())
        raw[0] = (4 << 4) | 15
        with pytest.raises(HeaderError, match="too short"):
            IPv4Header.unpack(bytes(raw))


def _flip_frames() -> list[bytes]:
    """A stamped SYN flood frame and a UDP frame with a payload."""
    syn = FloodTemplate(MAC_A, MAC_B, "10.0.0.2", 80, PROTO_TCP).stamp(
        "198.18.7.9", TcpHeader(40000, 80, seq=0x1234ABCD, flags=TCP_SYN)
    )
    udp = Packet.udp_packet(
        MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", UdpHeader(5353, 53), b"query bytes!"
    )
    return [syn.to_bytes(), udp.to_bytes()]


@pytest.mark.parametrize("raw", _flip_frames(), ids=["syn", "udp"])
def test_any_single_bit_flip_past_ethernet_is_rejected(raw):
    """Every bit of the IPv4 header and the L4 segment is covered by a
    check: one flipped bit anywhere past the Ethernet header must make
    the parse raise ``HeaderError``."""
    parse_packet(raw)  # the clean frame parses
    for bit in range(14 * 8, len(raw) * 8):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        with pytest.raises(HeaderError):
            parse_packet(bytes(flipped))

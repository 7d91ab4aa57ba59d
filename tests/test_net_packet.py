"""Tests for the Packet container and the byte-level parse path."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import int_to_ip
from repro.net.headers import (
    ETHERTYPE_IPV4,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_SYN,
    EthernetHeader,
    IcmpHeader,
    IPv4Header,
    TcpHeader,
    UdpHeader,
)
from repro.net.packet import FloodTemplate, Packet, parse_packet

MAC_A = "00:00:00:00:00:01"
MAC_B = "00:00:00:00:00:02"


def tcp_packet(payload=b"", flags=TCP_SYN, src_ip="10.0.0.1", dst_ip="10.0.0.2"):
    return Packet.tcp_packet(
        MAC_A, MAC_B, src_ip, dst_ip, TcpHeader(1234, 80, seq=1, flags=flags), payload
    )


class TestBuilders:
    def test_tcp_packet_fields(self):
        p = tcp_packet(b"abc")
        assert p.tcp is not None
        assert p.src_ip == "10.0.0.1" and p.dst_ip == "10.0.0.2"
        assert p.ip.protocol == PROTO_TCP
        assert p.ip.total_length == 20 + 20 + 3

    def test_udp_packet_fields(self):
        p = Packet.udp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", UdpHeader(53, 53), b"q")
        assert p.udp is not None and p.ip.protocol == PROTO_UDP
        assert p.ip.total_length == 20 + 8 + 1

    def test_icmp_packet_fields(self):
        p = Packet.icmp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", IcmpHeader(8), b"ping")
        assert p.icmp is not None and p.ip.protocol == PROTO_ICMP

    def test_size_bytes(self):
        p = tcp_packet(b"abcd")
        assert p.size_bytes == 14 + 20 + 20 + 4
        assert len(p.to_bytes()) == p.size_bytes


class TestCopyForward:
    def test_forwarded_decrements_ttl(self):
        p = tcp_packet()
        q = p._replace(ip=p.ip.decrement_ttl())
        assert q.ip.ttl == p.ip.ttl - 1
        assert p.ip.ttl == 64  # original untouched


class TestWireRoundtrip:
    def test_tcp_roundtrip(self):
        p = tcp_packet(b"hello", flags=TCP_SYN | TCP_ACK)
        q = parse_packet(p.to_bytes())
        assert q.eth == p.eth
        assert q.ip == p.ip
        assert q.tcp == p.tcp
        assert q.payload == b"hello"

    def test_udp_roundtrip(self):
        p = Packet.udp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", UdpHeader(9, 10), b"dgram")
        q = parse_packet(p.to_bytes())
        assert q.udp == p.udp and q.payload == b"dgram"

    def test_icmp_roundtrip(self):
        p = Packet.icmp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", IcmpHeader(8, identifier=1), b"E")
        q = parse_packet(p.to_bytes())
        assert q.icmp == p.icmp and q.payload == b"E"

    def test_non_ip_frame_parses_as_l2(self):
        p = Packet(eth=EthernetHeader(MAC_A, MAC_B, 0x0806), payload=b"arp-ish")
        q = parse_packet(p.to_bytes())
        assert q.ip is None and q.payload == b"arp-ish"

    @given(payload=st.binary(max_size=100), flags=st.sampled_from([TCP_SYN, TCP_ACK, TCP_SYN | TCP_ACK]))
    def test_tcp_roundtrip_property(self, payload, flags):
        p = tcp_packet(payload, flags=flags)
        q = parse_packet(p.to_bytes())
        assert q.tcp == p.tcp and q.payload == payload


class TestDescribe:
    def test_tcp_describe(self):
        text = tcp_packet().describe()
        assert "10.0.0.1:1234" in text and "SYN" in text

    def test_udp_describe(self):
        p = Packet.udp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", UdpHeader(1, 2))
        assert "UDP" in p.describe()

    def test_icmp_describe(self):
        p = Packet.icmp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", IcmpHeader(8))
        assert "ICMP" in p.describe()

    def test_l2_describe(self):
        p = Packet(eth=EthernetHeader(MAC_A, MAC_B, 0x1234))
        assert "0x1234" in p.describe()


class TestTruncatedFrames:
    """Malformed mirrored frames must surface as HeaderError, never crash."""

    def test_frame_cut_mid_tcp_header_raises_header_error(self):
        from repro.net.headers import HeaderError

        raw = tcp_packet(b"payload").to_bytes()
        cut = raw[: 14 + 20 + 10]  # eth + ipv4 + half a TCP header
        with pytest.raises(HeaderError, match="truncated TCP segment"):
            parse_packet(cut)
        with pytest.raises(HeaderError, match="truncated TCP segment"):
            parse_packet(cut, verify=False)

    def test_frame_cut_mid_udp_header_raises_header_error(self):
        from repro.net.headers import HeaderError

        p = Packet.udp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", UdpHeader(1, 2), b"x" * 8)
        cut = p.to_bytes()[: 14 + 20 + 4]
        with pytest.raises(HeaderError, match="truncated UDP segment"):
            parse_packet(cut, verify=False)

    @pytest.mark.parametrize("builder", ["tcp", "udp", "icmp"])
    def test_every_truncation_offset_raises_header_error(self, builder):
        from repro.net.headers import HeaderError

        if builder == "tcp":
            p = tcp_packet(b"x" * 9)
        elif builder == "udp":
            p = Packet.udp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", UdpHeader(1, 2), b"x" * 9)
        else:
            p = Packet.icmp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", IcmpHeader(8), b"x" * 9)
        raw = p.to_bytes()
        for cut in range(len(raw)):
            for verify in (True, False):
                try:
                    parse_packet(raw[:cut], verify=verify)
                except HeaderError:
                    pass  # the only acceptable failure mode

    def test_dpi_engine_counts_truncated_frame_as_parse_error(self, ):
        # A frame whose payload claims more than is on the wire: the
        # parse slices L4 to total_length and must reject it cleanly.
        from repro.net.headers import HeaderError

        raw = tcp_packet(b"x" * 20).to_bytes()[:40]
        with pytest.raises(HeaderError):
            parse_packet(raw, verify=False)


class TestWireMemo:
    """A changed frame is a new value: its bytes show the change and the
    frame it was made from keeps its own."""

    def test_forwarded_invalidates_and_reflects_ttl(self):
        p = tcp_packet(b"data")
        before = p.to_bytes()
        q = p._replace(ip=p.ip.decrement_ttl())  # an L3 hop's TTL rewrite
        after = q.to_bytes()
        assert after != before
        assert parse_packet(after).ip.ttl == 63
        assert p.to_bytes() == before

    def test_header_mutation_invalidates(self):
        p = tcp_packet(b"data")
        stale = p.to_bytes()
        with pytest.raises(AttributeError):
            p.tcp = TcpHeader(1234, 80, seq=2, flags=TCP_ACK)
        fresh = p._replace(tcp=TcpHeader(1234, 80, seq=2, flags=TCP_ACK)).to_bytes()
        assert fresh != stale
        assert parse_packet(fresh).tcp.ack_flag

    def test_payload_mutation_invalidates(self):
        p = tcp_packet(b"aaaa")
        q = p._replace(payload=b"bbbb")
        assert parse_packet(q.to_bytes()).payload == b"bbbb"
        assert p._replace(payload=b"bb").size_bytes == p.size_bytes - 2


class TestSlotsContract:
    """A packet is a tuple of its fields: no instance dict, pickles and
    stamps equal to what the builders make, and no field can be set."""

    def test_no_instance_dict(self):
        p = tcp_packet(b"x")
        assert not hasattr(p, "__dict__")
        assert Packet.__slots__ == ()
        assert Packet._fields == (
            "eth", "ip", "tcp", "udp", "icmp", "payload", "size_bytes",
        )

    @pytest.mark.parametrize("protocol", [PROTO_TCP, PROTO_UDP])
    def test_stamp_is_field_equal_to_builder_apart_from_id(self, protocol):
        template = FloodTemplate(MAC_A, MAC_B, "10.0.0.2", 80, protocol, payload=b"pl")
        if protocol == PROTO_TCP:
            l4 = TcpHeader(4321, 80, seq=9, flags=TCP_SYN)
            built = Packet.tcp_packet(MAC_A, MAC_B, "198.18.0.7", "10.0.0.2", l4, b"pl")
        else:
            l4 = UdpHeader(4321, 80)
            built = Packet.udp_packet(MAC_A, MAC_B, "198.18.0.7", "10.0.0.2", l4, b"pl")
        stamped = template.stamp("198.18.0.7", l4)
        assert type(stamped) is Packet
        assert stamped == built  # every field, size_bytes included

    def test_pickle_round_trip_keeps_every_field(self):
        p = tcp_packet(b"data")
        q = pickle.loads(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(q) is Packet and q == p

    @pytest.mark.parametrize("name", Packet._fields)
    def test_reassigning_a_field_raises(self, name):
        p = tcp_packet(b"data")
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))
        with pytest.raises(AttributeError):
            p.packet_id = 1  # nor can a new attribute be added


# ------------------------------------------------------ the value contract

_macs = st.binary(min_size=6, max_size=6).map(lambda b: ":".join(f"{x:02x}" for x in b))
_ips = st.integers(0, 2**32 - 1).map(int_to_ip)
_u16 = st.integers(0, 0xFFFF)
_u32 = st.integers(0, 2**32 - 1)
_payloads = st.binary(max_size=64)
_tcp_headers = st.builds(TcpHeader, _u16, _u16, _u32, _u32, st.integers(0, 0xFF), _u16)
_udp_headers = st.builds(UdpHeader, _u16, _u16)
_icmp_headers = st.builds(
    IcmpHeader, st.integers(0, 0xFF), st.integers(0, 0xFF), _u16, _u16
)
_ttls = st.integers(0, 0xFF)


@st.composite
def _built(draw) -> Packet:
    """``tcp_packet`` / ``udp_packet`` / ``icmp_packet``."""
    builder, l4 = draw(st.sampled_from([
        (Packet.tcp_packet, _tcp_headers),
        (Packet.udp_packet, _udp_headers),
        (Packet.icmp_packet, _icmp_headers),
    ]))
    return builder(draw(_macs), draw(_macs), draw(_ips), draw(_ips), draw(l4),
                   draw(_payloads), draw(_ttls))


@st.composite
def _stamped(draw) -> Packet:
    protocol = draw(st.sampled_from([PROTO_TCP, PROTO_UDP]))
    dst_port = draw(_u16)
    template = FloodTemplate(draw(_macs), draw(_macs), draw(_ips), dst_port,
                             protocol, draw(_payloads))
    if protocol == PROTO_TCP:
        l4 = draw(_tcp_headers)._replace(dst_port=dst_port)
    else:
        l4 = UdpHeader(draw(_u16), dst_port)
    return template.stamp(draw(_ips), l4)


@st.composite
def _constructed(draw) -> Packet:
    """``Packet(...)`` with any layer stack a wire frame can carry."""
    payload = draw(_payloads)
    kind = draw(st.sampled_from(["l2", "ip", "tcp", "udp", "icmp"]))
    if kind == "l2":
        ethertype = draw(_u16.filter(lambda t: t != ETHERTYPE_IPV4))
        return Packet(EthernetHeader(draw(_macs), draw(_macs), ethertype), payload=payload)
    protocol, l4, length = {
        "ip": (draw(st.integers(0, 0xFF).filter(
            lambda p: p not in (PROTO_TCP, PROTO_UDP, PROTO_ICMP))), None, 0),
        "tcp": (PROTO_TCP, draw(_tcp_headers), TcpHeader.LENGTH),
        "udp": (PROTO_UDP, draw(_udp_headers), UdpHeader.LENGTH),
        "icmp": (PROTO_ICMP, draw(_icmp_headers), IcmpHeader.LENGTH),
    }[kind]
    ip = IPv4Header(draw(_ips), draw(_ips), protocol, 20 + length + len(payload),
                    draw(_ttls), draw(_u16), draw(st.integers(0, 63)))
    layers = {kind: l4} if l4 is not None else {}
    return Packet(EthernetHeader(draw(_macs), draw(_macs)), ip, payload=payload, **layers)


@st.composite
def _replaced(draw) -> Packet:
    """``_replace`` of a built packet: new payload (lengths kept right), TTL, MACs."""
    p = draw(_built())
    payload = draw(_payloads)
    ip = p.ip._replace(
        total_length=p.ip.total_length - len(p.payload) + len(payload), ttl=draw(_ttls)
    )
    return p._replace(eth=EthernetHeader(draw(_macs), draw(_macs)), ip=ip, payload=payload)


_PATHS = {
    "constructor": _constructed(),
    "builders": _built(),
    "stamp": _stamped(),
    "parse_packet": st.one_of(_constructed(), _built()).map(
        lambda p: parse_packet(p.to_bytes())
    ),
    "_replace": _replaced(),
    "_make": _built().map(lambda p: Packet._make(p[:6])),
}
_each_path = pytest.mark.parametrize("path", list(_PATHS))


class TestValueContract:
    """Every way to make a packet yields the same kind of value."""

    @_each_path
    @given(data=st.data())
    def test_size_is_the_wire_length(self, path, data):
        p = data.draw(_PATHS[path])
        assert type(p) is Packet
        assert p.size_bytes == len(p.to_bytes())

    @_each_path
    @given(data=st.data())
    def test_wire_round_trip_is_equal(self, path, data):
        p = data.draw(_PATHS[path])
        assert parse_packet(p.to_bytes()) == p

    @_each_path
    @given(data=st.data())
    def test_pickle_round_trip_is_equal(self, path, data):
        p = data.draw(_PATHS[path])
        q = pickle.loads(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(q) is Packet and q == p

    @_each_path
    @given(data=st.data(), name=st.sampled_from(Packet._fields))
    def test_assigning_any_field_raises(self, path, data, name):
        p = data.draw(_PATHS[path])
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))

    def test_replace_cannot_set_the_size(self):
        with pytest.raises(TypeError):
            tcp_packet(b"x")._replace(size_bytes=1)

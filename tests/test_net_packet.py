"""Tests for the Packet container and the byte-level parse path."""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.headers import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_SYN,
    EthernetHeader,
    IcmpHeader,
    TcpHeader,
    UdpHeader,
)
from repro.net.flowkey import FlowKey
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

    def test_packet_ids_are_unique(self):
        assert tcp_packet().packet_id != tcp_packet().packet_id

    def test_size_bytes(self):
        p = tcp_packet(b"abcd")
        assert p.size_bytes == 14 + 20 + 20 + 4
        assert len(p.to_bytes()) == p.size_bytes


def _five(packet: Packet) -> tuple:
    key = FlowKey.from_packet(packet)
    return (key.ip_src, key.tp_src, key.ip_dst, key.tp_dst, key.ip_proto)


class TestFlowKey:
    def test_tcp_flow_key(self):
        assert _five(tcp_packet()) == ("10.0.0.1", 1234, "10.0.0.2", 80, PROTO_TCP)

    def test_udp_flow_key(self):
        p = Packet.udp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", UdpHeader(5, 6))
        assert _five(p) == ("10.0.0.1", 5, "10.0.0.2", 6, PROTO_UDP)

    def test_icmp_flow_key_uses_protocol(self):
        p = Packet.icmp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", IcmpHeader(8))
        assert _five(p) == ("10.0.0.1", None, "10.0.0.2", None, PROTO_ICMP)

    def test_l2_only_flow_key(self):
        key = FlowKey.from_packet(Packet(eth=EthernetHeader(MAC_A, MAC_B, 0x86DD)))
        assert (key.eth_src, key.eth_dst, key.eth_type) == (MAC_A, MAC_B, 0x86DD)
        assert key.ip_src is None and key.ip_proto is None


class TestCopyForward:
    def test_copy_gets_new_id_same_headers(self):
        p = tcp_packet(b"x")
        q = p.copy()
        assert q.packet_id != p.packet_id
        assert q.tcp == p.tcp and q.ip == p.ip and q.payload == p.payload

    def test_forwarded_decrements_ttl(self):
        p = tcp_packet()
        q = p.copy()
        q.ip = p.ip.decrement_ttl()
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

        p = tcp_packet(b"x" * 20)
        p.ip = p.ip._replace(total_length=p.ip.total_length)  # rebuild memo path
        raw = p.to_bytes()[:40]
        with pytest.raises(HeaderError):
            parse_packet(raw, verify=False)


class TestWireMemo:
    """to_bytes() is cached and invalidated by header mutation."""

    def test_repeat_serialization_is_identical_object(self):
        p = tcp_packet(b"data")
        first = p.to_bytes()
        assert p.to_bytes() is first  # memo: same bytes object, no re-pack

    def test_copy_shares_the_memo(self):
        p = tcp_packet(b"data")
        raw = p.to_bytes()
        assert p.copy().to_bytes() is raw

    def test_forwarded_invalidates_and_reflects_ttl(self):
        p = tcp_packet(b"data")
        before = p.to_bytes()
        q = p.copy()
        q.ip = p.ip.decrement_ttl()  # an L3 hop's TTL rewrite on the copy
        after = q.to_bytes()
        assert after is not before
        assert parse_packet(after).ip.ttl == 63
        assert p.to_bytes() is before  # the original keeps its memo

    def test_header_mutation_invalidates(self):
        p = tcp_packet(b"data")
        stale = p.to_bytes()
        p.tcp = TcpHeader(1234, 80, seq=2, flags=TCP_ACK)
        fresh = p.to_bytes()
        assert fresh != stale
        assert parse_packet(fresh).tcp.ack_flag

    def test_payload_mutation_invalidates(self):
        p = tcp_packet(b"aaaa")
        p.to_bytes()
        p.payload = b"bbbb"
        assert parse_packet(p.to_bytes()).payload == b"bbbb"

    def test_flow_key_is_cached_and_invalidated(self):
        p = tcp_packet()
        key = FlowKey.from_packet(p)
        assert FlowKey.from_packet(p) is key
        p.tcp = TcpHeader(999, 80, flags=TCP_SYN)
        assert FlowKey.from_packet(p).tp_src == 999


_FIELDS = tuple(f.name for f in dataclasses.fields(Packet))
_MEMOS = ("_wire", "_fkobj", "_size")


def _state(packet: Packet, skip=("packet_id",)) -> dict:
    return {name: getattr(packet, name) for name in _FIELDS if name not in skip}


def _warm(packet: Packet) -> Packet:
    """Fill all three memos."""
    packet.to_bytes()
    FlowKey.from_packet(packet, in_port=2)
    assert packet.size_bytes
    assert all(getattr(packet, name) is not None for name in _MEMOS)
    return packet


class TestSlotsContract:
    """A packet keeps its fields in slots; building, copying, stamping,
    pickling and reassigning behave as they did with an instance dict."""

    def test_no_instance_dict(self):
        p = tcp_packet(b"x")
        assert not hasattr(p, "__dict__")
        assert set(Packet.__slots__) == set(_FIELDS)

    def test_copy_is_field_equal_apart_from_id(self):
        p = _warm(tcp_packet(b"data"))
        q = p.copy()
        assert q.packet_id != p.packet_id
        assert _state(q) == _state(p)
        assert q._wire is p._wire and q._fkobj is p._fkobj

    @pytest.mark.parametrize("protocol", [PROTO_TCP, PROTO_UDP])
    def test_stamp_is_field_equal_to_builder_apart_from_id(self, protocol):
        template = FloodTemplate(MAC_A, MAC_B, "10.0.0.2", 80, protocol, payload=b"pl")
        if protocol == PROTO_TCP:
            l4 = TcpHeader(4321, 80, seq=9, flags=TCP_SYN)
            built = Packet.tcp_packet(MAC_A, MAC_B, "198.18.0.7", "10.0.0.2", l4, b"pl",
                                      created_at=1.25)
        else:
            l4 = UdpHeader(4321, 80)
            built = Packet.udp_packet(MAC_A, MAC_B, "198.18.0.7", "10.0.0.2", l4, b"pl",
                                      created_at=1.25)
        stamped = template.stamp("198.18.0.7", l4, 1.25)
        assert stamped.packet_id != built.packet_id
        skip = ("packet_id", "_size")
        assert _state(stamped, skip) == _state(built, skip)
        assert stamped._size == built.size_bytes  # warm at birth, and right

    def test_pickle_round_trip_keeps_every_field(self):
        p = _warm(tcp_packet(b"data"))
        q = pickle.loads(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
        assert _state(q, skip=()) == _state(p, skip=())

    @pytest.mark.parametrize("name", ["eth", "ip", "payload"])
    def test_reassigning_a_wire_field_drops_every_memo(self, name):
        p = _warm(tcp_packet(b"data"))
        setattr(p, name, getattr(p, name))
        assert all(getattr(p, memo) is None for memo in _MEMOS)

    def test_reassigning_other_fields_keeps_the_memos(self):
        p = _warm(tcp_packet(b"data"))
        p.created_at = 3.0
        assert all(getattr(p, memo) is not None for memo in _MEMOS)


class TestFlowKeyExtraction:
    def test_tcp_key_fields(self):
        key = FlowKey.from_packet(tcp_packet(), in_port=7)
        assert key.in_port == 7
        assert key.ip_src == "10.0.0.1" and key.ip_dst == "10.0.0.2"
        assert key.tp_src == 1234 and key.tp_dst == 80
        assert key.ip_proto == PROTO_TCP
        assert key.ip_src_int == (10 << 24) + 1
        assert key.conn_key() == ("10.0.0.1", 1234, 80)

    def test_l2_key_fields(self):
        p = Packet(eth=EthernetHeader(MAC_A, MAC_B, 0x0806), payload=b"arp")
        key = FlowKey.from_packet(p, in_port=3)
        assert key.ip_src is None and key.ip_src_int is None
        assert key.eth_src == MAC_A and key.eth_dst == MAC_B

    def test_icmp_key_has_no_ports(self):
        p = Packet.icmp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", IcmpHeader(8))
        key = FlowKey.from_packet(p, in_port=1)
        assert key.tp_src is None and key.ip_proto == PROTO_ICMP
        assert key.ip_src == "10.0.0.1" and key.ip_dst == "10.0.0.2"

"""Tests for the OpenFlow match, including subsumption properties."""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.headers import (
    ETHERTYPE_IPV4,
    PROTO_TCP,
    PROTO_UDP,
    TCP_SYN,
    TcpHeader,
    UdpHeader,
)
from repro.net.addresses import int_to_ip, ip_in_subnet, ip_to_int
from repro.net.packet import Packet
from repro.openflow.match import Match
from tests.test_net_addresses import MALFORMED_CIDRS
from tests.test_net_packet import _built, _constructed

MAC_A = "00:00:00:00:00:01"
MAC_B = "00:00:00:00:00:02"


def tcp_packet(src_ip="10.0.0.1", dst_ip="10.0.0.2", sport=1234, dport=80):
    return Packet.tcp_packet(
        MAC_A, MAC_B, src_ip, dst_ip, TcpHeader(sport, dport, flags=TCP_SYN)
    )


class TestMatching:
    def test_wildcard_matches_everything(self):
        assert Match.any().matches(tcp_packet(), in_port=1)

    def test_in_port(self):
        match = Match(in_port=3)
        assert match.matches(tcp_packet(), 3)
        assert not match.matches(tcp_packet(), 4)

    def test_eth_fields(self):
        assert Match(eth_src=MAC_A).matches(tcp_packet(), 1)
        assert not Match(eth_src=MAC_B).matches(tcp_packet(), 1)
        assert Match(eth_dst=MAC_B).matches(tcp_packet(), 1)
        assert Match(eth_type=ETHERTYPE_IPV4).matches(tcp_packet(), 1)
        assert not Match(eth_type=0x0806).matches(tcp_packet(), 1)

    def test_exact_ip_fields(self):
        assert Match(ip_src="10.0.0.1").matches(tcp_packet(), 1)
        assert not Match(ip_src="10.0.0.9").matches(tcp_packet(), 1)
        assert Match(ip_dst="10.0.0.2").matches(tcp_packet(), 1)

    def test_cidr_ip_fields(self):
        assert Match(ip_src="10.0.0.0/24").matches(tcp_packet(), 1)
        assert not Match(ip_src="10.1.0.0/16").matches(tcp_packet(), 1)
        assert Match(ip_dst="10.0.0.0/8").matches(tcp_packet(), 1)

    def test_ip_proto(self):
        assert Match(ip_proto=PROTO_TCP).matches(tcp_packet(), 1)
        assert not Match(ip_proto=PROTO_UDP).matches(tcp_packet(), 1)

    def test_transport_ports(self):
        assert Match(tp_src=1234, tp_dst=80).matches(tcp_packet(), 1)
        assert not Match(tp_dst=443).matches(tcp_packet(), 1)

    def test_udp_ports_match_too(self):
        p = Packet.udp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", UdpHeader(53, 5353))
        assert Match(tp_src=53).matches(p, 1)

    def test_ip_match_fails_on_non_ip_packet(self):
        from repro.net.headers import EthernetHeader

        arp = Packet(eth=EthernetHeader(MAC_A, MAC_B, 0x0806))
        assert not Match(ip_src="10.0.0.1").matches(arp, 1)
        assert not Match(tp_dst=80).matches(arp, 1)
        assert Match(eth_type=0x0806).matches(arp, 1)

    def test_port_match_fails_on_icmp(self):
        from repro.net.headers import IcmpHeader

        p = Packet.icmp_packet(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", IcmpHeader(8))
        assert not Match(tp_dst=80).matches(p, 1)

    def test_combined_fields_all_must_match(self):
        match = Match(eth_type=ETHERTYPE_IPV4, ip_dst="10.0.0.2", ip_proto=PROTO_TCP, tp_dst=80)
        assert match.matches(tcp_packet(), 1)
        assert not match.matches(tcp_packet(dport=443), 1)


class TestCanonicalText:
    @pytest.mark.parametrize("spelling, canonical", [
        ("10.0.0.5", "10.0.0.5"),
        ("10.0.0.5/32", "10.0.0.5"),
        ("10.0.0.7/24", "10.0.0.0/24"),
        ("10.0.0.0/24", "10.0.0.0/24"),
        ("10.1.2.3/0", "0.0.0.0/0"),
    ])
    def test_ip_fields_store_canonical_text(self, spelling, canonical):
        match = Match(ip_src=spelling, ip_dst=spelling)
        assert match.ip_src == match.ip_dst == canonical
        assert match == Match(ip_src=canonical, ip_dst=canonical)
        assert hash(match) == hash(Match(ip_src=canonical, ip_dst=canonical))


def _oracle(fields: dict, packet: Packet, in_port: int) -> bool:
    """Field-by-field reading of match fields as spelled, CIDR via ``ip_in_subnet``."""
    eth, ip = packet.eth, packet.ip
    l4 = (packet.tcp or packet.udp) if ip is not None else None
    checks = {
        "in_port": lambda v: in_port == v,
        "eth_src": lambda v: eth.src_mac == v,
        "eth_dst": lambda v: eth.dst_mac == v,
        "eth_type": lambda v: eth.ethertype == v,
        "ip_src": lambda v: ip is not None and ip_in_subnet(ip.src_ip, v),
        "ip_dst": lambda v: ip is not None and ip_in_subnet(ip.dst_ip, v),
        "ip_proto": lambda v: ip is not None and ip.protocol == v,
        "tp_src": lambda v: l4 is not None and l4.src_port == v,
        "tp_dst": lambda v: l4 is not None and l4.dst_port == v,
    }
    return all(
        checks[name](value) for name, value in fields.items() if value is not None
    )


@st.composite
def _match_fields(draw, packet: Packet, swapped) -> dict:
    """Match fields the packet meets, each wildcard or spelled one of
    several ways, except ``swapped``, set to a value the packet misses."""
    eth, ip = packet.eth, packet.ip
    l4 = (packet.tcp or packet.udp) if ip is not None else None

    def address(own) -> tuple[list, list]:
        if own is None:  # no IP layer: any address misses
            return [], ["10.0.0.1", "10.0.0.0/8"]
        length = draw(st.integers(1, 32))
        n = ip_to_int(own)
        covering = [own, f"{own}/32", f"{own}/{length}", f"{int_to_ip(n ^ 1)}/31",
                    f"{int_to_ip(n)}/0"]
        return covering, [int_to_ip(n ^ 1), f"{int_to_ip(n ^ (1 << (32 - length)))}/{length}"]

    def mac(own: str) -> tuple[list, list]:
        return [own], [own[:-1] + ("1" if own.endswith("0") else "0")]

    def number(own, other=0) -> tuple[list, list]:
        return ([], [other]) if own is None else ([own], [own ^ 1])

    choices = {
        "in_port": number(1),
        "eth_src": mac(eth.src_mac),
        "eth_dst": mac(eth.dst_mac),
        "eth_type": number(eth.ethertype),
        "ip_src": address(ip and ip.src_ip),
        "ip_dst": address(ip and ip.dst_ip),
        "ip_proto": number(ip and ip.protocol, 6),
        "tp_src": number(l4 and l4.src_port, 80),
        "tp_dst": number(l4 and l4.dst_port, 80),
    }
    fields = {
        name: draw(st.sampled_from([None, *covering]))
        for name, (covering, _) in choices.items()
    }
    if swapped is not None:
        fields[swapped] = draw(st.sampled_from(choices[swapped][1]))
    return fields


@pytest.mark.parametrize("swapped", [None, *(f.name for f in dataclass_fields(Match))])
@given(data=st.data())
def test_matches_agrees_with_field_oracle(swapped, data):
    """Exact, /32, prefix, protocol and port fields against a plain reading."""
    packet = data.draw(st.one_of(_built(), _constructed()))
    fields = data.draw(_match_fields(packet, swapped))
    assert Match(**fields).matches(packet, 1) == _oracle(fields, packet, 1)


class TestSpecificityDescribe:
    def test_describe(self):
        assert Match.any().describe() == "*"
        assert "ip_dst=10.0.0.2" in Match(ip_dst="10.0.0.2").describe()


@pytest.mark.parametrize("field", ["ip_src", "ip_dst"])
@pytest.mark.parametrize("cidr", MALFORMED_CIDRS)
def test_malformed_cidr_rejected_at_construction(field, cidr):
    with pytest.raises(ValueError):
        Match(**{field: cidr})


class TestSubsumes:
    def test_wildcard_subsumes_all(self):
        assert Match.any().subsumes(Match(ip_src="1.2.3.4", tp_dst=80))

    def test_specific_does_not_subsume_wildcard(self):
        assert not Match(ip_src="1.2.3.4").subsumes(Match.any())

    def test_equal_matches_subsume_each_other(self):
        a = Match(ip_dst="10.0.0.2", ip_proto=PROTO_TCP)
        b = Match(ip_dst="10.0.0.2", ip_proto=PROTO_TCP)
        assert a.subsumes(b) and b.subsumes(a)

    def test_prefix_subsumes_host(self):
        assert Match(ip_src="10.0.0.0/24").subsumes(Match(ip_src="10.0.0.7"))
        assert not Match(ip_src="10.0.0.7").subsumes(Match(ip_src="10.0.0.0/24"))

    def test_wider_prefix_subsumes_narrower(self):
        assert Match(ip_src="10.0.0.0/16").subsumes(Match(ip_src="10.0.1.0/24"))
        assert not Match(ip_src="10.0.1.0/24").subsumes(Match(ip_src="10.0.0.0/16"))

    def test_disjoint_prefixes_do_not_subsume(self):
        assert not Match(ip_src="10.0.0.0/24").subsumes(Match(ip_src="10.0.1.0/24"))

    def test_extra_field_in_other_is_fine(self):
        assert Match(ip_dst="10.0.0.2").subsumes(Match(ip_dst="10.0.0.2", tp_dst=80))

    octet = st.integers(min_value=0, max_value=255)

    @given(
        src=st.tuples(octet, octet).map(lambda t: f"10.0.{t[0]}.{t[1]}"),
        dport=st.integers(min_value=1, max_value=65535),
    )
    def test_subsumption_implies_matching(self, src, dport):
        """If A subsumes B, any packet matching B matches A."""
        specific = Match(ip_src=src, tp_dst=dport)
        general = Match(ip_src="10.0.0.0/16")
        packet = tcp_packet(src_ip=src, dport=dport)
        if general.subsumes(specific) and specific.matches(packet, 1):
            assert general.matches(packet, 1)

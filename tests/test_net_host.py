"""Tests for end hosts: ARP, demux, sniffers, spoofing."""

from __future__ import annotations

import pytest

from repro.net.headers import PROTO_TCP, PROTO_UDP, TCP_SYN, TcpHeader, UdpHeader
from repro.net.host import Host
from repro.net.link import Link


@pytest.fixture
def pair(sim):
    a = Host(sim, "a", "10.0.0.1", "00:00:00:00:00:01")
    b = Host(sim, "b", "10.0.0.2", "00:00:00:00:00:02")
    Link(sim, a.port, b.port)
    a.arp_table[b.ip] = b.mac
    b.arp_table[a.ip] = a.mac
    return a, b


class TestArp:
    def test_resolve_known_ip(self, pair):
        a, b = pair
        assert a.resolve_mac("10.0.0.2") == b.mac

    def test_resolve_unknown_ip_raises(self, pair):
        a, _ = pair
        with pytest.raises(KeyError):
            a.resolve_mac("203.0.113.9")

    def test_gateway_fallback(self, pair):
        a, _ = pair
        a.gateway_mac = "00:00:00:00:00:99"
        assert a.resolve_mac("203.0.113.9") == "00:00:00:00:00:99"

    def test_send_tcp_to_unresolvable_drops_and_counts(self, pair, sim):
        a, _ = pair
        ok = a.send_tcp("203.0.113.9", TcpHeader(1, 2, flags=TCP_SYN))
        assert ok is False
        assert a.arp_failures == 1


class TestDemux:
    def test_tcp_handler_receives_addressed_packet(self, pair, sim):
        a, b = pair
        got = []
        b.register_protocol(PROTO_TCP, got.append)
        a.send_tcp(b.ip, TcpHeader(1, 2, flags=TCP_SYN))
        sim.run()
        assert len(got) == 1
        assert got[0].tcp.src_port == 1

    def test_udp_handler_separate_from_tcp(self, pair, sim):
        a, b = pair
        tcp_got, udp_got = [], []
        b.register_protocol(PROTO_TCP, tcp_got.append)
        b.register_protocol(PROTO_UDP, udp_got.append)
        a.send_udp(b.ip, UdpHeader(1, 2), b"x")
        sim.run()
        assert not tcp_got and len(udp_got) == 1

    def test_duplicate_handler_rejected(self, pair):
        _, b = pair
        b.register_protocol(PROTO_TCP, lambda p: None)
        with pytest.raises(ValueError):
            b.register_protocol(PROTO_TCP, lambda p: None)

    def test_packet_for_other_ip_not_delivered_to_handler(self, pair, sim):
        a, b = pair
        got = []
        b.register_protocol(PROTO_TCP, got.append)
        # Craft a packet addressed (at L3) elsewhere but framed to b's MAC.
        a.send_tcp(b.ip, TcpHeader(1, 2, flags=TCP_SYN), src_ip="10.0.0.1")
        from repro.net.packet import Packet

        stray = Packet.tcp_packet(a.mac, b.mac, "10.0.0.1", "10.0.0.250", TcpHeader(3, 4))
        a.send_packet(stray)
        sim.run()
        assert len(got) == 1


class TestSniffers:
    def test_sniffer_sees_all_delivered_packets(self, pair, sim):
        a, b = pair
        seen = []
        b.add_sniffer(seen.append)
        a.send_tcp(b.ip, TcpHeader(1, 2, flags=TCP_SYN))
        a.send_udp(b.ip, UdpHeader(3, 4))
        sim.run()
        assert len(seen) == 2

    def test_sniffer_sees_packets_for_other_ips(self, pair, sim):
        a, b = pair
        seen = []
        b.add_sniffer(seen.append)
        from repro.net.packet import Packet

        stray = Packet.tcp_packet(a.mac, b.mac, "10.0.0.1", "10.0.0.250", TcpHeader(3, 4))
        a.send_packet(stray)
        sim.run()
        assert len(seen) == 1


class TestSpoofing:
    def test_spoofed_source_ip_carried_on_wire(self, pair, sim):
        a, b = pair
        got = []
        b.register_protocol(PROTO_TCP, got.append)
        a.send_tcp(b.ip, TcpHeader(1, 2, flags=TCP_SYN), src_ip="198.18.7.7")
        sim.run()
        assert got[0].ip.src_ip == "198.18.7.7"

    def test_counters(self, pair, sim):
        a, b = pair
        b.register_protocol(PROTO_TCP, lambda p: None)
        a.send_tcp(b.ip, TcpHeader(1, 2, flags=TCP_SYN))
        sim.run()
        assert a.tx_count == 1
        assert b.rx_count == 1

"""Network substrate: addresses, wire-format headers, links, nodes, hosts.

Replaces the GENI/Mininet data plane of the original paper.  Headers
pack to and parse from real wire bytes, and a packet is an immutable
value equal to its bytes' parse, so the DPI engine reads the mirrored
frame itself; the shard codec packs and parses frames between processes.
"""

from repro.net.addresses import (
    BROADCAST_MAC,
    ip_in_subnet,
    ip_to_int,
    int_to_ip,
    mac_to_bytes,
    bytes_to_mac,
    validate_ip,
    validate_mac,
)
from repro.net.headers import (
    ETHERTYPE_IPV4,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    EthernetHeader,
    HeaderError,
    IPv4Header,
    IcmpHeader,
    TcpHeader,
    UdpHeader,
    internet_checksum,
)
from repro.net.packet import Packet, parse_packet
from repro.net.link import Link, LinkEnd, LinkStats
from repro.net.node import Interface, Node
from repro.net.host import Host

__all__ = [
    "BROADCAST_MAC",
    "ip_in_subnet",
    "ip_to_int",
    "int_to_ip",
    "mac_to_bytes",
    "bytes_to_mac",
    "validate_ip",
    "validate_mac",
    "ETHERTYPE_IPV4",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "TCP_ACK",
    "TCP_FIN",
    "TCP_PSH",
    "TCP_RST",
    "TCP_SYN",
    "EthernetHeader",
    "HeaderError",
    "IPv4Header",
    "IcmpHeader",
    "TcpHeader",
    "UdpHeader",
    "internet_checksum",
    "Packet",
    "parse_packet",
    "Link",
    "LinkEnd",
    "LinkStats",
    "Interface",
    "Node",
    "Host",
]

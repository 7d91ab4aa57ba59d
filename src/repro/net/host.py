"""End hosts: single-homed nodes with an IP, a static ARP table and a
protocol demultiplexer.

Routing in these experiments is L2 within a slice (as on the GENI/Mininet
topologies the paper used), so hosts resolve destination MACs from a static
ARP table that the topology builder populates, and the switches do the
actual path selection.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addresses import validate_ip, validate_mac
from repro.net.headers import TcpHeader, UdpHeader
from repro.net.packet import Packet
from repro.net.node import Interface, Node
from repro.sim.engine import Simulator

PacketHandler = Callable[[Packet], None]


class Host(Node):
    """A single-interface end host.

    Protocol modules (the TCP stack, UDP apps, attack generators) register
    handlers per IP protocol number via :meth:`register_protocol`; inbound
    packets addressed to this host are dispatched to them.  Outbound IP
    packets take their destination MAC from the static ``arp_table``
    (filled by :meth:`repro.topology.builder.Network.finalize`) or
    ``gateway_mac``; a miss on both drops the packet and counts it in
    ``arp_failures``.
    """

    def __init__(self, sim: Simulator, name: str, ip: str, mac: str) -> None:
        super().__init__(sim, name)
        self.ip = validate_ip(ip)
        self.mac = validate_mac(mac)
        self.port = self.add_interface(1, mac=self.mac)
        self.arp_table: dict[str, str] = {}
        self.gateway_mac: Optional[str] = None
        self._protocol_handlers: dict[int, PacketHandler] = {}
        self._sniffers: list[PacketHandler] = []
        self.promiscuous = False
        self.rx_count = 0
        self.tx_count = 0
        self.arp_failures = 0

    def register_protocol(self, protocol: int, handler: PacketHandler) -> None:
        """Attach a handler for one IP protocol number."""
        if protocol in self._protocol_handlers:
            raise ValueError(f"{self.name} already handles protocol {protocol}")
        self._protocol_handlers[protocol] = handler

    def add_sniffer(self, sniffer: PacketHandler) -> None:
        """Attach a passive observer that sees every delivered packet.

        Monitors use this when deployed as SPAN-port receivers.
        """
        self._sniffers.append(sniffer)

    def resolve_mac(self, dst_ip: str) -> str:
        """Destination MAC for ``dst_ip`` via static ARP, else gateway."""
        mac = self.arp_table.get(dst_ip, self.gateway_mac)
        if mac is None:
            raise KeyError(f"{self.name}: no ARP entry or gateway for {dst_ip}")
        return mac

    def send_tcp(
        self, dst_ip: str, tcp: TcpHeader, payload: bytes = b"", src_ip: str | None = None
    ) -> bool:
        """Build and transmit a TCP segment (``src_ip`` override = spoofing).

        Segments to unresolvable destinations — e.g. SYN-ACK backscatter
        toward spoofed source addresses — are dropped and counted, as a
        real stack's failed ARP resolution would do.
        """
        dst_mac = self._next_hop_mac(dst_ip)
        if dst_mac is None:
            return False
        return self.send_packet(Packet.tcp_packet(
            self.mac, dst_mac, src_ip or self.ip, dst_ip, tcp, payload
        ))

    def send_udp(
        self, dst_ip: str, udp: UdpHeader, payload: bytes = b"", src_ip: str | None = None
    ) -> bool:
        """Build and transmit a UDP datagram (``src_ip`` override = spoofing)."""
        dst_mac = self._next_hop_mac(dst_ip)
        if dst_mac is None:
            return False
        return self.send_packet(Packet.udp_packet(
            self.mac, dst_mac, src_ip or self.ip, dst_ip, udp, payload
        ))

    def _next_hop_mac(self, dst_ip: str) -> Optional[str]:
        """``resolve_mac`` without the raise: a miss is counted in
        ``arp_failures`` and answers ``None``."""
        mac = self.arp_table.get(dst_ip, self.gateway_mac)
        if mac is None:
            self.arp_failures += 1
        return mac

    def send_packet(self, packet: Packet) -> bool:
        """Transmit a pre-built packet out of the host port."""
        self.tx_count += 1
        return self.port.send(packet)

    def on_packet(self, packet: Packet, ingress: Interface) -> None:
        """Deliver to sniffers, then demux to the protocol handler."""
        self.rx_count += 1
        for sniffer in self._sniffers:
            sniffer(packet)
        if packet.ip is None:
            return
        addressed_to_me = packet.ip.dst_ip == self.ip
        if not addressed_to_me and not self.promiscuous:
            return
        handler = self._protocol_handlers.get(packet.ip.protocol)
        if handler is not None and addressed_to_me:
            handler(packet)

"""The network builder: the in-simulator equivalent of a GENI slice RSpec.

``Network`` owns the simulator, RNG, tracer, controller, switches, hosts
and links of one experiment, with auto-assigned MACs, IPs and datapath
ids.  ``finalize()`` populates every host's static ARP table (GENI slices
were single-L2 segments with known membership, and keeping ARP out of
band keeps the data plane focused on the protocol under study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.controller.base import Controller
from repro.controller.l2 import L2LearningSwitch
from repro.net.host import Host
from repro.net.link import Link
from repro.net.node import Node
from repro.openflow.channel import ControlChannel
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.sim.trace import Tracer
from repro.switch.ovs import OpenFlowSwitch
from repro.switch.workload import WorkloadCosts
from repro.tcp.config import TcpConfig
from repro.tcp.stack import TcpStack


@dataclass(frozen=True)
class LinkSpec:
    """Default link parameters for one network."""

    bandwidth_bps: float = 100e6
    delay_s: float = 0.001
    queue_packets: int = 100
    loss_probability: float = 0.0


class Network:
    """A complete experiment fabric: hosts, switches, links, controller."""

    def __init__(
        self,
        seed: int = 1,
        default_link: LinkSpec | None = None,
        control_latency_s: float = 0.002,
        tcp_config: TcpConfig | None = None,
        switch_costs: WorkloadCosts | None = None,
        reference: bool = False,
    ) -> None:
        # ``reference`` swaps every fast path for its reference twin at
        # once: the pre-overhaul event loop and one scheduled event per
        # generated arrival.  Results are byte-identical either way
        # (``repro check``).
        self.reference = reference
        if reference:
            from repro.sim.engine_reference import ReferenceSimulator

            self.sim = ReferenceSimulator()
        else:
            self.sim = Simulator()
        # Ledger pin: benchmarks/ledger/layers.py reads it (falsy = no pool).
        self.packet_pool = None
        self.rng = SeededRng(seed)
        self.tracer = Tracer(lambda: self.sim.now)
        self.default_link = default_link or LinkSpec()
        self.control_latency_s = control_latency_s
        self.tcp_config = tcp_config or TcpConfig()
        self.switch_costs = switch_costs
        self.controller = Controller(self.sim, self.tracer)
        self.l2 = L2LearningSwitch()
        self.controller.register_app(self.l2)
        self.discovery = None  # created on demand by enable_discovery()
        self.hosts: dict[str, Host] = {}
        self.switches: dict[str, OpenFlowSwitch] = {}
        self.stacks: dict[str, TcpStack] = {}
        self.links: list[Link] = []
        self.channels: dict[str, ControlChannel] = {}
        self._next_dpid = 1
        self._next_host_num = 1
        self._finalized = False

    # ----------------------------------------------------------- elements

    def add_switch(self, name: str | None = None) -> OpenFlowSwitch:
        """Create a switch and connect it to the controller."""
        dpid = self._next_dpid
        self._next_dpid += 1
        name = name or f"s{dpid}"
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        switch = OpenFlowSwitch(self.sim, name, dpid, costs=self.switch_costs)
        channel = ControlChannel(self.sim, latency_s=self.control_latency_s)
        channel.connect(switch, self.controller)
        switch.connect_controller(channel)
        self.controller.connect_switch(dpid, channel, name=name)
        self.switches[name] = switch
        self.channels[name] = channel
        return switch

    def add_host(
        self,
        name: str | None = None,
        ip: str | None = None,
        mac: str | None = None,
        with_tcp: bool = True,
    ) -> Host:
        """Create a host (optionally with a TCP stack)."""
        num = self._next_host_num
        self._next_host_num += 1
        name = name or f"h{num}"
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        ip = ip or f"10.0.{(num - 1) // 250}.{(num - 1) % 250 + 1}"
        mac = mac or f"00:00:00:00:{(num >> 8) & 0xFF:02x}:{num & 0xFF:02x}"
        host = Host(self.sim, name, ip, mac)
        self.hosts[name] = host
        if with_tcp:
            self.stacks[name] = TcpStack(host, self.rng.child(f"tcp.{name}"), self.tcp_config)
        return host

    def node(self, name: str) -> Node:
        """Look up any node by name."""
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise KeyError(f"no node named {name!r}")

    def stack(self, host_name: str) -> TcpStack:
        """The TCP stack of a host."""
        return self.stacks[host_name]

    def link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float | None = None,
        delay_s: float | None = None,
        queue_packets: int | None = None,
        loss_probability: float | None = None,
    ) -> Link:
        """Cable two nodes, allocating switch ports as needed."""
        node_a, node_b = self.node(a), self.node(b)
        iface_a = self._attachment_interface(node_a)
        iface_b = self._attachment_interface(node_b)
        loss = (
            loss_probability
            if loss_probability is not None
            else self.default_link.loss_probability
        )
        link = Link(
            self.sim,
            iface_a,
            iface_b,
            bandwidth_bps=bandwidth_bps or self.default_link.bandwidth_bps,
            delay_s=delay_s if delay_s is not None else self.default_link.delay_s,
            queue_packets=queue_packets or self.default_link.queue_packets,
            loss_probability=loss,
            rng=self.rng.child(f"link.{a}-{b}") if loss > 0 else None,
        )
        self.links.append(link)
        return link

    def _attachment_interface(self, node: Node):
        if isinstance(node, Host):
            if node.port.connected:
                raise ValueError(f"host {node.name} is already cabled")
            return node.port
        return node.add_interface()

    def add_span_port(self, switch_name: str, receiver: Host) -> int:
        """Attach ``receiver`` to a fresh SPAN port on a switch.

        The receiver is cabled like a normal host but is *not* included in
        ARP tables, so no data-plane traffic addresses it; it only sees
        mirrored frames.  Returns the switch port number to mirror to.
        """
        switch = self.switches[switch_name]
        iface = switch.add_interface()
        Link(
            self.sim,
            iface,
            receiver.port,
            bandwidth_bps=self.default_link.bandwidth_bps,
            delay_s=self.default_link.delay_s,
            queue_packets=self.default_link.queue_packets,
        )
        return iface.port_no

    # ----------------------------------------------------------- finalize

    def finalize(self, static_arp: bool = True) -> None:
        """Seal the topology; call once it is complete.

        With ``static_arp`` (the default, matching a GENI slice's known
        membership) every host's ARP table is pre-populated.  Pass
        ``False`` when hosts run a dynamic
        :class:`repro.net.arp.ArpService` instead.
        """
        if static_arp:
            entries = {host.ip: host.mac for host in self.hosts.values()}
            for host in self.hosts.values():
                host.arp_table.update(
                    {ip: mac for ip, mac in entries.items() if ip != host.ip}
                )
        self._finalized = True

    def enable_discovery(self, period_s: float = 2.0):
        """Register the LLDP-style topology-discovery controller app."""
        if self.discovery is None:
            from repro.controller.discovery import TopologyDiscovery

            self.discovery = TopologyDiscovery(period_s=period_s)
            self.controller.register_app(self.discovery)
        return self.discovery

    def run(self, until: float, max_events: int | None = None) -> float:
        """Advance the shared simulator clock.

        ``max_events`` bounds one call (the control-plane service steps
        scenarios in bounded event slices so API requests interleave
        with simulation); event order — and therefore every result — is
        identical however the run is sliced.
        """
        if not self._finalized:
            self.finalize()
        return self.sim.run(until=until, max_events=max_events)

    # ------------------------------------------------------------ queries

    def host_names(self) -> list[str]:
        """All host names in creation order."""
        return list(self.hosts)

    def switch_of_host(self, host_name: str) -> Optional[OpenFlowSwitch]:
        """The switch a host is cabled to (None if cabled to a host)."""
        host = self.hosts[host_name]
        peer = host.port.peer()
        if peer is None:
            return None
        return peer.node if isinstance(peer.node, OpenFlowSwitch) else None

    def edge_switches(self, host_names: Iterable[str]) -> list[OpenFlowSwitch]:
        """Unique switches that the given hosts attach to."""
        seen: dict[int, OpenFlowSwitch] = {}
        for name in host_names:
            switch = self.switch_of_host(name)
            if switch is not None:
                seen[switch.datapath_id] = switch
        return list(seen.values())

    def stop(self) -> None:
        """Stop background tasks on all components (end of scenario)."""
        for switch in self.switches.values():
            switch.stop()
        if self.discovery is not None:
            self.discovery.stop()

"""Topology discovery: the controller maps the switch fabric (LLDP-style).

Periodically, for every known datapath, the app requests the port list
(FeaturesRequest) and then emits one probe frame per port via PacketOut
(``Output(port)``, never flooded — LLDP is link-local).  A probe that
re-enters the control plane as a PacketIn from a *different* datapath
reveals one switch-to-switch adjacency; ports whose probes never return
are host-facing (edge) ports.  The resulting graph backs path queries
(via networkx) and lets mitigation be scoped to edge switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.controller.base import App, Controller, DatapathHandle
from repro.net.headers import EthernetHeader
from repro.net.packet import Packet
from repro.openflow.actions import Output
from repro.openflow.messages import FeaturesReply, PacketIn
from repro.sim.process import PeriodicTask

ETHERTYPE_PROBE = 0x88CC  # LLDP
PROBE_DST_MAC = "01:80:c2:00:00:0e"  # LLDP nearest-bridge multicast
PROBE_SRC_MAC = "00:0c:0c:0c:0c:0c"


@dataclass
class DiscoveryState:
    """What discovery currently believes about one datapath."""

    ports: list[int] = field(default_factory=list)
    inter_switch_ports: set[int] = field(default_factory=set)
    last_seen: float = 0.0


class TopologyDiscovery(App):
    """Periodic LLDP-style probing; must be registered *before* the L2 app
    so probe PacketIns are consumed rather than learned/flooded."""

    name = "topology-discovery"

    def __init__(self, period_s: float = 2.0) -> None:
        super().__init__()
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.period_s = period_s
        self.state: dict[int, DiscoveryState] = {}
        self.adjacencies: dict[tuple[int, int], tuple[int, int]] = {}
        self.probes_sent = 0
        self.probes_received = 0
        self._task: Optional[PeriodicTask] = None

    def on_start(self, controller: Controller) -> None:
        super().on_start(controller)
        self._task = PeriodicTask(
            controller.sim, self.period_s, self._probe_round, "discovery"
        )
        self._task.start(initial_delay=0.0)

    def stop(self) -> None:
        """Halt probing."""
        if self._task is not None:
            self._task.stop()

    # ------------------------------------------------------------- probing

    def _probe_round(self) -> None:
        assert self.controller is not None
        for datapath_id in list(self.controller.datapaths):
            self.controller.request_features(datapath_id)

    def on_features(self, dp: DatapathHandle, msg: FeaturesReply) -> None:
        assert self.controller is not None
        state = self.state.setdefault(dp.datapath_id, DiscoveryState())
        state.ports = list(msg.ports)
        state.last_seen = self.controller.sim.now
        for port in msg.ports:
            self.probes_sent += 1
            probe = Packet(
                eth=EthernetHeader(
                    src_mac=PROBE_SRC_MAC,
                    dst_mac=PROBE_DST_MAC,
                    ethertype=ETHERTYPE_PROBE,
                ),
                payload=f"{dp.datapath_id}:{port}".encode(),
                created_at=self.controller.sim.now,
            )
            self.controller.packet_out_packet(
                dp.datapath_id, probe, actions=(Output(port),)
            )

    def on_packet_in(self, dp: DatapathHandle, msg: PacketIn) -> bool:
        if msg.packet.eth.ethertype != ETHERTYPE_PROBE:
            return False
        self.probes_received += 1
        try:
            src_dpid_str, src_port_str = msg.packet.payload.decode().split(":")
            src_dpid, src_port = int(src_dpid_str), int(src_port_str)
        except (ValueError, UnicodeDecodeError):
            return True  # malformed probe: consume silently
        self.adjacencies[(src_dpid, src_port)] = (dp.datapath_id, msg.in_port)
        self.state.setdefault(src_dpid, DiscoveryState()).inter_switch_ports.add(src_port)
        self.state.setdefault(dp.datapath_id, DiscoveryState()).inter_switch_ports.add(
            msg.in_port
        )
        return True  # never let probes reach the learning switch

    # ------------------------------------------------------------- queries

    def graph(self) -> networkx.Graph:
        """The discovered switch graph (nodes = dpids)."""
        import networkx  # query-time only: keeps ``import repro`` stdlib-only

        g = networkx.Graph()
        g.add_nodes_from(self.state)
        for (src_dpid, src_port), (dst_dpid, dst_port) in self.adjacencies.items():
            g.add_edge(src_dpid, dst_dpid, ports={src_dpid: src_port, dst_dpid: dst_port})
        return g

    def edge_ports(self, datapath_id: int) -> list[int]:
        """Host-facing ports: known ports with no discovered peer switch."""
        state = self.state.get(datapath_id)
        if state is None:
            return []
        return [p for p in state.ports if p not in state.inter_switch_ports]

    def edge_datapaths(self) -> list[int]:
        """Datapaths with at least one host-facing port."""
        return [dpid for dpid in self.state if self.edge_ports(dpid)]

    def path(self, src_dpid: int, dst_dpid: int) -> list[int]:
        """Shortest dpid path between two switches ([] if disconnected)."""
        import networkx

        g = self.graph()
        try:
            return networkx.shortest_path(g, src_dpid, dst_dpid)
        except (networkx.NetworkXNoPath, networkx.NodeNotFound):
            return []

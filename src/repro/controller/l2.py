"""L2 learning-switch application.

The base forwarding plane of every experiment: learns source MACs from
PacketIns, installs destination-MAC flow entries once both endpoints are
known, floods otherwise — the standard Ryu ``simple_switch`` behaviour
the paper's testbed ran beneath its detection apps.
"""

from __future__ import annotations

from typing import Optional

from repro.controller.base import App, DatapathHandle
from repro.net.addresses import BROADCAST_MAC
from repro.openflow.actions import Flood, Output
from repro.openflow.match import Match
from repro.openflow.messages import PacketIn

L2_PRIORITY = 100


class L2LearningSwitch(App):
    """Learning forwarding with per-destination flow installation."""

    name = "l2-learning"

    def __init__(self, flow_idle_timeout: float = 60.0) -> None:
        super().__init__()
        self.flow_idle_timeout = flow_idle_timeout
        self.mac_tables: dict[int, dict[str, int]] = {}
        self.flows_installed = 0
        self.floods = 0

    def on_switch_join(self, dp: DatapathHandle) -> None:
        self.mac_tables.setdefault(dp.datapath_id, {})

    def on_packet_in(self, dp: DatapathHandle, msg: PacketIn) -> bool:
        table = self.mac_tables.setdefault(dp.datapath_id, {})
        table[msg.packet.eth.src_mac] = msg.in_port
        dst = msg.packet.eth.dst_mac
        out_port = table.get(dst)
        if dst != BROADCAST_MAC and out_port is not None and out_port != msg.in_port:
            assert self.controller is not None
            self.controller.add_flow(
                dp.datapath_id,
                match=Match(eth_dst=dst),
                actions=(Output(out_port),),
                priority=L2_PRIORITY,
                idle_timeout=self.flow_idle_timeout,
                buffer_id=msg.buffer_id,
            )
            self.flows_installed += 1
        else:
            assert self.controller is not None
            self.controller.packet_out(
                dp.datapath_id, msg.buffer_id, actions=(Flood(),), in_port=msg.in_port
            )
            self.floods += 1
        return True

    def port_for(self, datapath_id: int, mac: str) -> Optional[int]:
        """Learned egress port for ``mac`` on a datapath, if known.

        The SPI coordinator uses this to build mirror rules that both
        forward normally and copy to the SPAN port.
        """
        return self.mac_tables.get(datapath_id, {}).get(mac)

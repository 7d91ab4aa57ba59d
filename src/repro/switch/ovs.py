"""The OpenFlow datapath (Open vSwitch stand-in).

Data path: every ingress packet is looked up in the flow table; hits have
their action list applied (forward / flood / mirror / drop / police /
punt); misses are buffered and punted to the controller as PacketIn.

Control path: FlowMod, PacketOut, stats, echo and barrier messages from
the controller are applied in arrival order, each charged to the
workload meter.

Passive taps (:meth:`attach_tap`) model sFlow-style sampling agents the
distributed monitors use; they see ingress packets without perturbing
forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.flowkey import FlowKey
from repro.net.packet import Packet
from repro.net.node import Interface, Node
from repro.openflow.actions import (
    Action,
    Drop,
    Flood,
    Mirror,
    Output,
    RateLimit,
    ToController,
)
from repro.openflow.channel import ControlChannel
from repro.openflow.flowtable import FlowEntry, FlowTable, RemovedReason
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    Message,
    PacketIn,
    PacketInReason,
    PacketOut,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
)
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTask
from repro.switch.workload import WorkloadCosts, WorkloadMeter

# Taps receive (packet, in_port, flow_key).
FlowTap = Callable[[Packet, int, FlowKey], None]


@dataclass
class SwitchCounters:
    """Aggregate datapath counters."""

    packets_in: int = 0
    packets_forwarded: int = 0
    packets_flooded: int = 0
    packets_dropped_by_rule: int = 0
    packets_dropped_by_policer: int = 0
    packets_mirrored: int = 0
    bytes_mirrored: int = 0
    packets_punted: int = 0
    buffer_evictions: int = 0
    flow_mods: int = 0
    flow_mod_failures: int = 0
    packet_outs: int = 0


class OpenFlowSwitch(Node):
    """A software OpenFlow switch with one flow table."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        datapath_id: int,
        costs: WorkloadCosts | None = None,
        buffer_slots: int = 256,
        expiry_period: float = 0.25,
    ) -> None:
        super().__init__(sim, name)
        self.datapath_id = datapath_id
        self.table = FlowTable()
        self.channel: Optional[ControlChannel] = None
        self.workload = WorkloadMeter(costs)
        self.counters = SwitchCounters()
        self._buffers: dict[int, tuple[Packet, int]] = {}
        self._buffer_slots = buffer_slots
        self._next_buffer_id = 1
        self._taps: list[FlowTap] = []
        self._expiry = PeriodicTask(sim, expiry_period, self._expire_entries, "switch.expiry")
        self._expiry.start()

    # ------------------------------------------------------------- wiring

    def connect_controller(self, channel: ControlChannel) -> None:
        """Attach the control channel (done by the topology builder)."""
        self.channel = channel

    def attach_tap(self, tap: FlowTap) -> None:
        """Register a passive per-ingress-packet observer (sFlow agent).

        The tap receives the ingress :class:`FlowKey` extracted once by
        the datapath as its third argument.
        """
        self._taps.append(tap)

    # ---------------------------------------------------------- data path

    def on_packet(self, packet: Packet, ingress: Interface) -> None:
        """Datapath entry: extract the flow key once, tap, look up, act.

        The :class:`FlowKey` computed here is the single header
        extraction of the fast path — taps, monitors and the flow-table
        scan all reuse it (OVS's ``flow_extract()`` discipline).
        """
        self.counters.packets_in += 1
        in_port = ingress.port_no
        key = FlowKey.from_packet(packet, in_port)
        for tap in self._taps:
            tap(packet, in_port, key)
        self.workload.charge_lookup()
        entry = self.table.lookup(packet, in_port, self.sim.now, key=key)
        if entry is None:
            self._punt(packet, in_port, PacketInReason.NO_MATCH)
        elif entry.drops:
            # A mitigation rule: decided once when the entry was built.
            self.counters.packets_dropped_by_rule += 1
        else:
            self.apply_actions(packet, in_port, entry.actions)

    def apply_actions(
        self, packet: Packet, in_port: int, actions: tuple[Action, ...]
    ) -> None:
        """Execute an action list on a packet.

        A ``RateLimit`` action polices the whole list: if the bucket
        rejects the packet nothing else runs (OVS ingress policing drops
        before forwarding).  An empty list, or an explicit ``Drop``,
        discards the packet.
        """
        for action in actions:
            if isinstance(action, RateLimit):
                if not action.admit(self.sim.now):
                    self.counters.packets_dropped_by_policer += 1
                    return
        if not actions or any(isinstance(a, Drop) for a in actions):
            self.counters.packets_dropped_by_rule += 1
            return
        for action in actions:
            if isinstance(action, Output):
                self._forward(packet, action.port)
            elif isinstance(action, Flood):
                self._flood(packet, in_port)
            elif isinstance(action, Mirror):
                self._mirror(packet, action.port)
            elif isinstance(action, ToController):
                self._punt(packet, in_port, PacketInReason.ACTION)
            # RateLimit handled above; Drop handled above.

    def _forward(self, packet: Packet, port_no: int) -> None:
        interface = self.interfaces.get(port_no)
        if interface is None:
            return
        self.workload.charge_forward()
        self.counters.packets_forwarded += 1
        interface.send(packet.copy())

    def _flood(self, packet: Packet, in_port: int) -> None:
        self.counters.packets_flooded += 1
        for port_no, interface in self.interfaces.items():
            if port_no == in_port or not interface.connected:
                continue
            self.workload.charge_forward()
            interface.send(packet.copy())

    def _mirror(self, packet: Packet, port_no: int) -> None:
        interface = self.interfaces.get(port_no)
        if interface is None:
            return
        self.workload.charge_mirror(packet.size_bytes)
        self.counters.packets_mirrored += 1
        self.counters.bytes_mirrored += packet.size_bytes
        interface.send(packet.copy())

    def _punt(self, packet: Packet, in_port: int, reason: PacketInReason) -> None:
        if self.channel is None:
            return
        self.workload.charge_packet_in()
        self.counters.packets_punted += 1
        buffer_id = self._buffer_packet(packet, in_port)
        self.channel.to_controller(
            PacketIn(
                datapath_id=self.datapath_id,
                buffer_id=buffer_id,
                in_port=in_port,
                packet=packet,
                reason=reason,
            )
        )

    def _buffer_packet(self, packet: Packet, in_port: int) -> int:
        if len(self._buffers) >= self._buffer_slots:
            # Evict the oldest buffer, as OVS recycles its buffer pool.
            # The silently dropped packet is buffer pressure the E3
            # workload report surfaces via this counter.
            oldest = min(self._buffers)
            del self._buffers[oldest]
            self.counters.buffer_evictions += 1
        buffer_id = self._next_buffer_id
        self._next_buffer_id += 1
        self._buffers[buffer_id] = (packet, in_port)
        return buffer_id

    # -------------------------------------------------------- control path

    def handle_message(self, message: Message) -> None:
        """Apply one controller message."""
        if isinstance(message, FlowMod):
            self._handle_flow_mod(message)
        elif isinstance(message, PacketOut):
            self._handle_packet_out(message)
        elif isinstance(message, FlowStatsRequest):
            self._handle_flow_stats(message)
        elif isinstance(message, PortStatsRequest):
            self._handle_port_stats(message)
        elif isinstance(message, EchoRequest):
            self._reply(EchoReply(xid=message.xid))
        elif isinstance(message, BarrierRequest):
            self._reply(BarrierReply(xid=message.xid))
        elif isinstance(message, FeaturesRequest):
            self._reply(
                FeaturesReply(
                    datapath_id=self.datapath_id,
                    ports=sorted(
                        no for no, iface in self.interfaces.items() if iface.connected
                    ),
                    xid=message.xid,
                )
            )

    def _handle_flow_mod(self, mod: FlowMod) -> None:
        self.workload.charge_flow_mod()
        self.counters.flow_mods += 1
        if mod.command is FlowModCommand.ADD:
            entry = FlowEntry(
                match=mod.match,
                actions=mod.actions,
                priority=mod.priority,
                idle_timeout=mod.idle_timeout,
                hard_timeout=mod.hard_timeout,
                cookie=mod.cookie,
                notify_removed=mod.notify_removed,
            )
            try:
                self.table.install(entry, self.sim.now)
            except RuntimeError:
                # Table full: a real switch answers OFPET_FLOW_MOD_FAILED;
                # we count the failure and drop the mod.
                self.counters.flow_mod_failures += 1
                return
            if mod.buffer_id is not None:
                buffered = self._buffers.pop(mod.buffer_id, None)
                if buffered is not None:
                    packet, in_port = buffered
                    self.apply_actions(packet, in_port, mod.actions)
        elif mod.command is FlowModCommand.DELETE:
            removed = self.table.remove_matching(
                mod.match, cookie=mod.cookie if mod.cookie else None
            )
            for entry in removed:
                if entry.notify_removed:
                    self._reply(
                        FlowRemoved(
                            datapath_id=self.datapath_id,
                            entry=entry,
                            reason=RemovedReason.DELETE,
                        )
                    )

    def _handle_packet_out(self, out: PacketOut) -> None:
        self.workload.charge_packet_out()
        self.counters.packet_outs += 1
        packet: Optional[Packet]
        in_port = out.in_port
        if out.packet is not None:
            packet = out.packet
        else:
            buffered = self._buffers.pop(out.buffer_id, None)
            if buffered is None:
                return
            packet, in_port = buffered
        self.apply_actions(packet, in_port, out.actions)

    def _handle_flow_stats(self, request: FlowStatsRequest) -> None:
        self.workload.charge_stats()
        entries = [
            FlowStatsEntry(
                match=e.match,
                priority=e.priority,
                packets=e.packets,
                bytes=e.bytes,
                duration=self.sim.now - e.installed_at,
                cookie=e.cookie,
            )
            for e in self.table
            if request.filter_match.subsumes(e.match)
        ]
        self._reply(
            FlowStatsReply(
                datapath_id=self.datapath_id,
                entries=entries,
                table_stats=self.table.stats(),
                xid=request.xid,
            )
        )

    def _handle_port_stats(self, request: PortStatsRequest) -> None:
        self.workload.charge_stats()
        rows = []
        for port_no, interface in sorted(self.interfaces.items()):
            if request.port_no is not None and port_no != request.port_no:
                continue
            link = interface.link
            stats = link.stats_for(interface) if link is not None else None
            rows.append(
                PortStatsEntry(
                    port_no=port_no,
                    rx_packets=interface.rx_packets,
                    tx_packets=interface.tx_packets,
                    tx_bytes=stats.bytes_sent if stats else 0,
                    tx_dropped=stats.packets_dropped if stats else 0,
                )
            )
        self._reply(
            PortStatsReply(datapath_id=self.datapath_id, entries=rows, xid=request.xid)
        )

    def _reply(self, message: Message) -> None:
        if self.channel is not None:
            self.channel.to_controller(message)

    # ------------------------------------------------------------- expiry

    def _expire_entries(self) -> None:
        for entry, reason in self.table.expire(self.sim.now):
            if entry.notify_removed:
                self._reply(
                    FlowRemoved(datapath_id=self.datapath_id, entry=entry, reason=reason)
                )

    def stop(self) -> None:
        """Halt background tasks (end of scenario)."""
        self._expiry.stop()

"""Controller core: datapath registry, app dispatch, northbound helpers.

Apps subclass :class:`App` and are registered in priority order; a
PacketIn is offered to each app until one reports it handled, mirroring
how Ryu chains its handlers.  Controller-initiated messages ride the same
latency-modelled channels the switch's punts do, so every detection /
mitigation time measured by the harness includes control-plane RTTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.openflow.actions import Action
from repro.openflow.channel import ControlChannel
from repro.openflow.match import Match
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowStatsReply,
    FlowStatsRequest,
    Message,
    PacketIn,
    PacketOut,
)
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


@dataclass
class DatapathHandle:
    """Controller-side view of one connected switch."""

    datapath_id: int
    channel: ControlChannel
    name: str = ""


class App:
    """Base class for controller applications."""

    name = "app"

    def __init__(self) -> None:
        self.controller: Optional["Controller"] = None

    def on_start(self, controller: "Controller") -> None:
        """Called when the app is registered."""
        self.controller = controller

    def on_switch_join(self, dp: DatapathHandle) -> None:
        """Called when a datapath connects."""

    def on_packet_in(self, dp: DatapathHandle, msg: PacketIn) -> bool:
        """Offer a PacketIn; return True if consumed."""
        return False

    def on_flow_removed(self, dp: DatapathHandle, msg: FlowRemoved) -> None:
        """A flow entry expired or was deleted on ``dp``."""

    def on_flow_stats(self, dp: DatapathHandle, msg: FlowStatsReply) -> None:
        """A flow-stats reply arrived."""


class Controller:
    """The centralized SDN controller."""

    def __init__(self, sim: Simulator, tracer: Tracer | None = None, name: str = "c0") -> None:
        self.sim = sim
        self.name = name
        # Explicit None check: an empty Tracer is falsy (len() == 0).
        self.tracer = tracer if tracer is not None else Tracer(lambda: sim.now)
        self.datapaths: dict[int, DatapathHandle] = {}
        self.apps: list[App] = []
        self.messages_received = 0
        self._stats_waiters: dict[int, Callable[[Message], None]] = {}

    # ------------------------------------------------------------ wiring

    def register_app(self, app: App) -> App:
        """Add an app at the end of the dispatch chain."""
        self.apps.append(app)
        app.on_start(self)
        for dp in self.datapaths.values():
            app.on_switch_join(dp)
        return app

    def app(self, app_type: type) -> App:
        """Find the first registered app of ``app_type``."""
        for candidate in self.apps:
            if isinstance(candidate, app_type):
                return candidate
        raise KeyError(f"no app of type {app_type.__name__} registered")

    def connect_switch(self, datapath_id: int, channel: ControlChannel, name: str = "") -> DatapathHandle:
        """Register a datapath reachable over ``channel``."""
        if datapath_id in self.datapaths:
            raise ValueError(f"datapath {datapath_id} already connected")
        dp = DatapathHandle(datapath_id=datapath_id, channel=channel, name=name)
        self.datapaths[datapath_id] = dp
        for app in self.apps:
            app.on_switch_join(dp)
        return dp

    def datapath(self, datapath_id: int) -> DatapathHandle:
        """Look up a connected datapath."""
        return self.datapaths[datapath_id]

    # ---------------------------------------------------------- southbound

    def handle_message(self, switch, message: Message) -> None:
        """Entry point for messages arriving from any switch."""
        self.messages_received += 1
        dp = self.datapaths.get(switch.datapath_id) if switch is not None else None
        if dp is None:
            return
        if isinstance(message, PacketIn):
            for app in self.apps:
                if app.on_packet_in(dp, message):
                    break
        elif isinstance(message, FlowRemoved):
            for app in self.apps:
                app.on_flow_removed(dp, message)
        elif isinstance(message, FlowStatsReply):
            waiter = self._stats_waiters.pop(message.xid, None)
            if waiter is not None:
                waiter(message)
            for app in self.apps:
                app.on_flow_stats(dp, message)

    # ---------------------------------------------------------- northbound

    def add_flow(
        self,
        datapath_id: int,
        match: Match,
        actions: tuple[Action, ...],
        priority: int = 100,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
        buffer_id: Optional[int] = None,
        notify_removed: bool = False,
    ) -> None:
        """Install a flow entry on a datapath."""
        dp = self.datapath(datapath_id)
        dp.channel.to_switch(
            FlowMod(
                command=FlowModCommand.ADD,
                match=match,
                actions=actions,
                priority=priority,
                idle_timeout=idle_timeout,
                hard_timeout=hard_timeout,
                cookie=cookie,
                buffer_id=buffer_id,
                notify_removed=notify_removed,
            )
        )

    def delete_flows(self, datapath_id: int, match: Match, cookie: int = 0) -> None:
        """Remove all entries subsumed by ``match`` (optionally by cookie)."""
        dp = self.datapath(datapath_id)
        dp.channel.to_switch(
            FlowMod(command=FlowModCommand.DELETE, match=match, cookie=cookie)
        )

    def packet_out(
        self,
        datapath_id: int,
        buffer_id: int,
        actions: tuple[Action, ...],
        in_port: int = 0,
    ) -> None:
        """Release a buffered packet with the given actions."""
        dp = self.datapath(datapath_id)
        dp.channel.to_switch(
            PacketOut(buffer_id=buffer_id, actions=actions, in_port=in_port)
        )

    def request_flow_stats(
        self,
        datapath_id: int,
        filter_match: Match | None = None,
        callback: Optional[Callable[[FlowStatsReply], None]] = None,
    ) -> int:
        """Ask a datapath for flow counters; returns the xid."""
        request = FlowStatsRequest(filter_match=filter_match or Match.any())
        if callback is not None:
            self._stats_waiters[request.xid] = callback
        self.datapath(datapath_id).channel.to_switch(request)
        return request.xid

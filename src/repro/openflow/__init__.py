"""OpenFlow-1.0-style protocol substrate.

Implements the slice of OpenFlow that the paper's detection apps exercise
on Open vSwitch: the 12-tuple match, prioritized flow tables with idle and
hard timeouts and per-entry counters, the PacketIn / PacketOut / FlowMod /
FlowRemoved / FlowStatsRequest / FlowStatsReply message vocabulary, and a
latency-modelled control channel between each datapath and the controller.
"""

from repro.openflow.match import Match
from repro.openflow.actions import (
    Action,
    Drop,
    Flood,
    Mirror,
    Output,
    RateLimit,
    ToController,
)
from repro.openflow.flowtable import FlowEntry, FlowTable, RemovedReason, TableStats
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowStatsReply,
    FlowStatsRequest,
    Message,
    PacketIn,
    PacketInReason,
    PacketOut,
)
from repro.openflow.channel import ChannelStats, ControlChannel

__all__ = [
    "Match",
    "Action",
    "Output",
    "Flood",
    "Drop",
    "Mirror",
    "ToController",
    "RateLimit",
    "FlowEntry",
    "FlowTable",
    "RemovedReason",
    "TableStats",
    "Message",
    "PacketIn",
    "PacketInReason",
    "PacketOut",
    "FlowMod",
    "FlowModCommand",
    "FlowRemoved",
    "FlowStatsRequest",
    "FlowStatsReply",
    "ControlChannel",
    "ChannelStats",
]

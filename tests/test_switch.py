"""Tests for the OpenFlow switch datapath and control path."""

from __future__ import annotations

import pytest

from repro.net.headers import TCP_SYN, TcpHeader
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.openflow.actions import Drop, Flood, Mirror, Output, RateLimit
from repro.openflow.channel import ControlChannel
from repro.openflow.flowtable import RemovedReason
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowStatsReply,
    FlowStatsRequest,
    PacketIn,
    PortStatsReply,
    PortStatsRequest,
)
from repro.switch.ovs import OpenFlowSwitch


class FakeController:
    """Captures everything the switch sends upstream."""

    def __init__(self):
        self.messages = []

    def handle_message(self, switch, message):
        self.messages.append(message)

    def of_type(self, kind):
        return [m for m in self.messages if isinstance(m, kind)]


@pytest.fixture
def fabric(sim):
    """A switch with three attached hosts and a fake controller."""
    switch = OpenFlowSwitch(sim, "s1", datapath_id=1)
    hosts = []
    for i in range(1, 4):
        host = Host(sim, f"h{i}", f"10.0.0.{i}", f"00:00:00:00:00:0{i}")
        iface = switch.add_interface(i)
        Link(sim, iface, host.port)
        hosts.append(host)
    controller = FakeController()
    channel = ControlChannel(sim, latency_s=0.001)
    channel._switch = switch
    channel._controller = controller
    switch.connect_controller(channel)
    return switch, hosts, controller


def syn(src, dst):
    return Packet.tcp_packet(src.mac, dst.mac, src.ip, dst.ip, TcpHeader(1, 80, flags=TCP_SYN))


class TestDataPath:
    def test_miss_punts_packet_in(self, fabric, sim):
        switch, hosts, controller = fabric
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=1.0)
        punted = controller.of_type(PacketIn)
        assert len(punted) == 1
        assert punted[0].in_port == 1
        assert punted[0].datapath_id == 1
        assert switch.counters.packets_punted == 1

    def test_flow_entry_forwards_without_punt(self, fabric, sim):
        switch, hosts, controller = fabric
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match(eth_dst=hosts[1].mac),
                    actions=(Output(2),))
        )
        got = []
        hosts[1].add_sniffer(got.append)
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=1.0)
        assert len(got) == 1
        assert controller.of_type(PacketIn) == []
        assert switch.counters.packets_forwarded == 1

    def test_flood_reaches_all_but_ingress(self, fabric, sim):
        switch, hosts, _ = fabric
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match.any(), actions=(Flood(),))
        )
        seen = {i: [] for i in range(3)}
        for i, host in enumerate(hosts):
            host.add_sniffer(seen[i].append)
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=1.0)
        assert len(seen[0]) == 0 and len(seen[1]) == 1 and len(seen[2]) == 1

    def test_drop_action(self, fabric, sim):
        switch, hosts, _ = fabric
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match.any(), actions=(Drop(),))
        )
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=1.0)
        assert switch.counters.packets_dropped_by_rule == 1

    def test_empty_action_list_drops(self, fabric, sim):
        switch, hosts, _ = fabric
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match.any(), actions=())
        )
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=1.0)
        assert switch.counters.packets_dropped_by_rule == 1

    def test_mirror_copies_to_span_and_forwards(self, fabric, sim):
        switch, hosts, _ = fabric
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match.any(),
                    actions=(Output(2), Mirror(3)))
        )
        main, span = [], []
        hosts[1].add_sniffer(main.append)
        hosts[2].add_sniffer(span.append)
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=1.0)
        assert len(main) == 1 and len(span) == 1
        assert switch.counters.packets_mirrored == 1
        assert switch.counters.bytes_mirrored > 0

    def test_rate_limit_polices_whole_rule(self, fabric, sim):
        switch, hosts, _ = fabric
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match.any(),
                    actions=(RateLimit(pps=1.0, burst=1.0), Output(2)))
        )
        got = []
        hosts[1].add_sniffer(got.append)
        for _ in range(5):
            hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=0.1)
        assert len(got) == 1
        assert switch.counters.packets_dropped_by_policer == 4

    def test_tap_sees_every_ingress_packet(self, fabric, sim):
        switch, hosts, _ = fabric
        tapped = []
        switch.attach_tap(lambda p, port, key: tapped.append(port))
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        hosts[1].send_packet(syn(hosts[1], hosts[0]))
        sim.run(until=1.0)
        assert sorted(tapped) == [1, 2]

    def test_output_to_unknown_port_is_ignored(self, fabric, sim):
        switch, hosts, _ = fabric
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match.any(), actions=(Output(99),))
        )
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=1.0)  # must not raise


class TestControlPath:
    def test_flow_mod_with_buffer_id_releases_packet(self, fabric, sim):
        switch, hosts, controller = fabric
        got = []
        hosts[1].add_sniffer(got.append)
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=0.1)
        punt = controller.of_type(PacketIn)[0]
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match(eth_dst=hosts[1].mac),
                    actions=(Output(2),), buffer_id=punt.buffer_id)
        )
        sim.run(until=1.0)
        assert len(got) == 1

    def test_packet_out_with_buffer(self, fabric, sim):
        from repro.openflow.messages import PacketOut

        switch, hosts, controller = fabric
        got = []
        hosts[2].add_sniffer(got.append)
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=0.1)
        punt = controller.of_type(PacketIn)[0]
        switch.handle_message(PacketOut(buffer_id=punt.buffer_id, actions=(Output(3),)))
        sim.run(until=1.0)
        assert len(got) == 1
        assert switch.counters.packet_outs == 1

    def test_packet_out_with_inline_packet(self, fabric, sim):
        from repro.openflow.messages import PacketOut

        switch, hosts, _ = fabric
        got = []
        hosts[1].add_sniffer(got.append)
        switch.handle_message(
            PacketOut(buffer_id=0, actions=(Output(2),), packet=syn(hosts[0], hosts[1]))
        )
        sim.run(until=1.0)
        assert len(got) == 1

    def test_delete_removes_and_notifies(self, fabric, sim):
        switch, hosts, controller = fabric
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match(ip_dst="10.0.0.2"),
                    actions=(Output(2),), notify_removed=True, cookie=5)
        )
        switch.handle_message(
            FlowMod(command=FlowModCommand.DELETE, match=Match(ip_dst="10.0.0.2"))
        )
        sim.run(until=1.0)
        removed = controller.of_type(FlowRemoved)
        assert len(removed) == 1
        assert removed[0].reason is RemovedReason.DELETE
        assert len(switch.table) == 0

    def test_expiry_notifies_controller(self, fabric, sim):
        switch, hosts, controller = fabric
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match.any(), actions=(Output(2),),
                    hard_timeout=0.5, notify_removed=True)
        )
        sim.run(until=2.0)
        removed = controller.of_type(FlowRemoved)
        assert len(removed) == 1
        assert removed[0].reason is RemovedReason.HARD_TIMEOUT

    def test_flow_stats_reply(self, fabric, sim):
        switch, hosts, controller = fabric
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match(ip_dst="10.0.0.2"),
                    actions=(Output(2),), cookie=42)
        )
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=0.1)
        switch.handle_message(FlowStatsRequest())
        sim.run(until=1.0)
        replies = controller.of_type(FlowStatsReply)
        assert len(replies) == 1
        assert len(replies[0].entries) == 1
        assert replies[0].entries[0].packets == 1
        assert replies[0].entries[0].cookie == 42

    def test_port_stats_reply(self, fabric, sim):
        switch, hosts, controller = fabric
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=0.1)
        switch.handle_message(PortStatsRequest())
        sim.run(until=1.0)
        replies = controller.of_type(PortStatsReply)
        assert len(replies) == 1
        rows = {r.port_no: r for r in replies[0].entries}
        assert rows[1].rx_packets == 1

    def test_echo_and_barrier(self, fabric, sim):
        switch, _, controller = fabric
        switch.handle_message(EchoRequest(xid=77))
        switch.handle_message(BarrierRequest(xid=88))
        sim.run(until=1.0)
        assert controller.of_type(EchoReply)[0].xid == 77
        assert controller.of_type(BarrierReply)[0].xid == 88

    def test_buffer_eviction_when_full(self, sim):
        switch = OpenFlowSwitch(sim, "s1", datapath_id=1, buffer_slots=2)
        host = Host(sim, "h", "10.0.0.1", "00:00:00:00:00:01")
        iface = switch.add_interface(1)
        Link(sim, iface, host.port)
        for i in range(4):
            packet = Packet.tcp_packet(
                host.mac, "00:00:00:00:00:02", host.ip, "10.0.0.2",
                TcpHeader(1, 80, flags=TCP_SYN),
            )
            switch._punt(packet, 1, None)  # no channel: punt is a no-op
        assert len(switch._buffers) <= 2

    def test_workload_charges_accumulate(self, fabric, sim):
        switch, hosts, _ = fabric
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=0.1)
        breakdown = switch.workload.breakdown()
        assert breakdown.get("lookup", 0) > 0
        assert breakdown.get("packet_in", 0) > 0


class TestTableFull:
    def test_flow_mod_on_full_table_counted_not_crashed(self, sim):
        switch = OpenFlowSwitch(sim, "s1", datapath_id=1)
        switch.table._max_entries = 2
        for i in range(4):
            switch.handle_message(
                FlowMod(command=FlowModCommand.ADD,
                        match=Match(ip_dst=f"10.9.0.{i + 1}"), actions=(Output(1),))
            )
        assert len(switch.table) == 2
        assert switch.counters.flow_mod_failures == 2
        switch.stop()

    def test_replacement_still_works_when_full(self, sim):
        switch = OpenFlowSwitch(sim, "s1", datapath_id=1)
        switch.table._max_entries = 1
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match(ip_dst="10.9.0.1"),
                    actions=(Output(1),))
        )
        # Same match+priority: replaces in place, no failure.
        switch.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match(ip_dst="10.9.0.1"),
                    actions=(Output(2),))
        )
        assert switch.counters.flow_mod_failures == 0
        assert len(switch.table) == 1
        switch.stop()


class TestBufferEvictions:
    def test_overflow_evicts_oldest_and_counts(self, sim):
        switch = OpenFlowSwitch(sim, "s1", datapath_id=1)
        host = Host(sim, "h1", "10.0.0.1", "00:00:00:00:00:01")
        victim = Host(sim, "h2", "10.0.0.2", "00:00:00:00:00:02")
        Link(sim, switch.add_interface(1), host.port)
        Link(sim, switch.add_interface(2), victim.port)
        switch._buffer_slots = 4
        controller = FakeController()
        channel = ControlChannel(sim, latency_s=0.001)
        channel._switch = switch
        channel._controller = controller
        switch.connect_controller(channel)
        for i in range(10):
            host.send_packet(
                Packet.tcp_packet(
                    host.mac, victim.mac, host.ip, victim.ip,
                    TcpHeader(1000 + i, 80, flags=TCP_SYN),
                )
            )
        sim.run(until=1.0)
        assert switch.counters.packets_punted == 10
        assert switch.counters.buffer_evictions == 6
        assert len(switch._buffers) == 4

    def test_no_evictions_within_capacity(self, fabric, sim):
        switch, hosts, controller = fabric
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=1.0)
        assert switch.counters.buffer_evictions == 0


class TestTableStatsReporting:
    def test_flow_stats_reply_carries_table_stats(self, fabric, sim):
        switch, hosts, controller = fabric
        from repro.openflow.flowtable import FlowEntry

        switch.table.install(
            FlowEntry(match=Match(ip_dst=hosts[1].ip), actions=(Output(2),), priority=10),
            now=sim.now,
        )
        for _ in range(5):
            hosts[0].send_packet(syn(hosts[0], hosts[1]))
        for _ in range(3):  # no rule for h3: table misses
            hosts[0].send_packet(syn(hosts[0], hosts[2]))
        sim.run(until=0.5)
        switch.channel.to_switch(FlowStatsRequest(xid=7))
        sim.run(until=1.0)
        replies = controller.of_type(FlowStatsReply)
        assert replies, "no FlowStatsReply received"
        stats = replies[-1].table_stats
        assert stats is not None
        assert stats.entry_count == 1
        assert stats.lookups == 8
        assert stats.hits == 5
        assert stats.misses == 3
        assert stats.hit_rate == 5 / 8
        assert stats == switch.table.stats()

    def test_tap_receives_flow_key(self, fabric, sim):
        from repro.net.flowkey import FlowKey

        switch, hosts, controller = fabric
        seen = []
        switch.attach_tap(lambda packet, in_port, key: seen.append((in_port, key)))
        hosts[0].send_packet(syn(hosts[0], hosts[1]))
        sim.run(until=1.0)
        assert len(seen) == 1
        in_port, key = seen[0]
        assert isinstance(key, FlowKey)
        assert key.in_port == in_port == 1
        assert key.ip_src == hosts[0].ip and key.ip_dst == hosts[1].ip

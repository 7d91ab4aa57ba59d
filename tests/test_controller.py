"""Tests for the controller framework and bundled apps."""

from __future__ import annotations

import pytest

from repro.controller.base import App, Controller
from repro.controller.l2 import L2LearningSwitch
from repro.openflow.match import Match
from repro.topology.builder import Network


@pytest.fixture
def net():
    """One switch, three hosts, real controller with L2 app."""
    network = Network(seed=1)
    network.add_switch("s1")
    for i in range(1, 4):
        network.add_host(f"h{i}")
        network.link(f"h{i}", "s1")
    network.finalize()
    return network


def exchange(net, a="h1", b="h2"):
    """Drive one request/response between two hosts."""
    stack_b = net.stack(b)
    if 80 not in stack_b.listeners:
        stack_b.listen(80, on_accept=lambda c: None)
    established = []
    net.stack(a).connect(
        net.hosts[b].ip, 80, on_established=lambda c: established.append(1)
    )
    net.run(until=net.sim.now + 2.0)
    return established


class TestL2Learning:
    def test_learns_and_installs_flows(self, net):
        assert exchange(net) == [1]
        l2 = net.l2
        table = l2.mac_tables[1]
        assert table[net.hosts["h1"].mac] == 1
        assert table[net.hosts["h2"].mac] == 2
        assert l2.flows_installed >= 1

    def test_first_packet_floods(self, net):
        exchange(net)
        assert net.l2.floods >= 1
        assert net.switches["s1"].counters.packets_flooded >= 1

    def test_port_for_lookup(self, net):
        exchange(net)
        assert net.l2.port_for(1, net.hosts["h2"].mac) == 2
        assert net.l2.port_for(1, "00:00:00:00:00:99") is None
        assert net.l2.port_for(99, net.hosts["h2"].mac) is None

    def test_subsequent_traffic_uses_fast_path(self, net):
        exchange(net)
        punts_before = net.switches["s1"].counters.packets_punted
        exchange(net, a="h1", b="h3")
        exchange(net, a="h1", b="h3")
        # After learning, later connections should punt far less.
        assert net.switches["s1"].counters.packets_punted > punts_before
        # And established flows forward in the fast path.
        assert net.switches["s1"].counters.packets_forwarded > 0


class TestAppDispatch:
    def test_apps_offered_in_registration_order(self, sim):
        controller = Controller(sim)
        calls = []

        class First(App):
            def on_packet_in(self, dp, msg):
                calls.append("first")
                return False

        class Second(App):
            def on_packet_in(self, dp, msg):
                calls.append("second")
                return True

        class Third(App):
            def on_packet_in(self, dp, msg):
                calls.append("third")
                return True

        controller.register_app(First())
        controller.register_app(Second())
        controller.register_app(Third())

        class FakeSwitch:
            datapath_id = 1

        from repro.openflow.channel import ControlChannel
        from repro.openflow.messages import PacketIn
        from repro.net.headers import TcpHeader
        from repro.net.packet import Packet

        controller.connect_switch(1, ControlChannel(sim))
        packet = Packet.tcp_packet(
            "00:00:00:00:00:01", "00:00:00:00:00:02", "10.0.0.1", "10.0.0.2", TcpHeader(1, 2)
        )
        controller.handle_message(
            FakeSwitch(), PacketIn(datapath_id=1, buffer_id=1, in_port=1, packet=packet)
        )
        assert calls == ["first", "second"]

    def test_app_lookup_by_type(self, sim):
        controller = Controller(sim)
        with pytest.raises(KeyError):
            controller.app(L2LearningSwitch)
        l2 = L2LearningSwitch()
        controller.register_app(l2)
        assert controller.app(L2LearningSwitch) is l2

    def test_duplicate_datapath_rejected(self, sim):
        from repro.openflow.channel import ControlChannel

        controller = Controller(sim)
        controller.connect_switch(1, ControlChannel(sim))
        with pytest.raises(ValueError):
            controller.connect_switch(1, ControlChannel(sim))

    def test_message_from_unknown_switch_ignored(self, sim):
        controller = Controller(sim)

        class Ghost:
            datapath_id = 404

        from repro.openflow.messages import FlowStatsReply

        reply = FlowStatsReply(datapath_id=404, entries=[])
        controller.handle_message(Ghost(), reply)  # must not raise


class TestNorthbound:
    def test_add_and_delete_flow(self, net):
        net.controller.add_flow(
            1, Match(ip_dst="10.0.0.9"), actions=(), priority=300, cookie=11
        )
        net.run(until=0.1)
        assert len(net.switches["s1"].table.entries_with_cookie(11)) == 1
        net.controller.delete_flows(1, Match(ip_dst="10.0.0.9"), cookie=11)
        net.run(until=0.2)
        assert len(net.switches["s1"].table.entries_with_cookie(11)) == 0

    def test_stats_callback_by_xid(self, net):
        got = []
        net.controller.request_flow_stats(1, callback=got.append)
        net.run(until=0.5)
        assert len(got) == 1

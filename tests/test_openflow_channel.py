"""Tests for the control channel, the switch workload meter and its probe."""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest

from repro.openflow.channel import ControlChannel
from repro.openflow.messages import FlowStatsReply, FlowStatsRequest, PacketIn
from repro.switch.workload import WorkloadCosts, WorkloadMeter


class Recorder:
    """Message sink standing in for either endpoint."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def handle_message(self, *args):
        # Controller endpoint gets (switch, message); switch gets (message,).
        self.received.append((self.sim.now, args[-1]))


class FakeSwitch(Recorder):
    datapath_id = 1


class TestControlChannel:
    def test_latency_applied_each_direction(self, sim):
        channel = ControlChannel(sim, latency_s=0.01)
        switch, controller = FakeSwitch(sim), Recorder(sim)
        channel.connect(switch, controller)
        channel.to_controller(FlowStatsReply(datapath_id=1, entries=[]))
        channel.to_switch(FlowStatsRequest())
        sim.run()
        assert controller.received[0][0] == pytest.approx(0.01, abs=1e-4)
        assert switch.received[0][0] == pytest.approx(0.01, abs=1e-4)

    def test_ordering_preserved_per_direction(self, sim):
        channel = ControlChannel(sim, latency_s=0.005, bandwidth_bps=1e5)
        switch, controller = FakeSwitch(sim), Recorder(sim)
        channel.connect(switch, controller)
        first = FlowStatsReply(datapath_id=1, entries=[], xid=1)
        second = FlowStatsReply(datapath_id=1, entries=[], xid=2)
        channel.to_controller(first)
        channel.to_controller(second)
        sim.run()
        assert [m for _, m in controller.received] == [first, second]
        assert controller.received[0][0] < controller.received[1][0]

    def test_serialization_adds_delay_for_large_messages(self, sim):
        channel = ControlChannel(sim, latency_s=0.0, bandwidth_bps=8e3)  # 1 kB/s
        switch, controller = FakeSwitch(sim), Recorder(sim)
        channel.connect(switch, controller)
        from repro.net.headers import TCP_SYN, TcpHeader
        from repro.net.packet import Packet

        packet = Packet.tcp_packet(
            "00:00:00:00:00:01", "00:00:00:00:00:02", "10.0.0.1", "10.0.0.2",
            TcpHeader(1, 2, flags=TCP_SYN), b"x" * 200,
        )
        big = PacketIn(datapath_id=1, buffer_id=1, in_port=1, packet=packet)
        channel.to_controller(big)
        sim.run()
        # wire_size ~ 8+10+128 bytes at 1 kB/s -> ~0.15s.
        assert controller.received[0][0] > 0.1

    def test_stats_counted(self, sim):
        channel = ControlChannel(sim, latency_s=0.001)
        switch, controller = FakeSwitch(sim), Recorder(sim)
        channel.connect(switch, controller)
        channel.to_controller(FlowStatsReply(datapath_id=1, entries=[]))
        channel.to_controller(FlowStatsReply(datapath_id=1, entries=[]))
        channel.to_switch(FlowStatsRequest())
        sim.run()
        assert channel.stats.to_controller_msgs == 2
        assert channel.stats.to_switch_msgs == 1
        assert channel.stats.to_controller_bytes > 0

    def test_unconnected_channel_drops_silently(self, sim):
        channel = ControlChannel(sim)
        channel.to_controller(FlowStatsReply(datapath_id=1, entries=[]))
        channel.to_switch(FlowStatsRequest())
        sim.run()  # nothing to deliver, nothing raised

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            ControlChannel(sim, latency_s=-1)
        with pytest.raises(ValueError):
            ControlChannel(sim, bandwidth_bps=0)


class TestWorkloadMeter:
    def test_charges_accumulate_by_cause(self):
        meter = WorkloadMeter()
        meter.charge_lookup()
        meter.charge_lookup()
        meter.charge_packet_in()
        breakdown = meter.breakdown()
        assert breakdown["lookup"] == pytest.approx(2 * meter.costs.lookup)
        assert breakdown["packet_in"] == pytest.approx(meter.costs.packet_in)
        assert meter.total_busy == pytest.approx(
            2 * meter.costs.lookup + meter.costs.packet_in
        )

    def test_mirror_charge_has_byte_term(self):
        meter = WorkloadMeter()
        meter.charge_mirror(1000)
        expected = meter.costs.mirror_packet + 1000 * meter.costs.mirror_byte
        assert meter.breakdown()["mirror"] == pytest.approx(expected)

    def test_inspection_share(self):
        meter = WorkloadMeter()
        meter.charge("mirror", 0.3)
        meter.charge("lookup", 0.7)
        assert meter.inspection_share() == pytest.approx(0.3)

    def test_inspection_share_zero_when_idle(self):
        assert WorkloadMeter().inspection_share() == 0.0

    def test_meter_state_does_not_grow_with_charges(self):
        meter = WorkloadMeter()
        for _ in range(10):
            meter.charge_lookup()
        size = len(pickle.dumps(meter))
        for _ in range(10_000):
            meter.charge_lookup()
        # Totals only: a long hosted session charges millions of lookups.
        assert len(pickle.dumps(meter)) == size
        assert meter.total_busy == pytest.approx(10_010 * meter.costs.lookup)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            WorkloadMeter().charge("x", -1.0)

    def test_custom_costs(self):
        costs = WorkloadCosts(lookup=1.0)
        meter = WorkloadMeter(costs)
        meter.charge_lookup()
        assert meter.total_busy == 1.0


class TestProbeUtilization:
    """``ScenarioProbe`` turns the meter's running total into a series."""

    def _probe(self, period_s=1.0):
        from repro.harness.probe import ScenarioProbe
        from repro.topology.builder import Network

        net = Network(seed=1)
        net.add_switch("s1")
        net.add_host("h1")
        net.link("h1", "s1")
        net.finalize()
        idle = SimpleNamespace(
            servers={"srv": SimpleNamespace(half_open=0, backlog_drops=0)},
            client_success_rate=lambda start, end: 1.0,
        )
        return net, ScenarioProbe(net, idle, period_s=period_s)

    def test_probe_reports_busy_since_previous_sample(self):
        net, probe = self._probe(period_s=1.0)
        meter = net.switches["s1"].workload
        net.sim.schedule(0.5, lambda: meter.charge("x", 0.25))
        net.sim.schedule(2.5, lambda: meter.charge("x", 0.5))
        net.run(until=4.0)
        assert probe.series.switch_utilization.samples() == [
            (0.0, 0.0), (1.0, 0.25), (2.0, 0.0), (3.0, 0.5), (4.0, 0.0),
        ]

    def test_probe_counts_each_charge_once(self):
        # A charge at a sample instant lands in exactly one window, so the
        # series integrates back to the meter's total.
        net, probe = self._probe(period_s=0.5)
        meter = net.switches["s1"].workload
        for t in (0.5, 1.0, 1.25, 2.0):
            net.sim.schedule(t, lambda: meter.charge("x", 0.1))
        net.run(until=3.0)
        samples = probe.series.switch_utilization.samples()
        assert sum(u for _, u in samples) * 0.5 == pytest.approx(meter.total_busy)
        assert meter.total_busy == pytest.approx(0.4)

    def test_probe_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            self._probe(period_s=0.0)


class TestControllerOutage:
    """Fail-secure semantics when the control session breaks."""

    def _build(self):
        from repro.topology.builder import Network
        from repro.workload.clients import WebClient
        from repro.workload.servers import WebServer

        net = Network(seed=3)
        net.add_switch("s1")
        for name in ("srv", "cli", "cli2"):
            net.add_host(name)
            net.link(name, "s1")
        net.finalize()
        server = WebServer(net.stack("srv"))
        return net, server

    def test_existing_flows_forward_during_outage(self):
        net, server = self._build()
        from repro.workload.clients import WebClient

        client = WebClient(net.stack("cli"), server_ip=server.ip,
                           rng=net.rng.child("c"), think_time_s=0.2)
        client.start(initial_delay=0.0)
        net.run(until=2.0)  # learn flows while the controller is up
        before = client.stats.successes()
        assert before >= 1
        net.channels["s1"].set_down(True)
        net.run(until=6.0)
        # The learned fast path keeps working without the controller.
        assert client.stats.successes() > before
        assert client.stats.failures(2.0, 6.0) == 0

    def test_new_flows_stall_during_outage(self):
        net, server = self._build()
        net.channels["s1"].set_down(True)
        from repro.workload.clients import WebClient

        # cli2 was never learned: its punts vanish into the outage.
        fresh = WebClient(net.stack("cli2"), server_ip=server.ip,
                          rng=net.rng.child("c2"), think_time_s=0.3)
        fresh.start(initial_delay=0.1)
        net.run(until=6.0)
        assert fresh.stats.successes() == 0
        assert net.channels["s1"].stats.dropped_while_down > 0

    def test_recovery_after_outage(self):
        net, server = self._build()
        channel = net.channels["s1"]
        channel.set_down(True)
        from repro.workload.clients import WebClient

        client = WebClient(net.stack("cli"), server_ip=server.ip,
                           rng=net.rng.child("c"), think_time_s=0.3)
        client.start(initial_delay=0.1)
        net.run(until=3.0)
        assert client.stats.successes() == 0
        net.sim.schedule(0.0, lambda: channel.set_down(False))
        net.run(until=12.0)
        assert client.stats.successes() >= 1

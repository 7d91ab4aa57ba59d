"""Tests for the TCP 3-way handshake, backlog and half-open behaviour."""

from __future__ import annotations

import pytest

from repro.net.headers import TCP_ACK, TCP_SYN, TcpHeader
from repro.tcp.config import HALF_OPEN_TIMEOUT, SYN_ACK_RETRIES, SYN_RETRIES
from repro.tcp.states import TcpState


class TestHandshake:
    def test_basic_handshake_completes(self, host_pair, sim):
        accepted = []
        host_pair.stack_b.listen(80, on_accept=accepted.append)
        established = []
        conn = host_pair.stack_a.connect(
            "10.0.0.2", 80, on_established=lambda c: established.append(sim.now)
        )
        sim.run(until=1.0)
        assert conn.state is TcpState.ESTABLISHED
        assert len(accepted) == 1
        assert accepted[0].state is TcpState.ESTABLISHED
        # 3 one-way trips of ~1ms links plus serialization.
        assert established[0] < 0.01

    def test_counters_track_handshake(self, host_pair, sim):
        host_pair.stack_b.listen(80)
        host_pair.stack_a.connect("10.0.0.2", 80)
        sim.run(until=1.0)
        assert host_pair.stack_b.counters.syns_received == 1
        assert host_pair.stack_b.counters.syn_acks_sent == 1
        assert host_pair.stack_b.counters.handshakes_completed == 1
        assert host_pair.stack_a.counters.handshakes_completed == 1

    def test_handshake_latency_recorded(self, host_pair, sim):
        host_pair.stack_b.listen(80)
        conn = host_pair.stack_a.connect("10.0.0.2", 80)
        sim.run(until=1.0)
        latency = conn.stats.handshake_latency()
        assert latency is not None and 0 < latency < 0.01

    def test_connect_to_closed_port_fails_with_reset(self, host_pair, sim):
        failures = []
        conn = host_pair.stack_a.connect(
            "10.0.0.2", 81, on_failed=lambda c, r: failures.append(r)
        )
        sim.run(until=1.0)
        assert failures == ["reset"]
        assert conn.state is TcpState.CLOSED
        assert host_pair.stack_b.counters.rsts_sent == 1

    def test_syn_to_unreachable_host_times_out(self, host_pair, sim):
        failures = []
        host_pair.a.arp_table["10.0.0.77"] = "00:00:00:00:00:77"  # nobody home
        host_pair.stack_a.connect(
            "10.0.0.77", 80, on_failed=lambda c, r: failures.append(r)
        )
        sim.run(until=30.0)
        assert failures == ["syn-timeout"]

    def test_syn_retransmissions_counted(self, host_pair, sim):
        host_pair.a.arp_table["10.0.0.77"] = "00:00:00:00:00:77"
        conn = host_pair.stack_a.connect("10.0.0.77", 80)
        sim.run(until=30.0)
        assert conn.stats.syn_retransmits == SYN_RETRIES

    def test_ephemeral_ports_unique(self, host_pair, sim):
        host_pair.stack_b.listen(80)
        conns = [host_pair.stack_a.connect("10.0.0.2", 80) for _ in range(10)]
        ports = {c.local_port for c in conns}
        assert len(ports) == 10

    def test_duplicate_listen_rejected(self, host_pair):
        host_pair.stack_b.listen(80)
        with pytest.raises(ValueError):
            host_pair.stack_b.listen(80)


class TestBacklog:
    def _flood_syns(self, host_pair, count, port=80):
        """Inject raw spoofed SYNs directly at b's stack."""
        for i in range(count):
            header = TcpHeader(src_port=1000 + i, dst_port=port, seq=i, flags=TCP_SYN)
            host_pair.a.send_tcp("10.0.0.2", header, src_ip=f"198.18.0.{i % 250 + 1}")

    def test_backlog_fills_with_half_open(self, host_pair, sim):
        socket = host_pair.stack_b.listen(80, backlog=10)
        self._flood_syns(host_pair, 8)
        sim.run(until=0.5)
        assert socket.half_open_count == 8
        assert not socket.backlog_full

    def test_backlog_overflow_drops_syns(self, host_pair, sim):
        socket = host_pair.stack_b.listen(80, backlog=10)
        self._flood_syns(host_pair, 25)
        sim.run(until=0.5)
        assert socket.half_open_count == 10
        assert socket.backlog_drops == 15
        assert host_pair.stack_b.counters.backlog_drops == 15

    def test_full_backlog_denies_legitimate_client(self, host_pair, sim):
        host_pair.stack_b.listen(80, backlog=5)
        self._flood_syns(host_pair, 5)
        sim.run(until=0.2)
        failures = []
        host_pair.stack_a.connect("10.0.0.2", 80, on_failed=lambda c, r: failures.append(r))
        sim.run(until=2.0)  # shorter than half-open expiry at default config
        assert failures == [] or failures == ["syn-timeout"]

    def test_half_open_entries_expire_and_free_slots(self, host_pair, sim):
        socket = host_pair.stack_b.listen(8080, backlog=5)
        self._flood_syns(host_pair, 5, port=8080)
        sim.run(until=0.5)
        assert socket.backlog_full
        # After retries * timeout the half-open entries are recycled.
        horizon = HALF_OPEN_TIMEOUT * (SYN_ACK_RETRIES + 2)
        sim.run(until=horizon + 1)
        assert socket.half_open_count == 0
        assert host_pair.stack_b.counters.half_open_expired == 5

    def test_recovered_backlog_accepts_again(self, host_pair, sim):
        host_pair.stack_b.listen(80, backlog=3)
        self._flood_syns(host_pair, 3)
        sim.run(until=0.5)
        horizon = HALF_OPEN_TIMEOUT * (SYN_ACK_RETRIES + 2) + 1
        sim.run(until=horizon)
        established = []
        host_pair.stack_a.connect("10.0.0.2", 80, on_established=lambda c: established.append(1))
        sim.run(until=horizon + 5)
        assert established == [1]

    def test_duplicate_syn_does_not_consume_second_slot(self, host_pair, sim):
        socket = host_pair.stack_b.listen(80, backlog=10)
        header = TcpHeader(src_port=1000, dst_port=80, seq=5, flags=TCP_SYN)
        host_pair.a.send_tcp("10.0.0.2", header, src_ip="198.18.0.1")
        host_pair.a.send_tcp("10.0.0.2", header, src_ip="198.18.0.1")
        sim.run(until=0.5)
        assert socket.half_open_count == 1


class TestRst:
    def test_rst_aborts_established_connection(self, host_pair, sim):
        host_pair.stack_b.listen(80)
        closed = []
        conn = host_pair.stack_a.connect("10.0.0.2", 80)
        sim.run(until=0.5)
        conn.on_closed = lambda c: closed.append(1)
        # Forge an RST from b.
        from repro.net.headers import TCP_RST

        rst = TcpHeader(
            src_port=80, dst_port=conn.local_port, seq=conn.rcv_nxt,
            ack=conn.snd_nxt, flags=TCP_RST | TCP_ACK,
        )
        host_pair.b.send_tcp("10.0.0.1", rst)
        sim.run(until=1.0)
        assert conn.state is TcpState.CLOSED
        assert closed == [1]

    def test_abort_sends_rst(self, host_pair, sim):
        host_pair.stack_b.listen(80)
        conn = host_pair.stack_a.connect("10.0.0.2", 80)
        sim.run(until=0.5)
        server_conn = next(iter(host_pair.stack_b.connections.values()))
        conn.abort()
        sim.run(until=1.0)
        assert server_conn.state is TcpState.CLOSED
        assert host_pair.stack_b.counters.rsts_received == 1

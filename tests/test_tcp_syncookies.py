"""Tests for SYN cookies (host-side flood defense)."""

from __future__ import annotations

import pytest

from repro.net.headers import TCP_ACK, TCP_SYN, TcpHeader
from repro.sim.rng import SeededRng
from repro.tcp.states import TcpState
from tests.conftest import HostPair


@pytest.fixture
def cookie_pair(sim, rng):
    """Host pair where b (the server) runs SYN cookies."""
    pair = HostPair.__new__(HostPair)
    # Rebuild with SYN cookies on the server side.
    from repro.net.host import Host
    from repro.net.link import Link
    from repro.tcp.stack import TcpStack

    pair.sim = sim
    pair.a = Host(sim, "a", "10.0.0.1", "00:00:00:00:00:01")
    pair.b = Host(sim, "b", "10.0.0.2", "00:00:00:00:00:02")
    pair.link = Link(sim, pair.a.port, pair.b.port)
    pair.a.arp_table[pair.b.ip] = pair.b.mac
    pair.b.arp_table[pair.a.ip] = pair.a.mac
    pair.stack_a = TcpStack(pair.a, rng.child("a"))
    pair.stack_b = TcpStack(pair.b, rng.child("b"), syn_cookies=True)
    return pair


def flood(pair, count, port=80):
    for i in range(count):
        header = TcpHeader(src_port=1000 + i, dst_port=port, seq=i, flags=TCP_SYN)
        pair.a.send_tcp("10.0.0.2", header, src_ip=f"198.18.0.{i % 250 + 1}")


class TestSynCookies:
    def test_cookies_kick_in_when_backlog_full(self, cookie_pair, sim):
        socket = cookie_pair.stack_b.listen(80, backlog=5)
        flood(cookie_pair, 20)
        sim.run(until=1.0)
        assert socket.half_open_count == 5  # backlog holds its 5
        assert cookie_pair.stack_b.counters.cookies_sent == 15
        assert cookie_pair.stack_b.counters.backlog_drops == 0

    def test_legitimate_client_connects_through_full_backlog(self, cookie_pair, sim):
        accepted = []
        cookie_pair.stack_b.listen(80, backlog=5, on_accept=accepted.append)
        flood(cookie_pair, 5)  # fill the backlog
        sim.run(until=0.5)
        established = []
        conn = cookie_pair.stack_a.connect(
            "10.0.0.2", 80, on_established=lambda c: established.append(1)
        )
        sim.run(until=2.0)
        assert established == [1]
        assert len(accepted) == 1
        assert cookie_pair.stack_b.counters.cookies_validated == 1
        assert accepted[0].state is TcpState.ESTABLISHED

    def test_cookie_connection_carries_data(self, cookie_pair, sim):
        got = []

        def on_accept(conn):
            conn.on_data = lambda c, d: got.append(d) if d else None

        cookie_pair.stack_b.listen(80, backlog=1, on_accept=on_accept)
        flood(cookie_pair, 1)
        sim.run(until=0.5)

        def on_established(conn):
            conn.send(b"cookie-data")

        cookie_pair.stack_a.connect("10.0.0.2", 80, on_established=on_established)
        sim.run(until=2.0)
        assert got == [b"cookie-data"]

    def test_forged_ack_rejected_with_rst(self, cookie_pair, sim):
        cookie_pair.stack_b.listen(80, backlog=1)
        flood(cookie_pair, 1)
        sim.run(until=0.5)
        # An ACK whose value never came from a cookie SYN-ACK.
        forged = TcpHeader(src_port=4444, dst_port=80, seq=77, ack=12345, flags=TCP_ACK)
        cookie_pair.a.send_tcp("10.0.0.2", forged)
        sim.run(until=1.0)
        assert cookie_pair.stack_b.counters.cookie_failures == 1
        assert cookie_pair.stack_b.counters.rsts_sent == 1

    def test_spoofed_flood_leaves_no_state(self, cookie_pair, sim):
        cookie_pair.stack_b.listen(80, backlog=4)
        flood(cookie_pair, 200)
        sim.run(until=1.0)
        # Backlog bounded, no connections created for unanswered cookies.
        assert cookie_pair.stack_b.total_half_open() <= 4
        assert len(cookie_pair.stack_b.connections) <= 4

    def test_cookies_disabled_by_default(self, host_pair, sim):
        host_pair.stack_b.listen(80, backlog=5)
        for i in range(10):
            header = TcpHeader(src_port=1000 + i, dst_port=80, seq=i, flags=TCP_SYN)
            host_pair.a.send_tcp("10.0.0.2", header, src_ip=f"198.18.0.{i + 1}")
        sim.run(until=0.5)
        assert host_pair.stack_b.counters.cookies_sent == 0
        assert host_pair.stack_b.counters.backlog_drops == 5

    def test_cookie_service_under_sustained_flood(self, cookie_pair, sim):
        """End-to-end: server keeps accepting while flooded."""
        from repro.workload.servers import WebServer

        server = WebServer(cookie_pair.stack_b, port=8080, backlog=8)
        # Sustained flood.
        from repro.sim.process import Interval

        rng = SeededRng(9)
        flooder = Interval.constant(
            sim, 200.0,
            lambda: cookie_pair.a.send_tcp(
                "10.0.0.2",
                TcpHeader(rng.randint(1024, 60000), 8080,
                          seq=rng.randint(0, 2**32 - 1), flags=TCP_SYN),
                src_ip=rng.random_ipv4("198.18."),
            ),
        )
        flooder.start()
        # Benign connections throughout.
        completed = []

        def attempt():
            def on_established(conn):
                state = {"done": False}

                def on_data(c, d):
                    if d and not state["done"]:
                        state["done"] = True
                        completed.append(1)

                conn.on_data = on_data
                conn.send(b"req")

            cookie_pair.stack_a.connect("10.0.0.2", 8080, on_established=on_established)

        for start in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(start, attempt)
        sim.run(until=6.0)
        flooder.stop()
        assert len(completed) == 4
        assert server.backlog_drops == 0

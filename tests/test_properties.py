"""Cross-cutting property-based tests on core invariants.

Three suites: a model-based flow table check against a naive reference,
TCP handshake invariants under randomized flood/benign interleavings,
and conservation laws on the link layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.headers import TCP_SYN, TcpHeader, UdpHeader
from repro.net.packet import Packet
from repro.openflow.actions import Output
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match

MAC = "00:00:00:00:00:01"


# --------------------------------------------------------------------------
# Model-based flow table testing: the table must agree with a brute-force
# reference on every lookup, expiry and counter after any sequence of
# installs, removals, timeouts and (repeated) lookups.
# --------------------------------------------------------------------------


@dataclass
class _ReferenceEntry:
    match: Match
    priority: int
    token: int
    idle_timeout: float
    hard_timeout: float
    installed_at: float
    last_hit_at: float
    packets: int = 0


@dataclass
class _ReferenceTable:
    """Brute-force reference semantics for FlowTable."""

    entries: list = field(default_factory=list)
    hits: int = 0
    misses: int = 0

    def install(self, match, priority, token, idle, hard, now):
        new = _ReferenceEntry(match, priority, token, idle, hard, now, now)
        for i, old in enumerate(self.entries):
            if old.match == match and old.priority == priority:
                self.entries[i] = new
                return
        self.entries.append(new)

    def remove(self, filter_match):
        self.entries = [
            e for e in self.entries if not filter_match.subsumes(e.match)
        ]

    def expire(self, now):
        """``(token, reason)`` of every timed-out entry, which then leaves."""
        gone = []
        for e in self.entries:
            if e.hard_timeout and now - e.installed_at >= e.hard_timeout:
                gone.append((e.token, "hard_timeout"))
            elif e.idle_timeout and now - e.last_hit_at >= e.idle_timeout:
                gone.append((e.token, "idle_timeout"))
        tokens = {token for token, _ in gone}
        self.entries = [e for e in self.entries if e.token not in tokens]
        return gone

    def lookup(self, packet, in_port, now):
        best = None
        for e in self.entries:
            # Highest priority wins; earliest install breaks ties.
            if e.match.matches(packet, in_port) and (
                best is None or e.priority > best.priority
            ):
                best = e
        if best is None:
            self.misses += 1
            return None
        best.packets += 1
        best.last_hit_at = now
        self.hits += 1
        return best


_ips = st.integers(min_value=1, max_value=6).map(lambda i: f"10.0.0.{i}")
_ports = st.sampled_from([80, 443, 1234])


@st.composite
def _packets(draw):
    src, dst = draw(_ips), draw(_ips)
    if draw(st.booleans()):
        header = TcpHeader(draw(_ports), draw(_ports), flags=TCP_SYN)
        return Packet.tcp_packet(MAC, MAC, src, dst, header)
    return Packet.udp_packet(MAC, MAC, src, dst, UdpHeader(draw(_ports), draw(_ports)))


_matches = st.one_of(
    st.just(Match.any()),
    _ips.map(lambda ip: Match(ip_dst=ip)),
    _ips.map(lambda ip: Match(ip_src=ip)),
    st.sampled_from([
        Match(ip_src="10.0.0.0/29"), Match(ip_dst="10.0.0.0/30"),
        Match(ip_dst="10.0.0.4/31"),
    ]),
    st.sampled_from([
        Match(tp_dst=80), Match(tp_dst=443), Match(ip_proto=6), Match(ip_proto=17),
        Match(in_port=2),
    ]),
)

_timeouts = st.sampled_from([0.0, 0.0, 1.0, 2.5])

_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("install"), _matches, st.integers(min_value=1, max_value=3),
            _timeouts, _timeouts,
        ),
        st.tuples(st.just("remove"), _matches, st.just(0), st.just(0.0), st.just(0.0)),
        st.tuples(st.just("expire"), st.none(), st.just(0), st.just(0.0), st.just(0.0)),
        st.tuples(
            st.just("lookup"), _packets(), st.integers(min_value=1, max_value=2),
            st.just(0.0), st.just(0.0),
        ),
    ),
    max_size=60,
)


class TestFlowTableModel:
    @given(ops=_operations)
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lookup_agrees_with_reference(self, ops):
        table = FlowTable()
        reference = _ReferenceTable()
        now = 0.0
        for token, (op, arg, num, idle, hard) in enumerate(ops):
            now += 0.5  # so idle and hard timeouts fire mid-sequence
            if op == "install":
                entry = FlowEntry(
                    match=arg, actions=(Output(1),), priority=num,
                    idle_timeout=idle, hard_timeout=hard, cookie=token,
                )
                table.install(entry, now=now)
                reference.install(arg, num, token, idle, hard, now)
            elif op == "remove":
                table.remove_matching(arg)
                reference.remove(arg)
            elif op == "expire":
                got = sorted((e.cookie, reason.value) for e, reason in table.expire(now))
                assert got == sorted(reference.expire(now))
            else:
                packet, in_port = arg, num
                for _ in range(2):  # a repeat must count against the entry again
                    got = table.lookup(packet, in_port, now=now)
                    want = reference.lookup(packet, in_port, now)
                    if want is None:
                        assert got is None
                    else:
                        assert got is not None and got.cookie == want.token
                        assert got.packets == want.packets
                        assert got.last_hit_at == want.last_hit_at
        assert sorted((e.cookie, e.packets, e.last_hit_at) for e in table) == sorted(
            (e.token, e.packets, e.last_hit_at) for e in reference.entries
        )
        assert (table.hits, table.misses) == (reference.hits, reference.misses)
        assert table.lookups == table.hits + table.misses


# --------------------------------------------------------------------------
# TCP invariants under random interleavings of flood and benign traffic.
# --------------------------------------------------------------------------


class TestTcpInvariants:
    @given(
        events=st.lists(
            st.one_of(
                st.tuples(st.just("flood"), st.integers(min_value=1, max_value=250)),
                st.tuples(st.just("benign"), st.integers(min_value=0, max_value=3)),
            ),
            min_size=1,
            max_size=25,
        ),
        backlog=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_backlog_never_exceeded_and_counters_balance(self, events, backlog):
        from repro.sim.engine import Simulator
        from repro.sim.rng import SeededRng
        from tests.conftest import HostPair

        sim = Simulator()
        rng = SeededRng(1)
        pair = HostPair(sim, rng)
        socket = pair.stack_b.listen(80, backlog=backlog)
        established = []
        gap = 0.01
        for i, (kind, arg) in enumerate(events):
            when = i * gap
            if kind == "flood":
                header = TcpHeader(
                    src_port=5000 + i, dst_port=80, seq=i, flags=TCP_SYN
                )
                sim.schedule(
                    when,
                    lambda h=header, a=arg: pair.a.send_tcp(
                        "10.0.0.2", h, src_ip=f"198.18.0.{a}"
                    ),
                )
            else:
                sim.schedule(
                    when,
                    lambda: pair.stack_a.connect(
                        "10.0.0.2", 80,
                        on_established=lambda c: established.append(c),
                    ),
                )
            # Invariant checked densely along the way.
            sim.schedule(when + gap / 2, lambda: _assert_backlog(socket, backlog))
        sim.run(until=60.0)
        _assert_backlog(socket, backlog)
        counters = pair.stack_b.counters
        # Everything that entered the backlog left it exactly one way:
        # accepted, expired, or still pending.
        entered = socket.accepted + counters.half_open_expired + socket.half_open_count
        assert entered == counters.syn_acks_sent
        # Benign connects either completed or are still retrying; the
        # stack never manufactures connections.
        assert socket.accepted >= len(established)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_handshake_deterministic_per_seed(self, seed):
        from repro.sim.engine import Simulator
        from repro.sim.rng import SeededRng
        from tests.conftest import HostPair

        def run_once():
            sim = Simulator()
            pair = HostPair(sim, SeededRng(seed))
            pair.stack_b.listen(80)
            log = []
            pair.stack_a.connect(
                "10.0.0.2", 80, on_established=lambda c: log.append(("up", sim.now))
            )
            sim.run(until=5.0)
            return log

        assert run_once() == run_once()


def _assert_backlog(socket, backlog):
    assert socket.half_open_count <= backlog


# --------------------------------------------------------------------------
# Link conservation: every offered packet is delivered, queued, dropped
# or lost — never duplicated, never unaccounted for.
# --------------------------------------------------------------------------


class TestLinkConservation:
    @given(
        n_packets=st.integers(min_value=1, max_value=120),
        queue=st.integers(min_value=1, max_value=20),
        loss=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_offered_equals_accounted(self, n_packets, queue, loss):
        from repro.net.link import Link
        from repro.sim.engine import Simulator
        from repro.sim.rng import SeededRng
        from tests.test_net_link import Sink, make_packet

        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = Link(
            sim, a.port, b.port, bandwidth_bps=1e6, queue_packets=queue,
            loss_probability=loss, rng=SeededRng(3) if loss > 0 else None,
        )
        for _ in range(n_packets):
            a.port.send(make_packet())
        sim.run()
        stats = link.stats_for(a.port)
        accounted = len(b.received) + stats.packets_dropped + stats.packets_lost
        assert accounted == n_packets
        assert stats.packets_sent == len(b.received) + stats.packets_lost

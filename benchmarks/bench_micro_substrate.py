"""M1: microbenchmarks of the substrate's hot paths.

These are genuine repeated-timing benchmarks (unlike the experiment
regenerations): flow-table lookup, wire-format pack/parse, the
discrete-event loop, and a full small scenario — the costs that bound
how large a simulated network the harness can drive.
"""

from __future__ import annotations

from repro.net.headers import TCP_SYN, TcpHeader
from repro.net.packet import Packet, parse_packet
from repro.openflow.actions import Output
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match
from repro.sim.engine import Simulator


def _packet():
    return Packet.tcp_packet(
        "00:00:00:00:00:01", "00:00:00:00:00:02", "10.0.0.1", "10.0.0.2",
        TcpHeader(1234, 80, seq=7, flags=TCP_SYN), b"x" * 64,
    )


def test_flow_table_lookup_100_entries(benchmark):
    table = FlowTable()
    for i in range(100):
        table.install(
            FlowEntry(match=Match(ip_dst=f"10.1.{i // 250}.{i % 250 + 1}"),
                      actions=(Output(1),), priority=100),
            now=0.0,
        )
    # Worst case: the packet matches none of the 100 entries.
    packet = _packet()
    result = benchmark(table.lookup, packet, 1, 0.0)
    assert result is None


def test_flow_table_lookup_hit_first_priority(benchmark):
    table = FlowTable()
    table.install(
        FlowEntry(match=Match(ip_dst="10.0.0.2"), actions=(Output(1),), priority=300),
        now=0.0,
    )
    for i in range(99):
        table.install(
            FlowEntry(match=Match(ip_dst=f"10.1.0.{i + 1}"), actions=(Output(1),),
                      priority=100),
            now=0.0,
        )
    packet = _packet()
    result = benchmark(table.lookup, packet, 1, 0.0)
    assert result is not None


def test_packet_pack_to_wire(benchmark):
    packet = _packet()
    raw = benchmark(packet.to_bytes)
    assert len(raw) == packet.size_bytes


def test_packet_parse_from_wire(benchmark):
    raw = _packet().to_bytes()
    parsed = benchmark(parse_packet, raw)
    assert parsed.tcp is not None


def test_event_loop_throughput_10k_events(benchmark):
    def run_10k():
        sim = Simulator()
        state = {"n": 0}

        def tick():
            state["n"] += 1
            if state["n"] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return state["n"]

    assert benchmark(run_10k) == 10_000


def test_event_loop_schedule_many_batched(benchmark):
    """10k events scheduled in 100-entry batches, then drained.

    Exercises the batched ``schedule_many`` path the links and periodic
    traffic processes use, against the same total event count as the
    one-at-a-time throughput case above.
    """
    def noop():
        pass

    def run_batched():
        sim = Simulator()
        for batch in range(100):
            sim.schedule_many(
                [(0.001 * (batch * 100 + i + 1), noop, "") for i in range(100)]
            )
        return sim.run()

    assert benchmark(run_batched) > 0


def _noop():
    pass


def _hold_model(benchmark, n_pending):
    """Brown's hold model: pop the earliest, re-insert over the horizon.

    The queue is pre-filled with ``n_pending`` events uniform over a
    horizon, then each operation pops the earliest event and pushes a
    replacement at ``popped.time + increment`` with increments drawn
    from the same fill distribution — steady state at constant
    occupancy, the standard priority-queue benchmark.
    """
    import random

    from repro.sim.engine import EventQueue

    horizon = n_pending * 1e-3
    ops = 1000

    def setup():
        rng = random.Random(42)
        queue = EventQueue()
        queue.push_many(
            [(rng.random() * horizon, _noop, "") for _ in range(n_pending)]
        )
        offset_rng = random.Random(7)
        offsets = [offset_rng.random() * horizon for _ in range(1024)]
        return (queue, offsets), {}

    def hold(queue, offsets):
        pop = queue.pop
        push = queue.push
        for i in range(ops):
            event = pop()
            push(event.time + offsets[i & 1023], _noop, "")
        return queue

    queue = benchmark.pedantic(hold, setup=setup, rounds=15, iterations=1)
    assert len(queue) == n_pending


def test_event_queue_hold_heap_10k_pending(benchmark):
    _hold_model(benchmark, 10_000)


def test_event_queue_hold_heap_200k_pending(benchmark):
    _hold_model(benchmark, 200_000)


def test_small_scenario_end_to_end(benchmark):
    """A complete 8-second single-switch attack scenario."""
    from repro.harness.scenario import ScenarioConfig, run_scenario
    from repro.workload.profiles import WorkloadConfig

    config = ScenarioConfig(
        topology="single",
        topology_params={"n_clients": 2, "n_attackers": 1},
        duration_s=8.0,
        defense="spi",
        workload=WorkloadConfig(attack_rate_pps=200, attack_start_s=2.0),
    )
    result = benchmark.pedantic(run_scenario, args=(config,), rounds=3, iterations=1)
    assert result.spi.stats.confirmed == 1


def _populated_table(**kwargs) -> FlowTable:
    table = FlowTable(**kwargs)
    for i in range(100):
        table.install(
            FlowEntry(match=Match(ip_dst=f"10.1.{i // 250}.{i % 250 + 1}"),
                      actions=(Output(1),), priority=100),
            now=0.0,
        )
    table.install(
        FlowEntry(match=Match(ip_dst="10.0.0.2"), actions=(Output(1),), priority=50),
        now=0.0,
    )
    return table


def test_flow_table_repeated_lookup_cache_hit(benchmark):
    """The fast path: identical flow, microflow exact-match hit every time."""
    table = _populated_table()
    packet = _packet()
    table.lookup(packet, 1, 0.0)  # warm the cache
    result = benchmark(table.lookup, packet, 1, 0.0)
    assert result is not None
    assert table.microflow_hits > 0


def test_flow_table_repeated_lookup_cache_disabled(benchmark):
    """Baseline: the same repeated lookup forced down the linear scan."""
    table = _populated_table(microflow_enabled=False)
    packet = _packet()
    result = benchmark(table.lookup, packet, 1, 0.0)
    assert result is not None
    assert table.microflow_hits == 0


def test_flow_table_lookup_cache_miss_cold(benchmark):
    """Every lookup sees a fresh flow: cache probe + scan + insert."""
    table = _populated_table()
    packets = [
        Packet.tcp_packet(
            "00:00:00:00:00:01", "00:00:00:00:00:02", "10.0.0.1", "10.0.0.2",
            TcpHeader(1024 + i, 80, flags=TCP_SYN),
        )
        for i in range(4096)
    ]
    state = {"i": 0}

    def cold_lookup():
        i = state["i"]
        state["i"] = (i + 1) % len(packets)
        table._microflow.clear()
        return table.lookup(packets[i], 1, 0.0)

    assert benchmark(cold_lookup) is not None


def test_flow_table_lookup_post_invalidation(benchmark):
    """install() flushes the cache; the next lookup repopulates it."""
    table = _populated_table()
    packet = _packet()
    churn = FlowEntry(
        match=Match(ip_dst="10.9.9.9"), actions=(Output(1),), priority=10
    )

    def invalidate_then_lookup():
        table.install(churn, now=0.0)
        return table.lookup(packet, 1, 0.0)

    assert benchmark(invalidate_then_lookup) is not None


def test_packet_repeat_to_bytes_memo(benchmark):
    """Serializing the same unmodified packet again returns the memo."""
    packet = _packet()
    packet.to_bytes()  # populate
    raw = benchmark(packet.to_bytes)
    assert len(raw) == packet.size_bytes


def test_packet_to_bytes_after_invalidation(benchmark):
    """Mutating a header forces a genuine re-pack each round."""
    packet = _packet()
    header = packet.tcp

    def mutate_and_pack():
        packet.tcp = header  # assignment drops the memo
        return packet.to_bytes()

    raw = benchmark(mutate_and_pack)
    assert len(raw) == packet.size_bytes


def test_small_scenario_invariants_enabled(benchmark):
    """The 8-second scenario with periodic invariant sweeps turned on.

    Not gated (checking is allowed to cost something when requested);
    tracked in the M1 JSON so the sweep price stays visible over time.
    """
    from repro.harness.scenario import ScenarioConfig, run_scenario
    from repro.workload.profiles import WorkloadConfig

    config = ScenarioConfig(
        topology="single",
        topology_params={"n_clients": 2, "n_attackers": 1},
        duration_s=8.0,
        defense="spi",
        workload=WorkloadConfig(attack_rate_pps=200, attack_start_s=2.0),
        check_invariants=True,
    )
    result = benchmark.pedantic(run_scenario, args=(config,), rounds=3, iterations=1)
    assert result.spi.stats.confirmed == 1
    assert result.invariants is not None and result.invariants.checks_run > 0


def test_connection_factory_indirection(benchmark):
    """Connection creation through the swappable ``connection_class`` hook."""
    from repro.topology import single_switch

    net, _ = single_switch(n_clients=1, n_attackers=0)
    stack = next(iter(net.stacks.values()))

    def create_and_forget():
        conn = stack.create_connection(40000, "10.9.9.9", 80)
        stack.forget(conn)
        return conn

    assert benchmark(create_and_forget) is not None


def test_invariants_disabled_overhead_under_2pct():
    """Guard: the invariant subsystem must cost <2% when not requested.

    The only hot-path residue of a disabled run is the
    ``TcpStack.connection_class`` attribute indirection inside
    ``create_connection``.  Compare it against an equivalent factory that
    hard-codes ``Connection`` (the pre-subsystem body) with interleaved
    min-of-repeats timings, which are stable well below the 2% bound.
    """
    import timeit

    from repro.tcp.socket import Connection
    from repro.tcp.stack import TcpStack
    from repro.topology import single_switch

    def _direct_create(stack, local_port, remote_ip, remote_port):
        conn = Connection(
            stack=stack,
            local_port=local_port,
            remote_ip=remote_ip,
            remote_port=remote_port,
            iss=stack.rng.randint(0, 0xFFFFFFFF),
            listener=None,
        )
        stack.connections[conn.key] = conn
        return conn

    net, _ = single_switch(n_clients=1, n_attackers=0)
    stack = next(iter(net.stacks.values()))
    assert stack.connection_class is Connection  # disabled mode
    assert TcpStack.connection_class is Connection

    def via_hook():
        stack.forget(stack.create_connection(41000, "10.9.9.9", 80))

    def hardcoded():
        stack.forget(_direct_create(stack, 41000, "10.9.9.9", 80))

    n = 2000
    hook_times, direct_times = [], []
    for _ in range(7):  # interleave so drift hits both sides equally
        hook_times.append(timeit.timeit(via_hook, number=n))
        direct_times.append(timeit.timeit(hardcoded, number=n))
    ratio = min(hook_times) / min(direct_times)
    assert ratio < 1.02, (
        f"disabled-mode invariant hook overhead {ratio - 1:.2%} exceeds 2% "
        f"(hook {min(hook_times) / n * 1e6:.3f}us vs "
        f"direct {min(direct_times) / n * 1e6:.3f}us)"
    )

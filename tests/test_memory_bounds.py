"""What a run leaves behind does not grow with the attacker's address space.

Every SYN of a spoofed flood carries a source the attacker picked.  Any
process-wide cache keyed on those addresses outlives the run and grows
with the attack, not with the topology; a warm pool worker would carry
it from one sweep point to the next.  So two floods that differ only in
how many distinct sources they spoof must leave the same memory held
once their results are dropped.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.workload.profiles import WorkloadConfig

#: The attacker draws each source uniformly from 198.18.0.0/16.
_SPOOF_SPACE = 1 << 16


def _packets_for(distinct_sources: int) -> int:
    """SYNs to send for that many distinct sources, in expectation."""
    return round(-_SPOOF_SPACE * math.log(1 - distinct_sources / _SPOOF_SPACE))


def _flood(distinct_sources: int) -> None:
    """A one-second SYN flood on the single-switch topology, result dropped."""
    workload = WorkloadConfig(
        attack_rate_pps=float(_packets_for(distinct_sources)), attack_start_s=1.0
    )
    config = ScenarioConfig(topology="single", duration_s=2.0, defense="none", workload=workload)
    run_scenario(config)


def _held_after(distinct_sources: int) -> int:
    _flood(distinct_sources)
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_memory_held_after_a_flood_does_not_grow_with_spoofed_sources():
    _flood(2_000)  # first-run imports and lazy set-up, outside the trace
    tracemalloc.start()
    try:
        few = _held_after(2_000)
        many = _held_after(20_000)
    finally:
        tracemalloc.stop()
    assert abs(many - few) < 256 * 1024, (few, many)



def test_a_handshake_tracker_holds_at_most_200_bytes_per_spoofed_source():
    """Inspection state is counters per source: 20 k spoofed SYNs, each
    from its own address, leave at most 200 B per source in the tracker.

    The frames are built before the trace starts, so the bytes counted
    are the tracker's own: the address text belongs to the frame, and
    the tracker keys its counters by that same string.
    """
    from repro.inspection.tracker import HandshakeTracker
    from repro.net.headers import TCP_SYN, TcpHeader
    from repro.net.packet import Packet

    mac, victim, sources = "00:00:00:00:00:01", "10.0.0.1", 20_000
    frames = [
        Packet.tcp_packet(
            mac, mac, f"198.18.{i >> 8}.{i & 0xFF}", victim,
            TcpHeader(1024 + i, 80, flags=TCP_SYN),
        )
        for i in range(sources)
    ]
    tracker = HandshakeTracker(victim, 0.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, frame in enumerate(frames):
            tracker.observe(frame, i * 1e-4)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tracker.snapshot(2.0).source_count == sources
    assert held / sources <= 200, held / sources

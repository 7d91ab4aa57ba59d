"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import EventQueue, SimulationError, Simulator


class TestEventQueue:
    def test_pop_orders_by_time(self):
        q = EventQueue()
        order = []
        q.push(2.0, lambda: order.append("late"))
        q.push(1.0, lambda: order.append("early"))
        q.pop().fn()
        q.pop().fn()
        assert order == ["early", "late"]

    def test_fifo_within_same_instant(self):
        q = EventQueue()
        events = [q.push(1.0, lambda i=i: i) for i in range(5)]
        popped = [q.pop() for _ in range(5)]
        assert [e.seq for e in popped] == [e.seq for e in events]

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        second = q.push(2.0, lambda: None)
        first.cancel()
        q.note_cancelled()
        assert q.pop() is second

    def test_len_reflects_live_events(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        assert len(q) == 1
        e.cancel()
        q.note_cancelled()
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        first.cancel()
        q.note_cancelled()
        assert q.peek_time() == 5.0

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_cancel_then_peek_keeps_live_count_consistent(self):
        # peek_time discards cancelled heap entries eagerly; that must not
        # disturb the _live accounting note_cancelled already adjusted.
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        second = q.push(2.0, lambda: None)
        first.cancel()
        q.note_cancelled()
        assert q.peek_time() == 2.0
        assert len(q) == 1
        assert q.pop() is second
        assert len(q) == 0
        assert q.peek_time() is None

    def test_push_many_matches_sequential_pushes(self):
        q = EventQueue()
        before = q.push(1.0, lambda: None)
        batch = q.push_many(
            [(1.0, lambda: None, "a"), (0.5, lambda: None, "b")]
        )
        after = q.push(1.0, lambda: None)
        assert [e.seq for e in batch] == [before.seq + 1, before.seq + 2]
        assert after.seq == batch[-1].seq + 1
        assert len(q) == 4
        # Equal-time FIFO holds across the batch boundary.
        assert q.pop() is batch[1]  # t=0.5
        assert [q.pop() for _ in range(3)] == [before, batch[0], after]

    def test_push_many_empty_batch(self):
        q = EventQueue()
        assert q.push_many([]) == []
        assert len(q) == 0


class TestSimulator:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]
        assert sim.now == 1.5

    def test_run_until_advances_clock_to_until(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_excludes_later_events(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append("in"))
        sim.schedule(15.0, lambda: fired.append("out"))
        sim.run(until=10.0)
        assert fired == ["in"]
        assert sim.pending() == 1

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_zero_delay_runs_fifo(self, sim):
        order = []
        sim.schedule(0.0, lambda: order.append(1))
        sim.schedule(0.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_events_can_schedule_more_events(self, sim):
        fired = []

        def chain(n):
            fired.append(sim.now)
            if n > 0:
                sim.schedule(1.0, lambda: chain(n - 1))

        sim.schedule(1.0, lambda: chain(2))
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_cancel_pending_event(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("no"))
        sim.cancel(event)
        sim.run()
        assert fired == []
        assert sim.pending() == 0

    def test_double_cancel_is_noop(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending() == 0

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_bounds_execution(self, sim):
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=3)
        assert sim.events_executed == 3
        assert sim.pending() == 7

    def test_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_returns_final_time(self, sim):
        sim.schedule(2.5, lambda: None)
        assert sim.run() == 2.5

    def test_events_executed_accumulates_across_runs(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 2

    def test_schedule_at_exactly_now_runs(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_at(sim.now, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [1.0]

    def test_max_events_with_until_still_advances_clock(self, sim):
        # The budget stops event execution, but a supplied `until` still
        # pins the final clock — the run models a fixed wall-clock window.
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run(until=10.0, max_events=2) == 10.0
        assert sim.events_executed == 2
        assert sim.pending() == 3

    def test_until_before_remaining_events_leaves_them_pending(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=1.5, max_events=10)
        assert fired == [1]
        assert sim.pending() == 1

    def test_schedule_many_preserves_fifo_with_schedule(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule_many(
            [
                (1.0, lambda: order.append("b"), "b"),
                (1.0, lambda: order.append("c"), "c"),
                (0.5, lambda: order.append("first"), "first"),
            ]
        )
        sim.schedule(1.0, lambda: order.append("d"))
        sim.run()
        assert order == ["first", "a", "b", "c", "d"]

    def test_schedule_many_rejects_negative_delay_atomically(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_many(
                [(1.0, lambda: None, ""), (-0.5, lambda: None, "")]
            )
        # Validation happens before any push: nothing was scheduled.
        assert sim.pending() == 0

    def test_schedule_many_events_are_cancellable(self, sim):
        fired = []
        events = sim.schedule_many(
            [(1.0, lambda: fired.append(1), ""), (2.0, lambda: fired.append(2), "")]
        )
        sim.cancel(events[0])
        sim.run()
        assert fired == [2]


class TestCompactionBounds:
    """Cancel-heavy workloads must not grow the queue unboundedly."""

    def test_cancel_heavy_workload_is_bounded(self, monkeypatch):
        monkeypatch.setattr(EventQueue, "compact_threshold", 64)
        queue = EventQueue()
        handles = []
        for i in range(5000):
            handles.append(queue.push(float(i % 97), lambda: None, ""))
        for handle in handles[:4500]:
            handle.cancel()
            queue.note_cancelled()
        acc = queue.accounting()
        assert acc["physical"] == acc["live"] + acc["dead"]
        # Tombstones can never outnumber both the live events and the
        # threshold, so the physical size stays bounded.
        assert acc["dead"] <= max(acc["live"], 64)
        assert acc["physical"] <= acc["live"] + max(acc["live"], 64)
        survivors = 0
        while queue.pop() is not None:
            survivors += 1
        assert survivors == 500

    def test_compact_is_idempotent_and_preserves_order(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None, "") for i in range(100)]
        for handle in handles[::2]:
            handle.cancel()
            queue.note_cancelled()
        queue.compact()
        queue.compact()
        acc = queue.accounting()
        assert acc["dead"] == 0
        assert acc["physical"] == acc["live"] == 50
        order = []
        while True:
            event = queue.pop()
            if event is None:
                break
            order.append((event.time, event.seq))
        assert order == sorted(order)
        assert len(order) == 50

    def test_run_loop_survives_compaction_mid_run(self, monkeypatch):
        # Simulator.run holds a direct reference to the queue's internal
        # list, so compaction must mutate it in place.  Cancel enough
        # timers from inside callbacks to trigger compaction mid-run.
        monkeypatch.setattr(EventQueue, "compact_threshold", 16)
        sim = Simulator()
        log = []
        timers = [
            sim.schedule(5.0 + i * 0.001, lambda: log.append("timer"))
            for i in range(200)
        ]

        def cancel_all():
            log.append("cancel")
            for timer in timers:
                sim.cancel(timer)

        sim.schedule(1.0, cancel_all)
        sim.schedule(2.0, lambda: log.append("after"))
        sim.run()
        assert log == ["cancel", "after"]
        acc = sim._queue.accounting()
        assert acc["physical"] == acc["live"] + acc["dead"] == 0

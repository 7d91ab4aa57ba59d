"""Tests for timers, periodic tasks and arrival processes."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.engine_reference import ReferenceSimulator
from repro.sim.process import Interval, PeriodicTask, Timer
from repro.sim.rng import SeededRng


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_restart_resets_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.schedule(1.0, lambda: timer.start(5.0))
        sim.run()
        assert fired == [6.0]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_armed_reflects_state(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        sim.run()
        assert not timer.armed

    def test_timer_can_rearm_itself(self, sim):
        fired = []
        timer = Timer(sim, lambda: None)

        def fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer._fn = fire
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestPeriodicTask:
    def test_ticks_at_fixed_period(self, sim):
        times = []
        task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        task.start()
        sim.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]
        assert task.ticks == 3

    def test_start_immediately_uses_initial_delay_zero(self, sim):
        times = []
        task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        task.start(initial_delay=0.0)
        sim.run(until=2.5)
        assert times == [0.0, 1.0, 2.0]

    def test_stop_halts_ticks(self, sim):
        times = []
        task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        task.start()
        sim.schedule(2.5, task.stop)
        sim.run(until=10)
        assert times == [1.0, 2.0]

    def test_callback_may_stop_task(self, sim):
        times = []
        task = PeriodicTask(sim, 1.0, lambda: (times.append(sim.now), task.stop()))
        task.start()
        sim.run(until=10)
        assert times == [1.0]

    def test_double_start_is_noop(self, sim):
        task = PeriodicTask(sim, 1.0, lambda: None)
        task.start()
        task.start()
        sim.run(until=2.5)
        assert task.ticks == 2

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda: None)

    def test_running_property(self, sim):
        task = PeriodicTask(sim, 1.0, lambda: None)
        assert not task.running
        task.start()
        assert task.running
        task.stop()
        assert not task.running


def _twin(reference: bool):
    return ReferenceSimulator() if reference else Simulator()


def _suppressing_draw(rng: SeededRng, drawn: list):
    """Pre-draws two values per arrival and suppresses about a third."""

    def draw(t: float):
        drawn.append(t)
        if rng.random() < 0.3:
            return None
        return (t, rng.randint(0, 1000))

    return draw


class TestInterval:
    def test_twins_deliver_the_same_arrivals(self):
        # The coalesced twin draws a window ahead, so both run to the last
        # arrival it has drawn: by then both have drawn the same arrivals.
        runs = []
        until = 0.4  # eight burst horizons
        for reference in (False, True):
            sim = _twin(reference)
            rng = SeededRng(7)
            got, drawn = [], []
            interval = Interval(
                sim, rng, 200.0, lambda item: got.append((sim.now, item)),
                draw=_suppressing_draw(rng, drawn),
            )
            assert interval.coalesced is not reference
            interval.start()
            sim.run(until=until)
            until = drawn[-1]
            sim.run(until=until)
            assert got and all(now == item[0] for now, item in got)
            runs.append((got, drawn, rng.random()))
        fast, ref = runs
        assert fast == ref  # deliveries, drawn arrivals, rng state
        assert len(fast[0]) > 40 and len(fast[1]) > len(fast[0])

    def test_without_draw_the_item_is_the_arrival_time(self, sim, rng):
        got = []
        interval = Interval(sim, rng, 100.0, lambda t: got.append((sim.now, t)))
        interval.start()
        sim.run(until=1.0)
        assert got and all(now == t for now, t in got)

    def test_poisson_rate_is_approximately_right(self, sim, rng):
        count = []
        interval = Interval(sim, rng, 100.0, lambda _t: count.append(1))
        interval.start()
        sim.run(until=10.0)
        # 1000 expected; Poisson sd ~ 32, allow 5 sigma.
        assert 840 <= len(count) <= 1160

    @pytest.mark.parametrize("reference", [False, True])
    def test_stop_mid_burst_leaves_no_entry_live(self, reference):
        sim = _twin(reference)
        rng = SeededRng(3)
        got = []
        interval = Interval(
            sim, rng, 400.0, got.append, draw=_suppressing_draw(rng, [])
        )
        interval.start()
        sim.schedule_at(0.123, interval.stop)  # inside the third burst window
        sim.run(until=0.123)
        delivered = len(got)
        assert delivered > 0 and not interval.running
        assert len(sim._queue) == 0  # nothing of the process is live
        sim.run(until=1.0)
        assert len(got) == delivered

    def test_stop_halts_arrivals(self, sim, rng):
        times = []
        interval = Interval(sim, rng, 100.0, times.append)
        interval.start()
        sim.schedule(0.55, interval.stop)
        sim.run(until=2.0)
        assert times and max(times) <= 0.55

    def test_initial_delay_defers_first_arrival(self, sim, rng):
        times = []
        interval = Interval(sim, rng, 100.0, times.append)
        interval.start(5.0)
        sim.run(until=5.5)
        assert times and min(times) > 5.0

    def test_start_time_is_absolute(self, sim, rng):
        times = []
        interval = Interval(sim, rng, 100.0, times.append)
        sim.run(until=2.0)
        interval.start(1.0)  # already past: arrivals begin now
        interval.start(9.0)  # a running process ignores a second start
        sim.run(until=2.5)
        assert times and 2.0 < min(times) < 2.5

    def test_invalid_rate_rejected(self, sim, rng):
        with pytest.raises(ValueError):
            Interval(sim, rng, 0.0, lambda _t: None)
        with pytest.raises(ValueError):
            Interval(sim, rng, -1.0, lambda _t: None)

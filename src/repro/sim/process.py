"""Higher-level scheduling helpers built on the raw event queue.

These mirror the idioms a Ryu/POX application would use on a real
controller: one-shot timers (``Timer``), fixed-rate polling loops
(``PeriodicTask``) and the one Poisson arrival process (``Interval``)
every traffic generator draws its arrivals from.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.sim.engine import Event, Simulator
from repro.sim.rng import SeededRng

#: Seconds of arrivals one coalesced burst event pre-generates.
_BURST_HORIZON_S = 0.05


class Timer:
    """A restartable one-shot timer.

    Used for TCP SYN-retransmission timeouts, flow-rule expiry, monitor
    window closes, and verification deadlines.
    """

    def __init__(self, sim: Simulator, fn: Callable[[], None], label: str = "") -> None:
        self._sim = sim
        self._fn = fn
        self._label = label
        self._event: Event | None = None

    @property
    def armed(self) -> bool:
        """True while the timer is pending."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire, self._label)

    def cancel(self) -> None:
        """Disarm the timer if pending."""
        if self._event is not None and not self._event.cancelled:
            self._sim.cancel(self._event)
        self._event = None

    def _fire(self) -> None:
        self._event = None
        self._fn()


class PeriodicTask:
    """Run a callback every ``period`` seconds until stopped.

    The next tick is scheduled *before* the callback runs, so a callback
    that itself stops the task does not resurrect it.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        fn: Callable[[], None],
        label: str = "",
        start_immediately: bool = False,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self._sim = sim
        self._period = period
        self._fn = fn
        self._label = label
        self._event: Event | None = None
        self._running = False
        self.ticks = 0
        if start_immediately:
            self.start()

    @property
    def running(self) -> bool:
        """True while ticks continue to be scheduled."""
        return self._running

    def start(self, initial_delay: float | None = None) -> None:
        """Begin ticking; first tick after ``initial_delay`` (default period)."""
        if self._running:
            return
        self._running = True
        delay = self._period if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._tick, self._label)

    def stop(self) -> None:
        """Stop ticking; any in-flight tick event is cancelled."""
        self._running = False
        if self._event is not None and not self._event.cancelled:
            self._sim.cancel(self._event)
        self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._event = self._sim.schedule(self._period, self._tick, self._label)
        self.ticks += 1
        self._fn()


class Interval:
    """The one Poisson arrival process: ``fn(item)`` at ``rate`` per second.

    ``draw(t)`` pre-draws the randomness of the arrival due at ``t`` and
    returns the item ``fn`` receives when the arrival falls due, or
    ``None`` to suppress it; without ``draw`` the item is the arrival
    time.  Per arrival the gap to the next one is drawn first, then
    ``draw``, so the rng stream and the delivered ``(time, item)``
    sequence do not depend on which twin runs.

    The simulator picks the twin.  On :class:`Simulator` the process
    coalesces: one burst event pre-generates ``_BURST_HORIZON_S`` of
    arrivals and schedules them in a single ``schedule_at_many`` batch
    (the window's arrivals share one bound callback, the next burst entry
    comes last, a suppressed arrival gets no event) and then delivers its
    own arrival.  On the reference simulator every arrival is its own
    event.  Either way the process keeps the events it has scheduled and
    counts how many have run, so :meth:`stop` cancels exactly the rest.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: SeededRng,
        rate: float,
        fn: Callable[[object], None],
        label: str = "",
        draw: Callable[[float], object] | None = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._sim = sim
        self._rng = rng
        self._rate = rate
        self._fn = fn
        self._label = label
        self._draw = draw or _arrival_time
        self.coalesced = isinstance(sim, Simulator)
        self._events: list[Event] = []
        self._ran = 0
        self._items: deque = deque()
        self._t_next = 0.0

    @property
    def running(self) -> bool:
        """True while arrivals continue."""
        return bool(self._events)

    def start(self, at: float = 0.0) -> None:
        """Begin arrivals at absolute time ``at`` (now, if that has passed).

        The first arrival falls one gap after it.
        """
        if self._events:
            return
        sim = self._sim
        self._t_next = max(sim.now, at) + self._rng.expovariate(self._rate)
        step = self._burst if self.coalesced else self._arrive
        self._events = [sim.schedule_at(self._t_next, step, self._label)]
        self._ran = 0

    def stop(self) -> None:
        """Halt arrivals: cancel every scheduled entry that has not run."""
        cancel = self._sim.cancel
        for event in self._events[self._ran:]:
            cancel(event)
        self._events = []
        self._items.clear()

    def _arrive(self) -> None:
        """Reference twin: one event per arrival, scheduling the next first."""
        t = self._t_next
        self._t_next = t_next = t + self._rng.expovariate(self._rate)
        self._events = [self._sim.schedule_at(t_next, self._arrive, self._label)]
        item = self._draw(t)
        if item is not None:
            self._fn(item)

    def _burst(self) -> None:
        """Fast path: pre-generate a window, then deliver the arrival due now."""
        t = self._t_next
        horizon = t + _BURST_HORIZON_S
        expovariate = self._rng.expovariate
        rate = self._rate
        draw = self._draw
        push_item = self._items.append
        deliver = self._deliver
        label = self._label
        entries: list = []
        append = entries.append
        gap = expovariate(rate)
        first = draw(t)
        t += gap
        while t <= horizon:
            gap = expovariate(rate)
            item = draw(t)
            if item is not None:
                push_item(item)
                append((t, deliver, label))
            t += gap
        self._t_next = t
        append((t, self._burst, label))
        self._events = self._sim.schedule_at_many(entries)
        self._ran = 0
        if first is not None:
            self._fn(first)

    def _deliver(self) -> None:
        self._ran += 1
        self._fn(self._items.popleft())


def _arrival_time(t: float) -> float:
    return t

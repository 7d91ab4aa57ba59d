"""Core discrete-event simulation engine.

The engine is a classic binary-heap event-list simulator: callbacks are
scheduled at absolute simulated times and executed in time order.  Ties are
broken by a monotonically increasing sequence number so that events scheduled
earlier run earlier, which keeps every run fully deterministic for a given
seed.

The heap stores ``(time, seq, event)`` tuples rather than the events
themselves, so heap sifts compare a float and an int instead of dispatching
into a rich-comparison method; the event object is a ``__slots__`` handle
carrying the callback and the cancellation flag.  ``Simulator.run`` walks the
heap directly (one skim for cancelled entries, one pop per executed event)
because this loop bounds how large a simulated network the harness can drive.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Sequence


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulator (e.g. scheduling in the past)."""


class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, seq)``.  ``seq`` is assigned by the queue
    and guarantees FIFO execution among events scheduled for the same instant.
    """

    __slots__ = ("time", "seq", "fn", "label", "cancelled")

    def __init__(
        self, time: float, seq: int, fn: Callable[[], None], label: str = ""
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it is popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, seq={self.seq}, label={self.label!r}{state})"


class EventQueue:
    """A cancellable min-heap of ``(time, seq, Event)`` entries.

    Cancellation is lazy: ``cancel`` marks the event and the tombstone
    is reclaimed when it reaches the heap top — except that a workload
    which cancels timers much faster than it pops (a pulsing attack
    rearming retransmission timers, say) would grow the heap without
    bound.  ``note_cancelled`` therefore triggers an in-place compaction
    once tombstones both exceed :attr:`compact_threshold` and outnumber
    the live events, bounding the physical heap at
    ``live + max(compact_threshold, live)`` entries.  Compaction mutates
    the heap list in place (slice assignment + heapify) because the run
    loop holds a direct reference to it.
    """

    __slots__ = ("_heap", "_seq", "_live", "_dead")

    #: Minimum tombstone count before a cancel can trigger compaction;
    #: keeps small queues from paying O(n) rebuilds for a handful of
    #: cancelled timers.  Class-level so tests can lower it.
    compact_threshold = 512

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, fn: Callable[[], None], label: str = "") -> Event:
        """Insert a callback at absolute ``time`` and return its event handle."""
        event = Event(time, self._seq, fn, label)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def push_many(
        self, items: Iterable[tuple[float, Callable[[], None], str]]
    ) -> list[Event]:
        """Insert a batch of ``(time, fn, label)`` entries in one call.

        Sequence numbers are assigned in iteration order, so a batch behaves
        exactly like the equivalent series of :meth:`push` calls (FIFO among
        equal times is preserved) while amortizing the per-call overhead.
        """
        heap = self._heap
        heappush = heapq.heappush
        seq = self._seq
        events: list[Event] = []
        append = events.append
        for time, fn, label in items:
            event = Event(time, seq, fn, label)
            heappush(heap, (time, seq, event))
            seq += 1
            append(event)
        self._live += len(events)
        self._seq = seq
        return events

    def pop(self) -> Event | None:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> float | None:
        """Return the time of the earliest non-cancelled event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]

    def note_cancelled(self) -> None:
        """Account for an event cancelled via its handle."""
        self._live -= 1
        self._dead += 1
        if self._dead > self.compact_threshold and self._dead > self._live:
            self.compact()

    def compact(self) -> None:
        """Drop every tombstone from the heap, in place."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0

    def accounting(self) -> dict[str, int]:
        """Physical/live/tombstone tallies (for the invariant harness)."""
        return {
            "physical": len(self._heap),
            "live": self._live,
            "dead": self._dead,
            "compact_threshold": self.compact_threshold,
        }


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second in"))
        sim.run(until=10.0)

    All components in this repository (links, switches, controller apps,
    monitors, traffic generators) schedule their work on one shared
    ``Simulator`` so the whole network advances on a single virtual clock.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable[[], None], label: str = "") -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback after
        all previously scheduled zero-delay work (FIFO within an instant).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        # Inlined EventQueue.push: schedule() is called once per simulated
        # event, so the extra call frame is measurable at scale.
        queue = self._queue
        seq = queue._seq
        event = Event(self._now + delay, seq, fn, label)
        heapq.heappush(queue._heap, (event.time, seq, event))
        queue._seq = seq + 1
        queue._live += 1
        return event

    def schedule_many(
        self, items: Sequence[tuple[float, Callable[[], None], str]]
    ) -> list[Event]:
        """Schedule a batch of ``(delay, fn, label)`` entries in one call.

        Equivalent to calling :meth:`schedule` once per entry, in order
        (sequence numbers — and therefore FIFO ties — are identical), but
        with the validation and heap-push overhead amortized across the
        batch.  Links use this for the two events they schedule per
        transmission.
        """
        now = self._now
        for delay, _fn, _label in items:
            if delay < 0:
                raise SimulationError(f"cannot schedule {delay!r}s in the past")
        return self._queue.push_many(
            (now + delay, fn, label) for delay, fn, label in items
        )

    def schedule_at(self, time: float, fn: Callable[[], None], label: str = "") -> Event:
        """Schedule ``fn`` at absolute simulated ``time`` (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {self._now!r}"
            )
        return self._queue.push(time, fn, label)

    def schedule_at_many(
        self, items: Sequence[tuple[float, Callable[[], None], str]]
    ) -> list[Event]:
        """Schedule a batch of ``(time, fn, label)`` entries at absolute times.

        The batched counterpart of :meth:`schedule_at`, used by the
        coalesced arrival process (:class:`repro.sim.process.Interval`):
        pre-generated arrival times must be re-entered
        verbatim (going through a delay would re-round ``now + (t - now)``
        and shift event times off the reference trajectory).  Sequence
        numbers are assigned in iteration order, exactly like the equivalent
        series of :meth:`schedule_at` calls.
        """
        now = self._now
        for time, _fn, _label in items:
            if time < now:
                raise SimulationError(
                    f"cannot schedule at {time!r}, clock already at {now!r}"
                )
        return self._queue.push_many(items)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event; cancelling twice is a no-op."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Execute events in time order.

        Args:
            until: stop once the clock would pass this time (the clock is
                left at ``until`` if supplied, matching wall-clock runs of a
                testbed for a fixed duration).
            max_events: safety valve for runaway schedules.

        Returns:
            The simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        # The peek/pop pair is inlined on the queue's heap: the loop below
        # is the hottest code in the repository, and going through the
        # EventQueue methods costs a dict lookup and a call frame per event.
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        limit = float("inf") if until is None else until
        # Equality against -1 never fires; non-positive budgets behave like
        # the historical post-increment ``>=`` check (one event, then stop).
        budget = -1 if max_events is None else max(1, max_events)
        try:
            while not self._stopped:
                while heap and heap[0][2].cancelled:
                    heappop(heap)
                    queue._dead -= 1
                if not heap:
                    break
                head = heap[0]
                if head[0] > limit:
                    break
                heappop(heap)
                queue._live -= 1
                self._now = head[0]
                head[2].fn()
                executed += 1
                if executed == budget:
                    break
            if until is not None and not self._stopped and self._now < until:
                self._now = until
            return self._now
        finally:
            self.events_executed += executed
            self._running = False

    def pending(self) -> int:
        """Number of events still waiting to execute."""
        return len(self._queue)

"""The OVS inspection budget: the workload-balancing half of SPI.

Mirroring is not free — every mirrored packet costs switch CPU and SPAN
bandwidth — so the coordinator bounds how many victims are deep-inspected
concurrently.  Excess inspection requests queue (FIFO) and start as slots
free; beyond the queue bound they are rejected and the alert holddown
retries later.  Experiment E7 ablates the budget size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from repro.monitor.detectors import retune_number


@dataclass(frozen=True)
class BudgetConfig:
    """Concurrency limits for selective inspection."""

    max_concurrent: int = 2
    max_queue: int = 8

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("need at least one inspection slot")
        if self.max_queue < 0:
            raise ValueError("queue bound must be >= 0")


class InspectionBudget:
    """Slot accounting for concurrent victim inspections."""

    def __init__(self, config: BudgetConfig | None = None) -> None:
        self.config = config or BudgetConfig()
        self._active: set[str] = set()
        self._queue: deque[str] = deque()
        self.granted = 0
        self.queued = 0
        self.rejected = 0

    @property
    def active(self) -> frozenset[str]:
        """Victims currently holding an inspection slot."""
        return frozenset(self._active)

    @property
    def queue_depth(self) -> int:
        """Victims waiting for a slot."""
        return len(self._queue)

    def request(self, victim_ip: str) -> str:
        """Ask for an inspection slot.

        Returns one of ``"granted"``, ``"queued"``, ``"rejected"``,
        ``"duplicate"`` (already active or queued).
        """
        if victim_ip in self._active or victim_ip in self._queue:
            return "duplicate"
        if len(self._active) < self.config.max_concurrent:
            self._active.add(victim_ip)
            self.granted += 1
            return "granted"
        if len(self._queue) < self.config.max_queue:
            self._queue.append(victim_ip)
            self.queued += 1
            return "queued"
        self.rejected += 1
        return "rejected"

    def release(self, victim_ip: str) -> str | None:
        """Free a slot; returns the next queued victim now granted, if any."""
        self._active.discard(victim_ip)
        if self._queue and len(self._active) < self.config.max_concurrent:
            follower = self._queue.popleft()
            self._active.add(follower)
            self.granted += 1
            return follower
        return None

    def cancel(self, victim_ip: str) -> None:
        """Withdraw a queued request (e.g. the alert went stale)."""
        try:
            self._queue.remove(victim_ip)
        except ValueError:
            pass

    def retune(
        self, max_concurrent: int | None = None, max_queue: int | None = None
    ) -> "BudgetConfig":
        """Validated runtime reconfiguration of the slot limits.

        The new limits are validated as a whole (``BudgetConfig``'s own
        invariants) before anything is applied.  Active inspections are
        never interrupted: a lowered ``max_concurrent`` takes effect as
        slots free up, and queued victims beyond a lowered ``max_queue``
        stay queued (the bound applies to new requests).  Raised limits
        promote queued victims only on the next release, keeping slot
        grants attached to verdict events.  Returns the config in force.
        """
        updates: dict[str, int] = {}
        if max_concurrent is not None:
            updates["max_concurrent"] = retune_number("max_concurrent", max_concurrent, integral=True)
        if max_queue is not None:
            updates["max_queue"] = retune_number("max_queue", max_queue, integral=True)
        if updates:
            self.config = replace(self.config, **updates)
        return self.config

"""The prioritized flow table with counters and timeouts.

Lookup semantics follow OpenFlow 1.0 / Open vSwitch: highest priority
wins; among equal priorities the earliest-installed entry wins; every hit
updates packet/byte counters and the idle-timeout clock.

Every lookup is one linear scan over the priority-sorted entries.  The
tables this simulator builds hold a handful of rules, and a spoofed-source
flood presents a fresh 5-tuple on nearly every packet, so an exact-match
cache in front of the scan would almost never hit and would cost more
than the scan it skips.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.flowkey import FlowKey
from repro.net.packet import Packet
from repro.openflow.actions import Action, Drop, RateLimit
from repro.openflow.match import Match

_entry_ids = itertools.count(1)


class RemovedReason(enum.Enum):
    """Why a flow entry left the table (mirrors OFPRR_*)."""

    IDLE_TIMEOUT = "idle_timeout"
    HARD_TIMEOUT = "hard_timeout"
    DELETE = "delete"


@dataclass
class FlowEntry:
    """One installed rule."""

    match: Match
    actions: tuple[Action, ...]
    priority: int = 100
    idle_timeout: float = 0.0  # 0 = never
    hard_timeout: float = 0.0  # 0 = never
    cookie: int = 0
    notify_removed: bool = False
    installed_at: float = 0.0
    last_hit_at: float = 0.0
    packets: int = 0
    bytes: int = 0
    entry_id: int = field(default_factory=lambda: next(_entry_ids))
    #: Every packet is discarded with nothing to police first — the list is
    #: empty, or holds a ``Drop`` and no ``RateLimit`` — so the datapath
    #: drops on this one flag instead of walking the actions.
    drops: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.drops = not self.actions or (
            any(isinstance(a, Drop) for a in self.actions)
            and not any(isinstance(a, RateLimit) for a in self.actions)
        )

    def hit(self, packet: Packet, now: float) -> None:
        """Update counters on a lookup hit."""
        self.packets += 1
        self.bytes += packet.size_bytes
        self.last_hit_at = now

    def expired(self, now: float) -> Optional[RemovedReason]:
        """Timeout status at ``now`` (``None`` if still live)."""
        if self.hard_timeout > 0 and now - self.installed_at >= self.hard_timeout:
            return RemovedReason.HARD_TIMEOUT
        if self.idle_timeout > 0 and now - self.last_hit_at >= self.idle_timeout:
            return RemovedReason.IDLE_TIMEOUT
        return None

    def describe(self) -> str:
        """Readable one-line dump."""
        acts = ",".join(a.describe() for a in self.actions) or "drop"
        return f"prio={self.priority} {self.match.describe()} -> {acts}"


@dataclass(frozen=True)
class TableStats:
    """Lookup counters (one snapshot)."""

    entry_count: int
    lookups: int
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        """Classifier hit fraction over all lookups."""
        return self.hits / self.lookups if self.lookups else 0.0


class FlowTable:
    """A single OpenFlow table."""

    def __init__(self, max_entries: int = 10000) -> None:
        self._entries: list[FlowEntry] = []
        self._max_entries = max_entries
        self.lookups = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def full(self) -> bool:
        """True when no more entries can be installed."""
        return len(self._entries) >= self._max_entries

    def stats(self) -> TableStats:
        """Snapshot of lookup counters for stats replies and reports."""
        return TableStats(
            entry_count=len(self._entries),
            lookups=self.lookups,
            hits=self.hits,
            misses=self.misses,
        )

    def install(self, entry: FlowEntry, now: float) -> FlowEntry:
        """Add an entry, replacing any with identical match+priority."""
        entry.installed_at = now
        entry.last_hit_at = now
        for i, existing in enumerate(self._entries):
            if existing.match == entry.match and existing.priority == entry.priority:
                self._entries[i] = entry
                return entry
        if self.full:
            raise RuntimeError("flow table full")
        self._entries.append(entry)
        # Keep sorted: priority descending, then installation order (stable).
        self._entries.sort(key=lambda e: -e.priority)
        return entry

    def lookup(
        self,
        packet: Packet,
        in_port: int,
        now: float,
        key: Optional[FlowKey] = None,
    ) -> Optional[FlowEntry]:
        """Highest-priority matching entry, updating counters.

        ``key`` is the ingress :class:`FlowKey` if the caller already
        extracted it (the switch datapath does); when omitted it is
        derived here, so the classic ``lookup(packet, port, now)``
        signature keeps working.
        """
        self.lookups += 1
        if key is None:
            key = FlowKey.from_packet(packet, in_port)
        # Entries are sorted by priority (stable), so the first match wins.
        for entry in self._entries:
            if entry.match.matches_key(key):
                entry.hit(packet, now)
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def remove_where(self, predicate: Callable[[FlowEntry], bool]) -> list[FlowEntry]:
        """Remove and return all entries satisfying ``predicate``."""
        removed = [e for e in self._entries if predicate(e)]
        if removed:
            gone = {e.entry_id for e in removed}
            self._entries = [e for e in self._entries if e.entry_id not in gone]
        return removed

    def remove_matching(self, filter_match: Match, cookie: Optional[int] = None
                        ) -> list[FlowEntry]:
        """OFPFC_DELETE semantics: drop entries subsumed by ``filter_match``."""
        def predicate(entry: FlowEntry) -> bool:
            if cookie is not None and entry.cookie != cookie:
                return False
            return filter_match.subsumes(entry.match)
        return self.remove_where(predicate)

    def expire(self, now: float) -> list[tuple[FlowEntry, RemovedReason]]:
        """Remove timed-out entries, returning (entry, reason) pairs."""
        expired: list[tuple[FlowEntry, RemovedReason]] = []
        survivors: list[FlowEntry] = []
        for entry in self._entries:
            reason = entry.expired(now)
            if reason is None:
                survivors.append(entry)
            else:
                expired.append((entry, reason))
        if expired:
            self._entries = survivors
        return expired

    def entries_with_cookie(self, cookie: int) -> list[FlowEntry]:
        """All entries carrying ``cookie``."""
        return [e for e in self._entries if e.cookie == cookie]

    def dump(self) -> list[str]:
        """Readable table dump (highest priority first)."""
        return [entry.describe() for entry in self._entries]

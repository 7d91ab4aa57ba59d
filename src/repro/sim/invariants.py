"""Runtime invariant checking for the simulation substrate.

The hot paths (tuple-heap event loop, parallel harness) were rebuilt for
speed; this module is the standing safety net that lets the next
optimization land without silently corrupting the physics.  An
:class:`InvariantHarness` owns a set of pluggable checkers and sweeps
them periodically on the scenario's own clock plus once after the run:

* **packet conservation** — every frame an interface offered to a link
  is delivered, dropped with a counted reason (queue tail, random loss,
  unrouted), or still queued / on the wire;
* **flow-table coherence** — the lookup counters tie out and entries
  stay sorted by descending priority;
* **TCP state-machine legality** — each socket only takes transitions
  in the RFC 793 subset the stack implements (enforced inline via a
  swappable connection class, so disabled runs pay nothing);
* **monitor window accounting** — per-window SYN/ACK/UDP counters sum
  to the packets the tap actually sampled, scaled consistently;
* **DPI / budget sanity** — slot bounds, parse accounting, and
  non-negativity of every counter the metrics layer reads;
* **scheduler accounting** — the event queue's physical entry count
  equals live events plus tombstones and every tally is non-negative
  (a lazy-cancel or compaction bug shows up here as a leak, not as a
  mystery slowdown).

Checkers read counters the substrate already maintains; when no harness
is constructed the only residue in the hot paths is one attribute
indirection (``TcpStack.connection_class``).  Violations raise a
structured :class:`InvariantViolation` carrying the simulated time, the
offending node and a counterexample trace.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Iterable, Optional

from repro.sim.process import PeriodicTask
from repro.tcp.socket import Connection
from repro.tcp.states import TcpState

if TYPE_CHECKING:
    from repro.core.spi import SpiSystem
    from repro.monitor.monitor import TrafficMonitor
    from repro.topology.builder import Network

__all__ = [
    "InvariantViolation",
    "InvariantChecker",
    "InvariantHarness",
    "CheckedConnection",
    "LEGAL_TRANSITIONS",
    "LinkConservationChecker",
    "FlowTableCoherenceChecker",
    "TcpLegalityChecker",
    "MonitorAccountingChecker",
    "BudgetDpiChecker",
    "SchedulerAccountingChecker",
]

#: Relative tolerance for scaled (1/sampling_probability) float counters.
_REL_TOL = 1e-9
_ABS_TOL = 1e-6


class InvariantViolation(AssertionError):
    """A runtime invariant did not hold.

    Carries enough structure for a failing CI run to be diagnosed from
    the message alone: which invariant, at what simulated time, on which
    node, and a counterexample trace (the counter snapshot or state
    history that contradicts the invariant).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        sim_time: float,
        node: str | None = None,
        trace: tuple[str, ...] = (),
    ) -> None:
        self.invariant = invariant
        self.sim_time = sim_time
        self.node = node
        self.trace = tuple(trace)
        where = f" node={node}" if node else ""
        lines = [f"[{invariant}] t={sim_time:.6f}{where}: {message}"]
        lines.extend(f"  | {line}" for line in self.trace)
        super().__init__("\n".join(lines))


class InvariantChecker:
    """Base class: one named invariant family over one subsystem."""

    name = "invariant"

    def check(self, now: float) -> None:
        """Validate the invariant at simulated time ``now``."""
        raise NotImplementedError

    def final_check(self, now: float) -> None:
        """End-of-run validation; defaults to a normal sweep."""
        self.check(now)

    def violation(
        self,
        message: str,
        *,
        now: float,
        node: str | None = None,
        trace: Iterable[str] = (),
    ) -> None:
        """Raise a structured :class:`InvariantViolation`."""
        raise InvariantViolation(
            self.name, message, sim_time=now, node=node, trace=tuple(trace)
        )


def _non_negative(checker: InvariantChecker, obj, node: str, now: float) -> None:
    """Every numeric field of a counters dataclass must be >= 0."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (int, float)) and value < 0:
            checker.violation(
                f"{type(obj).__name__}.{f.name} is negative ({value})",
                now=now,
                node=node,
                trace=(repr(obj),),
            )


# --------------------------------------------------------------- TCP legality

#: The transition relation of the RFC 793 subset this stack implements.
#: ``None`` is the pre-construction pseudo-state; CLOSED -> ESTABLISHED is
#: the SYN-cookie promotion (a validated cookie ACK creates a connection
#: with no prior half-open state).  Teardown (RST, timeouts, close
#: completion) may drop any non-terminal state to CLOSED.
LEGAL_TRANSITIONS: dict[Optional[TcpState], frozenset[TcpState]] = {
    None: frozenset({TcpState.CLOSED}),
    TcpState.CLOSED: frozenset(
        {TcpState.SYN_SENT, TcpState.SYN_RECEIVED, TcpState.ESTABLISHED}
    ),
    TcpState.LISTEN: frozenset(),
    TcpState.SYN_SENT: frozenset({TcpState.ESTABLISHED, TcpState.CLOSED}),
    TcpState.SYN_RECEIVED: frozenset({TcpState.ESTABLISHED, TcpState.CLOSED}),
    TcpState.ESTABLISHED: frozenset(
        {TcpState.FIN_WAIT_1, TcpState.CLOSE_WAIT, TcpState.CLOSED}
    ),
    TcpState.FIN_WAIT_1: frozenset(
        {TcpState.FIN_WAIT_2, TcpState.CLOSING, TcpState.CLOSED}
    ),
    TcpState.FIN_WAIT_2: frozenset({TcpState.TIME_WAIT, TcpState.CLOSED}),
    TcpState.CLOSE_WAIT: frozenset({TcpState.LAST_ACK, TcpState.CLOSED}),
    TcpState.LAST_ACK: frozenset({TcpState.CLOSED}),
    TcpState.CLOSING: frozenset({TcpState.TIME_WAIT, TcpState.CLOSED}),
    TcpState.TIME_WAIT: frozenset({TcpState.CLOSED}),
}

_HISTORY_LIMIT = 12


class CheckedConnection(Connection):
    """A :class:`Connection` whose state transitions are validated inline.

    Installed by swapping ``TcpStack.connection_class`` (the stack's
    factory attribute), so the unchecked path keeps plain attribute
    assignment.  Every ``state`` write is checked against
    :data:`LEGAL_TRANSITIONS`; the bounded per-socket history becomes the
    counterexample trace of a violation.
    """

    @property
    def state(self) -> TcpState:
        return self._ck_state

    @state.setter
    def state(self, new: TcpState) -> None:
        old = getattr(self, "_ck_state", None)
        history = self.__dict__.setdefault("_ck_history", [])
        now = self.stack.sim.now
        if new is not old and new not in LEGAL_TRANSITIONS.get(old, frozenset()):
            old_name = old.value if old is not None else "<unborn>"
            trace = [
                f"t={t:.6f} -> {state.value}" for t, state in history
            ] + [f"t={now:.6f} -> {new.value}  <-- illegal"]
            raise InvariantViolation(
                "tcp-legality",
                f"illegal transition {old_name} -> {new.value} on "
                f"{self.local_ip}:{self.local_port} <-> "
                f"{self.remote_ip}:{self.remote_port}",
                sim_time=now,
                node=self.stack.host.name,
                trace=tuple(trace),
            )
        history.append((now, new))
        if len(history) > _HISTORY_LIMIT:
            del history[0]
        self._ck_state = new


class TcpLegalityChecker(InvariantChecker):
    """Per-stack structural invariants; transition legality is inline.

    Constructing the checker swaps every stack's connection factory to
    :class:`CheckedConnection`, so each state write is validated at the
    assignment that makes it (the violation then carries the exact event
    context).  The periodic sweep validates the aggregate bookkeeping:
    listener backlogs, the half-open census, and the demux table.
    """

    name = "tcp-legality"

    def __init__(self, net: "Network") -> None:
        self.net = net
        for stack in net.stacks.values():
            stack.connection_class = CheckedConnection

    def check(self, now: float) -> None:
        for name, stack in self.net.stacks.items():
            _non_negative(self, stack.counters, name, now)
            for conn in stack.connections.values():
                if conn.state.terminal:
                    self.violation(
                        f"terminal connection still registered: {conn!r}",
                        now=now,
                        node=name,
                    )
            half_open_conns = sum(
                1 for c in stack.connections.values() if c.state.half_open
            )
            listed = stack.total_half_open()
            if half_open_conns != listed:
                self.violation(
                    f"half-open census mismatch: {half_open_conns} connections in "
                    f"SYN_RECEIVED vs {listed} held by listeners",
                    now=now,
                    node=name,
                    trace=tuple(repr(c) for c in stack.connections.values()),
                )
            for port, listener in stack.listeners.items():
                if not 0 <= listener.half_open_count <= listener.backlog:
                    self.violation(
                        f"listener :{port} half-open count "
                        f"{listener.half_open_count} outside [0, "
                        f"{listener.backlog}]",
                        now=now,
                        node=name,
                    )


# --------------------------------------------------------- packet conservation


class LinkConservationChecker(InvariantChecker):
    """Every offered frame is delivered, dropped-with-reason, or in flight.

    Two exact identities per link direction (``tx`` the transmitting
    interface, ``rx`` its peer):

    * ``tx.tx_packets == sent + queue_drops + queue_depth`` — everything
      the interface offered is accounted at the transmitter;
    * ``sent == delivered + lost + unrouted + in_flight`` — everything
      that started serializing is accounted at the receiver, and
      ``rx.rx_packets == delivered``.
    """

    name = "link-conservation"

    def __init__(self, net: "Network", skip_links: frozenset[int] = frozenset()) -> None:
        self.net = net
        # Link ids (see link_id) exempted from the sweep.  The sharded
        # runner sets this to the cut set: a boundary link's counters are
        # split across two replicas (tx side on the sending shard, the
        # delivery count on the receiving one), so neither replica alone
        # satisfies the conservation identities.  The merged fingerprint
        # still ties out — the oracle compares the summed rows.
        self.skip_links = skip_links

    def _links(self):
        # net.links plus any link reachable from a node interface (SPAN
        # ports are cabled directly and never registered in net.links).
        seen: dict[int, object] = {link_id(link): link for link in self.net.links}
        for node in list(self.net.hosts.values()) + list(self.net.switches.values()):
            for iface in node.interfaces.values():
                if iface.link is not None:
                    seen.setdefault(link_id(iface.link), iface.link)
        return seen.values()

    def check(self, now: float) -> None:
        for link in self._links():
            if link_id(link) in self.skip_links:
                continue
            for tx_iface, rx_iface in ((link.a, link.b), (link.b, link.a)):
                end = link.end_for(tx_iface)
                stats = end.stats
                label = f"{tx_iface.node.name}:{tx_iface.port_no}->{rx_iface.node.name}"
                snapshot = (
                    f"tx_packets={tx_iface.tx_packets} sent={stats.packets_sent} "
                    f"queue_drops={stats.packets_dropped} queued={end.queue_depth} "
                    f"delivered={stats.packets_delivered} lost={stats.packets_lost} "
                    f"unrouted={stats.packets_unrouted} "
                    f"in_flight={stats.packets_in_flight} "
                    f"rx_packets={rx_iface.rx_packets}",
                )
                _non_negative(self, stats, label, now)
                offered = (
                    stats.packets_sent + stats.packets_dropped + end.queue_depth
                )
                if tx_iface.tx_packets != offered:
                    self.violation(
                        f"offered-frame leak: interface counted "
                        f"{tx_iface.tx_packets} but link accounts for {offered}",
                        now=now,
                        node=label,
                        trace=snapshot,
                    )
                accounted = (
                    stats.packets_delivered
                    + stats.packets_lost
                    + stats.packets_unrouted
                    + stats.packets_in_flight
                )
                if stats.packets_sent != accounted:
                    self.violation(
                        f"serialized-frame leak: {stats.packets_sent} sent but "
                        f"{accounted} delivered+lost+unrouted+in-flight",
                        now=now,
                        node=label,
                        trace=snapshot,
                    )
                if rx_iface.rx_packets != stats.packets_delivered:
                    self.violation(
                        f"delivery mismatch: link delivered "
                        f"{stats.packets_delivered} but receiver counted "
                        f"{rx_iface.rx_packets}",
                        now=now,
                        node=label,
                        trace=snapshot,
                    )


def link_id(link) -> int:
    """Identity key for deduplicating links found via interfaces."""
    return id(link)


# ------------------------------------------------------- flow-table coherence


class FlowTableCoherenceChecker(InvariantChecker):
    """Lookup counters tie out and entries stay in priority order."""

    name = "flowtable-coherence"

    def __init__(self, net: "Network") -> None:
        self.net = net

    def check(self, now: float) -> None:
        for name, switch in self.net.switches.items():
            table = switch.table
            _non_negative(self, switch.counters, name, now)
            if table.lookups != table.hits + table.misses:
                self.violation(
                    "lookup counters do not tie out "
                    f"({table.lookups} != {table.hits} + {table.misses})",
                    now=now, node=name,
                    trace=(
                        f"lookups={table.lookups} hits={table.hits} "
                        f"misses={table.misses}",
                    ),
                )
            priorities = [entry.priority for entry in table]
            if priorities != sorted(priorities, reverse=True):
                self.violation(
                    f"entries not sorted by descending priority: {priorities}",
                    now=now, node=name,
                )


# ------------------------------------------------------ monitor accounting


class MonitorAccountingChecker(InvariantChecker):
    """Window features sum to the packets the tap actually sampled."""

    name = "monitor-accounting"

    def __init__(self, monitors: Iterable["TrafficMonitor"]) -> None:
        self.monitors = list(monitors)
        # Ingress counted before the tap attached never reaches the
        # monitor; record it so the tap identity stays exact.
        self._baseline = {
            m.name: m.switch.counters.packets_in for m in self.monitors
        }
        self._validated = {m.name: 0 for m in self.monitors}

    def check(self, now: float) -> None:
        for monitor in self.monitors:
            tapped = monitor.switch.counters.packets_in - self._baseline[monitor.name]
            snapshot = (
                f"packets_seen={monitor.packets_seen} "
                f"packets_sampled={monitor.packets_sampled} "
                f"switch_ingress={tapped} "
                f"observed={monitor.extractor.packets_observed}",
            )
            if monitor.packets_seen != tapped:
                self.violation(
                    f"tap leak: monitor saw {monitor.packets_seen} of "
                    f"{tapped} ingress packets",
                    now=now, node=monitor.name, trace=snapshot,
                )
            if monitor.packets_sampled > monitor.packets_seen:
                self.violation(
                    "sampled more packets than seen",
                    now=now, node=monitor.name, trace=snapshot,
                )
            if monitor.config.sampling_probability >= 1.0 and (
                monitor.packets_sampled != monitor.packets_seen
            ):
                self.violation(
                    "sampling disabled but packets were skipped",
                    now=now, node=monitor.name, trace=snapshot,
                )
            if monitor.extractor.packets_observed != monitor.packets_sampled:
                self.violation(
                    "feature extractor missed sampled packets",
                    now=now, node=monitor.name, trace=snapshot,
                )
            self._check_extractor_accounting(monitor, now)
            fresh = monitor.windows_closed - self._validated[monitor.name]
            fresh = min(fresh, len(monitor.window_history))
            if fresh > 0:
                for features in monitor.window_history[-fresh:]:
                    self._check_window(monitor, features, now)
            self._validated[monitor.name] = monitor.windows_closed

    def _check_extractor_accounting(self, monitor, now: float) -> None:
        """Batch-fold and backend bookkeeping for the columnar extractor.

        Every observed packet must be either folded into a closed window
        or pending in the open batch, and every folded SYN/UDP must have
        hit the feature backend exactly once.  For the sketch backend,
        each count-min row must sum to the sketch's add total (each add
        touches exactly one counter per row).
        """
        accounting = getattr(monitor.extractor, "accounting", None)
        if accounting is None:  # e.g. a test double without batch state
            return
        acct = accounting()
        trace = (" ".join(f"{k}={v}" for k, v in acct.items()),)
        if acct["observed"] != acct["folded_total"] + acct["pending"]:
            self.violation(
                "batch accounting leak: observed packets != folded + pending",
                now=now, node=monitor.name, trace=trace,
            )
        if acct["folded_syn"] != acct["backend_syn_adds"]:
            self.violation(
                "backend SYN adds diverge from folded SYN count",
                now=now, node=monitor.name, trace=trace,
            )
        if acct["folded_udp"] != acct["backend_udp_adds"]:
            self.violation(
                "backend UDP adds diverge from folded UDP count",
                now=now, node=monitor.name, trace=trace,
            )
        backend = getattr(monitor.extractor, "backend", None)
        if backend is None or getattr(backend, "name", "") != "sketch":
            return
        sketches = (
            ("syn", backend.syn_dsts),
            ("udp", backend.udp_dsts),
            ("sources", backend.sources.hitters),
        )
        for label, hitter in sketches:
            cms = hitter.cms
            for i, row_total in enumerate(cms.row_totals()):
                if row_total != cms.total:
                    self.violation(
                        f"{label} count-min row {i} sums to {row_total}, "
                        f"sketch counted {cms.total} adds",
                        now=now, node=monitor.name, trace=trace,
                    )
        hll = backend.sources.hll
        estimate = hll.estimate()
        if (hll.total == 0) != (estimate == 0.0):
            self.violation(
                f"HyperLogLog registers inconsistent with {hll.total} adds "
                f"(estimate {estimate})",
                now=now, node=monitor.name, trace=trace,
            )

    def _check_window(self, monitor, features, now: float) -> None:
        def bad(message: str) -> None:
            self.violation(
                message, now=now, node=monitor.name,
                trace=(
                    f"window [{features.window_start:.3f}, "
                    f"{features.window_end:.3f}] total={features.total_packets} "
                    f"tcp={features.tcp_packets} syn={features.syn_count} "
                    f"synack={features.synack_count} ack={features.ack_count} "
                    f"udp={features.udp_packets}",
                ),
            )

        eps = _ABS_TOL
        if features.window_end < features.window_start:
            bad("window ends before it starts")
        counts = (
            features.total_packets, features.tcp_packets, features.syn_count,
            features.synack_count, features.ack_count, features.rst_count,
            features.fin_count, features.udp_packets,
        )
        if any(c < 0 for c in counts):
            bad("negative window counter")
        if features.tcp_packets + features.udp_packets > features.total_packets + eps:
            bad("tcp + udp exceed total packets in window")
        flag_sum = features.syn_count + features.synack_count + features.ack_count
        if flag_sum > features.tcp_packets + eps:
            bad("syn + synack + ack exceed tcp packets in window")
        if features.rst_count > features.tcp_packets + eps:
            bad("rst count exceeds tcp packets in window")
        if features.fin_count > features.tcp_packets + eps:
            bad("fin count exceeds tcp packets in window")
        per_dest = (
            (features.per_destination_syns, features.syn_count, "SYN"),
            (features.per_destination_udp, features.udp_packets, "UDP"),
        )
        if features.backend == "sketch":
            # Sketch per-destination maps are top-k count-min estimates:
            # each entry never undercounts its key and never exceeds the
            # window's own add total (the row-sum bound), but entries
            # don't sum to the window count.
            for dest_map, window_count, label in per_dest:
                for ip, est in dest_map.items():
                    if not -eps <= est <= window_count + eps:
                        bad(
                            f"sketch {label} estimate {est} for {ip} outside "
                            f"[0, {window_count}]"
                        )
            # HyperLogLog can only have seen one key per SYN/UDP add;
            # scaled counts are >= raw adds, so this bound is safe at
            # any sampling rate (margin covers HLL estimation error).
            add_ceiling = 1.25 * (features.syn_count + features.udp_packets) + 16
            if features.distinct_sources > add_ceiling:
                bad(
                    f"sketch distinct sources {features.distinct_sources} "
                    f"exceeds add ceiling {add_ceiling}"
                )
        else:
            for dest_map, window_count, label in per_dest:
                dest_sum = sum(dest_map.values())
                if not math.isclose(
                    dest_sum, window_count, rel_tol=_REL_TOL, abs_tol=eps
                ):
                    bad(
                        f"per-destination {label}s sum to {dest_sum}, "
                        f"window counted {window_count}"
                    )
        if features.per_destination_syns:
            # Holds for both backends: the exact map holds every key and
            # the sketch top list is led by the reported top destination.
            top = max(features.per_destination_syns.values())
            if not math.isclose(
                top, features.top_destination_syns, rel_tol=_REL_TOL, abs_tol=eps
            ):
                bad("top destination SYN count is not the per-destination max")
        if not -eps <= features.source_entropy <= 1.0 + eps:
            bad(f"normalized source entropy {features.source_entropy} outside [0, 1]")


# ------------------------------------------------------------ DPI and budget


class BudgetDpiChecker(InvariantChecker):
    """Inspection budget bounds and DPI parse accounting."""

    name = "budget-dpi"

    def __init__(self, spi: "SpiSystem") -> None:
        self.spi = spi

    def check(self, now: float) -> None:
        budget = self.spi.budget
        if len(budget.active) > budget.config.max_concurrent:
            self.violation(
                f"{len(budget.active)} active inspections exceed the "
                f"{budget.config.max_concurrent}-slot budget",
                now=now, trace=(f"active={sorted(budget.active)}",),
            )
        if budget.queue_depth > budget.config.max_queue:
            self.violation(
                f"inspection queue depth {budget.queue_depth} exceeds bound "
                f"{budget.config.max_queue}",
                now=now,
            )
        for counter in ("granted", "queued", "rejected"):
            if getattr(budget, counter) < 0:
                self.violation(f"budget counter {counter} is negative", now=now)
        _non_negative(self, self.spi.stats, "spi", now)
        fraction = self.spi.mirrored_fraction()
        if not 0.0 <= fraction <= 1.0:
            self.violation(
                f"mirrored fraction {fraction} outside [0, 1]", now=now
            )
        dpi = self.spi.dpi
        if dpi is not None:
            stats = dpi.stats
            node = dpi.host.name
            _non_negative(self, stats, node, now)
            if stats.frames_parsed + stats.parse_errors != stats.frames_received:
                self.violation(
                    f"parse accounting leak: {stats.frames_received} received "
                    f"!= {stats.frames_parsed} parsed + "
                    f"{stats.parse_errors} errors",
                    now=now, node=node, trace=(repr(stats),),
                )
            if stats.frames_tracked > stats.frames_parsed:
                self.violation(
                    "tracked more frames than were parsed",
                    now=now, node=node, trace=(repr(stats),),
                )


class SchedulerAccountingChecker(InvariantChecker):
    """The event queue's physical/live/tombstone tallies tie out.

    The tuple heap maintains ``physical == live + dead`` through every
    push, lazy-cancel skim and compaction; a drift means entries were
    leaked or double counted.  The reference engine keeps no tallies, so
    the checker no-ops there (``accounting()`` absent).
    """

    name = "scheduler-accounting"

    def __init__(self, net: "Network") -> None:
        self.net = net

    def check(self, now: float) -> None:
        queue = getattr(self.net.sim, "_queue", None)
        accounting = getattr(queue, "accounting", None)
        if accounting is None:
            return
        acc = accounting()
        trace = (f"accounting={acc}",)
        for key in ("physical", "live", "dead"):
            if acc[key] < 0:
                self.violation(
                    f"scheduler {key} count is negative ({acc[key]})",
                    now=now, trace=trace,
                )
        if acc["physical"] != acc["live"] + acc["dead"]:
            self.violation(
                "physical queue entries != live + tombstones "
                f"({acc['physical']} != {acc['live']} + {acc['dead']})",
                now=now, trace=trace,
            )


# ------------------------------------------------------------------ harness


class InvariantHarness:
    """Owns the checkers of one scenario and sweeps them on its clock."""

    def __init__(self, net: "Network", period_s: float = 0.5) -> None:
        if period_s <= 0:
            raise ValueError("check period must be positive")
        self.net = net
        self.checkers: list[InvariantChecker] = []
        self.checks_run = 0
        self._task = PeriodicTask(net.sim, period_s, self.check_now, "invariants")

    @classmethod
    def for_network(
        cls,
        net: "Network",
        period_s: float = 0.5,
        monitors: Iterable["TrafficMonitor"] = (),
        spi: Optional["SpiSystem"] = None,
    ) -> "InvariantHarness":
        """The standard checker set over one built network."""
        harness = cls(net, period_s=period_s)
        harness.add(LinkConservationChecker(net))
        harness.add(FlowTableCoherenceChecker(net))
        harness.add(TcpLegalityChecker(net))
        monitors = list(monitors)
        if monitors:
            harness.add(MonitorAccountingChecker(monitors))
        if spi is not None:
            harness.add(BudgetDpiChecker(spi))
        harness.add(SchedulerAccountingChecker(net))
        return harness

    def add(self, checker: InvariantChecker) -> InvariantChecker:
        """Register a checker (returned for chaining)."""
        self.checkers.append(checker)
        return checker

    def start(self) -> None:
        """Begin periodic sweeps on the scenario clock."""
        self._task.start()

    def check_now(self) -> None:
        """Sweep every checker at the current simulated time."""
        now = self.net.sim.now
        for checker in self.checkers:
            checker.check(now)
        self.checks_run += 1

    def final_check(self) -> None:
        """Stop sweeping and run the end-of-run validation."""
        self._task.stop()
        now = self.net.sim.now
        for checker in self.checkers:
            checker.final_check(now)
        self.checks_run += 1

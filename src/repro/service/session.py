"""One hosted scenario: lifecycle, bounded-slice stepping, reconfig.

A :class:`Session` owns a built scenario and advances it cooperatively:
each :meth:`step` runs at most ``slice_s`` simulated seconds *and* at
most ``slice_events`` events, so a server interleaving many sessions
(and their control requests) never blocks on one long simulation.

The lifecycle is a strict state machine::

    PENDING --start()--> RUNNING --drain()--> DRAINING
                            |                    |
                            +-----> DONE <-------+
                            |                    |
                            +-----> FAILED <-----+

Illegal transitions raise :class:`IllegalTransition`; terminal states
(``DONE``/``FAILED``) accept nothing.

Runtime mutations — detector/budget/DPI retunes, blocks, whitelists —
are **events on the simulation clock**: :meth:`schedule_reconfig`
schedules the application at a simulated time (default: the session's
current slice boundary), the tracer records it, and the reconfig log
keeps the applied schedule.  Replaying the same schedule therefore
reproduces a byte-identical fingerprint, and a session with *no*
mutations is byte-identical to the batch ``run_scenario`` path
(asserted by the ``served`` variant of ``repro check``).
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.harness.scenario import (
    ScenarioConfig,
    ScenarioResult,
    build_scenario,
    finish_scenario,
)
from repro.service.reconfig import RECONFIG_TARGETS, apply_reconfig


class SessionState(str, enum.Enum):
    """Where a session is in its lifecycle."""

    PENDING = "pending"
    RUNNING = "running"
    DRAINING = "draining"
    DONE = "done"
    FAILED = "failed"


#: Legal lifecycle moves; everything else raises IllegalTransition.
_TRANSITIONS: dict[SessionState, frozenset[SessionState]] = {
    SessionState.PENDING: frozenset({SessionState.RUNNING, SessionState.FAILED}),
    SessionState.RUNNING: frozenset(
        {SessionState.DRAINING, SessionState.DONE, SessionState.FAILED}
    ),
    SessionState.DRAINING: frozenset({SessionState.DONE, SessionState.FAILED}),
    SessionState.DONE: frozenset(),
    SessionState.FAILED: frozenset(),
}


class IllegalTransition(RuntimeError):
    """A lifecycle move the state machine forbids."""

    def __init__(self, current: SessionState, requested: SessionState) -> None:
        super().__init__(
            f"illegal transition {current.value} -> {requested.value}; "
            f"legal: {sorted(s.value for s in _TRANSITIONS[current])}"
        )
        self.current = current
        self.requested = requested


class Session:
    """One scenario hosted by the control-plane service."""

    def __init__(
        self,
        session_id: str,
        config: ScenarioConfig,
        *,
        slice_s: float = 0.25,
        slice_events: int = 50_000,
        drain_grace_s: float = 2.0,
    ) -> None:
        if slice_s <= 0:
            raise ValueError("slice length must be positive")
        if slice_events < 1:
            raise ValueError("slice event budget must be >= 1")
        if drain_grace_s < 0:
            raise ValueError("drain grace must be >= 0")
        if config.shards > 1:
            raise ValueError(
                f"a session runs in one process, got shards={config.shards}; "
                "run a sharded scenario in batch with `repro run --shards`"
            )
        self.id = session_id
        self.config = config
        self.slice_s = slice_s
        self.slice_events = slice_events
        self.drain_grace_s = drain_grace_s
        self.state = SessionState.PENDING
        self.result: Optional[ScenarioResult] = None
        self.error: Optional[str] = None
        #: Applied/rejected reconfigurations, in application order.
        self.reconfig_log: list[dict[str, Any]] = []
        self._end_s = config.duration_s
        #: Mutations requested while PENDING, scheduled at build time.
        self._queued: list[tuple[float, str, dict[str, Any]]] = []
        self.steps = 0

    # ----------------------------------------------------------- lifecycle

    def _transition(self, requested: SessionState) -> None:
        if requested not in _TRANSITIONS[self.state]:
            raise IllegalTransition(self.state, requested)
        self.state = requested

    def start(self) -> "Session":
        """Build the scenario and enter ``RUNNING``."""
        self._transition(SessionState.RUNNING)
        try:
            self.result = build_scenario(self.config)
            for at, target, params in self._queued:
                self._schedule_on_clock(at, target, params)
            self._queued.clear()
        except Exception as exc:  # construction failed: terminal
            self.state = SessionState.FAILED
            self.error = f"{type(exc).__name__}: {exc}"
            raise
        return self

    def step(self) -> SessionState:
        """Advance one bounded slice; returns the state afterwards.

        A slice runs until the earlier of ``slice_s`` simulated seconds
        or ``slice_events`` executed events.  When the configured end of
        the run (or the drain deadline) is reached, the scenario is
        finished and the session turns ``DONE``.
        """
        if self.state not in (SessionState.RUNNING, SessionState.DRAINING):
            raise IllegalTransition(self.state, SessionState.RUNNING)
        assert self.result is not None
        sim = self.result.net.sim
        target = min(sim.now + self.slice_s, self._end_s)
        before = sim.events_executed
        try:
            self.result.net.run(until=target, max_events=self.slice_events)
        except Exception as exc:
            self.state = SessionState.FAILED
            self.error = f"{type(exc).__name__}: {exc}"
            return self.state
        self.steps += 1
        hit_budget = sim.events_executed - before >= self.slice_events
        if not hit_budget and target >= self._end_s:
            self._finish()
        return self.state

    def run_to_completion(self) -> ScenarioResult:
        """Drive the session to a terminal state (oracle and test helper)."""
        if self.state is SessionState.PENDING:
            self.start()
        while self.state in (SessionState.RUNNING, SessionState.DRAINING):
            self.step()
        if self.state is SessionState.FAILED:
            raise RuntimeError(f"session {self.id} failed: {self.error}")
        assert self.result is not None
        return self.result

    def drain(self, grace_s: Optional[float] = None) -> float:
        """Graceful wind-down: stop new work, flush, finish.

        The workload stops generating immediately (in-flight packets and
        handshakes complete naturally), the simulation runs on for the
        grace window so queues and verification cases flush, and the
        session finishes ``DONE``.  Returns the simulated end time.
        """
        self._transition(SessionState.DRAINING)
        assert self.result is not None
        grace = self.drain_grace_s if grace_s is None else float(grace_s)
        if grace < 0:
            raise ValueError("drain grace must be >= 0")
        self.result.workload.stop()
        self._end_s = min(self._end_s, self.result.net.sim.now + grace)
        self.result.net.tracer.emit(
            "service.drain",
            f"session={self.id} grace={grace:g}s end={self._end_s:g}",
            session=self.id,
        )
        return self._end_s

    def _finish(self) -> None:
        assert self.result is not None
        try:
            finish_scenario(self.result)
        except Exception as exc:
            self.state = SessionState.FAILED
            self.error = f"{type(exc).__name__}: {exc}"
            return
        self._transition(SessionState.DONE)

    # ------------------------------------------------------------ reconfig

    def schedule_reconfig(
        self,
        target: str,
        params: dict[str, Any],
        at: Optional[float] = None,
    ) -> dict[str, Any]:
        """Schedule a runtime mutation on the simulation clock.

        ``at`` is a simulated time; omitted, the mutation applies at the
        session's current position (the next slice boundary).  Times in
        the past are clamped to "now" — the mutation still applies, and
        the log records when.  Scheduling is legal while ``PENDING``
        (applied once the scenario is built) or ``RUNNING``/``DRAINING``.
        """
        if target not in RECONFIG_TARGETS:
            raise ValueError(
                f"unknown reconfig target {target!r}; "
                f"choose from {RECONFIG_TARGETS}"
            )
        if self.state is SessionState.PENDING:
            when = 0.0 if at is None else max(0.0, float(at))
            self._queued.append((when, target, dict(params)))
            return {"target": target, "params": dict(params), "at": when}
        if self.state in (SessionState.RUNNING, SessionState.DRAINING):
            assert self.result is not None
            now = self.result.net.sim.now
            when = now if at is None else max(float(at), now)
            self._schedule_on_clock(when, target, dict(params))
            return {"target": target, "params": dict(params), "at": when}
        raise IllegalTransition(self.state, SessionState.RUNNING)

    def _schedule_on_clock(
        self, at: float, target: str, params: dict[str, Any]
    ) -> None:
        assert self.result is not None
        result = self.result

        def apply() -> None:
            sim_now = result.net.sim.now
            entry: dict[str, Any] = {
                "at": sim_now, "target": target, "params": dict(params),
            }
            try:
                entry["applied"] = apply_reconfig(result, target, params)
                entry["status"] = "applied"
                result.net.tracer.emit(
                    "service.reconfig",
                    f"session={self.id} target={target} params={params!r}",
                    session=self.id,
                    target=target,
                )
            except (ValueError, KeyError) as exc:
                # A bad retune is an operator error, not a dead session.
                entry["status"] = "rejected"
                entry["detail"] = str(exc)
                result.net.tracer.emit(
                    "service.reconfig_rejected",
                    f"session={self.id} target={target}: {exc}",
                    session=self.id,
                    target=target,
                )
            self.reconfig_log.append(entry)

        result.net.sim.schedule_at(at, apply, "service.reconfig")

    # ----------------------------------------------------------- telemetry

    @property
    def sim_time(self) -> float:
        """The session's simulated clock (0 until built)."""
        return self.result.net.sim.now if self.result is not None else 0.0

    def fingerprint(self) -> str:
        """Canonical fingerprint JSON of the finished run (DONE only)."""
        if self.state is not SessionState.DONE:
            raise RuntimeError(
                f"fingerprint requires state done, session is {self.state.value}"
            )
        from repro.harness.fingerprint import fingerprint_json

        assert self.result is not None
        return fingerprint_json(self.result)

    def summary(self) -> dict[str, Any]:
        """Stable plain-data session summary (the service API's row)."""
        config = self.config
        data: dict[str, Any] = {
            "id": self.id,
            "state": self.state.value,
            "sim_time": self.sim_time,
            "duration_s": config.duration_s,
            "topology": config.topology,
            "defense": config.defense,
            "detector": config.detector,
            "seed": config.seed,
            "steps": self.steps,
            "reconfigs": len(self.reconfig_log),
            "error": self.error,
        }
        if self.result is not None and self.state is not SessionState.FAILED:
            data["detections"] = len(self.result.detection_times())
            data["events_executed"] = self.result.net.sim.events_executed
            data["mitigation"] = self.result.mitigation_state()
        else:
            data["detections"] = 0
            data["events_executed"] = 0
            data["mitigation"] = {"active_blocks": [], "whitelist": []}
        return data

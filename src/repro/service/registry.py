"""The service's session table.

One :class:`SessionRegistry` per server process.  It mints stable ids
(``s1``, ``s2``, …), holds every session for the lifetime of the
process (terminal sessions stay queryable until explicitly deleted),
and answers the aggregate status the API and ``repro ctl status``
serve.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.harness.scenario import ScenarioConfig
from repro.service.session import Session, SessionState


class SessionRegistry:
    """Creates, indexes and summarizes hosted sessions."""

    def __init__(self) -> None:
        self._sessions: dict[str, Session] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def create(
        self,
        config: ScenarioConfig,
        *,
        slice_s: float = 0.25,
        slice_events: int = 50_000,
        drain_grace_s: float = 2.0,
    ) -> Session:
        """Register a new PENDING session and return it."""
        session_id = f"s{self._next_id}"
        session = Session(
            session_id,
            config,
            slice_s=slice_s,
            slice_events=slice_events,
            drain_grace_s=drain_grace_s,
        )
        self._next_id += 1
        self._sessions[session_id] = session
        return session

    def get(self, session_id: str) -> Session:
        """Look up a session; KeyError names the missing id."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no session {session_id!r}") from None

    def find(self, session_id: str) -> Optional[Session]:
        """Look up a session, or None."""
        return self._sessions.get(session_id)

    def remove(self, session_id: str) -> Session:
        """Delete a *terminal* session from the table."""
        session = self.get(session_id)
        if session.state not in (SessionState.DONE, SessionState.FAILED):
            raise ValueError(
                f"session {session_id} is {session.state.value}; "
                "drain it before deleting"
            )
        return self._sessions.pop(session_id)

    def sessions(self) -> list[Session]:
        """All sessions in creation order."""
        return list(self._sessions.values())

    def active(self) -> list[Session]:
        """Sessions that still need stepping."""
        return [
            s
            for s in self._sessions.values()
            if s.state in (SessionState.RUNNING, SessionState.DRAINING)
        ]

    def status(self) -> dict[str, Any]:
        """Aggregate service status (the ``GET /status`` body)."""
        by_state: dict[str, int] = {state.value: 0 for state in SessionState}
        for session in self._sessions.values():
            by_state[session.state.value] += 1
        return {
            "sessions": len(self._sessions),
            "by_state": by_state,
            "session_list": [s.summary() for s in self._sessions.values()],
        }

"""Benign web clients: the honest users whose service the defense protects.

Each client loops: think (exponential), connect, send a request, read the
response, close.  Connection failures (SYN timeouts — the symptom of a
successful SYN flood or of over-aggressive mitigation) and end-to-end
latencies are recorded per attempt with timestamps, so the metrics layer
can compute success rates within any experiment phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.process import Timer
from repro.sim.rng import SeededRng
from repro.tcp.socket import Connection
from repro.tcp.stack import TcpStack


@dataclass
class _Attempt:
    """One request lifecycle."""

    started_at: float
    connected_at: float | None = None
    completed_at: float | None = None
    failed_at: float | None = None
    failure_reason: str | None = None


@dataclass
class WebClientStats:
    """Per-client attempt ledger."""

    attempts: list[_Attempt] = field(default_factory=list)

    def started(self) -> int:
        """Total attempts begun."""
        return len(self.attempts)

    def successes(self, start: float = 0.0, end: float = float("inf")) -> int:
        """Attempts completed within [start, end)."""
        return sum(
            1 for a in self.attempts
            if a.completed_at is not None and start <= a.completed_at < end
        )

    def failures(self, start: float = 0.0, end: float = float("inf")) -> int:
        """Attempts failed within [start, end)."""
        return sum(
            1 for a in self.attempts
            if a.failed_at is not None and start <= a.failed_at < end
        )

    def started_outcomes(
        self, start: float = 0.0, end: float = float("inf")
    ) -> tuple[int, int, int]:
        """Fate of attempts *started* in [start, end): (ok, failed, pending).

        This is the figure-friendly view: it attributes an attempt's
        outcome to the moment the user clicked, not to the (much later)
        moment a timeout fired.
        """
        ok = failed = pending = 0
        for attempt in self.attempts:
            if not start <= attempt.started_at < end:
                continue
            if attempt.completed_at is not None:
                ok += 1
            elif attempt.failed_at is not None:
                failed += 1
            else:
                pending += 1
        return ok, failed, pending

    def request_latencies(self, start: float = 0.0, end: float = float("inf")) -> list[float]:
        """Full request latencies of completed attempts within the phase."""
        return [
            a.completed_at - a.started_at
            for a in self.attempts
            if a.completed_at is not None and start <= a.completed_at < end
        ]


class WebClient:
    """A looping request generator against one server."""

    def __init__(
        self,
        stack: TcpStack,
        server_ip: str,
        server_port: int = 80,
        rng: SeededRng | None = None,
        think_time_s: float = 0.5,
        request_bytes: int = 200,
    ) -> None:
        self.stack = stack
        self.server_ip = server_ip
        self.server_port = server_port
        self.rng = rng or SeededRng(0)
        self.think_time_s = think_time_s
        self.request_bytes = request_bytes
        # One immutable payload shared by every attempt; request bodies are
        # all-"R" filler, so rebuilding the bytes per attempt bought nothing.
        self._request_payload = b"R" * request_bytes
        self.stats = WebClientStats()
        self._running = False
        self._timer = Timer(stack.sim, self._begin_attempt, f"client.{stack.host.name}")

    def start(self, initial_delay: float | None = None) -> None:
        """Begin the request loop."""
        if self._running:
            return
        self._running = True
        delay = (
            initial_delay
            if initial_delay is not None
            else self.rng.expovariate(1.0 / self.think_time_s)
        )
        self._timer.start(delay)

    def stop(self) -> None:
        """Stop issuing new attempts (in-flight ones finish naturally)."""
        self._running = False
        self._timer.cancel()

    # ------------------------------------------------------------ attempt

    def _begin_attempt(self) -> None:
        if not self._running:
            return
        attempt = _Attempt(started_at=self.stack.sim.now)
        self.stats.attempts.append(attempt)

        def on_established(conn: Connection) -> None:
            attempt.connected_at = self.stack.sim.now
            conn.on_data = on_data
            conn.send(self._request_payload)

        def on_data(conn: Connection, data: bytes) -> None:
            if not data or attempt.completed_at is not None:
                return  # EOF, or a later segment of an already-counted response
            attempt.completed_at = self.stack.sim.now
            conn.close()
            self._schedule_next()

        def on_failed(conn: Connection, reason: str) -> None:
            attempt.failed_at = self.stack.sim.now
            attempt.failure_reason = reason
            self._schedule_next()

        self.stack.connect(
            self.server_ip,
            self.server_port,
            on_established=on_established,
            on_failed=on_failed,
        )

    def _schedule_next(self) -> None:
        if self._running:
            self._timer.start(self.rng.expovariate(1.0 / self.think_time_s))

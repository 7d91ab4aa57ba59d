"""Flash crowd generation: the benign event that fools rate detectors.

A flash crowd is a sudden surge of *legitimate* connections — a link goes
viral, a sale opens.  Its SYN rate can match a flood's, so threshold
monitors false-alarm on it; but every handshake completes, so deep
inspection refutes the alarm.  Experiment E6 uses this generator to
measure exactly that separation.

The crowd's connections arrive through the same Poisson process as the
floods, :class:`repro.sim.process.Interval`, so the simulator picks the
twin: coalesced bursts on the fast simulator, one event per connection
on the reference one, with the same spawn times either way.  Only the
inter-arrival gaps are drawn from the crowd rng.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.process import Interval
from repro.sim.rng import SeededRng
from repro.tcp.socket import Connection
from repro.tcp.stack import TcpStack


#: Every crowd connection asks the web port for one short request.
_SERVER_PORT = 80
_REQUEST_BYTES = 120


@dataclass(frozen=True)
class FlashCrowdSpec:
    """A flash-crowd phase inside a scenario, in absolute simulated time."""

    start_s: float = 8.0
    duration_s: float = 6.0
    connections_per_second: float = 150.0

    def __post_init__(self) -> None:
        if self.connections_per_second <= 0:
            raise ValueError("rate must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")


class FlashCrowd:
    """Drives a burst of short-lived legitimate connections.

    The burst is spread over the given stacks (crowd hosts) round-robin,
    so the connections originate from several genuine addresses that all
    complete their handshakes.
    """

    def __init__(
        self,
        stacks: list[TcpStack],
        rng: SeededRng,
        spec: FlashCrowdSpec,
        server_ip: str,
    ) -> None:
        if not stacks:
            raise ValueError("need at least one crowd host")
        if not server_ip:
            raise ValueError("server_ip is required")
        self.stacks = stacks
        self.rng = rng
        self.spec = spec
        self.server_ip = server_ip
        self.connections_started = 0
        self.connections_completed = 0
        self.connections_failed = 0
        # Sharded ownership filter: every shard replays the identical
        # round-robin + rng schedule, but only the shard owning a stack's
        # host actually opens its connection (the filter runs *after* the
        # round-robin advance so the stack sequence stays in lockstep).
        self.spawn_filter = None
        self._next_stack = 0
        self._request_payload = b"F" * _REQUEST_BYTES
        sim = stacks[0].sim
        self._arrivals = Interval(
            sim, rng, spec.connections_per_second, self._spawn, "flashcrowd"
        )
        # Armed after its phase has closed, the crowd never starts.
        end = spec.start_s + spec.duration_s
        if end > sim.now:
            sim.schedule_at(max(sim.now, spec.start_s), self._arrivals.start, "flashcrowd.start")
            sim.schedule_at(end, self._arrivals.stop, "flashcrowd.end")

    def _spawn(self, _t: float) -> None:
        stack = self.stacks[self._next_stack]
        self._next_stack = (self._next_stack + 1) % len(self.stacks)
        if self.spawn_filter is not None and not self.spawn_filter(stack):
            return
        self.connections_started += 1

        completed = False

        def on_established(conn: Connection) -> None:
            conn.on_data = on_data
            conn.send(self._request_payload)

        def on_data(conn: Connection, data: bytes) -> None:
            nonlocal completed
            if data and not completed:
                completed = True
                self.connections_completed += 1
                conn.close()

        def on_failed(conn: Connection, reason: str) -> None:
            self.connections_failed += 1

        stack.connect(
            self.server_ip,
            _SERVER_PORT,
            on_established=on_established,
            on_failed=on_failed,
        )

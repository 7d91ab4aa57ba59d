"""Byte-accurate full-duplex links with finite drop-tail queues.

Each direction of a link models a serializing transmitter: a packet of
``n`` bytes occupies the wire for ``8n / bandwidth_bps`` seconds, then
arrives at the far end after the propagation delay.  Packets that find the
transmit queue full are dropped (drop-tail), which is how a SYN flood
congests benign traffic in these experiments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng

if TYPE_CHECKING:
    from repro.net.node import Interface


@dataclass
class LinkStats:
    """Per-direction counters for one link endpoint."""

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped: int = 0
    packets_delivered: int = 0
    packets_lost: int = 0  # random on-wire loss (loss_probability)
    packets_unrouted: int = 0  # serialized with no peer attached
    # Serializing or propagating right now; packets_sent always equals
    # delivered + lost + unrouted + in_flight (the conservation identity
    # repro.sim.invariants checks).
    packets_in_flight: int = 0

    def drop_rate(self) -> float:
        """Fraction of offered packets dropped at this endpoint's queue."""
        offered = self.packets_sent + self.packets_dropped
        return self.packets_dropped / offered if offered else 0.0


class LinkEnd:
    """One direction of a link: the transmit side at a given interface."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        delay_s: float,
        queue_packets: int,
        on_drop: Optional[Callable[[Packet], None]] = None,
        loss_probability: float = 0.0,
        rng: Optional[SeededRng] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        if queue_packets < 1:
            raise ValueError("queue must hold at least one packet")
        if not 0 <= loss_probability < 1:
            raise ValueError("loss probability must be in [0, 1)")
        if loss_probability > 0 and rng is None:
            raise ValueError("lossy links need an rng")
        self._sim = sim
        self._bandwidth_bps = bandwidth_bps
        self._delay_s = delay_s
        self._queue_packets = queue_packets
        self._on_drop = on_drop
        self._loss_probability = loss_probability
        self._rng = rng
        self._queue: deque[Packet] = deque()
        self._transmitting = False
        # The frame occupying the wire and the frames in propagation.  The
        # per-direction delay is constant, so propagation completes in FIFO
        # order and the callbacks below can be shared bound methods instead
        # of one closure per packet (the closures dominated allocation at
        # flood rates).
        self._serializing: Optional[Packet] = None
        self._propagating: deque[Packet] = deque()
        self._peer: Optional["Interface"] = None
        # Sharded boundary stub: when set, frames that finish serializing
        # are handed to the export callback instead of propagating locally
        # (the receiving shard re-injects them via import_deliver).  See
        # repro.sim.sharded.runtime.
        self.export: Optional[Callable[[Packet], None]] = None
        self.stats = LinkStats()

    def attach_peer(self, peer: "Interface") -> None:
        """Set the interface that receives this direction's packets."""
        self._peer = peer

    @property
    def queue_depth(self) -> int:
        """Packets currently waiting (not counting one in serialization)."""
        return len(self._queue)

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission; False if drop-tailed."""
        if len(self._queue) >= self._queue_packets:
            self.stats.packets_dropped += 1
            if self._on_drop is not None:
                self._on_drop(packet)
            return False
        self._queue.append(packet)
        if not self._transmitting:
            self._sim.schedule(*self._start_tx())
        return True

    def _start_tx(self) -> tuple[float, Callable[[], None], str]:
        """Move the next queued packet onto the wire; returns its tx entry.

        The queue must be non-empty.  Counters are bumped here (packet is
        committed to the wire) and the completion callback is the shared
        ``_tx_done`` bound method — the packet lives in ``_serializing``.
        """
        self._transmitting = True
        packet = self._queue.popleft()
        self._serializing = packet
        size = packet.size_bytes
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += size
        stats.packets_in_flight += 1
        return (size * 8.0 / self._bandwidth_bps, self._tx_done, "link.tx")

    def _tx_done(self) -> None:
        # The propagation of the finished packet and the serialization of
        # the next one are scheduled as one batch (same order as separate
        # schedule() calls, so event sequence numbers are unchanged).
        packet = self._serializing
        self._serializing = None
        stats = self.stats
        propagate: tuple[float, Callable[[], None], str] | None = None
        if (
            self._loss_probability > 0
            and self._rng is not None
            and self._rng.random() < self._loss_probability
        ):
            stats.packets_lost += 1
            stats.packets_in_flight -= 1
        elif self.export is not None:
            # Loss is decided above (the rng draw stays on the sending
            # shard); what survives crosses the boundary.  The frame
            # stays counted in_flight on this replica — delivery happens
            # on the shard that owns the far end.
            self.export(packet)
        elif self._peer is not None:
            self._propagating.append(packet)
            propagate = (self._delay_s, self._deliver_next, "link.propagate")
        else:
            stats.packets_unrouted += 1
            stats.packets_in_flight -= 1
        if self._queue:
            entry = self._start_tx()
            if propagate is None:
                self._sim.schedule(*entry)
            else:
                self._sim.schedule_many((propagate, entry))
        else:
            self._transmitting = False
            if propagate is not None:
                self._sim.schedule(*propagate)

    def import_deliver(self, packet: Packet) -> None:
        """Deliver a frame serialized on another shard's replica.

        Called at the frame's arrival time by the sharded runner on the
        shard that owns the receiving node.  Only the delivery-side
        counters move: transmission was accounted on the sending shard.
        """
        self.stats.packets_delivered += 1
        self._peer.deliver(packet)

    def _deliver_next(self) -> None:
        packet = self._propagating.popleft()
        stats = self.stats
        stats.packets_delivered += 1
        stats.packets_in_flight -= 1
        self._peer.deliver(packet)


class Link:
    """A full-duplex link joining two interfaces.

    Construction wires both directions; each direction has an independent
    transmitter, queue and counters, as on a physical cable.
    """

    def __init__(
        self,
        sim: Simulator,
        a: "Interface",
        b: "Interface",
        bandwidth_bps: float = 100e6,
        delay_s: float = 0.001,
        queue_packets: int = 100,
        loss_probability: float = 0.0,
        rng: Optional[SeededRng] = None,
    ) -> None:
        self.a = a
        self.b = b
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self._a_to_b = LinkEnd(
            sim, bandwidth_bps, delay_s, queue_packets,
            loss_probability=loss_probability,
            rng=rng.child("a2b") if rng is not None else None,
        )
        self._b_to_a = LinkEnd(
            sim, bandwidth_bps, delay_s, queue_packets,
            loss_probability=loss_probability,
            rng=rng.child("b2a") if rng is not None else None,
        )
        self._a_to_b.attach_peer(b)
        self._b_to_a.attach_peer(a)
        a.attach_link(self, self._a_to_b)
        b.attach_link(self, self._b_to_a)

    def end_for(self, interface: "Interface") -> LinkEnd:
        """The transmit side used when ``interface`` sends on this link."""
        if interface is self.a:
            return self._a_to_b
        if interface is self.b:
            return self._b_to_a
        raise ValueError("interface is not attached to this link")

    def stats_for(self, interface: "Interface") -> LinkStats:
        """Transmit-direction stats for ``interface``."""
        return self.end_for(interface).stats

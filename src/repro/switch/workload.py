"""Per-switch CPU workload accounting.

The paper's third claim is that selective inspection *balances the
workload on the OVS*: mirroring everything to a DPI engine all the time
would melt the switch, so inspection is turned on only for suspicious
aggregates, only for a bounded window.  To evaluate that claim we charge
each datapath operation a configurable CPU cost and integrate busy time.

The default costs are loosely calibrated to software-switch figures
(microseconds per operation for kernel OVS on commodity x86); the
*ratios* are what matters for the reproduced shape: a packet-in is ~10x a
fast-path lookup, and mirroring charges both a per-packet and a per-byte
term.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadCosts:
    """CPU seconds charged per datapath operation."""

    lookup: float = 2e-6
    packet_in: float = 25e-6
    packet_out: float = 10e-6
    flow_mod: float = 15e-6
    mirror_packet: float = 4e-6
    mirror_byte: float = 4e-9
    forward_packet: float = 1e-6
    stats_request: float = 20e-6


class WorkloadMeter:
    """Integrates switch CPU busy-time, split by cause.

    ``utilization(window)`` returns busy/wall over the trailing window,
    the number the E3 bench reports as *OVS load*.
    """

    def __init__(self, costs: WorkloadCosts | None = None) -> None:
        self.costs = costs or WorkloadCosts()
        self.total_busy = 0.0
        self.busy_by_cause: dict[str, float] = {}
        self._samples: list[tuple[float, float]] = []  # (time, busy_delta)

    def charge(self, cause: str, seconds: float, now: float) -> None:
        """Record ``seconds`` of CPU attributable to ``cause`` at ``now``."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.total_busy += seconds
        self.busy_by_cause[cause] = self.busy_by_cause.get(cause, 0.0) + seconds
        self._samples.append((now, seconds))

    # Convenience wrappers for the common operations -------------------

    def charge_lookup(self, now: float) -> None:
        """One flow-table lookup."""
        self.charge("lookup", self.costs.lookup, now)

    def charge_packet_in(self, now: float) -> None:
        """Encapsulating and punting one packet to the controller."""
        self.charge("packet_in", self.costs.packet_in, now)

    def charge_packet_out(self, now: float) -> None:
        """Processing one PacketOut from the controller."""
        self.charge("packet_out", self.costs.packet_out, now)

    def charge_flow_mod(self, now: float) -> None:
        """Installing or removing one flow entry."""
        self.charge("flow_mod", self.costs.flow_mod, now)

    def charge_forward(self, now: float) -> None:
        """Fast-path forwarding of one packet."""
        self.charge("forward", self.costs.forward_packet, now)

    def charge_mirror(self, size_bytes: int, now: float) -> None:
        """Copying one packet of ``size_bytes`` to a SPAN port."""
        self.charge(
            "mirror",
            self.costs.mirror_packet + self.costs.mirror_byte * size_bytes,
            now,
        )

    def charge_stats(self, now: float) -> None:
        """Serving one statistics request."""
        self.charge("stats", self.costs.stats_request, now)

    # Reporting ---------------------------------------------------------

    def utilization(self, now: float, window: float = 1.0) -> float:
        """Busy fraction over the trailing ``window`` seconds."""
        if window <= 0:
            raise ValueError("window must be positive")
        cutoff = now - window
        busy = sum(delta for t, delta in self._samples if t >= cutoff)
        return busy / window

    def breakdown(self) -> dict[str, float]:
        """Total busy seconds per cause (copy)."""
        return dict(self.busy_by_cause)

    def inspection_share(self) -> float:
        """Fraction of total busy time attributable to mirroring/DPI."""
        if self.total_busy == 0:
            return 0.0
        return self.busy_by_cause.get("mirror", 0.0) / self.total_busy

    def prune(self, before: float) -> None:
        """Drop samples older than ``before`` to bound memory."""
        self._samples = [(t, d) for t, d in self._samples if t >= before]

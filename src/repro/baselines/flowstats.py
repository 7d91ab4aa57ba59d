"""Control-plane-only detection: poll flow counters, threshold the deltas.

Many SDN DDoS detectors work purely from OpenFlow statistics: poll each
datapath's flow counters every T seconds and flag destinations whose
packet-rate delta exceeds a threshold.  It needs no monitors and no
mirroring — but it sees neither TCP flags nor source addresses, so it
cannot distinguish a flood from a flash crowd (every alarm can only be
answered with a victim shield), and its latency is quantized by the
poll period.  This is the "coarse and slow" end of the spectrum the
paper's two-tier design improves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.defense import Defense
from repro.mitigation.manager import MitigationManager
from repro.openflow.messages import FlowStatsReply
from repro.sim.process import PeriodicTask
from repro.topology.builder import Network


@dataclass
class FlowStatsDetection:
    """One over-threshold observation."""

    time: float
    victim_mac: str
    victim_ip: Optional[str]
    rate_pps: float


@dataclass
class FlowStatsStats:
    """Poll/detection counters."""

    polls: int = 0
    replies: int = 0
    detections: int = 0
    mitigations: int = 0


class FlowStatsDefense(Defense):
    """Threshold detector over per-destination flow-counter deltas."""

    coordinator_only = True

    def __init__(
        self,
        net: Network,
        poll_period_s: float = 1.0,
        pps_threshold: float = 200.0,
        mitigation: Optional[MitigationManager] = None,
        detection_holddown_s: float = 5.0,
    ) -> None:
        if poll_period_s <= 0:
            raise ValueError("poll period must be positive")
        if pps_threshold <= 0:
            raise ValueError("threshold must be positive")
        super().__init__()
        self.net = net
        self.poll_period_s = poll_period_s
        self.pps_threshold = pps_threshold
        self.mitigation = mitigation
        self.detection_holddown_s = detection_holddown_s
        self.stats = FlowStatsStats()
        self.detections: list[FlowStatsDetection] = []
        self._last_counts: dict[tuple[int, str], int] = {}
        self._last_poll_at: dict[int, float] = {}
        self._holddown_until: dict[str, float] = {}
        self._task = PeriodicTask(
            net.sim, poll_period_s, self._poll_all, "flowstats.poll"
        )
        self._task.start()

    def stop(self) -> None:
        """Halt polling."""
        self._task.stop()

    def detection_times(self) -> list[float]:
        """Timestamps of all over-threshold observations."""
        return [d.time for d in self.detections]

    # ------------------------------------------------------------ polling

    def _poll_all(self) -> None:
        self.stats.polls += 1
        for datapath_id in self.net.controller.datapaths:
            self.net.controller.request_flow_stats(
                datapath_id,
                callback=lambda reply, dpid=datapath_id: self._on_reply(dpid, reply),
            )

    def _on_reply(self, datapath_id: int, reply: FlowStatsReply) -> None:
        self.stats.replies += 1
        now = self.net.sim.now
        elapsed = now - self._last_poll_at.get(datapath_id, 0.0)
        self._last_poll_at[datapath_id] = now
        for row in reply.entries:
            eth_dst = row.match.eth_dst
            if eth_dst is None:
                continue
            key = (datapath_id, eth_dst)
            previous = self._last_counts.get(key)
            self._last_counts[key] = row.packets
            if previous is None or elapsed <= 0:
                continue
            rate = (row.packets - previous) / elapsed
            if rate > self.pps_threshold:
                self._detect(eth_dst, rate, now)

    def _detect(self, victim_mac: str, rate: float, now: float) -> None:
        if now < self._holddown_until.get(victim_mac, 0.0):
            return
        self._holddown_until[victim_mac] = now + self.detection_holddown_s
        victim_ip = self._ip_of(victim_mac)
        self.stats.detections += 1
        self.detections.append(
            FlowStatsDetection(
                time=now, victim_mac=victim_mac, victim_ip=victim_ip, rate_pps=rate
            )
        )
        self.net.tracer.emit(
            "baseline.flowstats_detection",
            f"victim={victim_ip or victim_mac} rate={rate:.0f}pps",
            victim=victim_ip,
        )
        if self.mitigation is not None and victim_ip is not None:
            if not self.mitigation.is_active(victim_ip):
                self.stats.mitigations += 1
                self.mitigation.note_victim_mac(victim_ip, victim_mac)
                # Counters carry no flags or sources: shielding the victim
                # wholesale is the only mitigation available.
                self.mitigation.mitigate(victim_ip, attacker_sources=())

    def _ip_of(self, mac: str) -> Optional[str]:
        for host in self.net.hosts.values():
            if host.mac == mac:
                return host.ip
        return None

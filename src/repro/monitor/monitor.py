"""The traffic monitor node: sampling tap + windowing + detection.

One ``TrafficMonitor`` watches one switch (all ingress ports) through an
sFlow-style sampling tap.  Every ``window_s`` seconds it closes a feature
window, runs its anomaly detector, and — subject to a per-victim holddown
to avoid alert storms — publishes an :class:`Alert` naming the most
SYN-targeted destination as the suspected victim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.monitor.alerts import Alert, AlertBus
from repro.monitor.detectors import AnomalyDetector, retune_number
from repro.monitor.features import (
    DEFAULT_SKETCH_SEED,
    FeatureExtractor,
    WindowFeatures,
)
from repro.net.packet import Packet
from repro.sim.process import PeriodicTask
from repro.sim.rng import SeededRng
from repro.switch.ovs import OpenFlowSwitch


@dataclass(frozen=True)
class MonitorConfig:
    """Monitor tuning knobs.

    ``backend`` selects the feature backend: ``"exact"`` keeps full
    per-address dicts (historical behavior), ``"sketch"`` bounds monitor
    memory by the sketch geometry (``sketch_width`` x ``sketch_depth``
    counters per count-min sketch, ``2**hll_precision`` HyperLogLog
    registers, ``sketch_topk`` heavy-hitter candidates) regardless of
    how many distinct sources a flood spoofs.
    """

    window_s: float = 0.5
    sampling_probability: float = 1.0
    holddown_s: float = 2.0
    backend: str = "exact"
    sketch_width: int = 1024
    sketch_depth: int = 4
    sketch_topk: int = 8
    hll_precision: int = 12
    sketch_seed: int = DEFAULT_SKETCH_SEED
    track_state_bytes: bool = False

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window must be positive")
        if not 0 < self.sampling_probability <= 1:
            raise ValueError("sampling probability must be in (0, 1]")
        if self.holddown_s < 0:
            raise ValueError("holddown must be non-negative")
        if self.backend not in ("exact", "sketch"):
            raise ValueError("backend must be 'exact' or 'sketch'")
        if self.sketch_width < 8:
            raise ValueError("sketch width must be >= 8")
        if self.sketch_depth < 1:
            raise ValueError("sketch depth must be >= 1")
        if self.sketch_topk < 1:
            raise ValueError("sketch topk must be >= 1")
        if not 4 <= self.hll_precision <= 16:
            raise ValueError("hll precision must be in [4, 16]")


class TrafficMonitor:
    """A distributed monitor attached to one switch."""

    def __init__(
        self,
        name: str,
        switch: OpenFlowSwitch,
        detector: AnomalyDetector,
        bus: AlertBus,
        rng: SeededRng,
        config: MonitorConfig | None = None,
    ) -> None:
        self.name = name
        self.switch = switch
        self.detector = detector
        self.bus = bus
        self.rng = rng
        self.config = config or MonitorConfig()
        self.extractor = FeatureExtractor(
            self.config.sampling_probability,
            backend=self.config.backend,
            sketch_width=self.config.sketch_width,
            sketch_depth=self.config.sketch_depth,
            sketch_topk=self.config.sketch_topk,
            hll_precision=self.config.hll_precision,
            sketch_seed=self.config.sketch_seed,
            track_state_bytes=self.config.track_state_bytes,
        )
        self.packets_seen = 0
        self.packets_sampled = 0
        self.windows_closed = 0
        self.alerts_emitted = 0
        self.window_history: list[WindowFeatures] = []
        self._holddown_until: dict[str, float] = {}
        self._task = PeriodicTask(
            switch.sim, self.config.window_s, self._close_window, f"monitor.{name}"
        )
        switch.attach_tap(self._tap)
        self._task.start()

    # ----------------------------------------------------------- sampling

    def _tap(self, packet: Packet) -> None:
        self.packets_seen += 1
        if (
            self.config.sampling_probability >= 1.0
            or self.rng.random() < self.config.sampling_probability
        ):
            self.packets_sampled += 1
            self.extractor.observe(packet)

    # ----------------------------------------------------------- windows

    def _close_window(self) -> None:
        now = self.switch.sim.now
        features = self.extractor.close_window(now)
        self.windows_closed += 1
        self.window_history.append(features)
        if len(self.window_history) > 1000:
            self.window_history.pop(0)
        detection = self.detector.update(features)
        if detection is None:
            return
        if detection.detector == "udp-rate":
            victim = features.top_udp_destination or features.top_destination
        else:
            victim = features.top_destination or features.top_udp_destination
        key = victim or "*"
        if now < self._holddown_until.get(key, 0.0):
            return
        self._holddown_until[key] = now + self.config.holddown_s
        self.alerts_emitted += 1
        self.bus.publish(
            Alert(
                monitor=self.name,
                time=now,
                detection=detection,
                features=features,
                victim_ip=victim,
            )
        )

    def retune(
        self,
        sampling_probability: float | None = None,
        holddown_s: float | None = None,
    ) -> MonitorConfig:
        """Validated runtime reconfiguration of the sampling tier.

        The replacement config revalidates through ``MonitorConfig``'s
        invariants before anything is applied; the feature extractor's
        scale follows the new sampling probability immediately.  The
        window length is deliberately *not* tunable — every detector's
        learned baseline is calibrated per-window.  Returns the config
        in force.
        """
        updates: dict[str, float] = {}
        if sampling_probability is not None:
            updates["sampling_probability"] = retune_number("sampling_probability", sampling_probability)
        if holddown_s is not None:
            updates["holddown_s"] = retune_number("holddown_s", holddown_s)
        if updates:
            self.config = replace(self.config, **updates)
            if "sampling_probability" in updates:
                self.extractor.set_sampling_probability(
                    updates["sampling_probability"]
                )
        return self.config

    def stop(self) -> None:
        """Halt the windowing task (end of scenario)."""
        self._task.stop()

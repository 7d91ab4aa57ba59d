"""Anomaly detectors over the monitor feature stream.

The monitor tier trades accuracy for speed: each detector looks at one
window summary at a time and answers "does this look like a flood?".
The families implemented here are the standard choices for SYN-flood
anomaly detection and are ablated against each other in experiment E7:

* ``StaticThresholdDetector`` — fire when SYN rate exceeds a constant.
* ``AdaptiveThresholdDetector`` — mean + k*sigma over a trailing baseline.
* ``EwmaDetector`` — exponentially weighted baseline and variance.
* ``CusumDetector`` — cumulative sum of positive drifts; detects gradual
  ramps a threshold misses.
* ``EntropyDetector`` — source-address entropy; separates spoofed floods
  from legitimate bursts regardless of rate.
* ``CompositeDetector`` — logical OR over members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.monitor.features import WindowFeatures


def _positive(name: str) -> Callable[[float], None]:
    def check(value: float) -> None:
        if value <= 0:
            raise ValueError(f"{name} must be positive")
    return check


def _non_negative(name: str) -> Callable[[float], None]:
    def check(value: float) -> None:
        if value < 0:
            raise ValueError(f"{name} must be >= 0")
    return check


def _unit_interval(name: str) -> Callable[[float], None]:
    def check(value: float) -> None:
        if not 0 < value <= 1:
            raise ValueError(f"{name} must be in (0, 1]")
    return check


@dataclass(frozen=True)
class Detection:
    """A detector's positive verdict for one window."""

    detector: str
    value: float
    threshold: float
    score: float

    @property
    def severity(self) -> float:
        """How far past the threshold, normalized (>=1 means at threshold)."""
        if self.threshold == 0:
            return self.score
        return self.value / self.threshold


class AnomalyDetector:
    """Base detector: consume one window, optionally emit a detection."""

    name = "base"

    #: Parameters the control plane may retune at runtime, each mapped to
    #: a validator that raises ``ValueError`` on an illegal value.
    #: Subclasses extend this; :meth:`retune` consults it.
    TUNABLE: dict[str, Callable[[float], None]] = {}

    def update(self, features: WindowFeatures) -> Optional[Detection]:
        """Process one window summary."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear learned state (between scenario phases)."""

    def retune(self, **params: float) -> dict[str, float]:
        """Validated runtime reconfiguration.

        Every key must name a :attr:`TUNABLE` parameter and pass its
        validator, or the whole call is rejected (no partial retunes).
        Learned state (baselines, CUSUM sums) survives — only the knobs
        move.  Returns the parameters as applied.
        """
        unknown = sorted(set(params) - set(self.TUNABLE))
        if unknown:
            raise ValueError(
                f"{self.name}: unknown tunable(s) {unknown}; "
                f"choose from {sorted(self.TUNABLE)}"
            )
        for key, value in params.items():
            self.TUNABLE[key](value)
        for key, value in params.items():
            setattr(self, key, value)
        return dict(params)


class StaticThresholdDetector(AnomalyDetector):
    """Fire when the window SYN rate exceeds a fixed threshold."""

    name = "static-threshold"
    TUNABLE = {"syn_rate_threshold": _positive("threshold")}

    def __init__(self, syn_rate_threshold: float = 100.0) -> None:
        if syn_rate_threshold <= 0:
            raise ValueError("threshold must be positive")
        self.syn_rate_threshold = syn_rate_threshold

    def update(self, features: WindowFeatures) -> Optional[Detection]:
        rate = features.syn_rate
        if rate > self.syn_rate_threshold:
            return Detection(
                detector=self.name,
                value=rate,
                threshold=self.syn_rate_threshold,
                score=rate / self.syn_rate_threshold,
            )
        return None


class AdaptiveThresholdDetector(AnomalyDetector):
    """Mean + k*sigma over a trailing baseline of quiet windows.

    The baseline only absorbs windows that did not fire, so a sustained
    flood cannot teach the detector that flooding is normal.
    """

    name = "adaptive-threshold"
    TUNABLE = {"k": _positive("k"), "floor": _non_negative("floor")}

    def __init__(self, k: float = 3.0, min_windows: int = 5, floor: float = 20.0) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.min_windows = min_windows
        self.floor = floor
        self._values: list[float] = []

    def update(self, features: WindowFeatures) -> Optional[Detection]:
        rate = features.syn_rate
        if len(self._values) < self.min_windows:
            self._values.append(rate)
            return None
        mean = sum(self._values) / len(self._values)
        var = sum((v - mean) ** 2 for v in self._values) / len(self._values)
        threshold = max(self.floor, mean + self.k * math.sqrt(var))
        if rate > threshold:
            return Detection(
                detector=self.name, value=rate, threshold=threshold,
                score=(rate - mean) / (math.sqrt(var) + 1e-9),
            )
        self._values.append(rate)
        if len(self._values) > 100:
            self._values.pop(0)
        return None

    def reset(self) -> None:
        self._values.clear()


class EwmaDetector(AnomalyDetector):
    """EWMA baseline with EWM variance; fires on k-sigma excursions."""

    name = "ewma"
    TUNABLE = {
        "alpha": _unit_interval("alpha"),
        "k": _positive("k"),
        "floor": _non_negative("floor"),
    }

    def __init__(self, alpha: float = 0.2, k: float = 3.0, floor: float = 20.0,
                 warmup_windows: int = 3) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.k = k
        self.floor = floor
        self.warmup_windows = warmup_windows
        self._mean: Optional[float] = None
        self._var = 0.0
        self._seen = 0

    def update(self, features: WindowFeatures) -> Optional[Detection]:
        rate = features.syn_rate
        self._seen += 1
        if self._mean is None:
            self._mean = rate
            return None
        threshold = max(self.floor, self._mean + self.k * math.sqrt(self._var))
        firing = self._seen > self.warmup_windows and rate > threshold
        if firing:
            return Detection(
                detector=self.name, value=rate, threshold=threshold,
                score=(rate - self._mean) / (math.sqrt(self._var) + 1e-9),
            )
        # Baseline only learns from non-anomalous windows.
        delta = rate - self._mean
        self._mean += self.alpha * delta
        self._var = (1 - self.alpha) * (self._var + self.alpha * delta * delta)
        return None

    def reset(self) -> None:
        self._mean = None
        self._var = 0.0
        self._seen = 0


class CusumDetector(AnomalyDetector):
    """One-sided CUSUM on the SYN rate.

    Accumulates ``max(0, S + (x - mu - drift))``; fires when the sum
    crosses ``h``.  Detects slow ramps that never individually cross a
    threshold — the low-rate attack regime of E7.
    """

    name = "cusum"
    TUNABLE = {
        "drift": _non_negative("drift"),
        "h": _positive("h"),
        "alpha": _unit_interval("alpha"),
    }

    def __init__(self, drift: float = 10.0, h: float = 50.0, alpha: float = 0.1,
                 warmup_windows: int = 3) -> None:
        if h <= 0:
            raise ValueError("h must be positive")
        self.drift = drift
        self.h = h
        self.alpha = alpha
        self.warmup_windows = warmup_windows
        self._mu: Optional[float] = None
        self._sum = 0.0
        self._seen = 0

    def update(self, features: WindowFeatures) -> Optional[Detection]:
        rate = features.syn_rate
        self._seen += 1
        if self._mu is None:
            self._mu = rate
            return None
        excess = rate - self._mu - self.drift
        self._sum = max(0.0, self._sum + excess)
        if self._seen > self.warmup_windows and self._sum > self.h:
            detection = Detection(
                detector=self.name, value=self._sum, threshold=self.h,
                score=self._sum / self.h,
            )
            self._sum = 0.0  # restart after signalling
            return detection
        if excess <= 0:
            self._mu += self.alpha * (rate - self._mu)
        return None

    def reset(self) -> None:
        self._mu = None
        self._sum = 0.0
        self._seen = 0


class EntropyDetector(AnomalyDetector):
    """Source-entropy detector for spoofed floods.

    Fires when the source-IP entropy is near-uniform *and* there is
    non-trivial SYN volume; robust to floods that rate-match the benign
    load (which threshold detectors cannot see).
    """

    name = "entropy"

    TUNABLE = {
        "entropy_threshold": _unit_interval("entropy threshold"),
        "min_syn_rate": _non_negative("min SYN rate"),
        "min_sources": _positive("min sources"),
    }

    def __init__(self, entropy_threshold: float = 0.9, min_syn_rate: float = 20.0,
                 min_sources: int = 8) -> None:
        if not 0 < entropy_threshold <= 1:
            raise ValueError("entropy threshold must be in (0, 1]")
        self.entropy_threshold = entropy_threshold
        self.min_syn_rate = min_syn_rate
        self.min_sources = min_sources

    def update(self, features: WindowFeatures) -> Optional[Detection]:
        if (
            features.source_entropy >= self.entropy_threshold
            and features.syn_rate >= self.min_syn_rate
            and features.distinct_sources >= self.min_sources
        ):
            return Detection(
                detector=self.name,
                value=features.source_entropy,
                threshold=self.entropy_threshold,
                score=features.source_entropy / self.entropy_threshold,
            )
        return None


class UdpRateDetector(AnomalyDetector):
    """Volumetric UDP detector: fire when the datagram rate spikes.

    The UDP analogue of the static SYN threshold; pairs with the
    UDP-flood signature at the correlator for verification.
    """

    name = "udp-rate"
    TUNABLE = {"udp_rate_threshold": _positive("threshold")}

    def __init__(self, udp_rate_threshold: float = 200.0) -> None:
        if udp_rate_threshold <= 0:
            raise ValueError("threshold must be positive")
        self.udp_rate_threshold = udp_rate_threshold

    def update(self, features: WindowFeatures) -> Optional[Detection]:
        rate = features.udp_rate
        if rate > self.udp_rate_threshold:
            return Detection(
                detector=self.name,
                value=rate,
                threshold=self.udp_rate_threshold,
                score=rate / self.udp_rate_threshold,
            )
        return None


class CompositeDetector(AnomalyDetector):
    """Logical OR over member detectors (first firing member wins)."""

    name = "composite"

    def __init__(self, members: Sequence[AnomalyDetector]) -> None:
        if not members:
            raise ValueError("composite needs at least one member")
        self.members = list(members)

    def update(self, features: WindowFeatures) -> Optional[Detection]:
        for member in self.members:
            detection = member.update(features)
            if detection is not None:
                return detection
        return None

    def reset(self) -> None:
        for member in self.members:
            member.reset()

    def retune(self, **params: float) -> dict[str, float]:
        """Fan a retune out to every member that owns the parameter."""
        owners: dict[str, list[AnomalyDetector]] = {}
        for key in params:
            owners[key] = [m for m in self.members if key in m.TUNABLE]
            if not owners[key]:
                raise ValueError(
                    f"{self.name}: no member detector tunes {key!r}"
                )
        for key, value in params.items():
            for member in owners[key]:
                member.retune(**{key: value})
        return dict(params)


#: Detector family name -> class: the one list ``make_detector``, the CLI
#: and ``ScenarioConfig`` validation read.
DETECTORS: dict[str, type[AnomalyDetector]] = {
    "static": StaticThresholdDetector,
    "adaptive": AdaptiveThresholdDetector,
    "ewma": EwmaDetector,
    "cusum": CusumDetector,
    "entropy": EntropyDetector,
    "udp-rate": UdpRateDetector,
}


def make_detector(kind: str, **kwargs) -> AnomalyDetector:
    """Factory keyed by detector family name (used by sweep configs)."""
    if kind not in DETECTORS:
        raise ValueError(f"unknown detector family {kind!r}; choose from {sorted(DETECTORS)}")
    return DETECTORS[kind](**kwargs)

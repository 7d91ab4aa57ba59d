"""Distributed traffic monitors: the fast, coarse tier of the detector.

Monitors sample packets at edge switches (sFlow-style taps), reduce each
observation window to :class:`WindowFeatures`, and run one or more
anomaly detectors over the feature stream.  A firing detector publishes
an :class:`Alert` on the management-plane :class:`AlertBus`, which the
SPI coordinator in :mod:`repro.core` consumes.
"""

from repro.monitor.window import EntropyAccumulator
from repro.monitor.sketch import (
    CountMinSketch,
    HeavyHitterSketch,
    HyperLogLog,
    SketchSourceStats,
)
from repro.monitor.features import (
    ExactFeatureBackend,
    FeatureExtractor,
    SketchFeatureBackend,
    WindowFeatures,
)
from repro.monitor.detectors import (
    AdaptiveThresholdDetector,
    AnomalyDetector,
    CompositeDetector,
    CusumDetector,
    Detection,
    EntropyDetector,
    EwmaDetector,
    StaticThresholdDetector,
    make_detector,
)
from repro.monitor.alerts import Alert, AlertBus
from repro.monitor.monitor import MonitorConfig, TrafficMonitor

__all__ = [
    "EntropyAccumulator",
    "CountMinSketch",
    "HeavyHitterSketch",
    "HyperLogLog",
    "SketchSourceStats",
    "WindowFeatures",
    "FeatureExtractor",
    "ExactFeatureBackend",
    "SketchFeatureBackend",
    "AnomalyDetector",
    "Detection",
    "StaticThresholdDetector",
    "AdaptiveThresholdDetector",
    "EwmaDetector",
    "CusumDetector",
    "EntropyDetector",
    "CompositeDetector",
    "make_detector",
    "Alert",
    "AlertBus",
    "TrafficMonitor",
    "MonitorConfig",
]

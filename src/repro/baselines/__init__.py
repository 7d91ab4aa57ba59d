"""Comparison baselines for the evaluation.

* :class:`TapDpi` — deep-inspect every packet all the time (the accuracy
  upper bound and workload worst case SPI is measured against), or, with
  a duty fraction below 1, everything for a slice of each period and
  nothing in between (cheap but misses short floods).
* :class:`MonitorOnlyDefense` — trust the anomaly monitor outright and
  mitigate on every alert, no verification (fast but false-alarm-prone).
* :class:`FlowStatsDefense` — control-plane-only: threshold the deltas
  of polled OpenFlow counters (coarse, slow, cannot attribute sources).
"""

from repro.baselines.tapdpi import TapDpi, TapDpiStats
from repro.baselines.threshold_only import MonitorOnlyDefense
from repro.baselines.flowstats import FlowStatsDefense, FlowStatsDetection

__all__ = [
    "TapDpi",
    "TapDpiStats",
    "MonitorOnlyDefense",
    "FlowStatsDefense",
    "FlowStatsDetection",
]

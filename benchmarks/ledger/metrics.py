"""Metric names, units, directions and bounds — the ledger's vocabulary.

Every later performance claim uses these names.  ``BENCHMARK.json`` at
the repo root lists the same metrics (a self-test keeps the two equal).

All end-to-end metrics are **host** time or memory.  Simulated
statistics are the correctness check (see ``workloads.py``), never a
metric.  The time bounds are as wide as the contract allows because this
shared 2-vCPU box drifts by tens of percent for minutes at a time (see
the README); on a quiet machine the same ledger resolves ~5 %.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None  # share of the median it may worsen; None: no bound


END_TO_END: tuple[Metric, ...] = (
    # child's first line -> start of the timed call: imports, input
    # generation, worker/pool spawn
    Metric("setup_s", "s", "lower", 0.25),
    # perf_counter around the timed public call
    Metric("wall_s", "s", "lower", 0.25),
    # simulated seconds covered / wall_s
    Metric("sim_s_per_s", "sim-s/s", "higher", 0.25),
    # frames serialized onto links (packets folded for monitor_fold) / wall_s
    Metric("pkts_per_s", "pkt/s", "higher", 0.25),
    # user+sys of the child and its children over the timed call
    Metric("cpu_s", "s", "lower", 0.25),
    # peak RSS summed over the child and its children
    Metric("peak_rss_mib", "MiB", "lower", 0.05),
)

#: Packages under ``src/repro/`` that own events and self time.
LAYERS = (
    "sim", "net", "tcp", "switch", "openflow", "controller", "workload",
    "monitor", "kernels", "inspection", "core", "mitigation", "metrics",
)
#: Where the rest of the traced wall goes: the sharded protocol (codec,
#: pipes) and everything else outside the thirteen (harness, topology,
#: the timed call's own frame).
PSEUDO_LAYERS = ("sharded", "harness")


def _layer_metrics() -> list[Metric]:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.events", "count", "lower", None))  # root events owned
        out.append(Metric(f"{layer}.self_s", "s", "lower", None))  # span self time
        out.append(Metric(f"{layer}.share", "ratio", "lower", None))  # self_s / traced wall
    for layer in PSEUDO_LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower", None))
    return out


def _counts(unit: str, better: str, *names: str) -> list[Metric]:
    return [Metric(name, unit, better, None) for name in names]


PER_LAYER: tuple[Metric, ...] = tuple(
    _layer_metrics()
    + _counts("1/s", "higher", "sim.events_per_s")
    + _counts("count", "lower",
              "sim.events_executed", "net.pkts_sent", "net.queue_drops",
              "switch.pkts_in", "switch.punted", "switch.mirrored",
              "switch.dropped_by_rule",
              "openflow.lookups", "openflow.channel_msgs",
              "controller.msgs", "tcp.requests_ok", "workload.attack_pkts",
              "monitor.pkts_observed", "monitor.windows", "monitor.alerts",
              "kernels.calls",
              "inspection.frames", "inspection.parse_errors",
              "core.alerts", "core.inspections_started",
              "core.inspections_queued", "core.confirmed", "core.refuted",
              "mitigation.rules_installed", "metrics.trace_entries",
              "sharded.epochs", "sharded.boundary_records",
              "harness.points", "harness.points_failed",
              "harness.shm_results", "harness.pickle_results")
    + _counts("ratio", "higher",
              "net.pool_hit_ratio", "openflow.microflow_hit_ratio",
              "kernels.numpy_calls_ratio", "harness.parallel_efficiency")
    + _counts("ratio", "lower",
              "core.mirrored_frac", "sharded.overhead_ratio",
              "trace.overhead_ratio")
    + _counts("s", "lower",
              "openflow.lookup_s", "monitor.observe_s", "monitor.fold_s",
              "monitor.fold_first_touch_s", "monitor.fold_repeat_s",
              "sharded.codec_s", "sharded.barrier_wait_s",
              "sharded.coordinator_cpu_s", "sharded.worker_cpu_s",
              "harness.unpack_s", "harness.children_cpu_s",
              "harness.pool_spawn_s", "topology.build_s", "import_s")
    + _counts("B", "lower",
              "monitor.state_bytes_peak", "sharded.batch_bytes",
              "harness.result_bytes")
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: Metric, base: list[float], new: list[float]) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one row.

    The choosing-metrics rule: ``new`` is *worse* when its median is
    worse than ``base``'s by more than the metric's bound.  Where the
    run-to-run spread (the wider interquartile range, as a share of the
    base median) exceeds the bound the row is *unresolved* rather than
    same/worse — unless every ``new`` run reads better than every
    ``base`` run.  *better* needs the medians to differ by more than the
    base's own interquartile range, in the good direction.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    if all(sign * n < sign * b for n in new for b in base):
        return "better"
    spread = max(b_q3 - b_q1, n_q3 - n_q1) / abs(b_med)
    if spread > metric.bound:
        return "unresolved"
    delta = sign * (n_med - b_med)
    if delta > metric.bound * abs(b_med):
        return "worse"
    if -delta > (b_q3 - b_q1):
        return "better"
    return "same"

"""The per-layer table of one traced rep.

Span times come from the recorder; counts are read from the layers'
public stats after the run (the merged fingerprint rows where a sharded
run spreads them over processes), so a ratio is measured where the work
happened.  Every name in :data:`metrics.PER_LAYER` is always present; a
metric a workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Any

from repro.harness.fuzzer import fingerprint

from benchmarks.ledger.metrics import LAYERS, PER_LAYER
from benchmarks.ledger.trace import SpanRecorder


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _scenario_counts(result) -> dict[str, float]:
    """Counts of one in-process (or merged sharded) scenario result."""
    data = fingerprint(result)
    net = result.net
    switches = list(data["switches"].values())
    spi = data.get("spi", {})
    dpi = data.get("dpi", {})
    pool = net.packet_pool
    out = {
        "net.pkts_sent": sum(row["sent"] for row in data["links"]),
        "net.queue_drops": sum(row["queue_drops"] for row in data["links"]),
        "net.pool_hit_ratio":
            _ratio(pool.hits, pool.hits + pool.misses) if pool else 0.0,
        "switch.pkts_in": sum(row["packets_in"] for row in switches),
        "switch.punted": sum(row["packets_punted"] for row in switches),
        "switch.mirrored": sum(row["packets_mirrored"] for row in switches),
        "switch.dropped_by_rule":
            sum(row["packets_dropped_by_rule"] for row in switches),
        "openflow.lookups": sum(row["lookups"] for row in switches),
        "openflow.microflow_hit_ratio":
            result.flow_table_stats().microflow_hit_rate,
        "openflow.channel_msgs": sum(
            channel.stats.to_controller_msgs + channel.stats.to_switch_msgs
            for channel in net.channels.values()
        ),
        "controller.msgs": net.controller.messages_received,
        "tcp.requests_ok": result.workload.client_successes(),
        "workload.attack_pkts": data["attack_packets"],
        "inspection.frames": dpi.get("frames_received", 0),
        "inspection.parse_errors": dpi.get("parse_errors", 0),
        "core.alerts": spi.get("alerts_received", 0),
        "core.inspections_started": spi.get("inspections_started", 0),
        "core.inspections_queued": spi.get("inspections_queued", 0),
        "core.confirmed": spi.get("confirmed", 0),
        "core.refuted": spi.get("refuted", 0),
        "core.mirrored_frac": data["inspected_fraction"],
        "metrics.trace_entries": sum(data["trace_categories"].values()),
    }
    if result.spi is not None:
        monitors = list(result.spi.monitors.values())
        out.update(_extractor_counts([m.extractor for m in monitors]))
        out["monitor.windows"] = sum(m.windows_closed for m in monitors)
        out["monitor.alerts"] = sum(m.alerts_emitted for m in monitors)
        out["mitigation.rules_installed"] = sum(
            record.rule_count for record in result.spi.mitigation.records
        )
    return out


def _extractor_counts(extractors: list) -> dict[str, float]:
    return {
        "monitor.pkts_observed": sum(e.packets_observed for e in extractors),
        "monitor.state_bytes_peak": max(
            (max(e.peak_state_bytes, e.state_bytes()) for e in extractors),
            default=0,
        ),
    }


def table(
    recorder: SpanRecorder,
    setup_spans: dict[tuple[str, str], float],
    state: dict[str, Any],
    result: Any,
    report: dict[str, Any],
    untraced_wall_s: float,
) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of this rep, and the invariants it broke."""
    wall = report["wall_s"]
    out: dict[str, float] = dict.fromkeys((m.name for m in PER_LAYER), 0)
    by_layer = recorder.layers()
    idle = {"events": 0, "self_s": 0.0}  # a layer with no wrapped call and no event
    for layer in LAYERS:
        row = by_layer.get(layer, idle)
        out[f"{layer}.events"] = row["events"]
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = row["self_s"] / wall
    out["sharded.self_s"] = by_layer.get("sharded", idle)["self_s"]
    out["harness.self_s"] = sum(
        row["self_s"] for layer, row in by_layer.items()
        if layer not in LAYERS and layer != "sharded"
    )

    if hasattr(result, "net"):  # a scenario ran in this process
        out.update(_scenario_counts(result))
        local_events = result.net.sim.events_executed
    else:
        local_events = 0
    if "windows" in state:  # monitor_fold
        extractor, features = result
        out.update(_extractor_counts([extractor]))
        out["monitor.windows"] = len(features)
        folds = recorder.stats[("monitor", "FeatureExtractor.close_window")]
        out["monitor.fold_first_touch_s"] = sum(folds.durations[0::2])
        out["monitor.fold_repeat_s"] = sum(folds.durations[1::2])

    total = recorder.total
    # As the result reports it: this process's engine, the coordinator's
    # for a sharded run, every point's for a sweep.
    out["sim.events_executed"] = report["facts"]["events_executed"]
    out["sim.events_per_s"] = out["sim.events_executed"] / untraced_wall_s
    out["openflow.lookup_s"] = total("openflow", "FlowTable.lookup")
    out["monitor.observe_s"] = total("monitor", "FeatureExtractor.observe")
    out["monitor.fold_s"] = total("monitor", "FeatureExtractor.close_window")
    out["kernels.calls"] = sum(
        stat.count for stat in recorder.stats.values() if stat.layer == "kernels"
    )
    # Every twin dispatch asks prefer_numpy; it says yes from MIN_BATCH up.
    asked, took_numpy = recorder.tallies["prefer_numpy"]
    out["kernels.numpy_calls_ratio"] = _ratio(took_numpy, asked)
    build = ("topology", "build_scenario")
    out["topology.build_s"] = setup_spans.get(build, 0.0) + total(*build)
    out["import_s"] = report["import_s"]
    out["trace.overhead_ratio"] = wall / untraced_wall_s

    shards = state.get("transport_stats")
    if shards:
        out["sharded.epochs"] = shards["epochs"]
        out["sharded.boundary_records"] = shards["boundary_records"]
        out["sharded.batch_bytes"] = (
            shards["batch_bytes_to_workers"] + shards["batch_bytes_from_workers"]
        )
        out["sharded.codec_s"] = (
            total("sharded", "encode_batch") + total("sharded", "decode_batch")
        )
        out["sharded.barrier_wait_s"] = total("sharded", "ShardWorker.recv", "self_s")
        out["sharded.coordinator_cpu_s"] = report["self_cpu_s"]
        out["sharded.worker_cpu_s"] = report["children_cpu_s"]
        out["sharded.overhead_ratio"] = untraced_wall_s / report["shards1_wall_s"]
    pool = state.get("pool_stats")
    if pool:
        out["harness.points"] = report["points"]
        out["harness.points_failed"] = report["points_failed"]
        out["harness.result_bytes"] = pool["shm_bytes"]
        out["harness.shm_results"] = pool["shm_results"]
        out["harness.pickle_results"] = pool["pickle_results"]
        out["harness.unpack_s"] = (
            total("harness", "shm_get", "self_s") + total("harness", "unpack", "self_s")
        )
        out["harness.children_cpu_s"] = report["children_cpu_s"]
        out["harness.parallel_efficiency"] = report["children_cpu_s"] / (2 * wall)
        out["harness.pool_spawn_s"] = state["pool_spawn_s"]

    problems = []
    events = sum(row["events"] for row in by_layer.values())
    if events != local_events:
        problems.append(
            f"layers own {events} root events, the engine executed {local_events}"
        )
    self_total = sum(row["self_s"] for row in by_layer.values())
    if abs(self_total - wall) > 0.02 * wall:
        problems.append(
            f"self times add to {self_total:.3f} s, traced wall is {wall:.3f} s"
        )
    return out, problems

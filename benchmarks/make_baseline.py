"""Slim a pytest-benchmark JSON run into the committed M1 baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_substrate.py \
        benchmarks/bench_scenario_throughput.py \
        benchmarks/bench_monitor_plane.py \
        benchmarks/bench_sharded.py --benchmark-json=/tmp/m1.json
    python benchmarks/make_baseline.py /tmp/m1.json \
        benchmarks/results/m1_baseline.json

The committed baseline keeps only the event-loop, scenario,
flood-throughput, monitor-plane and single-shard cases — the
millisecond-scale benchmarks whose medians are stable enough to gate
on.  An already-slim baseline is a valid ``source``: re-slimming drops
the cases no longer listed and leaves every other entry byte for byte.
The nanosecond-scale cases (flow-table probes, packet pack/parse)
jitter by tens of percent between runs on shared hardware, so gating on them would make CI flaky; they are still
measured and uploaded as a workflow artifact on every build.  Raw
per-round samples are dropped (``compare_micro.py`` reads only
``stats.median``), but ``extra_info`` is kept: the throughput cases
publish packets-per-second and their measured speedup over the pre-PR
tree through it.
"""

from __future__ import annotations

import argparse
import json
import sys

BASELINE_CASES = (
    "test_event_loop_throughput_10k_events",
    "test_event_loop_schedule_many_batched",
    "test_event_queue_hold_heap_10k_pending",
    "test_event_queue_hold_heap_200k_pending",
    "test_small_scenario_end_to_end",
    "test_scenario_throughput_synflood",
    "test_scenario_throughput_udpflood",
    "test_monitor_plane_exact",
    "test_monitor_plane_sketch",
    "test_monitor_plane_sketch_small",
    "test_monitor_plane_sketch_deep",
    "test_monitor_plane_sketch_repeat_heavy",
    "test_sharded_single_shard_overhead",
)
STATS_KEYS = (
    "min", "max", "mean", "stddev", "median", "iqr", "ops", "rounds", "iterations"
)


def slim(data: dict) -> dict:
    machine = data.get("machine_info", {})
    return {
        "machine_info": {
            key: machine[key]
            for key in ("python_version", "system", "machine", "cpu")
            if key in machine
        },
        "datetime": data.get("datetime"),
        "benchmarks": [
            {
                "name": bench["name"],
                "fullname": bench["fullname"],
                "stats": {
                    key: bench["stats"][key]
                    for key in STATS_KEYS
                    if key in bench["stats"]
                },
                **(
                    {"extra_info": bench["extra_info"]}
                    if bench.get("extra_info")
                    else {}
                ),
            }
            for bench in data.get("benchmarks", [])
            if bench["name"] in BASELINE_CASES
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="write the slim committed baseline from a full benchmark JSON"
    )
    parser.add_argument("source", help="full pytest-benchmark JSON run")
    parser.add_argument("dest", help="where to write the slim baseline")
    args = parser.parse_args(argv)

    with open(args.source) as fh:
        data = json.load(fh)
    baseline = slim(data)
    missing = set(BASELINE_CASES) - {b["name"] for b in baseline["benchmarks"]}
    if missing:
        print(f"error: source run is missing {sorted(missing)}", file=sys.stderr)
        return 1
    with open(args.dest, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.dest} ({len(baseline['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""All six defenses on one identical attack, side by side.

Runs the same dumbbell SYN-flood scenario under: no defense,
monitor-only (alert = mitigate), flow-stats polling, always-on DPI,
duty-cycled sampled DPI, and SPI.  The table shows the paper's core trade-off: SPI matches
always-on DPI's protection at a fraction of its inspection workload,
and matches monitor-only's speed without its false-alarm exposure.

    python examples/compare_baselines.py
"""

from repro.harness import ScenarioConfig, run_scenario
from repro.harness.record import run_record
from repro.harness.sweep import apply_overrides
from repro.metrics import Table
from repro.workload import WorkloadConfig

BASE = ScenarioConfig(
    topology="dumbbell",
    topology_params={"n_clients": 4, "n_attackers": 2},
    duration_s=30.0,
    workload=WorkloadConfig(
        attack_rate_pps=400.0, attack_start_s=5.0, server_backlog=64
    ),
)


def main() -> None:
    table = Table(
        "Defense comparison: 400 pps spoofed SYN flood at t=5s",
        ["defense", "first_detection_s", "success_during", "success_after",
         "inspected_frac", "switch_cpu_ms"],
    )
    for defense in ("none", "monitor-only", "flow-stats", "sampled", "always-on", "spi"):
        record = run_record(run_scenario(apply_overrides(BASE, {"defense": defense})))
        detections = record.counters["detections"]
        table.add_row(
            defense,
            (min(detections) - 5.0) if detections else None,
            record.success_rate(5.0, 10.0),
            record.success_rate(12.0, 30.0),
            record.counters["inspected_fraction"],
            record.switch_busy_s * 1000,
        )
    print(table.to_text())
    print("Reading: 'none' collapses after the flood; 'monitor-only' and")
    print("'flow-stats' are fast but can only shield indiscriminately;")
    print("'always-on' protects at 100% packet inspection; 'sampled' is cheap")
    print("but slow/blind between phases; SPI gets always-on's outcome at a")
    print("few percent of its inspection load.")


if __name__ == "__main__":
    main()

"""The driver end to end at smoke size, the contract file, and the verdict rule."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.ledger import cli, environment
from benchmarks.ledger.metrics import END_TO_END, PER_LAYER, Metric, verdict
from benchmarks.ledger.workloads import WORKLOADS

ROOT = environment.REPO_ROOT
ENTRY = str(ROOT / "benchmarks" / "ledger" / "__main__.py")


def _run(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, ENTRY, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=300, env=env,
    )


def test_benchmark_json_names_the_same_metrics_and_workloads():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(cli.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(cli.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert contract["paths"] == ["benchmarks/ledger"]


def test_smoke_ledger_runs_every_workload_and_writes_one_json(tmp_path):
    out = tmp_path / "ledger.json"
    done = _run("--smoke", "--reps", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    ledger = json.loads(out.read_text())
    assert set(ledger["provenance"]) == {
        "git_commit", "nproc", "python", "numpy", "kernel_backend", "transport",
    }
    assert list(ledger["workloads"]) == list(cli.WORKLOAD_NAMES)
    for name, result in ledger["workloads"].items():
        assert result["failed"] == 0, (name, result["problems"])
        assert set(result["end_to_end"]) == {m.name for m in END_TO_END}
        assert set(result["per_layer"]) == {m.name for m in PER_LAYER}
        assert all(row["median"] > 0 for row in result["end_to_end"].values())
    for metric in END_TO_END:
        assert f"{metric.name} " in done.stdout
    fold = ledger["workloads"]["monitor_fold"]["per_layer"]
    assert fold["monitor.share"]["value"] + fold["kernels.share"]["value"] > 0.5
    assert fold["sim.events"]["value"] == 0


def test_contract_form_prints_one_result_object_last():
    done = _run("--workload", "monitor_fold", "--seed", "3", "--seconds", "0.1",
                "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in END_TO_END}


def test_refuses_a_configured_environment():
    done = _run("--smoke", "--reps", "1", env={**os.environ, "REPRO_KERNELS": "scalar"})
    assert done.returncode == 2
    assert "REPRO_KERNELS" in done.stderr


def test_compare_reads_two_ledgers(tmp_path):
    def ledger(wall: list[float]) -> dict:
        rows = {}
        for metric in END_TO_END:
            q1, median, q3 = cli.quartiles(wall)
            rows[metric.name] = {"unit": metric.unit, "median": median, "q1": q1,
                                 "q3": q3, "samples": wall}
        return {"workloads": {"w": {"end_to_end": rows, "failed": 0, "attempted": 5}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(ledger([1.0, 1.01, 1.02, 1.0, 1.01])))
    b.write_text(json.dumps(ledger([2.0, 2.01, 2.02, 2.0, 2.01])))
    done = _run("--compare", str(a), str(b))
    assert done.returncode == 1
    assert "worse" in done.stdout and "better" in done.stdout  # lower- and higher-is-better rows
    assert _run("--compare", str(a), str(a)).returncode == 0


def test_verdict_rule():
    lower = Metric("wall_s", "s", "lower", 0.05)
    steady = [1.00, 1.01, 1.00, 0.99, 1.00]
    assert verdict(lower, steady, [1.00, 1.00, 1.01, 0.99, 1.01]) == "same"
    assert verdict(lower, steady, [1.10, 1.11, 1.10, 1.09, 1.10]) == "worse"
    assert verdict(lower, steady, [0.90, 0.91, 0.90, 0.89, 0.90]) == "better"
    # Spread wider than the bound: no call either way...
    noisy = [1.00, 1.20, 0.90, 1.10, 0.95]
    assert verdict(lower, noisy, [1.02, 1.22, 0.92, 1.12, 0.97]) == "unresolved"
    # ...unless every new run beats every base run.
    assert verdict(lower, noisy, [0.5, 0.6, 0.55, 0.7, 0.65]) == "better"
    higher = Metric("pkts_per_s", "pkt/s", "higher", 0.05)
    assert verdict(higher, steady, [0.90, 0.91, 0.90, 0.89, 0.90]) == "worse"

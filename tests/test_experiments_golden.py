"""Golden-table regression tests for the evaluation experiments.

Every table committed under ``benchmarks/results/`` — the exact
artifacts the paper tables are built from — is regenerated at full
parameters and compared byte for byte, each once through the two-worker
pool, so any drift in the simulation, in the one
:func:`repro.harness.record.run_record` reduction, or in the pool
fan-out turns the build red.  E3 additionally runs at ``workers=1`` as
the serial witness: serial == pool is a property of the one generic
``_tabulate`` runner every table shares (``test_parallel_harness.py``
asserts it again on E1, and ``repro check``'s ``pooled`` variant on the
fingerprints), so one cheap table holds it here.  If a change
intentionally moves the numbers, regenerate the goldens with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e*.py -q
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.experiments import ALL_EXPERIMENTS

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: ``ALL_EXPERIMENTS`` key -> committed CSV stem (E13a/E13b have none:
#: E13b reports wall-clock throughput).
GOLDENS = {
    "e1": "e1_response_time",
    "e2": "e2_accuracy",
    "e3": "e3_workload",
    "e4": "e4_mitigation",
    "e5": "e5_scalability",
    "e6": "e6_flashcrowd",
    "e7a": "e7a_detectors",
    "e7b": "e7b_window",
    "e7c": "e7c_budget",
    "e7d": "e7d_sampling",
    "e8": "e8_pulsing",
    "e9": "e9_link_loss",
    "e10": "e10_placement",
    "e11": "e11_host_vs_network",
    "e12": "e12_udp_flood",
}


def _assert_matches_golden(name: str, workers: int) -> None:
    path = GOLDEN_DIR / f"{GOLDENS[name]}.csv"
    assert path.exists(), f"missing golden table {path}"
    assert ALL_EXPERIMENTS[name](workers=workers).to_csv() == path.read_text()


@pytest.mark.parametrize("name", GOLDENS)
def test_table_matches_committed_csv(name):
    _assert_matches_golden(name, workers=2)


def test_e3_workload_matches_committed_csv_serially():
    _assert_matches_golden("e3", workers=1)

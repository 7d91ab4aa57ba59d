"""Golden-table regression tests for the evaluation experiments.

Every table committed under ``benchmarks/results/`` — the exact
artifacts the paper tables are built from — is regenerated at full
parameters, each once through the two-worker pool, checked against the
paper-shape claim it exists to show (:data:`CLAIMS`), and then compared
byte for byte, so any drift in the simulation, in the one
:func:`repro.harness.record.run_record` reduction, or in the pool
fan-out turns the build red.  The claim runs first, on the regenerated
table and then on the committed CSV: a drift or a hand edit that also
breaks a claim fails with the claim's message, not the byte diff.  E3
additionally runs at ``workers=1`` as the serial witness (byte-only):
serial == pool is a property of the one generic ``_tabulate`` runner
every table shares (``test_parallel_harness.py`` asserts it again on E1,
and ``repro check``'s ``pooled`` variant on the fingerprints), so one
cheap table holds it here.

This module is the only writer of the committed tables.  If a change
intentionally moves the numbers, delete the CSVs you mean to re-pin and
run this test twice::

    rm benchmarks/results/e1_response_time.csv
    PYTHONPATH=src python -m pytest tests/test_experiments_golden.py -q

The first run checks the claim, writes the ``.csv`` and ``.md`` and
fails naming both files to review and commit; the second passes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import pytest

from repro.harness.experiments import ALL_EXPERIMENTS
from repro.metrics.report import Table

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


# ------------------------------------------------------------------ claims
# One function per table: the expected shape EXPERIMENTS.md states for it.


def _claim_e1(table: Table) -> None:
    """Alert < verdict <= mitigation; all milestones on the order of a
    second; times flat or mildly decreasing as the rate grows (more
    evidence per window)."""
    alerts = [v for v in table.column("t_alert_s") if v is not None]
    verdicts = [v for v in table.column("t_verdict_s") if v is not None]
    mitigations = [v for v in table.column("t_mitigate_s") if v is not None]
    assert len(alerts) == 6, "every rate must be detected"
    # Shape: alert strictly precedes verdict; mitigation lands with the
    # verdict (same control-plane action burst).
    for alert, verdict, mitigate in zip(alerts, verdicts, mitigations):
        assert alert < verdict <= mitigate + 1e-9
    # Magnitudes: single-digit seconds end to end.
    assert max(mitigations) < 5.0
    # Higher rates never slow detection down.
    assert alerts[-1] <= alerts[0] + 0.5


def _claim_e2(table: Table) -> None:
    """Monitor-only trades recall against precision as the threshold
    moves; SPI's verification keeps precision at 1.0 across the whole
    band below the attack rate."""
    rows = {
        (row[0], row[1]): row for row in table.rows
    }  # (threshold, defense) -> row
    fp_index = table.columns.index("fp")
    recall_index = table.columns.index("recall")
    precision_index = table.columns.index("precision")

    # Monitor-only false-alarms on the crowd at low thresholds.
    assert rows[(50, "monitor-only")][fp_index] > 0
    # SPI refutes those same alerts.
    assert rows[(50, "spi")][fp_index] == 0
    assert rows[(50, "spi")][precision_index] == 1.0
    # Both keep recall while the threshold is below the attack rate.
    for threshold in (50, 100, 200, 400):
        assert rows[(threshold, "spi")][recall_index] == 1.0
    # Above the attack rate the monitor is blind, so both miss.
    assert rows[(800, "spi")][recall_index] == 0.0
    assert rows[(800, "monitor-only")][recall_index] == 0.0


def _claim_e3(table: Table) -> None:
    """Always-on inspects 100%; sampled ~its duty fraction; SPI a small
    fraction that stays bounded as the rate rises; every defense
    detects."""
    frac_index = table.columns.index("inspected_fraction")
    detected_index = table.columns.index("detected")
    by_defense: dict[str, list[float]] = {}
    for row in table.rows:
        by_defense.setdefault(row[1], []).append(row[frac_index])
        assert row[detected_index], f"{row[1]} must detect at rate {row[0]}"

    assert all(f == 1.0 for f in by_defense["always-on"])
    assert all(0.05 < f < 0.5 for f in by_defense["sampled"])
    assert all(f < 0.15 for f in by_defense["spi"])
    # SPI's worst case is still far below always-on's only case.
    assert max(by_defense["spi"]) < min(by_defense["always-on"]) / 5


def _claim_e4(table: Table) -> None:
    """Benign success ~1.0 with no attack, collapses under an undefended
    flood, recovers to near-clean after SPI mitigates."""
    rows = {row[0]: row for row in table.rows}
    pre = table.columns.index("success_pre")
    post = table.columns.index("success_post_mitigation")

    # Clean baseline.
    assert rows["no-attack"][pre] > 0.95
    assert rows["no-attack"][post] > 0.95
    # Undefended collapse.
    assert rows["attack-undefended"][post] < 0.3
    # SPI recovery: back to near-clean.
    assert rows["attack-spi"][post] > 0.85
    assert rows["attack-spi"][post] > rows["attack-undefended"][post] + 0.5


def _claim_e5(table: Table) -> None:
    """Detection does not degrade with chain length; control-plane load
    grows with the fabric."""
    alerts = table.column("t_alert_s")
    mitigations = table.column("t_mitigate_s")
    messages = table.column("controller_msgs")
    assert all(a is not None for a in alerts), "every size must detect"
    # Mild growth: 16 switches may add propagation+control hops but not
    # an order of magnitude.
    assert max(mitigations) < min(mitigations) * 2 + 1.0
    assert max(mitigations) < 5.0
    # Control-plane load grows with the fabric.
    assert messages[-1] > messages[0]


def _claim_e6(table: Table) -> None:
    """The monitor alerts on flash crowds, verification refutes every
    one, the crowd is served and the later genuine flood confirms."""
    alerts = table.column("monitor_alerts")
    verified = table.column("verified_detections")
    refuted = table.column("refuted")
    crowd_success = table.column("crowd_success_rate")
    confirmed = table.column("flood_confirmed")

    # The monitor does false-alarm on crowds...
    assert sum(alerts) >= 3
    # ...but verification suppresses every false alarm.
    assert all(v == 0 for v in verified)
    assert all(r >= 1 for r in refuted)
    # The crowd is served, not mitigated.
    assert all(s > 0.9 for s in crowd_success)
    # And the genuine flood still confirms in every run.
    assert all(c.split("/")[0] == c.split("/")[1] for c in confirmed)


def _claim_e7a(table: Table) -> None:
    """CUSUM/EWMA/entropy catch a ramped low-rate flood a static
    threshold misses; at high rates every family converges."""
    rows = {(row[0], row[1]): row for row in table.rows}
    detected_index = table.columns.index("detected")
    # The static threshold (100 pps) misses the 60 pps flood.
    assert rows[(60, "static")][detected_index] == "0/2"
    # Adaptive families catch it.
    assert rows[(60, "ewma")][detected_index] == "2/2"
    assert rows[(60, "cusum")][detected_index] == "2/2"
    assert rows[(60, "entropy")][detected_index] == "2/2"
    # At high rate everyone detects.
    for family in ("static", "adaptive", "ewma", "cusum", "entropy"):
        assert rows[(300, family)][detected_index] == "2/2"


def _claim_e7b(table: Table) -> None:
    """Longer verification windows gather more evidence per verdict at
    the cost of mitigation latency."""
    mitigations = table.column("t_mitigate_s")
    evidence = table.column("syn_evidence")
    assert all(m is not None for m in mitigations)
    # Latency grows with the window...
    assert mitigations[-1] > mitigations[0]
    # ...and so does the evidence each verdict rests on.
    assert evidence[-1] > evidence[0] * 2


def _claim_e7c(table: Table) -> None:
    """With simultaneous victims a budget of one serializes verification;
    larger budgets parallelize it."""
    worst = table.column("worst_t_mitigate_s")
    queued = table.column("queued")
    victims = table.column("victims")
    assert all(v == "3/3" for v in victims), "all victims eventually mitigated"
    # Budget 1 serializes: strictly worse worst-case than budget >= concurrent demand.
    assert worst[0] > worst[-1]
    assert queued[0] >= 1
    assert queued[-1] == 0


def _claim_e7d(table: Table) -> None:
    """Monitor sampling down to 1-in-20 keeps detecting; 1-in-100 still
    sees a high-rate flood; thinner sampling never detects faster."""
    rows = {(row[0], row[1]): row for row in table.rows}
    detected = table.columns.index("detected_runs")
    alert = table.columns.index("t_alert_s")
    # Full sampling and moderate sampling always detect at both rates.
    for p in (1.0, 0.25, 0.05):
        for rate in (100.0, 800.0):
            assert rows[(p, rate)][detected] == "2/2", (p, rate)
    # Even 1-in-100 sampling sees a high-rate flood (8 samples/window).
    assert rows[(0.01, 800.0)][detected] == "2/2"
    # Detection never gets faster as sampling thins at the low rate.
    low_rate_alerts = [
        rows[(p, 100.0)][alert] for p in (1.0, 0.25, 0.05)
    ]
    assert low_rate_alerts[0] <= low_rate_alerts[-1] + 1e-9


def _claim_e8(table: Table) -> None:
    """Alert-driven SPI catches every pulsed run; the duty-cycled
    sampler, anti-aligned with the pulses, misses them all."""
    rows = {row[0]: row for row in table.rows}
    detected = table.columns.index("detected_runs")
    assert rows["spi"][detected] == "2/2"
    assert rows["sampled"][detected] == "0/2"


def _claim_e9(table: Table) -> None:
    """Detection survives up to 10% random link loss."""
    detected = table.column("detected_runs")
    mitigations = table.column("t_mitigate_s")
    # Detection survives up to 10% random loss...
    assert all(d == "2/2" for d in detected)
    # ...with at most one extra verification window of latency.
    assert max(mitigations) <= min(mitigations) + 1.5


def _claim_e10(table: Table) -> None:
    """The aggregate at the victim edge is visible; the per-arm slices
    at attacker edges stay under the same threshold."""
    rows = {row[0]: row for row in table.rows}
    detected = table.columns.index("detected_runs")
    assert rows["victim-edge"][detected] == "2/2"
    assert rows["attacker-edges"][detected] == "0/2"
    assert rows["everywhere"][detected] == "2/2"


def _claim_e11(table: Table) -> None:
    """Host-side SYN cookies protect against handshake exhaustion but
    not core saturation; network-side SPI removes the flood."""
    rows = {(row[0], row[1]): row for row in table.rows}
    success = table.columns.index("success_post")
    crosses = table.columns.index("flood_crosses_core")
    # At handshake-exhaustion rates both defenses protect service.
    assert rows[(400.0, "syn-cookies")][success] > 0.9
    assert rows[(400.0, "spi")][success] > 0.9
    # At volumetric rates cookies alone lose to core saturation...
    assert rows[(8000.0, "syn-cookies")][success] < 0.75
    # ...while SPI removes the flood from the network and keeps service.
    assert rows[(8000.0, "spi")][success] > 0.9
    assert rows[(8000.0, "spi")][crosses] is False
    assert rows[(8000.0, "syn-cookies")][crosses] is True
    # Defense in depth is strictly best.
    assert rows[(8000.0, "both")][success] >= rows[(8000.0, "spi")][success]


def _claim_e12(table: Table) -> None:
    """The UDP signature confirms at every rate and restores service."""
    detected = table.column("detected_runs")
    post = table.column("success_post")
    mitigations = table.column("t_mitigate_s")
    assert all(d == "2/2" for d in detected)
    assert all(p > 0.9 for p in post)
    assert all(m < 5.0 for m in mitigations)


#: ``GOLDENS`` key -> the paper-shape claim its table must satisfy.
CLAIMS: dict[str, Callable[[Table], None]] = {
    "e1": _claim_e1,
    "e2": _claim_e2,
    "e3": _claim_e3,
    "e4": _claim_e4,
    "e5": _claim_e5,
    "e6": _claim_e6,
    "e7a": _claim_e7a,
    "e7b": _claim_e7b,
    "e7c": _claim_e7c,
    "e7d": _claim_e7d,
    "e8": _claim_e8,
    "e9": _claim_e9,
    "e10": _claim_e10,
    "e11": _claim_e11,
    "e12": _claim_e12,
}


# ------------------------------------------------------------------- tests


def _golden_csv(name: str) -> Path:
    return GOLDEN_DIR / f"{GOLDENS[name]}.csv"


def _cell(text: str):
    """Invert ``Table.to_csv``'s ``str()`` of one cell."""
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _committed_table(path: Path) -> Table:
    """Parse a committed CSV back into the table that wrote it."""
    header, *lines = path.read_text().splitlines()
    table = Table(path.stem, header.split(","))
    for line in lines:
        table.add_row(*(_cell(text) for text in line.split(",")))
    return table


@pytest.mark.parametrize("name", GOLDENS)
def test_table_matches_committed_csv(name):
    table = ALL_EXPERIMENTS[name](workers=2)
    CLAIMS[name](table)
    csv_path = _golden_csv(name)
    if not csv_path.exists():
        md_path = csv_path.with_suffix(".md")
        csv_path.write_text(table.to_csv())
        md_path.write_text(table.to_markdown())
        pytest.fail(f"wrote {csv_path} and {md_path}; review and commit them")
    CLAIMS[name](_committed_table(csv_path))
    assert table.to_csv() == csv_path.read_text()


def test_e3_workload_matches_committed_csv_serially():
    csv_path = _golden_csv("e3")
    assert csv_path.exists(), f"missing golden table {csv_path}"
    assert ALL_EXPERIMENTS["e3"](workers=1).to_csv() == csv_path.read_text()

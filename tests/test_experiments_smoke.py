"""Quick-parameter checks of the experiment registry.

Every scenario table is regenerated at full parameters and compared byte
for byte, header included, in ``test_experiments_golden.py``; running it
again at quick parameters here would check less.  What this file adds:
E13a and E13b's claims at quick parameters (E13a's table has no golden;
E13b reports wall-clock throughput), and that every ``--quick`` argument
set still binds to its runner, so ``repro experiment NAME --quick``
cannot rot.
"""

from __future__ import annotations

import inspect

import pytest

from repro.cli import QUICK_ARGS
from repro.harness.experiments import ALL_EXPERIMENTS


def test_e13a_sketch_verdicts_match_exact():
    """E13a's core claim at quick params: the sketch backend reaches the
    same detection verdict as exact on every standard case."""
    table = ALL_EXPERIMENTS["e13a"](**QUICK_ARGS["e13a"])
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    by_case: dict[str, dict[str, str]] = {}
    for row in rows:
        by_case.setdefault(row["case"], {})[row["backend"]] = row["detected_runs"]
    for case, verdicts in by_case.items():
        exact = verdicts.pop("exact")
        for backend, detected in verdicts.items():
            assert detected == exact, (
                f"{case}: {backend} detected {detected} != exact {exact}"
            )


def test_e13b_sketch_state_flat_exact_grows():
    """E13b's core claim at quick params: sketch state is flat across
    source counts while exact state grows with them."""
    table = ALL_EXPERIMENTS["e13b"](**QUICK_ARGS["e13b"])
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    state = {
        (row["backend"], int(row["distinct_sources"])): float(row["state_kib"])
        for row in rows
    }
    assert state[("sketch", 10_000)] <= state[("sketch", 1_000)] * 1.1
    assert state[("exact", 10_000)] > state[("exact", 1_000)] * 2


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_quick_args_bind_to_runner(name):
    runner = ALL_EXPERIMENTS[name]
    inspect.signature(runner).bind(**QUICK_ARGS[name], workers=1)


def test_registry_matches_quick_args():
    """Every experiment has quick parameters (so CLI --quick covers all)."""
    assert set(QUICK_ARGS) == set(ALL_EXPERIMENTS)

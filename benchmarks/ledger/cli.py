"""The ledger driver: run reps in fresh children, reduce, print, compare.

Two ways in:

* the ledger itself — ``python -m benchmarks.ledger [--seed N] [--reps 5]
  [--workload NAME] [--out FILE]`` runs every workload (``--reps``
  untraced reps plus one traced rep each), prints every metric by name
  with its unit, and writes one JSON;
* the benchmark contract — ``--workload W --seed N --seconds S --trace
  0|1`` measures one workload for ``S`` seconds of timed work and prints
  one JSON object as the last line (end-to-end metrics untraced,
  per-layer metrics traced).

Reps run one after another, each in a process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from benchmarks.ledger import environment
from benchmarks.ledger.metrics import END_TO_END, PER_LAYER, quartiles, verdict

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
#: A rep that has not finished by then counts as failed (timed work is ~5 s).
CHILD_TIMEOUT_S = 150.0

WORKLOAD_NAMES = (
    "dumbbell_spi", "synflood_edge", "monitor_fold", "sharded_chain2", "sweep_pool2",
)


# ------------------------------------------------------------------- reps


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(environment.REPO_ROOT / "src"), str(environment.REPO_ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_rep(
    workload: str, seed: int, *, smoke: bool = False,
    trace_out: Optional[Path] = None, untraced_wall_s: Optional[float] = None,
) -> dict[str, Any]:
    """One rep in a fresh child; a rep that dies or hangs reports ``error``."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if smoke:
        command.append("--smoke")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out),
                    "--untraced-wall-s", repr(untraced_wall_s)]
    # Its own process group, so that a hung rep's pool or shard workers
    # can be stopped with it.
    child = subprocess.Popen(
        command, env=_child_env(), cwd=environment.REPO_ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        if child.returncode == 0:
            return json.loads(stdout.strip().splitlines()[-1])
        error = f"exit code {child.returncode}: {stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        error = f"no result within {CHILD_TIMEOUT_S:g} s"
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the usual case: the rep and its workers already ended
        child.communicate()
    return {"error": error, "problems": [error], "points": 1, "points_failed": 1}


def _end_to_end(rep: dict[str, Any]) -> dict[str, float]:
    wall = rep["wall_s"]
    return {
        "setup_s": rep["setup_s"],
        "wall_s": wall,
        "sim_s_per_s": rep["sim_seconds"] / wall,
        "pkts_per_s": rep["facts"]["packets"] / wall,
        "cpu_s": rep["cpu_s"],
        "peak_rss_mib": rep["peak_rss_mib"],
    }


def measure(
    workload: str, seed: int, *, reps: Optional[int] = None,
    seconds: Optional[float] = None, traced: bool = False, smoke: bool = False,
    check_pinned: bool = True,
) -> dict[str, Any]:
    """Untraced reps (a count, or until ``seconds`` of timed work), then
    optionally one traced rep; reduced to medians and a failure count.

    An operation is one rep — in ``sweep_pool2`` one point.  It fails if
    its rep raises or times out, breaks a correctness rule, or differs
    from the first rep's digest.
    """
    good: list[dict[str, Any]] = []
    problems: list[str] = []
    attempted = failed = launched = 0
    expected = None
    if check_pinned and seed == DEFAULT_SEED and not smoke and EXPECTED.exists():
        expected = json.loads(EXPECTED.read_text()).get(workload)
    timed = 0.0
    while launched < reps if reps else timed < seconds:
        launched += 1
        began = time.perf_counter()
        rep = run_rep(workload, seed, smoke=smoke)
        # The budget is timed work; a rep that died spends what it took.
        timed += rep.get("wall_s", time.perf_counter() - began)
        rep_problems = list(rep["problems"])
        if "error" not in rep:
            if good and rep["facts"]["digest"] != good[0]["facts"]["digest"]:
                rep_problems.append("digest differs from the first rep's")
            if expected is not None and rep["facts"] != expected:
                rep_problems.append("facts differ from expected.json")
            good.append(rep)
        attempted += rep["points"]
        if rep_problems:
            failed += max(1, rep["points_failed"])
            problems += rep_problems

    out: dict[str, Any] = {
        "workload": workload, "seed": seed, "attempted": attempted,
        "failed": failed, "problems": problems, "end_to_end": {}, "per_layer": {},
        "facts": good[0]["facts"] if good else None,
    }
    samples = [_end_to_end(rep) for rep in good]
    for metric in END_TO_END:
        values = [sample[metric.name] for sample in samples]
        if values:
            q1, median, q3 = quartiles(values)
            out["end_to_end"][metric.name] = {
                "unit": metric.unit, "median": median, "q1": q1, "q3": q3,
                "samples": values,
            }
    if traced and good:
        OUT_DIR.mkdir(exist_ok=True)
        rep = run_rep(
            workload, seed, smoke=smoke,
            trace_out=OUT_DIR / f"trace_{workload}.json",
            untraced_wall_s=out["end_to_end"]["wall_s"]["median"],
        )
        out["attempted"] += 1
        trace_problems = list(rep["problems"])
        if "error" not in rep:
            if rep["facts"] != good[0]["facts"]:
                trace_problems.append("traced facts differ from the untraced rep's")
            units = {metric.name: metric.unit for metric in PER_LAYER}
            out["per_layer"] = {
                name: {"unit": units[name], "value": value}
                for name, value in rep["layers"].items()
            }
        if trace_problems:
            out["failed"] += 1
            out["problems"] += [f"traced: {p}" for p in trace_problems]
    return out


# --------------------------------------------------------------- printing


def _print_workload(result: dict[str, Any]) -> None:
    print(f"\n== {result['workload']} (seed {result['seed']}) "
          f"failed {result['failed']}/{result['attempted']}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")
    for name, row in result["end_to_end"].items():
        print(f"   {name:<28} {row['median']:>14.4f} {row['unit']:<8} "
              f"[q1 {row['q1']:.4f}, q3 {row['q3']:.4f}, n={len(row['samples'])}]")
    for name, row in result["per_layer"].items():
        if row["value"]:
            print(f"   {name:<28} {row['value']:>14.4f} {row['unit']}")


# ---------------------------------------------------------------- compare


def compare(base: dict[str, Any], new: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per workload x end-to-end metric present in both sets."""
    rows = []
    for workload, base_result in base["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            continue
        for metric in END_TO_END:
            a = base_result["end_to_end"].get(metric.name)
            b = new_result["end_to_end"].get(metric.name)
            if not a or not b:
                continue
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "base": [a["q1"], a["median"], a["q3"]],
                "new": [b["q1"], b["median"], b["q3"]],
                "ratio_new_over_base": b["median"] / a["median"],
                "bound": metric.bound,
                "verdict": verdict(metric, a["samples"], b["samples"]),
            })
        rows.append({
            "workload": workload, "metric": "fail_share", "unit": "ratio",
            "base": base_result["failed"] / base_result["attempted"],
            "new": new_result["failed"] / new_result["attempted"],
            "verdict": "worse"
            if new_result["failed"] * base_result["attempted"]
            > base_result["failed"] * new_result["attempted"] else "same",
        })
    return rows


def _print_compare(rows: list[dict[str, Any]]) -> bool:
    """Print the rows; True when no row is ``worse`` or ``unresolved``."""
    ok = True
    for row in rows:
        if row["metric"] == "fail_share":
            print(f"{row['workload']:<16} fail_share       base {row['base']:.4f} "
                  f"new {row['new']:.4f}  {row['verdict']}")
        else:
            print(f"{row['workload']:<16} {row['metric']:<14} "
                  f"base {row['base'][1]:.4f} [{row['base'][0]:.4f}, {row['base'][2]:.4f}]  "
                  f"new {row['new'][1]:.4f} [{row['new'][0]:.4f}, {row['new'][2]:.4f}] "
                  f"{row['unit']}  new/base {row['ratio_new_over_base']:.4f} "
                  f"(bound {row['bound']:.2f})  {row['verdict']}")
        ok = ok and row["verdict"] not in ("worse", "unresolved")
    return ok


# ------------------------------------------------------------------ modes


def run_ledger(
    names: tuple[str, ...], seed: int, reps: int, *, traced: bool = True,
    smoke: bool = False,
) -> dict[str, Any]:
    ledger = {
        "provenance": environment.provenance(), "seed": seed, "reps": reps,
        "smoke": smoke, "workloads": {},
    }
    for name in names:
        result = measure(name, seed, reps=reps, traced=traced, smoke=smoke)
        _print_workload(result)
        ledger["workloads"][name] = result
    return ledger


def _contract(args: argparse.Namespace) -> int:
    """One workload, one JSON object on the last line (the driver's form)."""
    result = measure(
        args.workload, args.seed, traced=bool(args.trace),
        # The traced pass needs one untraced rep as the base of its ratios.
        reps=1 if args.trace else None, seconds=args.seconds, smoke=args.smoke,
    )
    _print_workload(result)
    rows = result["per_layer"] if args.trace else result["end_to_end"]
    wanted = PER_LAYER if args.trace else END_TO_END
    if set(rows) != {metric.name for metric in wanted}:
        print("no complete measurement: " + "; ".join(result["problems"]),
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": row["value" if args.trace else "median"],
                   "unit": row["unit"]}
            for name, row in rows.items()
        },
    }))
    return 0


def _repin(seed: int, reps: int) -> int:
    """Regenerate expected.json; refuses when the reps disagree."""
    pinned = {}
    for name in WORKLOAD_NAMES:
        result = measure(name, seed, reps=max(2, reps), check_pinned=False)
        if result["failed"]:
            print(f"not pinning: {name}: {result['problems']}", file=sys.stderr)
            return 1
        pinned[name] = result["facts"]
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} workloads at seed {seed} in {EXPECTED}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about a tenth of its size")
    parser.add_argument("--seconds", type=float, default=14.0,
                        help="contract form: timed work to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract form: 0 end-to-end, 1 per-layer")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--selfcheck", action="store_true",
                        help="two full sets of this tree must agree")
    parser.add_argument("--repin", action="store_true",
                        help="regenerate expected.json at the default seed")
    args = parser.parse_args(argv)

    if args.compare:
        base, new = (json.loads(path.read_text()) for path in args.compare)
        return 0 if _print_compare(compare(base, new)) else 1
    if not (environment.REPO_ROOT / "src" / "repro").is_dir():
        print("src/repro is not here: nothing to measure", file=sys.stderr)
        return 2
    try:
        environment.refuse_if_configured()
    except environment.LedgerRefused as refusal:
        print(f"refusing to run: {refusal}", file=sys.stderr)
        return 2
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return _contract(args)
    if args.repin:
        return _repin(DEFAULT_SEED, args.reps)

    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    started = time.perf_counter()
    if args.selfcheck:
        sets = [
            run_ledger(names, args.seed, args.reps, traced=False, smoke=args.smoke)
            for _ in range(2)
        ]
        rows = compare(*sets)
        ledger: dict[str, Any] = {"sets": sets, "compare": rows}
        ok = _print_compare(rows) and not any(
            result["failed"] for s in sets for result in s["workloads"].values()
        )
    else:
        ledger = run_ledger(names, args.seed, args.reps, smoke=args.smoke)
        ok = not any(result["failed"] for result in ledger["workloads"].values())
    out = args.out or OUT_DIR / ("selfcheck.json" if args.selfcheck else "ledger.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nwrote {out} in {time.perf_counter() - started:.1f} s")
    return 0 if ok else 1

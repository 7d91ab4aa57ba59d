"""One rep of one workload, in a process of its own.

The driver starts this module fresh for every rep so that no rep sees
another's warm caches, pools or heap.  It prints one JSON object as the
last line of its output: the host-time measurements of the timed call,
the simulated facts the correctness check compares, and — in a traced
run — the per-layer table.

Clock starts at this module's first line, before ``repro`` (and numpy)
are imported: that import is part of what a user waits for.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_TICKS = os.sysconf("SC_CLK_TCK")


def _live_children() -> list[Path]:
    """``/proc`` directories of this process's live direct children.

    Live children (a warm pool, a shard worker) have not been waited
    for, so ``os.times()`` and ``getrusage`` do not see them yet.
    """
    me = str(os.getpid())
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                # After the parenthesised command name: state, ppid, ...
                if (entry / "stat").read_text().rsplit(")", 1)[1].split()[1] == me:
                    found.append(entry)
            except OSError:
                continue  # it ended while we were looking
    return found


def children_cpu_s() -> float:
    """user+sys seconds of every child: the reaped ones plus the live ones."""
    times = os.times()
    total = times.children_user + times.children_system
    for child in _live_children():
        # utime, stime, cutime, cstime are at offsets 11-14 after the name.
        fields = (child / "stat").read_text().rsplit(")", 1)[1].split()
        total += sum(int(ticks) for ticks in fields[11:15]) / _TICKS
    return total


def tree_peak_rss_mib() -> float:
    """Peak RSS summed over this process and its children.

    The largest single process would flip with which pool worker drew
    the bigger points; the sum does not.  Reaped children contribute
    the largest of them (all ``getrusage`` keeps).
    """
    total_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    for child in _live_children():
        for line in (child / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None,
                        help="trace this rep and write the spans to this file")
    parser.add_argument("--untraced-wall-s", type=float, default=None,
                        help="wall_s of an untraced rep (base of the traced ratios)")
    args = parser.parse_args(argv)

    from benchmarks.ledger import environment, layers, trace
    from benchmarks.ledger.workloads import WORKLOADS

    environment.refuse_if_configured()
    import_s = time.perf_counter() - _T0
    workload = WORKLOADS[args.workload]
    if workload.one_cpu:
        # Inherited by the processes this rep spawns.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    recorder = undo = None
    run = workload.run
    if args.trace_out:
        recorder = trace.SpanRecorder()
        undo = trace.install(recorder)
        run = recorder.span(run, "harness", "timed_call")

    state = workload.prepare(args.seed, args.smoke)
    setup_spans = recorder.reset() if recorder else {}

    self_cpu0, child_cpu0 = time.process_time(), children_cpu_s()
    started = time.perf_counter()
    result = run(state)
    finished = time.perf_counter()
    self_cpu = time.process_time() - self_cpu0
    child_cpu = children_cpu_s() - child_cpu0
    peak_rss_mib = tree_peak_rss_mib()
    if undo:
        trace.uninstall(undo)

    facts, problems = workload.check(state, result)
    wall_s = finished - started
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(recorder),
        "setup_s": started - _T0,
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": self_cpu + child_cpu,
        "self_cpu_s": self_cpu,
        "children_cpu_s": child_cpu,
        "peak_rss_mib": peak_rss_mib,
        "sim_seconds": state["sim_seconds"],
        "facts": facts,
        "problems": problems,
        "points": facts.get("points", 1),
        "points_failed": state.get("point_failures", 0),
        "shards1_wall_s": state.get("shards1_wall_s"),
    }
    if recorder:
        report["layers"], trace_problems = layers.table(
            recorder, setup_spans, state, result, report, args.untraced_wall_s
        )
        report["problems"] = problems + trace_problems
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.trace_out).write_text(json.dumps(recorder.dump()))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands::

    python -m repro list                      # topologies, defenses, detectors, experiments
    python -m repro run --topology dumbbell --defense spi --rate 400
    python -m repro experiment e1 [--quick] [--markdown] [--workers N] [--cache]
    python -m repro cache info|clear
    python -m repro check [--seeds 25] [--workers 2]
    python -m repro serve [--port 8089]       # long-running control-plane service
    python -m repro ctl status|launch|retune|block|drain ...   # talk to it

``run`` executes a single scenario and prints the detection timeline and
service summary; ``experiment`` regenerates one of the evaluation tables
(E1-E7 plus the extension experiments), fanning its scenario runs over
``--workers`` processes (default: one per CPU) and, with ``--cache``,
serving previously simulated points from the content-addressed result
cache (:mod:`repro.harness.cache`; ``cache info``/``cache clear`` manage
the store); ``check`` runs the differential fuzzer from
:mod:`repro.harness.fuzzer`: every seeded scenario is re-run through
every entry of its ``VARIANTS`` table (reference twins, sharded, served,
pooled, sketch bounds) with runtime invariant checking enabled, and
each must reproduce the default run byte for byte.
``run`` and ``experiment`` both accept ``--check-invariants`` to enable
the :mod:`repro.sim.invariants` sweeps during normal runs.

``serve`` turns the batch harness into a long-running service
(:mod:`repro.service`): scenarios become *sessions* launched, retuned,
blocked/whitelisted and drained over a local HTTP/JSON API while they
simulate in bounded slices.  ``ctl`` is the thin client: ``status``
(``--json`` for the stable machine schema), ``launch``, ``retune``,
``block``/``unblock``, ``whitelist``/``unwhitelist``, ``drain``,
``result``, ``delete`` and ``shutdown``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from typing import Sequence

from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.record import run_record
from repro.harness.scenario import (
    DEFENSES,
    TOPOLOGIES,
    ScenarioConfig,
    run_scenario,
)
from repro.metrics.report import Table
from repro.monitor.detectors import DETECTORS
from repro.workload.profiles import WorkloadConfig

# Reduced parameter sets so `--quick` finishes in seconds per experiment.
QUICK_ARGS: dict[str, dict] = {
    "e1": {"rates": (100, 400), "seeds": (1,)},
    "e2": {"thresholds": (50, 400), "seeds": (1,)},
    "e3": {"rates": (300,)},
    "e4": {"seeds": (1,)},
    "e5": {"sizes": (2, 4), "seeds": (1,)},
    "e6": {"crowd_rates": (150,), "seeds": (1,)},
    "e7a": {"rates": (300,), "seeds": (1,)},
    "e7b": {"windows": (0.5, 2.0), "seeds": (1,)},
    "e7c": {"budgets": (1, 2)},
    "e7d": {"probabilities": (1.0, 0.05), "rates": (400.0,), "seeds": (1,)},
    "e8": {"seeds": (1,)},
    "e9": {"losses": (0.0, 0.05), "seeds": (1,)},
    "e10": {"seeds": (1,)},
    "e11": {"rates": (400.0,)},
    "e12": {"rates": (1000.0,), "seeds": (1,)},
    "e13a": {"seeds": (1,), "widths": (1024,)},
    "e13b": {"source_counts": (1_000, 10_000)},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Selective Packet Inspection SYN-flood defense (ICDCSW'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list topologies, defenses, detectors, experiments")

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("--topology", default="dumbbell", choices=sorted(TOPOLOGIES))
    run.add_argument("--defense", default="spi", choices=DEFENSES)
    run.add_argument("--detector", default="ewma", choices=DETECTORS)
    run.add_argument("--duration", type=float, default=30.0, help="simulated seconds")
    run.add_argument("--rate", type=float, default=400.0, help="attack SYN rate (pps)")
    run.add_argument("--attack-start", type=float, default=5.0)
    run.add_argument("--no-attack", action="store_true")
    run.add_argument("--syn-cookies", action="store_true",
                     help="enable host-side SYN cookies on every stack")
    run.add_argument("--link-loss", type=float, default=0.0,
                     help="random per-packet loss probability on every link")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--shards", type=int, default=1, metavar="N",
                     help="partition the topology across N worker processes "
                          "(repro.sim.sharded); fingerprints are identical "
                          "at any shard count")
    run.add_argument("--reference", action="store_true",
                     help="run every reference twin instead of the fast "
                          "paths: reference event loop, linear-scan flow "
                          "tables, one event per generated packet "
                          "(results identical)")
    run.add_argument("--check-invariants", action="store_true",
                     help="run periodic runtime invariant sweeps; violations "
                          "abort the run with a counterexample trace")
    run.add_argument("--monitor-backend", default="exact",
                     choices=("exact", "sketch"),
                     help="monitor feature backend: exact per-address dicts "
                          "or bounded-memory count-min/HyperLogLog sketches")
    run.add_argument("--json", action="store_true", help="machine-readable output")
    run.add_argument("--save", metavar="PATH",
                     help="write the assembled scenario config as JSON and exit")
    run.add_argument("--config", metavar="PATH",
                     help="load a scenario config saved with --save "
                          "(other scenario flags are ignored)")

    experiment = sub.add_parser("experiment", help="regenerate an evaluation table")
    experiment.add_argument("name", choices=sorted(ALL_EXPERIMENTS))
    experiment.add_argument("--quick", action="store_true",
                            help="reduced parameters for a fast run")
    experiment.add_argument("--markdown", action="store_true",
                            help="emit GitHub markdown instead of aligned text")
    experiment.add_argument("--workers", type=int, default=None, metavar="N",
                            help="worker processes for the scenario fan-out "
                                 "(default: one per CPU; 1 forces serial)")
    experiment.add_argument("--check-invariants", action="store_true",
                            help="run every scenario with runtime invariant "
                                 "sweeps enabled (slower; violations abort)")
    experiment.add_argument("--cache", action=argparse.BooleanOptionalAction,
                            default=False,
                            help="consult/populate the content-addressed sweep "
                                 "result cache (previously simulated points "
                                 "are served from disk; any src/ change "
                                 "invalidates)")
    experiment.add_argument("--cache-dir", metavar="DIR", default=None,
                            help="cache location (default: $REPRO_CACHE_DIR "
                                 "or ./.repro-cache)")

    cache = sub.add_parser("cache", help="inspect or clear the sweep result cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cache location (default: $REPRO_CACHE_DIR "
                            "or ./.repro-cache)")
    cache.add_argument("--json", action="store_true",
                       help="machine-readable output (stable schema: "
                            "path, entries, bytes)")

    serve = sub.add_parser(
        "serve",
        help="run the long-running control-plane service (HTTP/JSON API)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8089,
                       help="listen port (0 picks an ephemeral port; "
                            "default: 8089)")
    serve.add_argument("--slice-s", type=float, default=0.25, metavar="S",
                       help="simulated seconds per cooperative slice")
    serve.add_argument("--slice-events", type=int, default=50_000, metavar="N",
                       help="max events per cooperative slice")

    ctl = sub.add_parser("ctl", help="control a running `repro serve`")
    ctl.add_argument("--host", default="127.0.0.1")
    ctl.add_argument("--port", type=int, default=8089)
    ctl_sub = ctl.add_subparsers(dest="action", required=True)

    ctl_status = ctl_sub.add_parser("status", help="service + session overview")
    ctl_status.add_argument("--json", action="store_true",
                            help="machine-readable output (stable schema: "
                                 "sessions, by_state, session_list)")

    ctl_launch = ctl_sub.add_parser("launch", help="create (and start) a session")
    ctl_launch.add_argument("--config", metavar="PATH",
                            help="scenario config JSON (from `repro run "
                                 "--save`); omitted fields keep defaults")
    ctl_launch.add_argument("--no-start", action="store_true",
                            help="register the session but leave it pending")
    ctl_launch.add_argument("--slice-s", type=float, default=None, metavar="S")
    ctl_launch.add_argument("--slice-events", type=int, default=None, metavar="N")

    ctl_start = ctl_sub.add_parser("start", help="start a pending session")
    ctl_start.add_argument("session")

    ctl_retune = ctl_sub.add_parser(
        "retune", help="schedule a live parameter change on the sim clock")
    ctl_retune.add_argument("session")
    ctl_retune.add_argument("--target", default="detector",
                            choices=("detector", "monitor", "budget", "spi"))
    ctl_retune.add_argument("--param", action="append", default=[],
                            metavar="KEY=VALUE", required=True,
                            help="tunable to change (repeatable)")
    ctl_retune.add_argument("--at", type=float, default=None, metavar="T",
                            help="simulated time to apply (default: now)")

    for name, help_text in (
        ("block", "install an operator block on a source"),
        ("unblock", "lift an operator block"),
        ("whitelist", "add a source to the never-block whitelist"),
        ("unwhitelist", "remove a source from the whitelist"),
    ):
        p = ctl_sub.add_parser(name, help=help_text)
        p.add_argument("session")
        p.add_argument("src_ip")
        if name == "block":
            p.add_argument("--victim", default=None, metavar="IP",
                           help="limit the block to one victim's switches")
        if name == "unblock":
            p.add_argument("--victim", default=None, metavar="IP")
        if name in ("block", "whitelist"):
            p.add_argument("--duration-s", type=float, default=None, metavar="S",
                           help="expiry on the sim clock (default: permanent)")
        p.add_argument("--at", type=float, default=None, metavar="T")

    ctl_drain = ctl_sub.add_parser("drain", help="gracefully wind a session down")
    ctl_drain.add_argument("session")
    ctl_drain.add_argument("--grace-s", type=float, default=None, metavar="S")

    ctl_result = ctl_sub.add_parser("result", help="final summary + fingerprint")
    ctl_result.add_argument("session")

    ctl_delete = ctl_sub.add_parser("delete", help="forget a terminal session")
    ctl_delete.add_argument("session")

    ctl_sub.add_parser("shutdown", help="drain all sessions and stop the service")

    check = sub.add_parser(
        "check",
        help="differential fuzzer: every variant of every seed vs the default run",
    )
    check.add_argument("--seeds", type=int, default=25, metavar="N",
                       help="number of fuzz seeds to run (default: 25)")
    check.add_argument("--base-seed", type=int, default=0, metavar="S",
                       help="first seed of the range (default: 0)")
    check.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker count for the pooled variant (default: 2)")
    check.add_argument("--json", action="store_true",
                       help="machine-readable per-seed report")
    return parser


def _command_list() -> int:
    print("topologies :", ", ".join(sorted(TOPOLOGIES)))
    print("defenses   :", ", ".join(DEFENSES))
    print("detectors  :", ", ".join(DETECTORS))
    print("experiments:", ", ".join(sorted(ALL_EXPERIMENTS)))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.config:
        from repro.harness.serialize import load_config

        config = load_config(args.config)
        if args.shards != 1:
            config = replace(config, shards=args.shards)
    else:
        config = ScenarioConfig(
            topology=args.topology,
            defense=args.defense,
            detector=args.detector,
            duration_s=args.duration,
            seed=args.seed,
            with_attack=not args.no_attack,
            syn_cookies=args.syn_cookies,
            link_loss_probability=args.link_loss,
            reference=args.reference,
            shards=args.shards,
            check_invariants=args.check_invariants,
            workload=WorkloadConfig(
                attack_rate_pps=args.rate, attack_start_s=args.attack_start
            ),
        )
        if args.monitor_backend != "exact":
            config = replace(config, spi=replace(
                config.spi,
                monitor=replace(config.spi.monitor, backend=args.monitor_backend),
            ))
    if args.save:
        from repro.harness.serialize import save_config

        save_config(config, args.save)
        print(f"wrote {args.save}")
        return 0
    result = run_scenario(config)
    record = run_record(result)
    timeline = record.timeline
    attack_start = config.workload.attack_start_s
    summary = {
        "topology": config.topology,
        "defense": config.defense,
        "seed": config.seed,
        "detections": len(record.counters["detections"]),
        "time_to_alert_s": timeline.time_to_alert,
        "time_to_verdict_s": timeline.time_to_verdict,
        "time_to_mitigation_s": timeline.time_to_mitigation,
        "success_before_attack": record.success_rate(0, attack_start),
        "success_after_attack": record.success_rate(
            attack_start + 5, config.duration_s
        ),
        "inspected_fraction": record.counters["inspected_fraction"],
        "buffer_evictions": record.counters["buffer_evictions"],
    }
    transport_stats = getattr(result, "transport_stats", None)
    if args.json:
        summary["cases"] = [asdict(case) for case in record.cases]
        if transport_stats:
            summary["transport"] = transport_stats
        print(json.dumps(summary, indent=2))
        return 0
    table = Table(f"{config.defense} on {config.topology} (seed {config.seed})",
                  ["metric", "value"])
    for key, value in summary.items():
        if key in ("topology", "defense", "seed"):
            continue
        table.add_row(key, value)
    print(table.to_text())
    if transport_stats:
        print(
            f"boundary transport: {transport_stats['epochs']} epochs, "
            f"{transport_stats['boundary_records']} records; "
            f"to workers {transport_stats['batch_records_to_workers']} recs / "
            f"{transport_stats['batch_bytes_to_workers']} B, "
            f"from workers {transport_stats['batch_records_from_workers']} recs / "
            f"{transport_stats['batch_bytes_from_workers']} B"
        )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    if args.check_invariants:
        from repro.harness.scenario import force_check_invariants

        force_check_invariants()
    cache = None
    if args.cache:
        from repro.harness.cache import SweepCache, set_default_cache

        cache = set_default_cache(SweepCache(args.cache_dir))
    fn = ALL_EXPERIMENTS[args.name]
    kwargs = dict(QUICK_ARGS.get(args.name, {})) if args.quick else {}
    kwargs["workers"] = args.workers
    try:
        table = fn(**kwargs)
    except KeyboardInterrupt:
        # Tear the worker pool down *here*, not at atexit: the spawn
        # workers are mid-simulation and would otherwise be orphaned.
        from repro.harness.parallel import shutdown_pool

        shutdown_pool()
        print("interrupted; worker pool terminated", file=sys.stderr)
        return 130
    finally:
        if cache is not None:
            from repro.harness.cache import set_default_cache

            set_default_cache(None)
    print(table.to_markdown() if args.markdown else table.to_text())
    if cache is not None:
        print(cache.stats.describe())
    from repro.harness.parallel import pool_transport_stats

    stats = pool_transport_stats()
    if stats.shm_results or stats.pickle_results:
        print(stats.describe())
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from repro.harness.cache import SweepCache

    cache = SweepCache(args.cache_dir)
    if args.action == "info":
        info = cache.info()
        if args.json:
            print(json.dumps(
                {"path": str(info["path"]),
                 "entries": info["entries"],
                 "bytes": info["bytes"]},
                indent=2, sort_keys=True))
        else:
            print(f"path   : {info['path']}")
            print(f"entries: {info['entries']}")
            print(f"bytes  : {info['bytes']}")
    else:
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
    return 0


def _command_check(args: argparse.Namespace) -> int:
    from repro.harness.fuzzer import VARIANTS, describe_outcome, run_fuzz_suite

    outcomes = run_fuzz_suite(
        n_seeds=args.seeds,
        base_seed=args.base_seed,
        workers=args.workers,
        progress=None if args.json else lambda o: print(describe_outcome(o)),
    )
    failed = [o for o in outcomes if not o.matched]
    if args.json:
        print(json.dumps({
            "seeds": args.seeds,
            "base_seed": args.base_seed,
            "variants": [name for name, _check in VARIANTS],
            "failures": [
                {"seed": o.seed, "detail": o.detail} for o in failed
            ],
            "passed": not failed,
        }, indent=2))
    else:
        verdict = "FAIL" if failed else "PASS"
        print(
            f"{verdict}: {len(outcomes) - len(failed)}/"
            f"{len(outcomes)} seeds byte-identical across "
            f"{len(VARIANTS)} variants"
        )
    return 1 if failed else 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import serve

    def announce(server) -> None:
        print(f"repro control plane on http://{server.host}:{server.port}",
              flush=True)

    try:
        asyncio.run(serve(
            args.host, args.port,
            slice_s=args.slice_s, slice_events=args.slice_events,
            announce=announce,
        ))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 0


def _parse_params(pairs: list[str]) -> dict:
    """``key=value`` pairs → a params dict (numbers parsed, else strings)."""
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param needs KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _command_ctl(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    try:
        if args.action == "status":
            status = client.status()
            if args.json:
                print(json.dumps(status, indent=2, sort_keys=True))
                return 0
            by_state = ", ".join(
                f"{state}={count}"
                for state, count in sorted(status["by_state"].items())
                if count
            ) or "none"
            print(f"sessions: {status['sessions']} ({by_state})")
            for row in status["session_list"]:
                blocks = len(row["mitigation"]["active_blocks"])
                print(
                    f"  {row['id']:>4} {row['state']:<8} "
                    f"t={row['sim_time']:<8g} of {row['duration_s']:g}s "
                    f"{row['topology']}/{row['defense']}/{row['detector']} "
                    f"detections={row['detections']} blocks={blocks} "
                    f"reconfigs={row['reconfigs']}"
                )
            return 0
        if args.action == "launch":
            config = {}
            if args.config:
                with open(args.config) as handle:
                    config = json.load(handle)
            summary = client.create_session(
                config,
                start=not args.no_start,
                slice_s=args.slice_s,
                slice_events=args.slice_events,
            )
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        if args.action == "start":
            print(json.dumps(client.request(
                "POST", f"/sessions/{args.session}/start", {}
            ), indent=2, sort_keys=True))
            return 0
        if args.action == "retune":
            outcome = client.retune(
                args.session, args.target, _parse_params(args.param),
                at=args.at,
            )
            print(json.dumps(outcome, indent=2, sort_keys=True))
            return 0
        if args.action in ("block", "unblock", "whitelist", "unwhitelist"):
            body = {"src_ip": args.src_ip}
            if getattr(args, "victim", None) is not None:
                body["victim_ip"] = args.victim
            if getattr(args, "duration_s", None) is not None:
                body["duration_s"] = args.duration_s
            if args.at is not None:
                body["at"] = args.at
            outcome = client.request(
                "POST", f"/sessions/{args.session}/{args.action}", body
            )
            print(json.dumps(outcome, indent=2, sort_keys=True))
            return 0
        if args.action == "drain":
            print(json.dumps(
                client.drain(args.session, grace_s=args.grace_s),
                indent=2, sort_keys=True))
            return 0
        if args.action == "result":
            print(json.dumps(client.result(args.session),
                             indent=2, sort_keys=True))
            return 0
        if args.action == "delete":
            print(json.dumps(client.delete(args.session),
                             indent=2, sort_keys=True))
            return 0
        if args.action == "shutdown":
            print(json.dumps(client.shutdown(), indent=2, sort_keys=True))
            return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Raised by *print* when stdout's reader (`| grep -q`, `| head`)
        # closed early — not a server problem.  Without this clause the
        # ConnectionError handler below would misreport it as the
        # service being unreachable; let main()'s EPIPE guard handle it.
        raise
    except ConnectionError as exc:
        print(
            f"error: cannot reach repro serve at "
            f"{args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "run":
            return _command_run(args)
        if args.command == "experiment":
            return _command_experiment(args)
        if args.command == "cache":
            return _command_cache(args)
        if args.command == "check":
            return _command_check(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "ctl":
            return _command_ctl(args)
    except BrokenPipeError:
        # stdout's reader went away mid-write (`repro ctl status | head`);
        # the Unix convention is a quiet exit, not a traceback.  Point
        # stdout at devnull so the interpreter's final flush of the
        # dangling buffer cannot re-raise on the way out.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())

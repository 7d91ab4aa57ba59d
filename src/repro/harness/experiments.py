"""The reconstructed evaluation suite (experiments E1-E7).

Each ``run_eN`` function regenerates one table/figure of the
reconstructed evaluation (see DESIGN.md for the index and EXPERIMENTS.md
for paper-shape vs measured values) and returns a
:class:`repro.metrics.report.Table`.  The benchmark harnesses under
``benchmarks/`` and the examples call these functions; keeping them here
guarantees the numbers in docs, benches and examples come from one code
path.

Every runner takes a ``workers`` argument: its scenario points are
independent seeded runs, so they fan out over the process pool in
:mod:`repro.harness.parallel`.  A runner is a *spec* — the groups of
scenario points (one table row each) and a ``cells`` function from a
group's :class:`~repro.harness.record.RunRecord` list to its measured
cells — handed to the one generic :func:`_tabulate`; the worker-side
reduction is always :func:`~repro.harness.record.run_record` and the
aggregation happens in the parent from those records, which is why the
tables are byte-identical whatever the worker count.  E7c and E13b
build their inputs by hand (no scenario config covers them) and ride
the generic :func:`run_tasks` layer instead.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.core.budget import BudgetConfig
from repro.core.config import SpiConfig
from repro.harness.parallel import run_scenarios, run_tasks
from repro.harness.record import RunRecord, run_record
from repro.harness.scenario import FlashCrowdSpec, ScenarioConfig
from repro.metrics.detection import ConfusionCounts, classify_detections
from repro.metrics.report import Table
from repro.workload.profiles import WorkloadConfig

# A compact base scenario shared by most experiments: dumbbell topology,
# benign web mix, spoofed SYN flood starting at t=5s.
BASE = ScenarioConfig(
    topology="dumbbell",
    topology_params={"n_clients": 4, "n_attackers": 2},
    duration_s=30.0,
    defense="spi",
    detector="ewma",
    workload=WorkloadConfig(
        attack_rate_pps=300.0,
        attack_start_s=5.0,
        attack_duration_s=1000.0,
        server_backlog=64,
    ),
)

# ---------------------------------------------------------- generic runner

Records = Sequence[RunRecord]


def _tabulate(
    title: str,
    columns: list[str],
    groups: Sequence[tuple[tuple, dict[str, Any]]],
    seeds: Sequence[int],
    cells: Callable[[Records], Sequence[Any]],
    workers: Optional[int],
) -> Table:
    """One table row per group: its label cells + ``cells(records)``.

    ``groups`` pairs each row's label cells with the override point that
    distinguishes it; every group runs once per seed and ``cells`` sees
    that group's records in seed order.
    """
    points = [
        {**overrides, "seed": seed} for _label, overrides in groups for seed in seeds
    ]
    records = run_scenarios(BASE, points, extract=run_record, workers=workers)
    table = Table(title, columns)
    for index, (label, _overrides) in enumerate(groups):
        group = records[index * len(seeds):(index + 1) * len(seeds)]
        table.add_row(*label, *cells(group))
    return table


def _mean(values: Sequence[float]) -> Optional[float]:
    """Arithmetic mean, or ``None`` (an empty report cell) without samples."""
    return sum(values) / len(values) if values else None


def _mitigated(records: Records) -> list[RunRecord]:
    """The runs whose flood was mitigated (rules installed after its start)."""
    return [r for r in records if r.timeline.time_to_mitigation is not None]


def _out_of(hits: Sequence[Any], records: Records) -> str:
    """The ``detected``-style cell: ``"2/3"``."""
    return f"{len(hits)}/{len(records)}"


def _t_alert(records: Records) -> Optional[float]:
    """Mean time-to-alert over the mitigated runs."""
    return _mean([r.timeline.time_to_alert for r in _mitigated(records)])


def _t_mitigate(records: Records) -> Optional[float]:
    """Mean time-to-mitigation over the mitigated runs."""
    return _mean([r.timeline.time_to_mitigation for r in _mitigated(records)])


def _format_expiries(entries: Sequence[dict[str, Any]]) -> str:
    """Compact ``expires_at`` listing for a report cell.

    Each still-active block contributes its expiry timestamp (sim
    seconds) or ``perm`` for a permanent one; ``-`` means no active
    blocks at the end of the run.
    """
    if not entries:
        return "-"
    stamps = [
        "perm" if e["expires_at"] is None else f"{e['expires_at']:g}"
        for e in entries
    ]
    return ",".join(stamps)


# -------------------------------------------------------------- experiments


def run_e1_response_time(
    rates: Sequence[float] = (50, 100, 200, 400, 800, 1600),
    seeds: Sequence[int] = (1, 2, 3),
    workers: Optional[int] = 1,
) -> Table:
    """E1: detection & mitigation response time vs attack rate.

    Reproduces the response-time table: time from attack start to the
    monitor alert, to the verified verdict, and to mitigation rules
    installed, as the flood rate varies.
    """

    def cells(records: Records) -> tuple:
        hit = _mitigated(records)
        return (
            _t_alert(records),
            _mean([r.timeline.time_to_verdict for r in hit]),
            _t_mitigate(records),
            _out_of(hit, records),
        )

    return _tabulate(
        "E1: response time vs attack rate",
        ["rate_pps", "t_alert_s", "t_verdict_s", "t_mitigate_s", "detected"],
        [((rate,), {"workload.attack_rate_pps": float(rate)}) for rate in rates],
        seeds, cells, workers,
    )


def run_e2_accuracy(
    thresholds: Sequence[float] = (50, 100, 200, 400, 800),
    attack_rate: float = 500.0,
    seeds: Sequence[int] = (1, 2),
    workers: Optional[int] = 1,
) -> Table:
    """E2: detection accuracy vs monitor threshold, monitor-only vs SPI.

    Each run contains a flash crowd (benign burst, a false-positive
    opportunity) and a real flood.  The monitor-only defense converts
    every alert to a detection; SPI verifies first.  The figure's shape:
    monitor-only trades TPR against FPR as the threshold moves, while
    SPI holds TPR with ~zero FPR across a wide threshold band.
    """
    groups = [
        ((threshold, defense), {
            "defense": defense,
            "detector": "static",
            "detector_params": {"syn_rate_threshold": float(threshold)},
            "workload.attack_rate_pps": attack_rate,
            "workload.attack_start_s": 20.0,
            "workload.attack_duration_s": 8.0,
            "duration_s": 32.0,
            "flash_crowd": FlashCrowdSpec(
                start_s=6.0, duration_s=6.0, connections_per_second=200.0
            ),
        })
        for threshold in thresholds
        for defense in ("monitor-only", "spi")
    ]

    def cells(records: Records) -> tuple:
        total = ConfusionCounts()
        for r in records:
            counts, _ = classify_detections(
                r.counters["detections"], [r.config.attack_window], grace_s=3.0
            )
            total.tp += counts.tp
            total.fp += counts.fp
            total.fn += counts.fn
        return (total.tp, total.fp, total.fn, total.precision, total.recall, total.f1)

    return _tabulate(
        "E2: accuracy vs threshold",
        ["threshold", "defense", "tp", "fp", "fn", "precision", "recall", "f1"],
        groups, seeds, cells, workers,
    )


def run_e3_workload(
    rates: Sequence[float] = (100, 300, 900),
    seed: int = 1,
    workers: Optional[int] = 1,
) -> Table:
    """E3: OVS inspection workload — selective vs always-on vs sampled.

    The figure's shape: always-on inspects 100% of packets at every
    rate; sampled inspects its duty fraction; SPI inspects only the
    suspicious aggregate for only the verification window, a small and
    rate-insensitive fraction.
    """
    columns = [
        "rate_pps",
        "defense",
        "inspected_fraction",
        "mirror_cpu_share",
        "switch_busy_ms",
        "buffer_evictions",
        "detected",
        "active_blocks",
        "block_expiries",
        "whitelisted",
    ]
    groups = [
        ((rate, defense), {
            "defense": defense, "workload.attack_rate_pps": float(rate)
        })
        for rate in rates
        for defense in ("spi", "always-on", "sampled")
    ]

    def cells(records: Records) -> tuple:
        (r,) = records
        blocks = r.mitigation["active_blocks"]
        return (
            r.counters["inspected_fraction"],
            r.mirror_cpu_share,
            r.switch_busy_s * 1000,
            r.counters["buffer_evictions"],
            len(r.counters["detections"]) > 0,
            len(blocks),
            _format_expiries(blocks),
            len(r.mitigation["whitelist"]),
        )

    return _tabulate(
        "E3: inspection workload", columns, groups, (seed,), cells, workers
    )


def run_e4_mitigation(
    attack_rate: float = 400.0,
    seeds: Sequence[int] = (1, 2, 3),
    workers: Optional[int] = 1,
) -> Table:
    """E4: benign service protection under attack.

    The figure's shape: benign success collapses under an undefended
    flood (backlog exhaustion) and recovers to near-clean levels once
    SPI mitigates; connect latency follows the same pattern.
    """
    columns = [
        "condition",
        "success_pre",
        "success_attack",
        "success_post_mitigation",
        "mean_latency_ms",
    ]
    groups = [
        ((label,), {
            "defense": defense,
            "with_attack": with_attack,
            "workload.attack_rate_pps": attack_rate,
            "duration_s": 40.0,
        })
        for label, defense, with_attack in (
            ("no-attack", "none", False),
            ("attack-undefended", "none", True),
            ("attack-spi", "spi", True),
        )
    ]

    def cells(records: Records) -> tuple:
        start = records[0].config.workload.attack_start_s
        end = records[0].config.duration_s
        latencies = [x for r in records for x in r.latencies(start + 10, end)]
        return (
            _mean([r.success_rate(0, start) for r in records]),
            _mean([r.success_rate(start, start + 5) for r in records]),
            _mean([r.success_rate(start + 10, end) for r in records]),
            _mean(latencies) * 1000 if latencies else None,
        )

    return _tabulate(
        "E4: benign service under attack", columns, groups, seeds, cells, workers
    )


def run_e5_scalability(
    sizes: Sequence[int] = (2, 4, 8, 16),
    seeds: Sequence[int] = (1, 2),
    workers: Optional[int] = 1,
) -> Table:
    """E5: detection/mitigation time vs topology size (linear chains).

    The table's shape: both times grow mildly (per-hop propagation and
    control-channel fan-out), never explosively, with switch count.
    """
    groups = [
        ((size,), {
            "topology": "linear",
            "topology_params": {
                "n_switches": int(size),
                "clients_per_switch": 1,
                "n_attackers": 1,
            },
        })
        for size in sizes
    ]

    def cells(records: Records) -> tuple:
        return (
            _t_alert(records),
            _t_mitigate(records),
            _mean([r.controller_msgs for r in records]),
            _mean([
                sum(row["flow_mods"] for row in r.counters["switches"].values())
                for r in records
            ]),
        )

    return _tabulate(
        "E5: scalability with topology size",
        ["switches", "t_alert_s", "t_mitigate_s", "controller_msgs", "flow_mods"],
        groups, seeds, cells, workers,
    )


def run_e6_flashcrowd(
    crowd_rates: Sequence[float] = (100, 200, 400),
    seeds: Sequence[int] = (1, 2),
    workers: Optional[int] = 1,
) -> Table:
    """E6: false alarms under flash crowds.

    The figure's shape: the monitor tier alerts on the crowd (false
    alarms rise with crowd intensity) but verification refutes them, so
    SPI's verified detections stay at zero and benign service is never
    mitigated against; a genuine flood in the same run still confirms.
    """
    columns = [
        "crowd_cps",
        "monitor_alerts",
        "verified_detections",
        "refuted",
        "crowd_success_rate",
        "flood_confirmed",
    ]
    groups = [
        ((rate,), {
            "detector": "static",
            "detector_params": {"syn_rate_threshold": 60.0},
            "flash_crowd": FlashCrowdSpec(
                start_s=6.0, duration_s=6.0, connections_per_second=float(rate)
            ),
            "workload.attack_start_s": 20.0,
            "workload.attack_duration_s": 8.0,
            "duration_s": 32.0,
        })
        for rate in crowd_rates
    ]
    crowd_end = 12.0

    def cells(records: Records) -> tuple:
        alerts = [t for r in records for t in r.counters["alerts"]]
        confirmed = [t for r in records for t in r.counters["detections"]]
        crowds = [
            completed / started if started else 1.0
            for started, completed, _failed in (r.flash_crowd for r in records)
        ]
        return (
            sum(1 for t in alerts if t < crowd_end + 2),
            sum(1 for t in confirmed if t < crowd_end + 2),
            # The SPI stats counter; it equals the number of ``spi.refuted``
            # trace entries, and the committed e6_flashcrowd.csv golden
            # (tests/test_experiments_golden.py) pins the cell.
            sum(r.counters["spi"]["refuted"] for r in records),
            _mean(crowds),
            f"{sum(1 for t in confirmed if t >= 20.0)}/{len(records)}",
        )

    return _tabulate(
        "E6: flash crowd false-alarm suppression",
        columns, groups, seeds, cells, workers,
    )


def run_e7_detector_ablation(
    rates: Sequence[float] = (60, 300),
    seeds: Sequence[int] = (1, 2),
    workers: Optional[int] = 1,
) -> Table:
    """E7a: detector family ablation.

    CUSUM and EWMA catch low-rate ramps earlier than the static
    threshold; entropy keys on spoofing rather than volume.
    """
    families: dict[str, dict] = {
        "static": {"syn_rate_threshold": 100.0},
        "adaptive": {},
        "ewma": {},
        "cusum": {},
        "entropy": {},
    }
    groups = [
        ((rate, family), {
            "detector": family,
            "detector_params": params,
            "workload.attack_rate_pps": float(rate),
            "workload.attack_ramp_s": 4.0,
        })
        for rate in rates
        for family, params in families.items()
    ]

    def cells(records: Records) -> tuple:
        return (
            _t_alert(records),
            _t_mitigate(records),
            _out_of(_mitigated(records), records),
        )

    return _tabulate(
        "E7a: detector family ablation",
        ["rate_pps", "detector", "t_alert_s", "t_mitigate_s", "detected"],
        groups, seeds, cells, workers,
    )


def run_e7_window_ablation(
    windows: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    seeds: Sequence[int] = (1, 2),
    workers: Optional[int] = 1,
) -> Table:
    """E7b: verification window ablation.

    Longer windows cost latency but gather more evidence per verdict;
    very short windows risk inconclusive extensions.
    """

    def cells(records: Records) -> tuple:
        cases = [case for r in records for case in r.cases]
        return (
            _t_mitigate(records),
            _mean([c.syn_total for c in cases if c.syn_total is not None]),
            sum(case.extensions_used for case in cases),
            _out_of(_mitigated(records), records),
        )

    return _tabulate(
        "E7b: verification window ablation",
        ["window_s", "t_mitigate_s", "syn_evidence", "extensions", "detected"],
        [((w,), {"spi.verification_window_s": float(w)}) for w in windows],
        seeds, cells, workers,
    )


def _e7c_point(
    budget: int, n_victims: int, seed: int, check_invariants: bool = False
) -> dict[str, Any]:
    """One E7c cell: several victims flooded at once under a shared budget.

    Builds its network directly (no ScenarioConfig covers multi-victim
    floods), so it rides the generic :func:`run_tasks` layer and wires
    its own invariant harness when asked (the run_scenario path does
    this from the config flag).
    """
    from repro.core.spi import SpiSystem
    from repro.monitor.detectors import EwmaDetector
    from repro.topology.builder import Network
    from repro.workload.attacker import AttackSchedule, SynFloodAttacker, SynFloodConfig
    from repro.workload.servers import WebServer

    net = Network(seed=seed)
    net.add_switch("s1")
    servers = []
    for i in range(n_victims):
        name = f"srv{i + 1}"
        net.add_host(name)
        net.link(name, "s1")
        servers.append(name)
    for i in range(n_victims):
        name = f"atk{i + 1}"
        net.add_host(name)
        net.link(name, "s1")
    net.finalize()
    spi = SpiSystem(
        net,
        SpiConfig(budget=BudgetConfig(max_concurrent=budget, max_queue=8)),
    )
    spi.deploy_inspector("s1")
    spi.deploy_monitor("s1", EwmaDetector())
    web_servers = [WebServer(net.stack(s), backlog=64) for s in servers]
    attackers = []
    for i, server in enumerate(web_servers):
        attacker = SynFloodAttacker(
            net.hosts[f"atk{i + 1}"],
            net.rng.child(f"atk{i + 1}"),
            SynFloodConfig(
                victim_ip=server.ip,
                rate_pps=250.0,
                schedule=AttackSchedule(start_s=5.0),
            ),
        )
        attacker.start()
        attackers.append(attacker)
    invariants = None
    if check_invariants:
        from repro.sim.invariants import InvariantHarness

        invariants = InvariantHarness.for_network(
            net, monitors=spi.monitors.values(), spi=spi
        )
        invariants.start()
    net.run(until=40.0)
    spi.stop()
    net.stop()
    if invariants is not None:
        invariants.final_check()
    # First mitigation per victim only: rules expire and re-install
    # for persistent floods, which is not the quantity under test.
    first_by_victim: dict[str, float] = {}
    for entry in net.tracer.entries("mitigation.installed"):
        victim = entry.data.get("victim", "?")
        first_by_victim.setdefault(victim, entry.time - 5.0)
    return {
        "times": list(first_by_victim.values()),
        "queued": spi.stats.inspections_queued,
    }


def run_e7_budget_ablation(
    budgets: Sequence[int] = (1, 2, 4),
    n_victims: int = 3,
    seed: int = 1,
    workers: Optional[int] = 1,
) -> Table:
    """E7c: inspection budget ablation under simultaneous victims.

    Several servers are flooded at once; a small budget serializes
    verification (later victims wait in the queue), a larger budget
    parallelizes it.  The reported number is the worst-case time to
    mitigation across victims.
    """
    table = Table(
        "E7c: inspection budget ablation",
        ["budget", "victims", "worst_t_mitigate_s", "mean_t_mitigate_s", "queued"],
    )
    from repro.harness.scenario import check_invariants_forced

    tasks = [
        {
            "budget": budget,
            "n_victims": n_victims,
            "seed": seed,
            "check_invariants": check_invariants_forced(),
        }
        for budget in budgets
    ]
    rows = run_tasks(_e7c_point, tasks, workers=workers)
    for budget, row in zip(budgets, rows):
        times = row["times"]
        table.add_row(
            budget,
            f"{len(times)}/{n_victims}",
            max(times) if times else None,
            (sum(times) / len(times)) if times else None,
            row["queued"],
        )
    return table


def run_e7_sampling_ablation(
    probabilities: Sequence[float] = (1.0, 0.25, 0.05, 0.01),
    rates: Sequence[float] = (100.0, 800.0),
    seeds: Sequence[int] = (1, 2),
    workers: Optional[int] = 1,
) -> Table:
    """E7d: monitor sampling-rate ablation.

    Monitors sample (sFlow-style) to stay cheap; the extractor rescales
    counts by the inverse probability, so detection should survive
    aggressive sampling at high attack rates and only degrade when the
    expected samples-per-window approaches zero.
    """
    groups = [
        ((probability, rate), {
            "spi.monitor.sampling_probability": float(probability),
            "workload.attack_rate_pps": float(rate),
        })
        for probability in probabilities
        for rate in rates
    ]

    def cells(records: Records) -> tuple:
        return (
            _out_of(_mitigated(records), records),
            _t_alert(records),
            _t_mitigate(records),
        )

    return _tabulate(
        "E7d: monitor sampling ablation",
        ["sampling_p", "rate_pps", "detected_runs", "t_alert_s", "t_mitigate_s"],
        groups, seeds, cells, workers,
    )


def run_e8_pulsing(
    pulse_rate: float = 800.0,
    seeds: Sequence[int] = (1, 2),
    workers: Optional[int] = 1,
) -> Table:
    """E8 (extension): pulsing (on-off) flood vs inspection scheduling.

    A 1s-on/4s-off pulsed flood is the classic evasion against
    duty-cycled inspection: pulses that land in the off-phase are
    invisible.  Alert-driven selective inspection keys on the monitor,
    which sees every pulse.  The table reports whether each defense
    detects and how fast.
    """
    groups = [
        ((defense,), {
            "defense": defense,
            "workload.attack_rate_pps": pulse_rate,
            # Start at t=7 so the 1s pulses (7-8, 12-13, ...) are
            # anti-aligned with the sampled baseline's on-phases
            # (5-6, 10-11, ...): the classic evasion.
            "workload.attack_start_s": 7.0,
            "workload.attack_pulse_on_s": 1.0,
            "workload.attack_pulse_off_s": 4.0,
            "duration_s": 40.0,
        })
        for defense in ("spi", "sampled", "flow-stats")
    ]

    def cells(records: Records) -> tuple:
        firsts = []
        for r in records:
            times = [t for t in r.counters["detections"] if t >= 7.0]
            if times:
                firsts.append(times[0] - 7.0)
        return (
            _out_of(firsts, records),
            _mean(firsts),
            _mean([r.success_rate(25.0, 40.0) for r in records]),
        )

    return _tabulate(
        "E8: pulsing flood (1s on / 4s off)",
        ["defense", "detected_runs", "first_detection_s", "success_tail"],
        groups, seeds, cells, workers,
    )


def run_e9_link_loss(
    losses: Sequence[float] = (0.0, 0.02, 0.05, 0.10),
    seeds: Sequence[int] = (1, 2),
    workers: Optional[int] = 1,
) -> Table:
    """E9 (extension): detection robustness under random packet loss.

    Loss thins both the monitor's samples and the DPI mirror stream.
    The signature evidence is statistical, so detection should survive
    realistic loss rates with, at worst, modest extra latency.
    """
    groups = [
        ((loss,), {
            "link_loss_probability": float(loss),
            "workload.attack_rate_pps": 400.0,
        })
        for loss in losses
    ]

    def cells(records: Records) -> tuple:
        return (
            _out_of(_mitigated(records), records),
            _t_mitigate(records),
            _mean([r.success_rate(12.0, 30.0) for r in records]),
        )

    return _tabulate(
        "E9: robustness to link loss",
        ["loss", "detected_runs", "t_mitigate_s", "success_post"],
        groups, seeds, cells, workers,
    )


def run_e10_monitor_placement(
    per_attacker_rate: float = 90.0,
    seeds: Sequence[int] = (1, 2),
    workers: Optional[int] = 1,
) -> Table:
    """E10 (extension): where to put the monitors.

    Star topology, four attackers spread over four arms, each sending
    slowly enough that no single edge switch sees a flood-like rate; the
    aggregate at the victim's switch is unmistakable.  Victim-edge (or
    core) monitoring aggregates the evidence; attacker-edge monitors see
    only their slice and a high static threshold misses it.
    """
    placements = {
        "victim-edge": ("core",),
        "attacker-edges": ("edge1", "edge2", "edge3", "edge4"),
        "everywhere": ("core", "edge1", "edge2", "edge3", "edge4"),
    }
    groups = [
        ((label,), {
            "topology": "star",
            "topology_params": {
                "n_arms": 4, "clients_per_arm": 1, "n_attackers": 4
            },
            "detector": "static",
            # Above any single arm's rate, below the aggregate.
            "detector_params": {"syn_rate_threshold": 2.0 * per_attacker_rate},
            "workload.attack_rate_pps": 4 * per_attacker_rate,
            "monitor_switches": switches,
            "inspector_switch": "core",
        })
        for label, switches in placements.items()
    ]

    def cells(records: Records) -> tuple:
        return (
            sum(len(r.counters["alerts"]) for r in records),
            _out_of(_mitigated(records), records),
            _t_mitigate(records),
        )

    return _tabulate(
        "E10: monitor placement (distributed 4-arm attack)",
        ["placement", "alerts", "detected_runs", "t_mitigate_s"],
        groups, seeds, cells, workers,
    )


def run_e11_host_vs_network_defense(
    rates: Sequence[float] = (400.0, 8000.0),
    seed: int = 1,
    workers: Optional[int] = 1,
) -> Table:
    """E11 (extension): SYN cookies (host) vs SPI (network) vs both.

    SYN cookies make the backlog unexhaustible, so they protect the
    handshake at any rate the links can carry — but the flood still
    traverses and loads the network.  At volumetric rates the core link
    saturates and cookies alone cannot save benign traffic; SPI removes
    the flood at its ingress edge.  The dumbbell core is throttled to
    make the crossover visible.
    """
    groups = [
        ((rate, label), {
            "defense": defense,
            "syn_cookies": cookies,
            "workload.attack_rate_pps": float(rate),
            "topology_params": {
                "n_clients": 4,
                "n_attackers": 2,
                # A 2 Mbps core saturates near 4600 flood pps
                # (54-byte SYNs), exposing the volumetric regime.
                "core_bandwidth_bps": 2e6,
            },
            "duration_s": 25.0,
        })
        for rate in rates
        for label, defense, cookies in (
            ("syn-cookies", "none", True),
            ("spi", "spi", False),
            ("both", "spi", True),
        )
    ]

    def cells(records: Records) -> tuple:
        (r,) = records
        # The dumbbell cables s1-s2 first (``net.links[0]``), so the core's
        # s1 end is port 1; the committed e11_host_vs_network.csv golden
        # (tests/test_experiments_golden.py) pins the cells read from it.
        (core,) = [row for row in r.counters["links"] if row["from"] == "s1:1"]
        offered = core["sent"] + core["queue_drops"]
        return (
            r.success_rate(12.0, 25.0),
            core["queue_drops"] / offered if offered else 0.0,
            # More than ~3 attack-seconds' worth of flood packets
            # (after a generous allowance for benign traffic) means
            # the flood ran unmitigated over the core.
            core["sent"] > r.config.workload.attack_rate_pps * 3 + 5000,
        )

    return _tabulate(
        "E11: host-side vs network-side defense",
        ["rate_pps", "defense", "success_post", "core_drop_rate", "flood_crosses_core"],
        groups, (seed,), cells, workers,
    )


def run_e12_udp_flood(
    rates: Sequence[float] = (500.0, 1500.0),
    seeds: Sequence[int] = (1, 2),
    workers: Optional[int] = 1,
) -> Table:
    """E12 (extension): UDP volumetric flood through the same pipeline.

    The monitor runs a composite detector (EWMA on SYNs OR a UDP rate
    threshold); the correlator scores the UDP volumetric signature on
    the mirrored datagrams; mitigation blocks the spoofed prefix.  The
    dumbbell core is throttled so the flood actually hurts benign TCP.
    """
    groups = [
        ((rate,), {
            "detector": "udp-rate",
            "detector_params": {"udp_rate_threshold": 150.0},
            "workload.attack_kind": "udp",
            "workload.attack_rate_pps": float(rate),
            "workload.udp_payload_bytes": 512,
            "topology_params": {
                "n_clients": 4,
                "n_attackers": 2,
                "core_bandwidth_bps": 10e6,
            },
            "duration_s": 30.0,
        })
        for rate in rates
    ]

    def cells(records: Records) -> tuple:
        return (
            _out_of(_mitigated(records), records),
            _t_mitigate(records),
            _mean([r.success_rate(5.0, 8.0) for r in records]),
            _mean([r.success_rate(12.0, 30.0) for r in records]),
        )

    return _tabulate(
        "E12: UDP flood detection and mitigation",
        ["rate_pps", "detected_runs", "t_mitigate_s", "success_during", "success_post"],
        groups, seeds, cells, workers,
    )


#: The standard scenarios E13 compares across feature backends: the
#: paper's spoofed SYN flood, the E12-style UDP volumetric flood, and a
#: no-attack flash crowd (detection verdicts must agree on all three).
_E13_CASES: tuple[tuple[str, dict[str, Any]], ...] = (
    ("syn-flood", {
        "workload.attack_rate_pps": 400.0,
    }),
    ("udp-flood", {
        "detector": "udp-rate",
        "detector_params": {"udp_rate_threshold": 150.0},
        "workload.attack_kind": "udp",
        "workload.attack_rate_pps": 1000.0,
        "workload.udp_payload_bytes": 512,
    }),
    ("flash-crowd", {
        "with_attack": False,
        "flash_crowd": FlashCrowdSpec(
            start_s=5.0, duration_s=10.0, connections_per_second=80.0
        ),
    }),
)


def run_e13_sketch_monitor(
    seeds: Sequence[int] = (1, 2),
    widths: Sequence[int] = (512, 2048),
    workers: Optional[int] = 1,
) -> Table:
    """E13a (extension): sketch monitor plane vs exact, accuracy side.

    Every standard scenario (SYN flood, UDP flood, flash crowd) runs
    once per feature backend — exact dicts and count-min/HyperLogLog
    sketches across widths (depth 4) — and the table reports detection
    verdicts, time-to-alert/mitigate, and the peak per-monitor feature
    state.  The detectors are identical in every run; only the feature
    backend changes, so verdict differences would mean estimator error
    crossed a detector threshold.
    """
    backends: list[tuple[str, dict[str, Any]]] = [("exact", {})]
    for width in widths:
        backends.append((
            f"sketch-w{width}",
            {
                "spi.monitor.backend": "sketch",
                "spi.monitor.sketch_width": int(width),
            },
        ))
    groups = [
        ((case, backend), {
            **case_overrides,
            **backend_overrides,
            "spi.monitor.track_state_bytes": True,
        })
        for case, case_overrides in _E13_CASES
        for backend, backend_overrides in backends
    ]

    def cells(records: Records) -> tuple:
        # Unlike E1's, these means are over every run that alerted (or
        # mitigated) at all: the flash-crowd case alerts and never mitigates.
        alerts = [r.timeline.time_to_alert for r in records]
        return (
            _out_of([r for r in records if r.counters["detections"]], records),
            _mean([t for t in alerts if t is not None]),
            _t_mitigate(records),
            round(max(r.monitor_peak_bytes for r in records) / 1024, 1),
        )

    return _tabulate(
        "E13a: feature backend accuracy (exact vs sketch)",
        ["case", "backend", "detected_runs", "t_alert_s", "t_mitigate_s",
         "peak_monitor_kib"],
        groups, seeds, cells, workers,
    )


def _e13_scale_task(n_sources: int, backend: str) -> dict[str, Any]:
    """Feed one window of ``n_sources`` distinct spoofed SYNs directly
    into a feature extractor (no simulator) and measure per-monitor
    feature-state bytes and observe+close throughput."""
    import time

    from repro.monitor.features import FeatureExtractor
    from repro.net.headers import TCP_SYN, TcpHeader
    from repro.net.packet import Packet

    mac = "00:00:00:00:00:01"
    packets = [
        Packet.tcp_packet(
            mac, mac,
            f"198.{(i >> 16) & 255}.{(i >> 8) & 255}.{i & 255}",
            "10.0.0.2",
            TcpHeader(1024 + (i & 4095), 80, flags=TCP_SYN),
        )
        for i in range(n_sources)
    ]
    extractor = FeatureExtractor(backend=backend, track_state_bytes=True)
    observe = extractor.observe
    start = time.perf_counter()
    for packet in packets:
        observe(packet)
    features = extractor.close_window(1.0)
    elapsed = time.perf_counter() - start
    return {
        "state_bytes": extractor.peak_state_bytes,
        "kpps": n_sources / elapsed / 1000,
        "distinct": features.distinct_sources,
    }


def run_e13_monitor_scale(
    source_counts: Sequence[int] = (1_000, 10_000, 100_000, 1_000_000),
    workers: Optional[int] = 1,
) -> Table:
    """E13b (extension): monitor feature-state bytes vs distinct sources.

    One window of N distinct spoofed sources per point, fed straight
    into the extractor: the exact backend's per-address state grows
    linearly with N while the sketch backend (1024x4 count-min sketches,
    2^12 HyperLogLog registers) stays flat — the bounded-memory claim
    at the ROADMAP's million-source scale.  Throughput is the wall-clock
    observe+close rate on this machine; distinct is the (estimated)
    distinct-source feature, showing HyperLogLog error in context.
    """
    table = Table(
        "E13b: feature state vs distinct sources",
        ["distinct_sources", "backend", "state_kib", "observe_kpps",
         "distinct_estimate"],
    )
    tasks = [
        {"n_sources": int(n), "backend": backend}
        for n in source_counts
        for backend in ("exact", "sketch")
    ]
    rows = iter(run_tasks(_e13_scale_task, tasks, workers=workers))
    for n in source_counts:
        for backend in ("exact", "sketch"):
            row = next(rows)
            table.add_row(
                int(n),
                backend,
                round(row["state_bytes"] / 1024, 1),
                round(row["kpps"], 1),
                row["distinct"],
            )
    return table


ALL_EXPERIMENTS = {
    "e1": run_e1_response_time,
    "e2": run_e2_accuracy,
    "e3": run_e3_workload,
    "e4": run_e4_mitigation,
    "e5": run_e5_scalability,
    "e6": run_e6_flashcrowd,
    "e7a": run_e7_detector_ablation,
    "e7b": run_e7_window_ablation,
    "e7c": run_e7_budget_ablation,
    "e7d": run_e7_sampling_ablation,
    "e8": run_e8_pulsing,
    "e9": run_e9_link_loss,
    "e10": run_e10_monitor_placement,
    "e11": run_e11_host_vs_network_defense,
    "e12": run_e12_udp_flood,
    "e13a": run_e13_sketch_monitor,
    "e13b": run_e13_monitor_scale,
}

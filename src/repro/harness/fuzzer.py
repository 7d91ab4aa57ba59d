"""Deterministic scenario fuzzer and the one differential check.

Every fast path and every way of hosting a run must be *invisible* in
the metrics: the same seeded scenario on the reference twins, split
across shards, stepped inside a service session or shipped through the
process pool has to fingerprint byte for byte like the plain default
run.  This module generates randomized-but-seeded scenarios (topology,
workload, attack mix, defense) and asserts exactly that:

* ``generate_scenario(seed)`` — a deterministic scenario drawn from a
  seeded RNG, with invariant checking enabled;
* :data:`VARIANTS` — the table of ``(name, check)`` pairs; a check
  re-runs one scenario its own way and returns a complaint, or ``None``
  when it agrees with the default run;
* ``run_fuzz_suite(...)`` — the entry point behind ``repro check``: one
  loop that runs every variant of every seed and names the ones that
  diverged.

What is compared is :func:`repro.harness.fingerprint.fingerprint`
(re-exported here: the perf ledger imports it from this module).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.harness.fingerprint import fingerprint, fingerprint_json
from repro.harness.scenario import (
    FlashCrowdSpec,
    ScenarioConfig,
    build_scenario,
    finish_scenario,
    run_scenario,
)
from repro.sim.invariants import InvariantViolation
from repro.workload.profiles import WorkloadConfig

__all__ = [
    "generate_scenario",
    "fingerprint",
    "fingerprint_json",
    "VARIANTS",
    "run_fuzz_suite",
    "describe_outcome",
    "DifferentialOutcome",
]

#: Seed-space offset so fuzz seeds do not collide with experiment seeds.
_SEED_SALT = 0x5B1


def generate_scenario(seed: int) -> ScenarioConfig:
    """One deterministic randomized scenario; same seed, same scenario."""
    rng = random.Random(seed + _SEED_SALT)
    topology = rng.choice(("single", "dumbbell", "star", "linear"))
    if topology in ("single", "dumbbell"):
        params: dict[str, Any] = {
            "n_clients": rng.randint(2, 4), "n_attackers": rng.randint(1, 2)
        }
    elif topology == "star":
        params = {
            "n_arms": rng.randint(2, 3),
            "clients_per_arm": rng.randint(1, 2),
            "n_attackers": rng.randint(1, 2),
        }
    else:
        params = {
            "n_switches": rng.randint(2, 3),
            "clients_per_switch": 1,
            "n_attackers": rng.randint(1, 2),
        }
    attack_kind = rng.choice(("syn", "syn", "syn", "udp"))
    detector = (
        "udp-rate" if attack_kind == "udp"
        else rng.choice(("ewma", "static", "cusum", "entropy"))
    )
    workload = WorkloadConfig(
        attack_kind=attack_kind,
        attack_rate_pps=float(rng.choice((150, 300, 500))),
        attack_start_s=rng.choice((2.0, 3.0)),
        attack_duration_s=1000.0,
        server_backlog=rng.choice((64, 128)),
        spoof=rng.random() < 0.8,
    )
    flash_crowd = None
    if rng.random() < 0.2:
        flash_crowd = FlashCrowdSpec(
            start_s=4.0, duration_s=3.0, connections_per_second=60.0
        )
    return ScenarioConfig(
        topology=topology,
        topology_params=params,
        seed=rng.randint(1, 10_000),
        duration_s=float(rng.choice((6, 8, 10))),
        defense=rng.choice(
            ("spi", "spi", "monitor-only", "always-on", "sampled", "flow-stats", "none")
        ),
        detector=detector,
        workload=workload,
        with_attack=rng.random() < 0.9,
        link_loss_probability=rng.choice((0.0, 0.0, 0.0, 0.02)),
        syn_cookies=rng.random() < 0.25,
        flash_crowd=flash_crowd,
        check_invariants=True,
    )


# Module-level so the pooled variant can pickle it by reference.
def _fingerprint_worker(config_data: dict[str, Any]) -> str:
    from repro.harness.serialize import config_from_dict

    return fingerprint_json(run_scenario(config_from_dict(config_data)))


@dataclass(frozen=True)
class DifferentialOutcome:
    """One seed's verdict: the variants that ran and what the failing ones said."""

    seed: int
    config: ScenarioConfig
    variants: tuple[str, ...] = ()
    #: ``(variant, complaint)`` for every variant that disagreed with the
    #: default run; ``"default"`` when the default run itself failed.
    complaints: tuple[tuple[str, str], ...] = ()

    @property
    def matched(self) -> bool:
        return not self.complaints

    @property
    def detail(self) -> str:
        return "; ".join(f"{name}: {text}" for name, text in self.complaints)


def _divergence(baseline: str, other: str) -> str | None:
    """First divergent top-level key between two fingerprint JSONs, if any."""
    if other == baseline:
        return None
    da, db = json.loads(baseline), json.loads(other)
    for key in sorted(set(da) | set(db)):
        if da.get(key) != db.get(key):
            return f"first divergence at {key!r}: {da.get(key)!r} != {db.get(key)!r}"
    return "fingerprints differ only in formatting"


def _sketch_mode(config: ScenarioConfig, **knobs: Any) -> ScenarioConfig:
    """The same scenario with every monitor on the sketch feature backend."""
    monitor = replace(config.spi.monitor, backend="sketch", **knobs)
    return replace(config, spi=replace(config.spi, monitor=monitor))


def _check_reference(
    config: ScenarioConfig, seed: int, baseline: str, workers: int
) -> str | None:
    """Every reference twin at once: reference loop and per-arrival
    scheduling."""
    twin = run_scenario(replace(config, reference=True))
    return _divergence(baseline, fingerprint_json(twin))


def _check_sharded(shards: int) -> Callable[..., str | None]:
    def check(
        config: ScenarioConfig, seed: int, baseline: str, workers: int
    ) -> str | None:
        """The full epoch/batch protocol on inline workers."""
        from repro.sim.sharded.coordinator import run_sharded_scenario

        merged = run_sharded_scenario(replace(config, shards=shards), inline=True)
        return _divergence(baseline, fingerprint_json(merged))

    return check


def _check_served(
    config: ScenarioConfig, seed: int, baseline: str, workers: int
) -> str | None:
    """Hosted in a control-plane session and stepped in bounded slices;
    slice length and event budget come from the seed, so different seeds
    exercise different slicings."""
    from repro.service.session import Session

    slicing = random.Random(seed + _SEED_SALT * 7)
    session = Session(
        f"serve-{seed}",
        config,
        slice_s=slicing.choice((0.1, 0.25, 0.5)),
        slice_events=slicing.choice((500, 5_000, 50_000)),
    )
    session.run_to_completion()
    return _divergence(baseline, session.fingerprint())


def _check_pooled(
    config: ScenarioConfig, seed: int, baseline: str, workers: int
) -> str | None:
    """Through the spawn pool, the config shipped as plain data and the
    result returned over whichever plane the host has (two identical
    tasks, so the fan-out path actually engages)."""
    from repro.harness.parallel import run_tasks
    from repro.harness.serialize import config_to_dict

    task = {"config_data": config_to_dict(config)}
    for pooled in run_tasks(_fingerprint_worker, [task, task], workers=workers):
        complaint = _divergence(baseline, pooled)
        if complaint is not None:
            return complaint
    return None


#: Absolute tolerance for the sketch-bounds entropy comparison.  The
#: heavy-hitter + uniform-tail estimator tracks the exact normalized
#: entropy well inside this on every fuzz stream; see EXPERIMENTS M6 for
#: measured errors.
_SKETCH_ENTROPY_TOL = 0.15
#: Safety factor on the HyperLogLog one-sigma relative error (1.04/sqrt(m)).
_SKETCH_HLL_SIGMAS = 6.0


class _ShadowPairExtractor:
    """Feeds one monitor's observe stream to exact and sketch extractors.

    The exact extractor's features drive the run (so the scenario is
    byte-identical to a plain exact run — the sketch shadow consumes no
    randomness and emits nothing); each window close records the
    (exact, sketch) feature pair plus the window's raw SYN/UDP counts
    for ε-bound scaling.
    """

    def __init__(self, exact, sketch) -> None:
        self.exact = exact
        self.sketch = sketch
        self.windows: list[tuple[Any, Any, int, int]] = []

    def observe(self, packet) -> None:
        self.exact.observe(packet)
        self.sketch.observe(packet)

    def close_window(self, now):
        syn_before = self.exact.folded_syn_total
        udp_before = self.exact.folded_udp_total
        exact_features = self.exact.close_window(now)
        sketch_features = self.sketch.close_window(now)
        self.windows.append((
            exact_features,
            sketch_features,
            self.exact.folded_syn_total - syn_before,
            self.exact.folded_udp_total - udp_before,
        ))
        return exact_features

    def set_sampling_probability(self, sampling_probability: float) -> None:
        self.exact.set_sampling_probability(sampling_probability)
        self.sketch.set_sampling_probability(sampling_probability)

    def accounting(self):
        return self.exact.accounting()

    @property
    def packets_observed(self) -> int:
        return self.exact.packets_observed

    @property
    def sampling_probability(self) -> float:
        return self.exact.sampling_probability

    @property
    def backend(self):
        return self.exact.backend


_SCALAR_FIELDS = (
    "window_start", "window_end", "total_packets", "tcp_packets",
    "syn_count", "synack_count", "ack_count", "rst_count", "fin_count",
    "udp_packets",
)


def _check_window_pair(
    exact, sketch, raw_syn: int, raw_udp: int,
    width: int, hll_m: int,
) -> str | None:
    """One window's estimator-error check; returns a complaint or None."""
    eps = 1e-9
    for name in _SCALAR_FIELDS:
        a, b = getattr(exact, name), getattr(sketch, name)
        if a != b:
            return f"scalar {name} diverged: exact {a!r} != sketch {b!r}"
    scale = exact.syn_count / raw_syn if raw_syn else 1.0
    cms_bound = math.e * raw_syn / width * scale + eps
    for ip, est in sketch.per_destination_syns.items():
        true = exact.per_destination_syns.get(ip)
        if true is None:
            return f"sketch reported SYN destination {ip} never seen exactly"
        if est < true - eps:
            return f"sketch undercounted SYNs to {ip}: {est} < {true}"
        if est - true > cms_bound:
            return (
                f"sketch overcounted SYNs to {ip}: {est} vs {true} "
                f"(bound {cms_bound:.3f})"
            )
    if sketch.per_destination_syns and exact.per_destination_syns:
        if sketch.top_destination_syns < exact.top_destination_syns - eps:
            return (
                "sketch top-destination SYN estimate "
                f"{sketch.top_destination_syns} below exact "
                f"{exact.top_destination_syns}"
            )
    true_distinct = exact.distinct_sources
    hll_tol = _SKETCH_HLL_SIGMAS * 1.04 / math.sqrt(hll_m) * true_distinct + 3
    if abs(sketch.distinct_sources - true_distinct) > hll_tol:
        return (
            f"distinct-source estimate {sketch.distinct_sources} vs exact "
            f"{true_distinct} (tolerance {hll_tol:.1f})"
        )
    if abs(sketch.source_entropy - exact.source_entropy) > _SKETCH_ENTROPY_TOL:
        return (
            f"entropy estimate {sketch.source_entropy:.4f} vs exact "
            f"{exact.source_entropy:.4f} (tolerance {_SKETCH_ENTROPY_TOL})"
        )
    return None


def _check_sketch_bounds(
    config: ScenarioConfig, seed: int, baseline: str, workers: int
) -> str | None:
    """Estimator error bounds, window by window.

    The scenario runs once with every monitor's extractor shadow-paired:
    the exact backend drives detection (so the run is the plain exact
    run) while a sketch extractor — geometry drawn from the seed —
    consumes the identical observe stream.  Every closed window must
    satisfy the estimators' error bounds: count-min estimates never
    undercount and overcount by at most ``e/width`` of the window's adds,
    HyperLogLog distinct counts stay within ``6 * 1.04/sqrt(m)``, and the
    entropy estimate stays within ``0.15`` absolute.  The same scenario
    then re-runs end-to-end in sketch mode with invariant sweeps on,
    covering sketch accounting inside the live monitor.
    """
    from repro.monitor.features import FeatureExtractor

    geometry = random.Random(seed + _SEED_SALT * 11)
    width = geometry.choice((512, 1024, 2048))
    depth = geometry.choice((3, 4, 5))
    precision = geometry.choice((10, 12))
    sketch_knobs = {
        "sketch_width": width,
        "sketch_depth": depth,
        "sketch_topk": geometry.choice((4, 8)),
        "hll_precision": precision,
        "sketch_seed": seed + 0xFEED,
    }
    built = build_scenario(config)
    pairs: list[_ShadowPairExtractor] = []
    for monitor in built.monitors():
        shadow = FeatureExtractor(
            monitor.config.sampling_probability,
            backend="sketch",
            **sketch_knobs,
        )
        pair = _ShadowPairExtractor(monitor.extractor, shadow)
        monitor.extractor = pair
        pairs.append(pair)
    built.net.run(until=config.duration_s)
    finish_scenario(built)
    for pair in pairs:
        for exact, sketch, raw_syn, raw_udp in pair.windows:
            complaint = _check_window_pair(
                exact, sketch, raw_syn, raw_udp, width, 1 << precision
            )
            if complaint is not None:
                return f"width={width} depth={depth} p={precision}: {complaint}"
    run_scenario(_sketch_mode(config, **sketch_knobs))
    return None


#: Every way a scenario is re-run against its default fingerprint, as
#: ``(name, check(config, seed, baseline, workers) -> complaint | None)``:
#: ``baseline`` is the default run's fingerprint JSON, ``seed`` salts
#: whatever the variant draws for itself, ``workers`` sizes a process pool.
VARIANTS: tuple[tuple[str, Callable[..., str | None]], ...] = (
    ("reference", _check_reference),
    ("sharded-1", _check_sharded(1)),
    ("sharded-2", _check_sharded(2)),
    ("sharded-4", _check_sharded(4)),
    ("served", _check_served),
    ("pooled", _check_pooled),
    ("sketch-bounds", _check_sketch_bounds),
)


def run_fuzz_suite(
    n_seeds: int = 25,
    base_seed: int = 0,
    workers: int = 2,
    progress: Optional[Callable[[DifferentialOutcome], None]] = None,
) -> list[DifferentialOutcome]:
    """Every variant in :data:`VARIANTS` on each of ``n_seeds`` scenarios.

    A seed's default run is the baseline; each variant re-runs the
    scenario its own way and must reproduce the baseline fingerprint
    byte for byte (the ``sketch-bounds`` variant checks estimator error
    bounds instead).  A variant that disagrees, or trips an invariant,
    is recorded by name; the other variants of that seed still run.
    ``workers`` sizes the ``pooled`` variant's process pool.
    """
    outcomes: list[DifferentialOutcome] = []
    for seed in range(base_seed, base_seed + n_seeds):
        config = generate_scenario(seed)
        ran: list[str] = []
        complaints: list[tuple[str, str]] = []
        try:
            baseline = fingerprint_json(run_scenario(config))
        except InvariantViolation as violation:
            complaints.append(("default", f"invariant violation: {violation}"))
        else:
            for name, check in VARIANTS:
                try:
                    complaint = check(config, seed, baseline, workers)
                except InvariantViolation as violation:
                    complaint = f"invariant violation: {violation}"
                ran.append(name)
                if complaint is not None:
                    complaints.append((name, complaint))
        outcome = DifferentialOutcome(seed, config, tuple(ran), tuple(complaints))
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    return outcomes


def describe_outcome(outcome: DifferentialOutcome) -> str:
    """One log line per seed (used by ``repro check``)."""
    config = outcome.config
    shape = (
        f"{config.topology}/{config.defense}/{config.detector}"
        f" kind={config.workload.attack_kind}"
        f" rate={config.workload.attack_rate_pps:g}"
        f" loss={config.link_loss_probability:g}"
        f" seed={outcome.seed}"
    )
    if outcome.matched:
        return f"ok   {shape} [{' '.join(outcome.variants)}]"
    failed = " ".join(name for name, _complaint in outcome.complaints)
    line = f"FAIL {shape} diverged: {failed}"
    for name, complaint in outcome.complaints:
        line += f"\n     {name}: {complaint}"
    return line

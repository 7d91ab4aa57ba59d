"""Scenario configuration and the single-run experiment driver.

Scenario *construction* and *execution* are split so the control-plane
service (:mod:`repro.service`) can host a built scenario and step it in
bounded slices while the batch path stays a single call:

* ``build_scenario`` assembles a topology, a workload (optionally with a
  flash crowd) and one defense, built by name from
  :data:`DEFENSE_BUILDERS` (``spi`` / ``monitor-only`` / ``always-on`` /
  ``sampled`` / ``flow-stats`` / ``none``), starts the workload, and
  returns a live :class:`ScenarioResult` whose simulator has not
  advanced yet;
* ``finish_scenario`` stops every component and runs the final
  invariant sweep once the clock has reached the configured duration;
* ``run_scenario`` is build + one uninterrupted ``net.run`` + finish —
  byte-identical to a served session that received no runtime
  mutations (asserted by the ``served`` variant of ``repro check``).

``ScenarioResult`` carries uniform accessors for the quantities every
experiment reports: detection times, benign service quality per phase,
inspection workload, and live mitigation state (active blocks and
whitelist entries with expiry timestamps).  Each defense-dependent one
asks the one :class:`~repro.core.defense.Defense` in ``result.defense``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace
from typing import Any, Callable, Optional

from repro.baselines.flowstats import FlowStatsDefense
from repro.baselines.tapdpi import TapDpi
from repro.baselines.threshold_only import MonitorOnlyDefense
from repro.core.config import SpiConfig
from repro.core.defense import Defense
from repro.core.spi import SpiSystem
from repro.metrics.detection import DetectionTimeline, extract_timeline
from repro.mitigation.manager import MitigationManager, MitigationMode
from repro.monitor.detectors import DETECTORS, make_detector
from repro.monitor.monitor import TrafficMonitor
from repro.topology import standard
from repro.topology.builder import Network
from repro.topology.standard import Roles
from repro.workload.flashcrowd import FlashCrowd, FlashCrowdSpec
from repro.workload.profiles import StandardWorkload, WorkloadConfig

TOPOLOGIES = {
    "single": standard.single_switch,
    "dumbbell": standard.dumbbell,
    "star": standard.star,
    "linear": standard.linear,
    "tree": standard.tree,
    "fat_tree": standard.fat_tree,
    "random_tree": standard.random_tree,
}

# Process-wide override set by ``repro experiment --check-invariants``:
# experiment runners build their own configs, so the flag is applied to
# every config that reaches run_scenario (serial path) or the worker
# transport (see harness.parallel, which stamps configs before pickling
# because spawn workers start with this flag at its default).
_FORCE_CHECK_INVARIANTS = False


def force_check_invariants(enabled: bool = True) -> None:
    """Turn invariant checking on for every subsequently built scenario."""
    global _FORCE_CHECK_INVARIANTS
    _FORCE_CHECK_INVARIANTS = enabled


def effective_config(config: "ScenarioConfig") -> "ScenarioConfig":
    """Apply the process-wide invariant override to one config."""
    if _FORCE_CHECK_INVARIANTS and not config.check_invariants:
        return replace(config, check_invariants=True)
    return config


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment run needs."""

    topology: str = "dumbbell"
    topology_params: dict[str, Any] = field(default_factory=dict)
    seed: int = 1
    duration_s: float = 30.0
    defense: str = "spi"
    detector: str = "ewma"
    detector_params: dict[str, Any] = field(default_factory=dict)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    spi: SpiConfig = field(default_factory=SpiConfig)
    with_attack: bool = True
    # Failure injection: random per-packet loss on every link (E9).
    link_loss_probability: float = 0.0
    # Host-side defense: SYN cookies on every TCP stack (E11 baseline).
    syn_cookies: bool = False
    flash_crowd: Optional[FlashCrowdSpec] = None
    # Placement: None means "the victim's edge switch".
    monitor_switches: tuple[str, ...] | None = None
    inspector_switch: str | None = None
    # Attach a time-series probe (figure generation); see harness.probe.
    probe: bool = False
    # Runtime invariant checking (repro.sim.invariants): periodic sweeps
    # during the run plus a final sweep; violations raise.
    check_invariants: bool = False
    # Run every reference twin at once instead of the fast paths: the
    # pre-overhaul event loop and one scheduled event per generated
    # arrival.  It may not change any metric; repro check verifies
    # exactly that.
    reference: bool = False
    # Multi-process domain decomposition (repro.sim.sharded): 1 runs the
    # classic single-process path, N > 1 partitions the topology across
    # N engines synchronized by conservative lookahead.  Fingerprints
    # are byte-identical either way (the ``sharded-N`` variants of
    # ``repro check`` assert it).
    shards: int = 1

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from {sorted(TOPOLOGIES)}"
            )
        if self.defense not in DEFENSES:
            raise ValueError(f"unknown defense {self.defense!r}; choose from {DEFENSES}")
        if self.detector not in DETECTORS:
            raise ValueError(
                f"unknown detector {self.detector!r}; choose from {tuple(DETECTORS)}"
            )
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.shards < 1:
            raise ValueError("shard count must be >= 1")

    @property
    def attack_window(self) -> tuple[float, float]:
        """Ground-truth attack interval (clipped to the run)."""
        start = self.workload.attack_start_s
        end = min(start + self.workload.attack_duration_s, self.duration_s)
        return (start, end)


@dataclass
class ScenarioResult:
    """A finished run plus uniform metric accessors."""

    config: ScenarioConfig
    net: Network
    roles: Roles
    workload: StandardWorkload
    defense: Defense
    flash_crowd: Optional[FlashCrowd] = None
    probe: Optional["ScenarioProbe"] = None
    invariants: Optional["InvariantHarness"] = None

    # ------------------------------------------------------------ service

    @property
    def spi(self) -> Optional[SpiSystem]:
        """The SPI system, when that is the defense that ran."""
        return self.defense if isinstance(self.defense, SpiSystem) else None

    @property
    def victim_ip(self) -> str:
        """The attacked server's address."""
        return self.workload.victim_ip

    @property
    def attack_window(self) -> tuple[float, float]:
        """Ground-truth attack interval (clipped to the run)."""
        return self.config.attack_window

    def success_rate(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Benign request success fraction within a phase."""
        return self.workload.client_success_rate(start, end)

    def mean_latency(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Mean successful benign request latency within a phase."""
        latencies = self.workload.client_latencies(start, end)
        return sum(latencies) / len(latencies) if latencies else 0.0

    # ---------------------------------------------------------- detection

    def monitors(self) -> list[TrafficMonitor]:
        """The defense's edge monitors (none for tap and poller defenses)."""
        return list(self.defense.monitors.values())

    def detection_times(self) -> list[float]:
        """Confirmed detection timestamps of the defense that ran."""
        return self.defense.detection_times()

    def alert_times(self) -> list[float]:
        """Raw (unverified) alert timestamps, where the defense has them."""
        return self.defense.alert_times()

    def timeline(self) -> DetectionTimeline:
        """E1 milestones relative to attack start."""
        return extract_timeline(self.net.tracer, self.config.workload.attack_start_s)

    # ----------------------------------------------------------- workload

    def inspected_fraction(self) -> float:
        """Share of datapath packets that were deep-inspected."""
        counters = [sw.counters for sw in self.net.switches.values()]
        return self.defense.inspected_fraction(
            sum(c.packets_mirrored for c in counters),
            sum(c.packets_in for c in counters),
        )

    def buffer_evictions(self) -> int:
        """Packet-in buffer evictions across all switches (E3 pressure)."""
        return sum(
            sw.counters.buffer_evictions for sw in self.net.switches.values()
        )

    # --------------------------------------------------------- mitigation

    def mitigation_manager(self) -> Optional[MitigationManager]:
        """The active defense's mitigation manager, if it has one."""
        return self.defense.mitigation

    def mitigation_state(self) -> dict[str, Any]:
        """Active blocks and whitelist entries with expiry timestamps.

        Inspectable in batch runs (the E3 report) and served live over
        the control-plane API; an empty state when the defense does not
        mitigate.
        """
        manager = self.mitigation_manager()
        if manager is None:
            return {"active_blocks": [], "whitelist": []}
        return {
            "active_blocks": [b.describe() for b in manager.active_blocks()],
            "whitelist": [w.describe() for w in manager.whitelist_entries()],
        }

    def flow_table_stats(self) -> SimpleNamespace:
        """Ledger pin: benchmarks/ledger/layers.py reads the cache hit rate
        of a flow table that no longer has a cache (always 0.0)."""
        return SimpleNamespace(microflow_hit_rate=0.0)


def _default_edge(net: Network, roles: Roles) -> str:
    switch = net.switch_of_host(roles.servers[0])
    if switch is None:
        raise RuntimeError("victim host is not attached to a switch")
    return switch.name


def _mitigation(
    net: Network, config: ScenarioConfig, shield: bool = False
) -> MitigationManager:
    """The mitigation manager a baseline acts through (SPI builds its own)."""
    settings = config.spi.mitigation
    if shield:
        # Monitor alerts and flow counters name no sources: shielding
        # the victim wholesale is the only mitigation they can drive.
        settings = replace(settings, mode=MitigationMode.SHIELD_VICTIM)
    return MitigationManager(net.controller, settings, net.tracer)


def _with_monitors(defense, config: ScenarioConfig, monitor_switches):
    for switch_name in monitor_switches:
        defense.deploy_monitor(
            switch_name, make_detector(config.detector, **config.detector_params)
        )
    return defense


def _build_spi(net, config, inspector_switch, monitor_switches):
    spi = SpiSystem(net, config.spi)
    spi.deploy_inspector(inspector_switch)
    return _with_monitors(spi, config, monitor_switches)


def _build_monitor_only(net, config, inspector_switch, monitor_switches):
    defense = MonitorOnlyDefense(
        net,
        mitigation=_mitigation(net, config, shield=True),
        monitor_config=config.spi.monitor,
    )
    return _with_monitors(defense, config, monitor_switches)


def _build_tap_dpi(net, config, inspector_switch, monitor_switches, **duty_cycle):
    return TapDpi(
        net.switches[inspector_switch],
        signature_config=config.spi.signature,
        mitigation=_mitigation(net, config),
        **duty_cycle,
    )


def _build_flow_stats(net, config, inspector_switch, monitor_switches):
    return FlowStatsDefense(
        net,
        poll_period_s=1.0,
        pps_threshold=200.0,
        mitigation=_mitigation(net, config, shield=True),
    )


#: Defense name -> ``builder(net, config, inspector_switch,
#: monitor_switches)``; each baseline's settings are the constants here.
DEFENSE_BUILDERS: dict[str, Callable[..., Defense]] = {
    "spi": _build_spi,
    "monitor-only": _build_monitor_only,
    "always-on": _build_tap_dpi,
    # Inspect the first second of every five.
    "sampled": partial(_build_tap_dpi, period_s=5.0, duty_fraction=0.2),
    "flow-stats": _build_flow_stats,
    "none": lambda *_placement: Defense(),
}

DEFENSES = tuple(DEFENSE_BUILDERS)


def build_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Construct one scenario without advancing the simulator.

    Everything ``run_scenario`` does up to (but excluding) the
    ``net.run`` call: topology, workload, defense, probe and invariant
    harness are assembled and the workload's start events are scheduled.
    The returned result is *live*: step it with ``result.net.run(...)``
    (or through a :class:`repro.service.session.Session`) and close it
    with :func:`finish_scenario`.
    """
    config = effective_config(config)
    build = TOPOLOGIES[config.topology]
    extra: dict[str, Any] = {
        "reference": config.reference, "syn_cookies": config.syn_cookies
    }
    if config.link_loss_probability > 0:
        from repro.topology.builder import LinkSpec

        extra["default_link"] = LinkSpec(
            loss_probability=config.link_loss_probability
        )
    net, roles = build(seed=config.seed, **config.topology_params, **extra)
    workload = StandardWorkload(net, roles, config.workload)
    edge = _default_edge(net, roles)
    defense = DEFENSE_BUILDERS[config.defense](
        net,
        config,
        config.inspector_switch or edge,
        config.monitor_switches or (edge,),
    )
    result = ScenarioResult(
        config=config, net=net, roles=roles, workload=workload, defense=defense
    )

    if config.flash_crowd is not None:
        crowd_stacks = [net.stack(name) for name in roles.clients]
        result.flash_crowd = FlashCrowd(
            crowd_stacks,
            net.rng.child("flashcrowd"),
            config.flash_crowd,
            workload.victim_ip,
        )

    if config.probe:
        from repro.harness.probe import ScenarioProbe

        result.probe = ScenarioProbe(net, workload)

    if config.check_invariants:
        from repro.sim.invariants import InvariantHarness

        result.invariants = InvariantHarness.for_network(
            net, monitors=result.monitors(), spi=result.spi
        )
        result.invariants.start()

    workload.start(with_attack=config.with_attack)
    return result


def finish_scenario(result: ScenarioResult) -> ScenarioResult:
    """Stop every component of a stepped scenario and run the final sweep."""
    result.workload.stop()
    if result.probe is not None:
        result.probe.stop()
    result.defense.stop()
    result.net.stop()
    if result.invariants is not None:
        result.invariants.final_check()
    return result


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build, run and wrap one scenario (the batch path).

    With ``config.shards > 1`` the run is handed to the sharded
    coordinator; the returned :class:`ShardedResult` quacks like a
    :class:`ScenarioResult` (it delegates every accessor to the
    coordinator shard's result and keeps every shard's counter slice).
    """
    if config.shards > 1:
        from repro.sim.sharded.coordinator import run_sharded_scenario

        return run_sharded_scenario(config)
    result = build_scenario(config)
    result.net.run(until=result.config.duration_s)
    return finish_scenario(result)

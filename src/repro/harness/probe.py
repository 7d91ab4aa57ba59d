"""Scenario probes: periodic time-series sampling during a run.

Tables answer "how much"; the paper's figures answer "when".  A
``ScenarioProbe`` samples the observable state every tick — victim
half-open backlog occupancy, benign success over the trailing window,
switch CPU utilization, flood drop rate — producing the series a figure
plots (e.g. the E4 service-collapse-and-recovery curve).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.recorder import TimeSeries
from repro.sim.process import PeriodicTask
from repro.topology.builder import Network
from repro.workload.profiles import StandardWorkload


@dataclass
class ProbeSeries:
    """The sampled series, one :class:`TimeSeries` per quantity."""

    half_open: TimeSeries = field(default_factory=lambda: TimeSeries("half_open"))
    backlog_drops: TimeSeries = field(default_factory=lambda: TimeSeries("backlog_drops"))
    success_rate: TimeSeries = field(default_factory=lambda: TimeSeries("success_rate"))
    switch_utilization: TimeSeries = field(
        default_factory=lambda: TimeSeries("switch_utilization")
    )
    rule_drops: TimeSeries = field(default_factory=lambda: TimeSeries("rule_drops"))

    def to_csv(self) -> str:
        """All series joined on sample time (they share a clock)."""
        rows = ["time,half_open,backlog_drops,success_rate,switch_utilization,rule_drops"]
        packed = zip(
            self.half_open.samples(),
            self.backlog_drops.samples(),
            self.success_rate.samples(),
            self.switch_utilization.samples(),
            self.rule_drops.samples(),
        )
        for (t, ho), (_, bd), (_, sr), (_, su), (_, rd) in packed:
            rows.append(f"{t},{ho},{bd},{sr},{su},{rd}")
        return "\n".join(rows) + "\n"


class ScenarioProbe:
    """Samples one workload + network every ``period_s`` seconds."""

    def __init__(
        self,
        net: Network,
        workload: StandardWorkload,
        period_s: float = 0.5,
        success_window_s: float = 2.0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.net = net
        self.workload = workload
        self.period_s = period_s
        self.success_window_s = success_window_s
        self.series = ProbeSeries()
        self._last_busy: dict[str, float] = {}
        self._task = PeriodicTask(net.sim, period_s, self._sample, "probe")
        self._task.start(initial_delay=0.0)

    def stop(self) -> None:
        """Halt sampling."""
        self._task.stop()

    def _sample(self) -> None:
        now = self.net.sim.now
        server = next(iter(self.workload.servers.values()))
        self.series.half_open.append(now, float(server.half_open))
        self.series.backlog_drops.append(now, float(server.backlog_drops))
        window_start = max(0.0, now - self.success_window_s)
        self.series.success_rate.append(
            now, self.workload.client_success_rate(window_start, now)
        )
        # Busy seconds charged since the previous sample, per switch, over
        # the sampling period (the first sample covers what came before).
        utilizations = []
        for name, sw in self.net.switches.items():
            busy = sw.workload.total_busy
            utilizations.append((busy - self._last_busy.get(name, 0.0)) / self.period_s)
            self._last_busy[name] = busy
        self.series.switch_utilization.append(
            now, sum(utilizations) / len(utilizations) if utilizations else 0.0
        )
        self.series.rule_drops.append(
            now,
            float(
                sum(
                    sw.counters.packets_dropped_by_rule
                    for sw in self.net.switches.values()
                )
            ),
        )

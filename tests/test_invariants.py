"""Unit tests for the runtime invariant-checking subsystem.

Two angles: clean scenarios must sweep violation-free end to end, and
each checker must actually fire when its subsystem's bookkeeping is
deliberately corrupted — a checker that can't detect planted corruption
is a no-op, not a safety net.
"""

from __future__ import annotations

import pytest

from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.sim.invariants import (
    BudgetDpiChecker,
    CheckedConnection,
    FlowTableCoherenceChecker,
    InvariantHarness,
    InvariantViolation,
    LinkConservationChecker,
    MonitorAccountingChecker,
    TcpLegalityChecker,
    LEGAL_TRANSITIONS,
)
from repro.tcp.socket import Connection
from repro.tcp.states import TcpState
from repro.topology import single_switch
from repro.workload.profiles import WorkloadConfig


def small_scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        topology="single",
        topology_params={"n_clients": 2, "n_attackers": 1},
        duration_s=6.0,
        workload=WorkloadConfig(attack_rate_pps=150.0, attack_start_s=2.0),
        check_invariants=True,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def run_to_midpoint():
    """A small network with real traffic, stopped mid-run for tampering."""
    net, roles = single_switch(n_clients=2, n_attackers=1)
    from repro.workload import StandardWorkload

    workload = StandardWorkload(
        net, roles, WorkloadConfig(attack_rate_pps=100.0, attack_start_s=1.0)
    )
    workload.start()
    net.run(until=3.0)
    return net, roles


class TestViolationStructure:
    def test_carries_context_and_formats_it(self):
        violation = InvariantViolation(
            "link-conservation",
            "offered-frame leak",
            sim_time=12.5,
            node="s1:3->h2",
            trace=("tx=10 sent=9", "queued=0"),
        )
        assert isinstance(violation, AssertionError)
        assert violation.invariant == "link-conservation"
        assert violation.sim_time == 12.5
        assert violation.node == "s1:3->h2"
        assert violation.trace == ("tx=10 sent=9", "queued=0")
        text = str(violation)
        assert "[link-conservation]" in text
        assert "t=12.500000" in text
        assert "s1:3->h2" in text
        assert "tx=10 sent=9" in text


class TestCleanRuns:
    def test_scenario_with_invariants_passes_and_sweeps(self):
        result = run_scenario(small_scenario())
        assert result.invariants is not None
        # Periodic sweeps (every 0.5s over 6s) plus the final one.
        assert result.invariants.checks_run >= 10
        assert len(result.detection_times()) >= 1

    def test_disabled_run_attaches_nothing(self):
        result = run_scenario(small_scenario(check_invariants=False))
        assert result.invariants is None
        for stack in result.net.stacks.values():
            # No per-stack override: the class attribute is untouched.
            assert "connection_class" not in vars(stack)
            assert stack.connection_class is Connection

    def test_reference_engine_run_also_clean(self):
        result = run_scenario(small_scenario(reference=True, duration_s=4.0))
        assert result.invariants is not None
        assert result.invariants.checks_run >= 6


class TestLinkConservation:
    def test_clean_network_passes(self):
        net, _ = run_to_midpoint()
        LinkConservationChecker(net).check(net.sim.now)

    def test_detects_lost_frame(self):
        net, _ = run_to_midpoint()
        checker = LinkConservationChecker(net)
        end = net.links[0].end_for(net.links[0].a)
        end.stats.packets_delivered -= 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(net.sim.now)
        assert excinfo.value.invariant == "link-conservation"
        assert excinfo.value.trace  # counterexample snapshot attached

    def test_detects_phantom_transmit(self):
        net, _ = run_to_midpoint()
        checker = LinkConservationChecker(net)
        iface = net.links[0].a
        iface.tx_packets += 3
        with pytest.raises(InvariantViolation, match="offered-frame leak"):
            checker.check(net.sim.now)


class TestFlowTableCoherence:
    def test_clean_tables_pass(self):
        net, _ = run_to_midpoint()
        FlowTableCoherenceChecker(net).check(net.sim.now)

    def test_detects_stale_cached_verdict(self):
        net, _ = run_to_midpoint()
        table = net.switches["s1"].table
        snapshot = table.microflow_snapshot()
        assert snapshot, "scenario traffic should have populated the cache"
        key, _verdict = snapshot[0]
        # Plant a verdict the linear scan cannot produce.
        from repro.openflow.actions import Output
        from repro.openflow.flowtable import FlowEntry
        from repro.openflow.match import Match

        rogue = FlowEntry(Match(), priority=1, actions=(Output(99),))
        table._microflow[key] = rogue
        checker = FlowTableCoherenceChecker(net)
        with pytest.raises(InvariantViolation, match="diverges from fresh"):
            checker.check(net.sim.now)

    def test_detects_counter_mismatch(self):
        net, _ = run_to_midpoint()
        table = net.switches["s1"].table
        table.hits += 1
        with pytest.raises(InvariantViolation, match="tie out"):
            FlowTableCoherenceChecker(net).check(net.sim.now)


class TestTcpLegality:
    def test_transition_table_is_closed_over_states(self):
        for source, targets in LEGAL_TRANSITIONS.items():
            assert source is None or isinstance(source, TcpState)
            for target in targets:
                assert isinstance(target, TcpState)

    def test_checker_installs_checked_connections(self):
        net, _ = run_to_midpoint()
        TcpLegalityChecker(net)
        stack = next(iter(net.stacks.values()))
        conn = stack.create_connection(40000, "10.0.0.99", 80)
        assert isinstance(conn, CheckedConnection)
        stack.forget(conn)

    def test_legal_lifecycle_passes(self):
        net, _ = run_to_midpoint()
        TcpLegalityChecker(net)
        stack = next(iter(net.stacks.values()))
        conn = stack.create_connection(40001, "10.0.0.99", 80)
        conn.state = TcpState.SYN_SENT
        conn.state = TcpState.ESTABLISHED
        conn.state = TcpState.FIN_WAIT_1
        conn.state = TcpState.FIN_WAIT_2
        conn.state = TcpState.TIME_WAIT
        conn.state = TcpState.CLOSED
        stack.forget(conn)

    def test_illegal_transition_raises_with_history(self):
        net, _ = run_to_midpoint()
        TcpLegalityChecker(net)
        stack = next(iter(net.stacks.values()))
        conn = stack.create_connection(40002, "10.0.0.99", 80)
        conn.state = TcpState.SYN_SENT
        with pytest.raises(InvariantViolation) as excinfo:
            conn.state = TcpState.TIME_WAIT
        violation = excinfo.value
        assert violation.invariant == "tcp-legality"
        assert "syn-sent -> time-wait" in str(violation).lower().replace("_", "-") \
            or "SYN_SENT" in str(violation)
        assert any("illegal" in line for line in violation.trace)
        stack.forget(conn)

    def test_sweep_detects_terminal_connection_leak(self):
        net, _ = run_to_midpoint()
        checker = TcpLegalityChecker(net)
        stack = next(iter(net.stacks.values()))
        conn = stack.create_connection(40003, "10.0.0.99", 80)
        conn.state = TcpState.SYN_SENT
        conn.state = TcpState.CLOSED
        # Still registered in the demux table: a leak the sweep must flag.
        with pytest.raises(InvariantViolation, match="terminal connection"):
            checker.check(net.sim.now)
        stack.forget(conn)


class TestMonitorAndBudget:
    def _spi_result(self):
        return run_scenario(small_scenario(check_invariants=False))

    def test_monitor_tamper_detected(self):
        result = self._spi_result()
        monitors = list(result.spi.monitors.values())
        checker = MonitorAccountingChecker(monitors)
        # The monitors were tapped before any traffic flowed, so rewinding
        # the baseline to zero reproduces in-run construction; the clean
        # retrospective check then passes...
        checker._baseline = {m.name: 0 for m in monitors}
        checker.check(result.net.sim.now)
        # ...until the monitor's own count is corrupted.
        monitors[0].packets_seen += 7
        with pytest.raises(InvariantViolation, match="tap leak"):
            checker.check(result.net.sim.now)

    def test_budget_overcommit_detected(self):
        result = self._spi_result()
        checker = BudgetDpiChecker(result.spi)
        checker.check(result.net.sim.now)
        budget = result.spi.budget
        for slot in range(budget.config.max_concurrent + 1):
            budget._active.add(f"rogue-{slot}")
        with pytest.raises(InvariantViolation, match="slot budget"):
            checker.check(result.net.sim.now)

    def test_dpi_parse_leak_detected(self):
        result = self._spi_result()
        checker = BudgetDpiChecker(result.spi)
        result.spi.dpi.stats.frames_received += 1
        with pytest.raises(InvariantViolation, match="parse accounting"):
            checker.check(result.net.sim.now)


class TestHarness:
    def test_for_network_wires_standard_checkers(self):
        net, _ = run_to_midpoint()
        harness = InvariantHarness.for_network(net)
        names = {type(c).__name__ for c in harness.checkers}
        assert names == {
            "LinkConservationChecker",
            "FlowTableCoherenceChecker",
            "TcpLegalityChecker",
            "SchedulerAccountingChecker",
        }
        harness.check_now()
        assert harness.checks_run == 1
        harness.final_check()
        assert harness.checks_run == 2

    def test_rejects_nonpositive_period(self):
        net, _ = run_to_midpoint()
        with pytest.raises(ValueError):
            InvariantHarness(net, period_s=0.0)

"""Span arithmetic, patch hygiene, and that tracing changes no simulated fact."""

from __future__ import annotations

import functools

from benchmarks.ledger import trace
from repro.harness.fuzzer import fingerprint_json
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.sim.process import Timer


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_child_cover():
    clock = FakeClock()
    recorder = trace.SpanRecorder(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf_span = recorder.span(leaf, "net", "leaf")

    def middle():
        clock.now += 1.0
        leaf_span()
        leaf_span()
        clock.now += 0.5

    middle_span = recorder.span(middle, "switch", "middle")

    def root():
        clock.now += 0.25
        middle_span()
        leaf_span()

    recorder.span(root, "harness", "root")()

    stats = recorder.stats
    assert stats[("net", "leaf")].count == 3
    assert stats[("net", "leaf")].total_s == 6.0
    assert stats[("net", "leaf")].self_s == 6.0
    assert stats[("switch", "middle")].total_s == 5.5
    assert stats[("switch", "middle")].self_s == 1.5
    assert stats[("harness", "root")].total_s == 7.75
    assert stats[("harness", "root")].self_s == 0.25
    # Self times under one root add up to the root's duration.
    assert sum(s.self_s for s in stats.values()) == 7.75
    # Raw spans close innermost first and name their parent.
    by_id = {span[0]: span for span in recorder.raw}
    assert by_id[0][1] == -1 and by_id[1][1] == 0 and by_id[2][1] == 1
    assert [span[3] for span in recorder.raw] == [
        "leaf", "leaf", "middle", "leaf", "root"
    ]


def test_a_raising_span_still_closes():
    clock = FakeClock()
    recorder = trace.SpanRecorder(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    outer = recorder.span(lambda: recorder.span(boom, "net", "boom")(), "sim", "outer")
    try:
        outer()
    except ValueError:
        pass
    assert recorder.stats[("net", "boom")].count == 1
    assert recorder.stats[("sim", "outer")].self_s == 0.0
    recorder.reset()  # raises if a span were left open


def test_event_owner_resolves_layers_and_timer_shims():
    from repro.net.link import LinkEnd
    from repro.sim.engine import Simulator

    assert trace.event_owner(LinkEnd._tx_done) == ("net", "LinkEnd._tx_done")
    assert trace.event_owner(functools.partial(LinkEnd._tx_done, None))[0] == "net"
    timer = Timer(Simulator(), LinkEnd._deliver_next)
    assert trace.event_owner(timer._fire) == ("net", "LinkEnd._deliver_next")
    assert trace.event_owner(print)[0] == "other"


def test_install_then_uninstall_leaves_every_attribute_identical():
    before = {}
    for module_name, dotted, _layer in trace.WRAPS:
        holder, attr = trace._resolve(module_name, dotted)
        before[(module_name, dotted)] = holder.__dict__[attr]
    from repro import kernels
    from repro.sim.engine import Simulator

    schedulers = {name: Simulator.__dict__[name] for name in trace._SCHEDULERS}
    prefer = kernels.prefer_numpy

    undo = trace.install(trace.SpanRecorder())
    holder, attr = trace._resolve("repro.net.link", "LinkEnd.send")
    assert holder.__dict__[attr] is not before[("repro.net.link", "LinkEnd.send")]
    trace.uninstall(undo)

    for (module_name, dotted), original in before.items():
        holder, attr = trace._resolve(module_name, dotted)
        assert holder.__dict__[attr] is original, dotted
    for name, original in schedulers.items():
        assert Simulator.__dict__[name] is original
    assert kernels.prefer_numpy is prefer


def test_traced_run_matches_untraced_and_owns_every_event():
    config = ScenarioConfig(duration_s=3.0)
    plain = run_scenario(config)

    recorder = trace.SpanRecorder()
    undo = trace.install(recorder)
    try:
        traced = recorder.span(run_scenario, "harness", "timed_call")(config)
    finally:
        trace.uninstall(undo)

    assert fingerprint_json(traced) == fingerprint_json(plain)
    assert traced.net.sim.events_executed == plain.net.sim.events_executed
    layers = recorder.layers()
    assert sum(row["events"] for row in layers.values()) == plain.net.sim.events_executed
    assert set(layers) <= {
        "sim", "net", "tcp", "switch", "openflow", "controller", "workload",
        "monitor", "kernels", "inspection", "core", "mitigation", "metrics",
        "topology", "harness", "sharded",
    }
    root = recorder.stats[("harness", "timed_call")]
    total_self = sum(row["self_s"] for row in layers.values())
    assert abs(total_self - root.total_s) < 1e-6 * max(1.0, root.total_s)

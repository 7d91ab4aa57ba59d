"""Outside-in span tracing for the ledger's traced pass.

Nothing under ``src/`` knows about this module.  :func:`install` swaps
the layers' public entry points for span-recording wrappers by
``setattr`` on their classes/modules, and :func:`uninstall` puts the
originals back:

* ``Simulator.schedule*`` wrap each scheduled callback so that, when the
  engine runs it, it becomes the **root span of that event**, owned by
  the layer of the callable's module (``repro.<layer>.…``;
  ``repro.sim.process`` timer shims resolve to the callback they carry).
  This is "tag at schedule time", done from outside.
* The calls that cross layers inside an event (:data:`WRAPS`) become
  child spans.

A span is ``(id, parent id, layer, name, start, end)``.  A span's *self
time* is its duration minus the part its child spans cover, so the self
times of everything under one root add up to the root's duration.
Spans are aggregated per ``(layer, name)`` as they close; the first
``raw_limit`` are also kept raw for the trace file.

The wrappers' own cost lands in the self time of the span that made the
call, which is why the ledger reports ``trace.overhead_ratio`` next to
every per-layer share.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable

#: ``(module, dotted attribute, layer)`` for every wrapped entry point.
#: The layer is explicit because a few entry points are accounted to a
#: layer other than the package they live in (``Tracer.emit`` is the
#: metrics plane; the boundary codec and worker pipes are the sharded
#: protocol).
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Simulator.run", "sim"),
    ("repro.net.link", "LinkEnd.send", "net"),
    ("repro.net.host", "Host.on_packet", "net"),
    ("repro.tcp.stack", "TcpStack._on_ip_packet", "tcp"),
    ("repro.switch.ovs", "OpenFlowSwitch.on_packet", "switch"),
    ("repro.switch.ovs", "OpenFlowSwitch.handle_message", "switch"),
    ("repro.openflow.flowtable", "FlowTable.lookup", "openflow"),
    ("repro.openflow.flowtable", "FlowTable.install", "openflow"),
    ("repro.openflow.flowtable", "FlowTable.expire", "openflow"),
    ("repro.openflow.channel", "ControlChannel.to_controller", "openflow"),
    ("repro.openflow.channel", "ControlChannel.to_switch", "openflow"),
    ("repro.controller.base", "Controller.handle_message", "controller"),
    ("repro.monitor.features", "FeatureExtractor.observe", "monitor"),
    ("repro.monitor.features", "FeatureExtractor.close_window", "monitor"),
    ("repro.kernels", "classify_flags", "kernels"),
    ("repro.kernels", "cms_bulk_add", "kernels"),
    ("repro.kernels", "hll_bulk_max", "kernels"),
    ("repro.kernels", "uniform_type", "kernels"),
    ("repro.kernels", "f64_pack", "kernels"),
    ("repro.kernels", "i64_pack", "kernels"),
    ("repro.inspection.dpi", "DpiEngine._on_frame", "inspection"),
    ("repro.core.correlator", "Correlator.open_case", "core"),
    ("repro.core.correlator", "Correlator.begin_inspection", "core"),
    ("repro.core.budget", "InspectionBudget.request", "core"),
    ("repro.core.budget", "InspectionBudget.release", "core"),
    ("repro.mitigation.manager", "MitigationManager.mitigate", "mitigation"),
    ("repro.mitigation.manager", "MitigationManager.lift", "mitigation"),
    ("repro.mitigation.manager", "MitigationManager.block_source", "mitigation"),
    ("repro.mitigation.manager", "MitigationManager.unblock_source", "mitigation"),
    ("repro.sim.trace", "Tracer.emit", "metrics"),
    ("repro.harness.scenario", "build_scenario", "topology"),
    # The shard runtime imported the name before anything was patched.
    ("repro.sim.sharded.runtime", "build_scenario", "topology"),
    ("repro.harness.transport", "pack", "harness"),
    ("repro.harness.transport", "unpack", "harness"),
    ("repro.harness.transport", "shm_put", "harness"),
    ("repro.harness.transport", "shm_get", "harness"),
    ("repro.sim.sharded.codec", "encode_batch", "sharded"),
    ("repro.sim.sharded.codec", "decode_batch", "sharded"),
    ("repro.harness.shards", "ShardWorker.send", "sharded"),
    ("repro.harness.shards", "ShardWorker.recv", "sharded"),
)

#: Spans whose individual durations are kept (few calls, and the ledger
#: splits them by call order).
KEEP_DURATIONS = frozenset({("monitor", "FeatureExtractor.close_window")})

_SCHEDULERS = ("schedule", "schedule_at", "schedule_many", "schedule_at_many")
_EVENT = "event "


class SpanStat:
    """Aggregate of every closed span with one ``(layer, name)``."""

    __slots__ = ("layer", "name", "count", "total_s", "self_s", "durations")

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] | None = (
            [] if (layer, name) in KEEP_DURATIONS else None
        )


class SpanRecorder:
    """In-memory span store: an open-span stack plus per-name aggregates."""

    def __init__(
        self, raw_limit: int = 100_000, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.raw_limit = raw_limit
        self.clock = clock
        self.raw: list[tuple[int, int, str, str, float, float]] = []
        self.stats: dict[tuple[str, str], SpanStat] = {}
        # One frame per open span: [seconds covered by children, span id].
        self._stack: list[list] = []
        self._next_id = 0
        # Counting wrappers (not spans): name -> [calls, truthy returns].
        self.tallies: dict[str, list[int]] = {}

    # -------------------------------------------------------------- spans

    def stat(self, layer: str, name: str) -> SpanStat:
        key = (layer, name)
        found = self.stats.get(key)
        if found is None:
            found = self.stats[key] = SpanStat(layer, name)
        return found

    def span(
        self, fn: Callable, layer: str, name: str, keep_identity: bool = True
    ) -> Callable:
        """``fn`` wrapped so that every call is one span.

        ``keep_identity`` copies ``fn``'s module and qualified name onto
        the wrapper (so :func:`event_owner` still sees the real owner of
        a patched method); per-event wrappers skip that cost.
        """
        stat = self.stat(layer, name)
        stack = self._stack
        raw = self.raw
        raw_limit = self.raw_limit
        clock = self.clock
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.count += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if stat.durations is not None:
                    stat.durations.append(duration)
                parent = -1
                if stack:
                    top = stack[-1]
                    top[0] += duration
                    parent = top[1]
                if span_id < raw_limit:
                    raw.append((span_id, parent, layer, name, start, end))

        return functools.wraps(fn)(traced) if keep_identity else traced

    def tally(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped to count its calls and its truthy returns."""
        counts = self.tallies.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            value = fn(*args, **kwargs)
            counts[0] += 1
            if value:
                counts[1] += 1
            return value

        return counted

    # ------------------------------------------------------------- events

    def event(self, fn: Callable[[], None], label: str) -> Callable[[], None]:
        """A scheduled callback wrapped as the root span of its event."""
        layer, name = event_owner(fn)
        return self.span(fn, layer, _EVENT + (label or name), keep_identity=False)

    # ------------------------------------------------------------ reading

    def reset(self) -> dict[tuple[str, str], float]:
        """Zero every aggregate; returns the total seconds collected so far.

        The stat objects are zeroed in place because live wrappers keep
        feeding the ones they were created with.  Only valid at a phase
        boundary, with no span open.
        """
        if self._stack:
            raise RuntimeError("cannot reset the recorder inside an open span")
        collected = {key: stat.total_s for key, stat in self.stats.items()}
        for stat in self.stats.values():
            stat.count = 0
            stat.total_s = stat.self_s = 0.0
            if stat.durations is not None:
                stat.durations.clear()
        self.raw.clear()
        self._next_id = 0
        return collected

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: root events owned and self seconds."""
        table: dict[str, dict[str, float]] = {}
        for stat in self.stats.values():
            row = table.setdefault(stat.layer, {"events": 0, "self_s": 0.0})
            row["self_s"] += stat.self_s
            if stat.name.startswith(_EVENT):
                row["events"] += stat.count
        return table

    def total(self, layer: str, name: str, field: str = "total_s") -> float:
        stat = self.stats.get((layer, name))
        return getattr(stat, field) if stat is not None else 0

    def dump(self) -> dict[str, Any]:
        """The trace file: aggregates plus the first raw spans."""
        return {
            "aggregates": [
                {
                    "layer": s.layer, "name": s.name, "count": s.count,
                    "total_s": s.total_s, "self_s": s.self_s,
                }
                for s in sorted(
                    self.stats.values(), key=lambda s: -s.self_s
                )
            ],
            "raw_fields": ["id", "parent", "layer", "name", "start", "end"],
            "raw": self.raw,
        }


def layer_of(module: str) -> str:
    """``repro.<layer>[.…]`` -> ``<layer>``; anything else -> ``other``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def event_owner(fn: Callable) -> tuple[str, str]:
    """The layer that owns a scheduled callable, and a name for it."""
    target = fn
    while True:
        if isinstance(target, functools.partial):
            target = target.func
            continue
        module = getattr(target, "__module__", None) or type(target).__module__
        carried = getattr(getattr(target, "__self__", None), "_fn", None)
        if module == "repro.sim.process" and carried is not None:
            target = carried
            continue
        name = getattr(target, "__qualname__", type(target).__qualname__)
        return layer_of(module), name


# ---------------------------------------------------------------- patching


def _resolve(module_name: str, dotted: str) -> tuple[Any, str]:
    """The object holding the attribute named by ``dotted``, and its name."""
    holder: Any = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        holder = getattr(holder, part)
    return holder, attr


def install(recorder: SpanRecorder) -> list[tuple[Any, str, Any]]:
    """Patch every entry point; returns the undo list for :func:`uninstall`.

    Must run before the scenario is built: components capture bound
    methods (sniffers, protocol handlers) at construction time.
    """
    undo: list[tuple[Any, str, Any]] = []

    def patch(holder: Any, attr: str, replacement: Any) -> None:
        undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, replacement)

    for module_name, dotted, layer in WRAPS:
        holder, attr = _resolve(module_name, dotted)
        patch(holder, attr, recorder.span(holder.__dict__[attr], layer, dotted))

    from repro import kernels
    from repro.sim.engine import Simulator

    patch(kernels, "prefer_numpy", recorder.tally(kernels.prefer_numpy, "prefer_numpy"))

    event = recorder.event

    # Only the engine's own push is the ``sim`` span; wrapping the
    # callback is tracer work and stays in the caller's self time.
    def one(push: Callable) -> Callable:
        @functools.wraps(push)
        def schedule(self, when, fn, label=""):
            return push(self, when, event(fn, label), label)

        return schedule

    def many(push: Callable) -> Callable:
        @functools.wraps(push)
        def schedule(self, items):
            return push(
                self, [(when, event(fn, label), label) for when, fn, label in items]
            )

        return schedule

    for attr in _SCHEDULERS:
        push = recorder.span(Simulator.__dict__[attr], "sim", f"Simulator.{attr}")
        patch(Simulator, attr, (many if attr.endswith("many") else one)(push))
    return undo


def uninstall(undo: list[tuple[Any, str, Any]]) -> None:
    """Restore every attribute :func:`install` replaced."""
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)
    undo.clear()

"""The one place a finished run's counters are reduced to plain data.

Every differential oracle (``repro check``, the sharded parity tests,
the perf ledger's digests) compares the JSON of :func:`fingerprint`, so
there is exactly one assembly of it, over *slices*:

* :func:`owned_rows` reads the distributed counters one process
  simulated for real — its switches' and stacks' rows, every link
  direction, its clients' attempt ledgers, its attackers' send counts,
  its share of the flash crowd.  A single-process run is one slice
  owning everything; a sharded run is one slice per shard
  (:meth:`ShardRuntime.report` is a single ``owned_rows`` call).
* :func:`fingerprint` sums the slices and adds the centralized state —
  detections, alerts, SPI/DPI stats, trace categories, invariant sweeps,
  final time — which lives on the result itself (on a sharded run, the
  coordinator's: every trace emitter is a coordinator-side subsystem).

Anything added to a row here is automatically covered by every oracle.
The fingerprint covers every counter the metrics layer reads and
excludes only what legitimately differs between strategies: the raw
event count (burst coalescing replaces N per-arrival heap entries with
batch wake-ups) and the per-switch numbers that are reported but never
compared — ``microflow_*`` (cache off on the reference twin), CPU busy
time, monitor state bytes.  The latter ride along in each slice's
``unpinned`` rows so :func:`repro.harness.record.run_record` can report
them topology-wide; they never enter the fingerprint.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Container, Optional, Sequence

__all__ = [
    "owned_rows", "slices_of", "graft_workload", "fingerprint", "fingerprint_json",
]

#: LinkStats attributes a link row reports.  ``in_flight`` and
#: ``unrouted`` are deliberately absent: a packet exported across a
#: shard boundary stays "in flight" on the transmitting replica forever
#: (the receiving shard owns its delivery), so those two counters are
#: the only ones that legitimately differ between sharded and
#: single-process runs.
_LINK_FIELDS = (
    ("sent", "packets_sent"),
    ("bytes", "bytes_sent"),
    ("queue_drops", "packets_dropped"),
    ("delivered", "packets_delivered"),
    ("lost", "packets_lost"),
)


def owned_rows(
    result, switches: Container[str], hosts: Container[str]
) -> dict[str, Any]:
    """The slice of ``result``'s distributed counters that ``switches``
    and ``hosts`` (names) account for; see the module docstring.

    Link rows are *not* filtered by ownership: a cut link's counters are
    split across the two owning shards (the tx side counts
    sent/bytes/drops/lost, the rx side counts delivered) and a foreign
    link's replica saw no traffic, so summing every direction over all
    slices gives the single-process row.
    """
    net = result.net
    workload = result.workload
    flash = result.flash_crowd
    monitor_peak: Counter = Counter()
    for monitor in result.monitors():
        name = monitor.switch.name
        monitor_peak[name] = max(
            monitor_peak[name], monitor.extractor.peak_state_bytes
        )
    switch_rows: dict[str, Any] = {}
    unpinned: dict[str, Any] = {}
    for name, switch in net.switches.items():
        if name not in switches:
            continue
        stats = switch.table.stats()
        switch_rows[name] = {
            **vars(switch.counters),
            "table_entries": stats.entry_count,
            "lookups": stats.lookups,
            "hits": stats.hits,
            "misses": stats.misses,
        }
        unpinned[name] = {
            "microflow_hits": stats.microflow_hits,
            "busy_s": switch.workload.total_busy,
            "mirror_share": switch.workload.inspection_share(),
            "monitor_peak_bytes": monitor_peak[name],
        }
    links = {}
    for link in net.links:
        for iface in (link.a, link.b):
            stats = link.stats_for(iface)
            links[f"{iface.node.name}:{iface.port_no}"] = {
                key: getattr(stats, attr) for key, attr in _LINK_FIELDS
            }
    return {
        "switches": switch_rows,
        "links": links,
        "stacks": {
            name: dict(vars(stack.counters))
            for name, stack in net.stacks.items()
            if name in hosts
        },
        # Whole attempt ledgers, so the coordinator can graft them onto
        # its replicas and answer *any* phase-windowed query.
        "clients": {
            name: client.stats
            for name, client in workload.clients.items()
            if name in hosts
        },
        "attackers": {
            name: attacker.packets_sent
            for name, attacker in workload.attackers.items()
            if name in hosts
        },
        "flash_crowd": None if flash is None else (
            flash.connections_started,
            flash.connections_completed,
            flash.connections_failed,
        ),
        "unpinned": unpinned,
    }


def slices_of(result) -> Sequence[dict[str, Any]]:
    """What the run itself recorded: a sharded result's per-shard
    ``slices``, else the one slice owning everything."""
    net = result.net
    return getattr(result, "slices", None) or [
        owned_rows(result, net.switches, net.stacks)
    ]


def graft_workload(result, slices: Sequence[dict[str, Any]]) -> None:
    """Graft *other* processes' workload ledgers onto ``result``'s replicas.

    Client attempt ledgers and attacker send counts are whole-object
    state, so after grafting, *every* windowed accessor on the
    coordinator's result — ``success_rate(start, end)``,
    ``mean_latency``, ``attack_packets_sent`` — answers for the whole
    topology.  Flash-crowd counters are summed (each spawn is counted by
    exactly one shard), which is why the caller passes the workers'
    slices only, never ``result``'s own.
    """
    workload = result.workload
    for piece in slices:
        for name, stats in piece["clients"].items():
            workload.clients[name].stats = stats
        for name, sent in piece["attackers"].items():
            workload.attackers[name].packets_sent = sent
        if piece["flash_crowd"] is not None and result.flash_crowd is not None:
            started, completed, failed = piece["flash_crowd"]
            result.flash_crowd.connections_started += started
            result.flash_crowd.connections_completed += completed
            result.flash_crowd.connections_failed += failed


def fingerprint(
    result, slices: Optional[Sequence[dict[str, Any]]] = None
) -> dict[str, Any]:
    """Every strategy-invariant metric of a finished run, as plain data.

    ``slices`` holds one :func:`owned_rows` dict per process that
    simulated part of the topology (any order; each switch and host in
    exactly one), with the foreign ones already grafted onto ``result``
    by :func:`graft_workload`.  The default is :func:`slices_of`.
    """
    net = result.net
    if slices is None:
        slices = slices_of(result)
    switches: dict[str, Any] = {}
    stacks: dict[str, Any] = {}
    links: dict[str, Counter] = {}
    for piece in slices:
        switches.update(piece["switches"])
        stacks.update(piece["stacks"])
        for key, row in piece["links"].items():
            links.setdefault(key, Counter()).update(row)

    # Datapath-wide ratios come from the summed rows: a shard's replicas
    # of foreign switches saw no traffic.
    if result.tap_dpi is not None:
        inspected_fraction = result.tap_dpi.stats.inspected_fraction
    elif result.spi is not None:
        packets_in = sum(row["packets_in"] for row in switches.values())
        mirrored = sum(row["packets_mirrored"] for row in switches.values())
        inspected_fraction = mirrored / packets_in if packets_in else 0.0
    else:
        inspected_fraction = 0.0

    data: dict[str, Any] = {
        "detections": result.detection_times(),
        "alerts": result.alert_times(),
        # Exact post-graft: the workload accessors see every shard.
        "success_rate": result.success_rate(),
        "mean_latency": result.mean_latency(),
        "attack_packets": result.workload.attack_packets_sent(),
        "inspected_fraction": inspected_fraction,
        "buffer_evictions": sum(
            row["buffer_evictions"] for row in switches.values()
        ),
        "switches": dict(sorted(switches.items())),
        "links": [{"from": key, **links[key]} for key in sorted(links)],
        "stacks": dict(sorted(stacks.items())),
        "trace_categories": dict(
            sorted(Counter(e.category for e in net.tracer.entries()).items())
        ),
        "final_time": net.sim.now,
        "invariant_sweeps": (
            result.invariants.checks_run if result.invariants else 0
        ),
    }
    if result.spi is not None:
        data["spi"] = dict(vars(result.spi.stats))
        if result.spi.dpi is not None:
            data["dpi"] = dict(vars(result.spi.dpi.stats))
    if result.tap_dpi is not None:
        data["tap_dpi"] = dict(vars(result.tap_dpi.stats))
    return data


def fingerprint_json(result) -> str:
    """Canonical (sorted, byte-comparable) form of :func:`fingerprint`."""
    return json.dumps(fingerprint(result), sort_keys=True)

"""One shard of a sharded simulation: replica build + boundary hooks.

Every shard — the coordinator (shard 0) and each worker — constructs
the *entire* scenario with :func:`build_scenario`.  The build is a pure
function of the config (every component draws from named
``SeededRng.child`` streams), so all replicas agree byte-for-byte on
topology, addresses, schedules and rng states.  The runtime then:

* computes the :func:`~repro.topology.partition.partition_network`
  assignment locally (pure, so all shards agree);
* *deactivates* everything the shard does not own — foreign switches'
  background tasks, foreign clients/attackers, foreign monitors, and on
  workers the coordinator-only defenses (flow-stats poller, tap DPI)
  that live with the controller on the coordinator;
* installs boundary stubs on the three cross-shard surfaces: cut-link
  ends export serialized frames, remote switches' control channels
  export OpenFlow messages (switch->controller toward the coordinator,
  controller->switch toward the owner), and the alert bus exports every
  publish to the coordinator, where all subscribers live;
* runs its engine epoch by epoch under the coordinator's conservative
  lookahead barrier (:mod:`repro.sim.sharded.coordinator`).

The deactivation list is exactly what keeps a replica's event stream a
*projection* of the single-process run: stopped components consume no
events and no randomness (each entity draws from its own rng child, so
skipping a foreign entity's events leaves owned streams untouched).
"""

from __future__ import annotations

import math
from typing import Any

from repro.harness.fingerprint import owned_rows
from repro.harness.scenario import (
    ScenarioConfig,
    ScenarioResult,
    _default_edge,
    build_scenario,
    finish_scenario,
)
from repro.sim.sharded.codec import (
    KIND_ALERT,
    KIND_CHAN_DOWN,
    KIND_CHAN_UP,
    KIND_LINK,
    decode_message,
    decode_packet,
    encode_message,
    encode_packet,
    sort_key,
)
from repro.topology.partition import TopologyPartition, partition_network

__all__ = ["ShardRuntime"]


class ShardRuntime:
    """A full scenario replica restricted to one shard's domain."""

    def __init__(self, config: ScenarioConfig, shard: int) -> None:
        self.config = config
        self.shard = shard
        self.n_shards = config.shards
        self.result: ScenarioResult = build_scenario(config)
        net = self.result.net
        root = config.inspector_switch or _default_edge(net, self.result.roles)
        self.partition: TopologyPartition = partition_network(
            net, root, self.n_shards, config.seed
        )
        self.own_switches = frozenset(self.partition.switches_in(shard))
        self.own_hosts = frozenset(self.partition.hosts_in(shard))
        #: Boundary records emitted during the current epoch.
        self.outbox: list[tuple] = []
        self._emit_seq = 0
        # (link index, direction) -> receiving-side LinkEnd replica.
        self._cut_ends: dict[tuple[int, int], Any] = {}
        self._buses: list[Any] = []
        self._monitor_rank: dict[str, int] = {}
        self._install_boundary_stubs()
        self._deactivate_foreign()
        self.lookahead = self._lookahead()

    # ------------------------------------------------------------ wiring

    def _emit(
        self, t_arr: float, kind: int, entity: int, dest: int, payload: Any
    ) -> None:
        emit_time = self.result.net.sim.now
        self.outbox.append(
            (t_arr, emit_time, kind, entity, self._emit_seq, dest, payload)
        )
        self._emit_seq += 1

    def _install_boundary_stubs(self) -> None:
        net = self.result.net
        part = self.partition
        domain = part.switch_domain
        # Cut links: the owner of the transmitting node exports frames
        # that finish serializing; the owner of the receiving node keeps
        # the end registered for import_deliver.
        for index in part.cut_links:
            link = net.links[index]
            for direction, (tx, rx) in enumerate(
                ((link.a, link.b), (link.b, link.a))
            ):
                tx_dom = domain[tx.node.name]
                rx_dom = domain[rx.node.name]
                end = link.end_for(tx)
                if tx_dom == self.shard:
                    end.export = self._make_link_export(
                        link.delay_s, index, direction, rx_dom
                    )
                if rx_dom == self.shard:
                    self._cut_ends[(index, direction)] = end
        # Control channels of remote switches: the switch's owner
        # exports switch->controller traffic toward the coordinator; the
        # coordinator exports controller->switch traffic toward the
        # owner.  Channels of coordinator-owned switches stay local.
        for name, channel in net.channels.items():
            owner = domain[name]
            if owner == 0:
                continue
            dpid = net.switches[name].datapath_id
            if self.shard == owner:
                channel.export_up = self._make_channel_export(
                    KIND_CHAN_UP, name, dpid, dest=0
                )
            if self.shard == 0:
                channel.export_down = self._make_channel_export(
                    KIND_CHAN_DOWN, name, dpid, dest=owner
                )
        # The alert bus: every subscriber (correlator, baseline
        # handlers) lives on the coordinator, and even coordinator-local
        # publishes export, so all alerts funnel through one
        # deterministic ingest order.
        bus = self.result.defense.bus
        self._buses = [] if bus is None else [bus]
        self._monitor_rank = {
            monitor.name: rank for rank, monitor in enumerate(self.result.monitors())
        }
        for bus_index, bus in enumerate(self._buses):
            bus.export = self._make_bus_export(bus_index, bus)

    def _make_link_export(self, delay_s, index, direction, dest):
        entity = index * 2 + direction
        sim = self.result.net.sim

        def export(packet):
            self._emit(
                sim.now + delay_s, KIND_LINK, entity, dest,
                (index, direction, encode_packet(packet)),
            )

        return export

    def _make_channel_export(self, kind, name, dpid, dest):
        def export(message, t_arr):
            self._emit(t_arr, kind, dpid, dest, (name, encode_message(message)))

        return export

    def _make_bus_export(self, bus_index, bus):
        latency = bus.latency_s
        sim = self.result.net.sim

        def export(alert):
            rank = self._monitor_rank.get(alert.monitor, 0)
            self._emit(
                sim.now + latency, KIND_ALERT, rank, 0, (bus_index, alert)
            )

        return export

    def _deactivate_foreign(self) -> None:
        result = self.result
        net = result.net
        for name, switch in net.switches.items():
            if name not in self.own_switches:
                switch.stop()
        for name, client in result.workload.clients.items():
            if name not in self.own_hosts:
                client.stop()
        for name, attacker in result.workload.attackers.items():
            if name not in self.own_hosts:
                attacker.stop()
        for monitor in result.monitors():
            if monitor.switch.name not in self.own_switches:
                monitor.stop()
        if result.flash_crowd is not None:
            owned = self.own_hosts
            result.flash_crowd.spawn_filter = (
                lambda stack: stack.host.name in owned
            )
        if self.shard != 0:
            # Centralized subsystems run with the controller only.
            if result.defense.coordinator_only:
                result.defense.stop()
        if result.invariants is not None:
            from repro.sim.invariants import LinkConservationChecker, link_id

            skip = frozenset(
                link_id(net.links[i]) for i in self.partition.cut_links
            )
            for checker in result.invariants.checkers:
                if isinstance(checker, LinkConservationChecker):
                    checker.skip_links = skip

    def _lookahead(self) -> float:
        """The conservative sync bound: min latency over export surfaces.

        Every message that can cross a shard boundary is delayed by at
        least this much, so events up to (but excluding) ``T +
        lookahead`` are safe to run once every message arriving before
        that horizon has been ingested.  ``inf`` when nothing can cross
        (a degenerate partition): the run collapses to a single epoch.
        """
        net = self.result.net
        part = self.partition
        bound = math.inf
        for index in part.cut_links:
            bound = min(bound, net.links[index].delay_s)
        for name, channel in net.channels.items():
            if part.switch_domain[name] != 0:
                bound = min(bound, channel.latency_s)
        for bus in self._buses:
            bound = min(bound, bus.latency_s)
        if bound <= 0:
            raise ValueError(
                "sharded simulation requires positive latency on every "
                "cross-shard surface (cut links, control channels, alert bus)"
            )
        return bound

    # ------------------------------------------------------------- epochs

    def next_time(self) -> float:
        """Earliest pending local event time (inf when idle)."""
        when = self.result.net.sim._queue.peek_time()
        return math.inf if when is None else when

    def ingest(self, batches: list[tuple[int, list[tuple]]]) -> None:
        """Schedule one epoch's imported boundary records.

        ``batches`` maps source shards to their routed records.  Records
        are sorted into the canonical cross-shard order and scheduled at
        their arrival times; the barrier guarantees every ``t_arr`` lies
        at or beyond the current clock.
        """
        items = []
        for src, records in batches:
            for record in records:
                items.append((sort_key(src, record), record))
        items.sort(key=lambda pair: pair[0])
        sim = self.result.net.sim
        for _key, record in items:
            t_arr, _emit, kind, _entity, _seq, _dest, payload = record
            sim.schedule_at(t_arr, self._import_thunk(kind, payload), "shard.import")

    def _import_thunk(self, kind: int, payload: Any):
        if kind == KIND_LINK:
            index, direction, raw = payload
            end = self._cut_ends[(index, direction)]
            packet = decode_packet(raw)
            return lambda: end.import_deliver(packet)
        if kind in (KIND_CHAN_UP, KIND_CHAN_DOWN):
            name, encoded = payload
            channel = self.result.net.channels[name]
            message = decode_message(encoded)
            if kind == KIND_CHAN_UP:
                return lambda: channel.deliver_to_controller(message)
            return lambda: channel.deliver_to_switch(message)
        bus_index, alert = payload
        bus = self._buses[bus_index]
        return lambda: bus.deliver(alert)

    def run_until(self, limit: float) -> None:
        """Run local events up to ``limit`` (inclusive) and pin the clock."""
        self.result.net.run(until=limit)

    def take_outbox(self) -> list[tuple]:
        """Drain this epoch's emitted boundary records."""
        out, self.outbox = self.outbox, []
        return out

    # ------------------------------------------------------------ control

    def finish(self, duration: float) -> dict[str, Any]:
        """Pin the clock to ``duration``, close the scenario, report.

        By the time the coordinator calls this, no shard holds an event
        at or before ``duration`` (the barrier's termination condition),
        so the final ``run`` only pins the clock.
        """
        self.result.net.run(until=duration)
        finish_scenario(self.result)
        return self.report()

    def report(self) -> dict[str, Any]:
        """This shard's owned slice of the distributed counters."""
        return owned_rows(self.result, self.own_switches, self.own_hosts)

"""Topology analysis: where should monitors and inspectors go?

E10 shows empirically that monitors must sit where suspicious traffic
*converges*.  This module computes that analytically from the fabric
graph: for each switch, the fraction of host-to-host paths that transit
it (transit coverage), and for a known set of protected servers, the
coverage of paths *toward those servers*.  ``recommend_monitor_placement``
greedily picks the switch set covering the most paths — the planning
tool a deployment of the paper's system would start from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.builder import Network

# networkx is imported where it is used: only the placement planner
# needs it, and a module-level import would load it into every
# ``import repro`` (and every spawned pool and shard worker).


def switch_graph(net: Network) -> networkx.Graph:
    """The switch-to-switch fabric graph of a built network."""
    import networkx

    g = networkx.Graph()
    for switch in net.switches.values():
        g.add_node(switch.name)
    for link in net.links:
        node_a, node_b = link.a.node, link.b.node
        if node_a.name in net.switches and node_b.name in net.switches:
            g.add_edge(node_a.name, node_b.name)
    return g


def attachment_map(net: Network) -> dict[str, str]:
    """host name -> the switch it attaches to."""
    attached = {}
    for name in net.hosts:
        switch = net.switch_of_host(name)
        if switch is not None:
            attached[name] = switch.name
    return attached


def _paths_between(
    net: Network, sources: list[str], destinations: list[str]
) -> list[list[str]]:
    """Switch paths for each (source host, destination host) pair."""
    import networkx

    g = switch_graph(net)
    attach = attachment_map(net)
    paths = []
    for src in sources:
        for dst in destinations:
            if src == dst or src not in attach or dst not in attach:
                continue
            try:
                paths.append(networkx.shortest_path(g, attach[src], attach[dst]))
            except networkx.NetworkXNoPath:
                continue
    return paths


@dataclass(frozen=True)
class CoverageReport:
    """Per-switch path coverage."""

    coverage: dict[str, float]
    total_paths: int

    def ranked(self) -> list[tuple[str, float]]:
        """Switches by descending coverage (name breaks ties, stable)."""
        return sorted(self.coverage.items(), key=lambda kv: (-kv[1], kv[0]))


def path_coverage(
    net: Network, destinations: list[str] | None = None
) -> CoverageReport:
    """Fraction of host paths each switch sees.

    With ``destinations`` (e.g. the protected servers), only paths toward
    those hosts count — the traffic a flood detector must observe.
    Without it, all ordered host pairs count (general transit coverage).
    """
    hosts = list(net.hosts)
    dsts = destinations if destinations is not None else hosts
    paths = _paths_between(net, hosts, dsts)
    counts = {name: 0 for name in net.switches}
    for path in paths:
        for switch_name in set(path):
            counts[switch_name] += 1
    total = len(paths)
    coverage = {
        name: (count / total if total else 0.0) for name, count in counts.items()
    }
    return CoverageReport(coverage=coverage, total_paths=total)


def recommend_monitor_placement(
    net: Network,
    k: int = 1,
    destinations: list[str] | None = None,
) -> list[str]:
    """Greedy k-switch placement maximizing newly covered paths.

    Classic greedy set cover over the path sets: each round picks the
    switch seeing the most not-yet-covered paths.  For the paper's
    deployments (protect one server) k=1 lands on the victim's edge
    switch; on multi-server fabrics the k>1 picks spread to cover each
    aggregation point.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    hosts = list(net.hosts)
    dsts = destinations if destinations is not None else hosts
    paths = _paths_between(net, hosts, dsts)
    uncovered = [set(path) for path in paths]
    # Ties favour switches the protected hosts attach to: the victim
    # edge is also where the SPI mirrors install, so co-locating the
    # monitor there keeps the deployment single-switch.
    attach = attachment_map(net)
    destination_switches = {attach[d] for d in dsts if d in attach}
    chosen: list[str] = []
    candidates = set(net.switches)
    for _ in range(min(k, len(candidates))):
        best_name, best_key = None, (-1, -1)
        for name in sorted(candidates - set(chosen)):
            gain = sum(1 for path in uncovered if name in path)
            key = (gain, 1 if name in destination_switches else 0)
            if key > best_key:
                best_name, best_key = name, key
        if best_name is None or best_key[0] <= 0:
            break
        chosen.append(best_name)
        uncovered = [path for path in uncovered if best_name not in path]
    return chosen


def fabric_summary(net: Network) -> dict[str, float | int]:
    """Headline numbers for a fabric: size, diameter, mean path length."""
    import networkx

    g = switch_graph(net)
    summary: dict[str, float | int] = {
        "switches": g.number_of_nodes(),
        "fabric_links": g.number_of_edges(),
        "hosts": len(net.hosts),
    }
    if g.number_of_nodes() > 1 and networkx.is_connected(g):
        summary["diameter"] = networkx.diameter(g)
        summary["mean_path_length"] = networkx.average_shortest_path_length(g)
    else:
        summary["diameter"] = 0
        summary["mean_path_length"] = 0.0
    return summary

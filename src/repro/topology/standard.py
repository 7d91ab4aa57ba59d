"""Standard topology shapes used across the experiments.

Each constructor returns ``(network, roles)`` where ``roles`` names the
hosts by function: ``"servers"``, ``"clients"`` and ``"attackers"`` — the
same tripartition the paper's GENI slice used (victim web server, benign
user nodes, hping3 attack nodes).

All shapes are loop-free (trees), as required by flood-based L2 learning
without a spanning-tree protocol — matching the Mininet/GENI topologies
such experiments run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.builder import LinkSpec, Network


@dataclass
class Roles:
    """Host names grouped by experimental function."""

    servers: list[str] = field(default_factory=list)
    clients: list[str] = field(default_factory=list)
    attackers: list[str] = field(default_factory=list)

    def all_hosts(self) -> list[str]:
        """Every named host."""
        return self.servers + self.clients + self.attackers


def _populate(
    net: Network,
    roles: Roles,
    switch_for: dict[str, str],
) -> None:
    for host_name, switch_name in switch_for.items():
        net.add_host(host_name)
        net.link(host_name, switch_name)


def single_switch(
    n_clients: int = 3,
    n_attackers: int = 1,
    n_servers: int = 1,
    seed: int = 1,
    **net_kwargs,
) -> tuple[Network, Roles]:
    """One switch with ``n_servers`` servers, benign hosts and attackers.

    Several servers make several victims: the standard workload aims
    attacker *i* at server ``i % n_servers`` (experiment E7c).
    """
    if n_servers < 1:
        raise ValueError("need at least one server")
    net = Network(seed=seed, **net_kwargs)
    net.add_switch("s1")
    roles = Roles(servers=[f"srv{i}" for i in range(1, n_servers + 1)])
    placement = dict.fromkeys(roles.servers, "s1")
    for i in range(1, n_clients + 1):
        name = f"cli{i}"
        roles.clients.append(name)
        placement[name] = "s1"
    for i in range(1, n_attackers + 1):
        name = f"atk{i}"
        roles.attackers.append(name)
        placement[name] = "s1"
    _populate(net, roles, placement)
    net.finalize()
    return net, roles


def dumbbell(
    n_clients: int = 4,
    n_attackers: int = 2,
    core_bandwidth_bps: float = 100e6,
    seed: int = 1,
    **net_kwargs,
) -> tuple[Network, Roles]:
    """Two switches joined by a core link; server on the right side.

    Clients and attackers share the left edge switch, so attack traffic
    and benign traffic contend on the same core link — the configuration
    in which a SYN flood also congests honest users.
    """
    net = Network(seed=seed, **net_kwargs)
    net.add_switch("s1")
    net.add_switch("s2")
    net.link("s1", "s2", bandwidth_bps=core_bandwidth_bps)
    roles = Roles(servers=["srv1"])
    placement = {"srv1": "s2"}
    for i in range(1, n_clients + 1):
        name = f"cli{i}"
        roles.clients.append(name)
        placement[name] = "s1"
    for i in range(1, n_attackers + 1):
        name = f"atk{i}"
        roles.attackers.append(name)
        placement[name] = "s1"
    _populate(net, roles, placement)
    net.finalize()
    return net, roles


def star(
    n_arms: int = 4,
    clients_per_arm: int = 2,
    n_attackers: int = 2,
    seed: int = 1,
    **net_kwargs,
) -> tuple[Network, Roles]:
    """A core switch with ``n_arms`` edge switches; server at the core.

    Attackers are spread round-robin across the arms, matching the
    distributed flood sources of the paper's GENI deployment.
    """
    net = Network(seed=seed, **net_kwargs)
    net.add_switch("core")
    for arm in range(1, n_arms + 1):
        net.add_switch(f"edge{arm}")
        net.link("core", f"edge{arm}")
    roles = Roles(servers=["srv1"])
    placement = {"srv1": "core"}
    counter = 1
    for arm in range(1, n_arms + 1):
        for _ in range(clients_per_arm):
            name = f"cli{counter}"
            counter += 1
            roles.clients.append(name)
            placement[name] = f"edge{arm}"
    for i in range(1, n_attackers + 1):
        name = f"atk{i}"
        roles.attackers.append(name)
        placement[name] = f"edge{(i - 1) % n_arms + 1}"
    _populate(net, roles, placement)
    net.finalize()
    return net, roles


def linear(
    n_switches: int = 4,
    clients_per_switch: int = 1,
    n_attackers: int = 1,
    seed: int = 1,
    **net_kwargs,
) -> tuple[Network, Roles]:
    """A chain of switches; server at one end, attackers at the other.

    Maximizes hop count for its size — the scalability stressor in E5.
    """
    if n_switches < 2:
        raise ValueError("linear topology needs at least 2 switches")
    net = Network(seed=seed, **net_kwargs)
    for i in range(1, n_switches + 1):
        net.add_switch(f"s{i}")
        if i > 1:
            net.link(f"s{i - 1}", f"s{i}")
    roles = Roles(servers=["srv1"])
    placement = {"srv1": f"s{n_switches}"}
    counter = 1
    for i in range(1, n_switches + 1):
        for _ in range(clients_per_switch):
            name = f"cli{counter}"
            counter += 1
            roles.clients.append(name)
            placement[name] = f"s{i}"
    for i in range(1, n_attackers + 1):
        name = f"atk{i}"
        roles.attackers.append(name)
        placement[name] = "s1"
    _populate(net, roles, placement)
    net.finalize()
    return net, roles


def tree(
    depth: int = 2,
    fanout: int = 2,
    clients_per_leaf: int = 1,
    n_attackers: int = 1,
    seed: int = 1,
    **net_kwargs,
) -> tuple[Network, Roles]:
    """A complete switch tree; server under the root, hosts at leaves."""
    if depth < 1:
        raise ValueError("tree depth must be >= 1")
    net = Network(seed=seed, **net_kwargs)
    net.add_switch("t0")
    levels: list[list[str]] = [["t0"]]
    counter = 1
    for level in range(1, depth + 1):
        names: list[str] = []
        for parent in levels[level - 1]:
            for _ in range(fanout):
                name = f"t{counter}"
                counter += 1
                net.add_switch(name)
                net.link(parent, name)
                names.append(name)
        levels.append(names)
    leaves = levels[-1]
    roles = Roles(servers=["srv1"])
    placement = {"srv1": "t0"}
    cli = 1
    for leaf in leaves:
        for _ in range(clients_per_leaf):
            name = f"cli{cli}"
            cli += 1
            roles.clients.append(name)
            placement[name] = leaf
    for i in range(1, n_attackers + 1):
        name = f"atk{i}"
        roles.attackers.append(name)
        placement[name] = leaves[(i - 1) % len(leaves)]
    _populate(net, roles, placement)
    net.finalize()
    return net, roles


def fat_tree(
    pods: int = 2,
    hosts_per_edge: int = 2,
    n_attackers: int = 1,
    seed: int = 1,
    **net_kwargs,
) -> tuple[Network, Roles]:
    """A loop-free fat-tree slice: core + per-pod aggregation/edge pairs.

    A full k-ary fat tree has loops; since the L2 plane here learns by
    flooding (no STP), each pod keeps a single uplink, preserving the
    fat-tree's depth and port counts without multipath.
    """
    net = Network(seed=seed, **net_kwargs)
    net.add_switch("core")
    roles = Roles(servers=["srv1"])
    placement = {"srv1": "core"}
    cli = 1
    edges: list[str] = []
    for pod in range(1, pods + 1):
        agg = f"agg{pod}"
        net.add_switch(agg)
        net.link("core", agg)
        edge = f"edge{pod}"
        net.add_switch(edge)
        net.link(agg, edge)
        edges.append(edge)
        for _ in range(hosts_per_edge):
            name = f"cli{cli}"
            cli += 1
            roles.clients.append(name)
            placement[name] = edge
    for i in range(1, n_attackers + 1):
        name = f"atk{i}"
        roles.attackers.append(name)
        placement[name] = edges[(i - 1) % len(edges)]
    _populate(net, roles, placement)
    net.finalize()
    return net, roles


def random_tree(
    n_switches: int = 6,
    n_clients: int = 6,
    n_attackers: int = 2,
    seed: int = 1,
    **net_kwargs,
) -> tuple[Network, Roles]:
    """A random switch tree: each new switch attaches to a random earlier one.

    Approximates the irregular GENI slice shapes; hosts are placed on
    uniformly random switches.
    """
    if n_switches < 1:
        raise ValueError("need at least one switch")
    net = Network(seed=seed, **net_kwargs)
    rng = net.rng.child("topology")
    names = [f"s{i}" for i in range(1, n_switches + 1)]
    for i, name in enumerate(names):
        net.add_switch(name)
        if i > 0:
            net.link(names[rng.randint(0, i - 1)], name)
    roles = Roles(servers=["srv1"])
    placement = {"srv1": rng.choice(names)}
    for i in range(1, n_clients + 1):
        name = f"cli{i}"
        roles.clients.append(name)
        placement[name] = rng.choice(names)
    for i in range(1, n_attackers + 1):
        name = f"atk{i}"
        roles.attackers.append(name)
        placement[name] = rng.choice(names)
    _populate(net, roles, placement)
    net.finalize()
    return net, roles

"""Tests for the network builder and standard topologies."""

from __future__ import annotations

import pytest

from repro.net.host import Host
from repro.topology import (
    dumbbell,
    fat_tree,
    linear,
    random_tree,
    single_switch,
    star,
    tree,
)
from repro.topology.builder import Network


def reachable(net, a_name, b_name, timeout=3.0):
    """Can host a complete a TCP handshake with host b?"""
    port = 8000 + len(net.stack(b_name).listeners)
    net.stack(b_name).listen(port)
    done = []
    net.stack(a_name).connect(
        net.hosts[b_name].ip, port, on_established=lambda c: done.append(1)
    )
    net.run(until=net.sim.now + timeout)
    return done == [1]


class TestBuilder:
    def test_auto_names_and_addresses(self):
        net = Network()
        h1 = net.add_host()
        h2 = net.add_host()
        assert h1.name == "h1" and h2.name == "h2"
        assert h1.ip != h2.ip and h1.mac != h2.mac

    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_host("x")
        with pytest.raises(ValueError):
            net.add_host("x")
        net.add_switch("s")
        with pytest.raises(ValueError):
            net.add_switch("s")
        with pytest.raises(ValueError):
            net.add_host("s")

    def test_switch_dpids_increment(self):
        net = Network()
        assert net.add_switch().datapath_id == 1
        assert net.add_switch().datapath_id == 2

    def test_link_allocates_switch_ports(self):
        net = Network()
        net.add_switch("s1")
        net.add_host("h1")
        net.add_host("h2")
        net.link("h1", "s1")
        net.link("h2", "s1")
        assert sorted(net.switches["s1"].interfaces) == [1, 2]

    def test_host_cannot_be_double_cabled(self):
        net = Network()
        net.add_switch("s1")
        net.add_switch("s2")
        net.add_host("h1")
        net.link("h1", "s1")
        with pytest.raises(ValueError):
            net.link("h1", "s2")

    def test_unknown_node_rejected(self):
        net = Network()
        with pytest.raises(KeyError):
            net.node("ghost")

    def test_finalize_populates_arp(self):
        net = Network()
        net.add_switch("s1")
        net.add_host("h1")
        net.add_host("h2")
        net.link("h1", "s1")
        net.link("h2", "s1")
        net.finalize()
        h1, h2 = net.hosts["h1"], net.hosts["h2"]
        assert h1.arp_table[h2.ip] == h2.mac
        assert h2.ip not in h2.arp_table  # no self-entry

    def test_switch_of_host(self):
        net = Network()
        net.add_switch("s1")
        net.add_host("h1")
        net.link("h1", "s1")
        assert net.switch_of_host("h1").name == "s1"

    def test_span_port_receiver_excluded_from_arp(self):
        net = Network()
        net.add_switch("s1")
        net.add_host("h1")
        net.link("h1", "s1")
        sniffer = Host(net.sim, "probe", "192.0.2.9", "00:0d:0d:0d:0d:0d")
        port = net.add_span_port("s1", sniffer)
        net.finalize()
        assert port == 2
        assert "192.0.2.9" not in net.hosts["h1"].arp_table

    def test_edge_switches_dedup(self):
        net = Network()
        net.add_switch("s1")
        for name in ("h1", "h2"):
            net.add_host(name)
            net.link(name, "s1")
        assert len(net.edge_switches(["h1", "h2"])) == 1


class TestStandardTopologies:
    @pytest.mark.parametrize(
        "builder,kwargs",
        [
            (single_switch, {}),
            (dumbbell, {}),
            (star, {"n_arms": 2, "clients_per_arm": 1}),
            (linear, {"n_switches": 3}),
            (tree, {"depth": 2, "fanout": 2}),
            (fat_tree, {"pods": 2}),
            (random_tree, {"n_switches": 4, "n_clients": 3}),
        ],
    )
    def test_roles_are_consistent(self, builder, kwargs):
        net, roles = builder(seed=3, **kwargs)
        assert len(roles.servers) >= 1
        assert len(roles.clients) >= 1
        for name in roles.all_hosts():
            assert name in net.hosts
            assert net.hosts[name].port.connected

    @pytest.mark.parametrize(
        "builder,kwargs",
        [
            (single_switch, {}),
            (dumbbell, {}),
            (star, {"n_arms": 2, "clients_per_arm": 1}),
            (linear, {"n_switches": 3}),
            (tree, {"depth": 2, "fanout": 2}),
            (fat_tree, {"pods": 2}),
            (random_tree, {"n_switches": 4, "n_clients": 3}),
        ],
    )
    def test_client_reaches_server(self, builder, kwargs):
        net, roles = builder(seed=3, **kwargs)
        assert reachable(net, roles.clients[0], roles.servers[0])

    def test_attacker_reaches_server_on_dumbbell(self):
        net, roles = dumbbell(seed=1)
        assert reachable(net, roles.attackers[0], roles.servers[0])

    def test_linear_size_validation(self):
        with pytest.raises(ValueError):
            linear(n_switches=1)

    def test_single_switch_needs_a_server(self):
        with pytest.raises(ValueError):
            single_switch(n_servers=0)

    def test_tree_switch_count(self):
        net, _ = tree(depth=2, fanout=2)
        assert len(net.switches) == 1 + 2 + 4

    def test_linear_hop_count_grows(self):
        small, _ = linear(n_switches=2)
        big, _ = linear(n_switches=6)
        assert len(big.switches) > len(small.switches)
        assert len(big.links) > len(small.links)

    def test_random_tree_deterministic_per_seed(self):
        a, roles_a = random_tree(seed=9)
        b, roles_b = random_tree(seed=9)
        assert [h for h in a.hosts] == [h for h in b.hosts]
        a_peers = {name: a.switch_of_host(name).name for name in roles_a.all_hosts()}
        b_peers = {name: b.switch_of_host(name).name for name in roles_b.all_hosts()}
        assert a_peers == b_peers

    def test_same_seed_same_result_cross_topology(self):
        n1, r1 = dumbbell(seed=5, n_clients=2)
        n2, r2 = dumbbell(seed=5, n_clients=2)
        assert [h.ip for h in n1.hosts.values()] == [h.ip for h in n2.hosts.values()]

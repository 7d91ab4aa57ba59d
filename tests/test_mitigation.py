"""Tests for the mitigation manager."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigation.manager import (
    MITIGATION_COOKIE,
    OPERATOR_COOKIE,
    MitigationConfig,
    MitigationManager,
    MitigationMode,
)
from repro.net.addresses import int_to_ip
from repro.net.headers import TCP_SYN, TcpHeader
from repro.topology.builder import Network

VICTIM_NAME = "victim"


@pytest.fixture
def net():
    return _network()


def _network():
    network = Network(seed=1)
    network.add_switch("s1")
    network.add_switch("s2")
    network.link("s1", "s2")
    network.add_host(VICTIM_NAME)
    network.link(VICTIM_NAME, "s2")
    network.add_host("client")
    network.link("client", "s1")
    network.finalize()
    return network


def manager(net, **config_kwargs):
    return MitigationManager(net.controller, MitigationConfig(**config_kwargs))


def rules_with_cookie(net, name="s1"):
    return net.switches[name].table.entries_with_cookie(MITIGATION_COOKIE)


class TestBlockSources:
    def test_per_source_rules_on_all_switches(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_SOURCES)
        victim_ip = net.hosts[VICTIM_NAME].ip
        record = m.mitigate(victim_ip, ["203.0.113.1", "203.0.113.2"])
        net.run(until=0.1)
        assert record.blocked_sources == ["203.0.113.1", "203.0.113.2"]
        for name in ("s1", "s2"):
            assert len(rules_with_cookie(net, name)) == 2

    def test_rule_budget_respected(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_SOURCES, max_source_rules=3)
        sources = [f"203.0.113.{i}" for i in range(1, 11)]
        record = m.mitigate(net.hosts[VICTIM_NAME].ip, sources)
        assert len(record.blocked_sources) == 3

    def test_whitelisted_source_never_blocked(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_SOURCES)
        m.add_whitelist("10.0.0.50")
        record = m.mitigate(net.hosts[VICTIM_NAME].ip, ["10.0.0.50", "203.0.113.1"])
        assert record.blocked_sources == ["203.0.113.1"]

    def test_rules_actually_drop_traffic(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_SOURCES)
        victim = net.hosts[VICTIM_NAME]
        client = net.hosts["client"]
        m.mitigate(victim.ip, [client.ip])
        net.run(until=0.1)
        got = []
        victim.add_sniffer(got.append)
        client.send_tcp(victim.ip, TcpHeader(1, 80, flags=TCP_SYN))
        net.run(until=1.0)
        assert got == []
        assert net.switches["s1"].counters.packets_dropped_by_rule == 1

    def test_rules_expire_by_hard_timeout(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_SOURCES, rule_hard_timeout_s=2.0)
        m.mitigate(net.hosts[VICTIM_NAME].ip, ["203.0.113.1"])
        net.run(until=0.1)
        assert len(rules_with_cookie(net)) == 1
        net.run(until=3.0)
        assert rules_with_cookie(net) == []


class TestBlockPrefix:
    def test_dense_prefix_blocked(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_PREFIX, prefix_min_sources=8)
        suspects = [f"198.18.0.{i}" for i in range(1, 21)]
        record = m.mitigate(net.hosts[VICTIM_NAME].ip, [], suspect_sources=suspects)
        assert record.blocked_prefixes == ["198.18.0.0/16"]
        net.run(until=0.1)
        assert len(rules_with_cookie(net)) == 1

    def test_sparse_prefix_not_blocked(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_PREFIX, prefix_min_sources=8)
        suspects = [f"10.0.{i}.1" for i in range(3)]  # only 3 sources in 10.0/16
        record = m.mitigate(net.hosts[VICTIM_NAME].ip, [], suspect_sources=suspects)
        assert record.blocked_prefixes == []

    def test_prefix_containing_whitelisted_source_spared(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_PREFIX, prefix_min_sources=4)
        m.add_whitelist("198.18.0.200")
        suspects = [f"198.18.0.{i}" for i in range(1, 11)]
        record = m.mitigate(net.hosts[VICTIM_NAME].ip, [], suspect_sources=suspects)
        assert record.blocked_prefixes == []

    def test_multiple_dense_prefixes(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_PREFIX, prefix_min_sources=4)
        suspects = [f"198.18.0.{i}" for i in range(1, 6)] + [
            f"198.19.0.{i}" for i in range(1, 6)
        ]
        record = m.mitigate(net.hosts[VICTIM_NAME].ip, [], suspect_sources=suspects)
        assert record.blocked_prefixes == ["198.18.0.0/16", "198.19.0.0/16"]


class TestHybrid:
    def test_heavy_hitters_and_prefixes_combined(self, net):
        m = manager(net, mode=MitigationMode.HYBRID, prefix_min_sources=8)
        suspects = [f"198.18.0.{i}" for i in range(1, 21)]
        record = m.mitigate(
            net.hosts[VICTIM_NAME].ip, ["203.0.113.9"], suspect_sources=suspects
        )
        assert record.blocked_sources == ["203.0.113.9"]
        assert record.blocked_prefixes == ["198.18.0.0/16"]
        assert record.rule_count == 2


class TestShield:
    def test_shield_installs_rate_limit_and_whitelist(self, net):
        m = manager(net, mode=MitigationMode.SHIELD_VICTIM)
        victim = net.hosts[VICTIM_NAME]
        m.note_victim_mac(victim.ip, victim.mac)
        record = m.mitigate(
            victim.ip, [], completed_sources=["10.0.0.40", "10.0.0.41"]
        )
        assert record.shielded
        assert sorted(record.whitelisted) == ["10.0.0.40", "10.0.0.41"]
        net.run(until=0.1)
        # 1 shield + 2 whitelist rules per switch.
        assert len(rules_with_cookie(net, "s1")) == 3

    def test_shield_rate_limits_flood(self, net):
        m = manager(net, mode=MitigationMode.SHIELD_VICTIM)
        victim = net.hosts[VICTIM_NAME]
        client = net.hosts["client"]
        m.note_victim_mac(victim.ip, victim.mac)
        m.mitigate(victim.ip, [])
        net.run(until=0.1)
        got = []
        victim.add_sniffer(got.append)
        for _ in range(100):
            client.send_tcp(victim.ip, TcpHeader(1, 80, flags=TCP_SYN))
        net.run(until=1.0)
        assert 0 < len(got) < 100


class TestLifecycle:
    def test_lift_removes_rules(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_SOURCES)
        victim_ip = net.hosts[VICTIM_NAME].ip
        m.mitigate(victim_ip, ["203.0.113.1"])
        net.run(until=0.1)
        assert m.is_active(victim_ip)
        m.lift(victim_ip)
        net.run(until=0.2)
        assert not m.is_active(victim_ip)
        assert rules_with_cookie(net) == []

    def test_lift_unknown_victim_is_noop(self, net):
        manager(net).lift("10.9.9.9")

    def test_records_accumulate(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_SOURCES)
        m.mitigate(net.hosts[VICTIM_NAME].ip, ["203.0.113.1"])
        m.mitigate("10.0.0.99", ["203.0.113.2"])
        assert len(m.records) == 2
        assert len(m.active) == 2

    def test_completed_sources_join_whitelist(self, net):
        m = manager(net)
        m.mitigate(net.hosts[VICTIM_NAME].ip, [], completed_sources=["10.0.0.7"])
        assert "10.0.0.7" in m.whitelist

    def test_trace_emitted(self, net):
        m = manager(net)
        m.mitigate(net.hosts[VICTIM_NAME].ip, ["203.0.113.1"])
        assert net.tracer.count("mitigation.installed") == 1
        m.lift(net.hosts[VICTIM_NAME].ip)
        assert net.tracer.count("mitigation.lifted") == 1


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MitigationConfig(rule_hard_timeout_s=0)
        with pytest.raises(ValueError):
            MitigationConfig(max_source_rules=0)


class TestRecordExpiry:
    def test_is_active_clears_with_rule_timeout(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_SOURCES, rule_hard_timeout_s=2.0)
        victim_ip = net.hosts[VICTIM_NAME].ip
        m.mitigate(victim_ip, ["203.0.113.1"])
        net.run(until=1.0)
        assert m.is_active(victim_ip)
        net.run(until=3.0)
        assert not m.is_active(victim_ip)
        assert net.tracer.count("mitigation.expired") == 1

    def test_re_mitigation_renews_expiry(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_SOURCES, rule_hard_timeout_s=2.0)
        victim_ip = net.hosts[VICTIM_NAME].ip
        m.mitigate(victim_ip, ["203.0.113.1"])
        net.run(until=1.5)
        m.mitigate(victim_ip, ["203.0.113.2"])  # renewed at t=1.5
        net.run(until=2.5)  # first record's timer fires but is stale
        assert m.is_active(victim_ip)
        net.run(until=4.0)
        assert not m.is_active(victim_ip)

    def test_lift_beats_expiry(self, net):
        m = manager(net, mode=MitigationMode.BLOCK_SOURCES, rule_hard_timeout_s=5.0)
        victim_ip = net.hosts[VICTIM_NAME].ip
        m.mitigate(victim_ip, ["203.0.113.1"])
        m.lift(victim_ip)
        net.run(until=6.0)  # expiry timer fires on an already-lifted record
        assert not m.is_active(victim_ip)
        assert net.tracer.count("mitigation.expired") == 0


class TestOperatorSpelling:
    """Blocks and whitelist entries are keyed by canonical text: any
    spelling of one address or prefix names one entry."""

    @pytest.mark.parametrize(
        "blocked, lifted",
        [
            (("10.9.9.9/32", None), ("10.9.9.9", None)),
            (("10.7.0.0/16", "10.0.0.100/32"), ("10.7.0.0/16", "10.0.0.100")),
        ],
        ids=["source", "victim"],
    )
    def test_block_lifts_under_the_bare_spelling(self, net, blocked, lifted):
        m = manager(net)
        m.block_source(*blocked)
        assert m.unblock_source(*lifted) is True
        assert m.active_blocks() == []

    def test_two_spellings_list_one_block(self, net):
        m = manager(net)
        m.block_source("10.9.9.9")
        m.block_source("10.9.9.9/32")
        assert [b.ip for b in m.active_blocks()] == ["10.9.9.9"]

    def test_remove_whitelist_under_the_slash_32_spelling(self, net):
        m = manager(net)
        m.add_whitelist("10.0.0.1")
        assert m.remove_whitelist("10.0.0.1/32") is True
        assert m.whitelist_entries() == []

    @settings(max_examples=40, deadline=None)
    @given(
        address=st.integers(0, 2**32 - 1),
        length=st.integers(0, 32),
        host_bits=st.integers(0, 2**32 - 1),
        scoped=st.booleans(),
        data=st.data(),
    )
    def test_any_spelling_lifts_any_other(self, address, length, host_bits, scoped, data):
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        network = address & mask
        canonical = int_to_ip(network) + ("" if length == 32 else f"/{length}")
        spellings = [
            canonical,
            f"{int_to_ip(network)}/{length}",
            f"{int_to_ip(network | host_bits & ~mask & 0xFFFFFFFF)}/{length}",
        ]
        victims = ["10.0.0.100", "10.0.0.100/32"] if scoped else [None]
        net = _network()
        m = manager(net)
        for spelling in spellings:
            m.block_source(spelling, victim_ip=data.draw(st.sampled_from(victims)))
        (entry,) = m.active_blocks()
        assert (entry.ip, entry.victim_ip) == (canonical, victims[0])
        net.run(until=0.1)
        assert len(net.switches["s1"].table.entries_with_cookie(OPERATOR_COOKIE)) == 1
        lifted_as = data.draw(st.sampled_from(spellings))
        assert m.unblock_source(lifted_as, victim_ip=data.draw(st.sampled_from(victims)))
        assert m.active_blocks() == []
        net.run(until=0.2)
        assert net.switches["s1"].table.entries_with_cookie(OPERATOR_COOKIE) == []

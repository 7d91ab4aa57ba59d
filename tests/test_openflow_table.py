"""Tests for the flow table, actions and control channel."""

from __future__ import annotations

import pytest

from repro.net.headers import TCP_SYN, TcpHeader
from repro.net.packet import Packet
from repro.openflow.actions import Drop, Mirror, Output, RateLimit, ToController
from repro.openflow.flowtable import FlowEntry, FlowTable, RemovedReason
from repro.openflow.match import Match


def packet(dst_ip="10.0.0.2"):
    return Packet.tcp_packet(
        "00:00:00:00:00:01", "00:00:00:00:00:02", "10.0.0.1", dst_ip,
        TcpHeader(1234, 80, flags=TCP_SYN),
    )


def entry(match=None, priority=100, actions=(Output(1),), **kwargs):
    return FlowEntry(match=match or Match.any(), actions=tuple(actions),
                     priority=priority, **kwargs)


class TestLookup:
    def test_miss_on_empty_table(self):
        table = FlowTable()
        assert table.lookup(packet(), 1, now=0.0) is None
        assert table.misses == 1

    def test_hit_updates_counters(self):
        table = FlowTable()
        e = table.install(entry(), now=0.0)
        found = table.lookup(packet(), 1, now=1.0)
        assert found is e
        assert e.packets == 1
        assert e.bytes == packet().size_bytes
        assert e.last_hit_at == 1.0
        assert table.hits == 1

    def test_higher_priority_wins(self):
        table = FlowTable()
        low = table.install(entry(priority=10), now=0.0)
        high = table.install(entry(match=Match(ip_dst="10.0.0.2"), priority=200), now=0.0)
        assert table.lookup(packet(), 1, now=0.0) is high
        assert table.lookup(packet("10.0.0.9"), 1, now=0.0) is low

    def test_equal_priority_first_installed_wins(self):
        table = FlowTable()
        first = table.install(entry(match=Match(ip_dst="10.0.0.2")), now=0.0)
        table.install(entry(match=Match(ip_src="10.0.0.1")), now=0.0)
        assert table.lookup(packet(), 1, now=0.0) is first

    def test_replace_same_match_and_priority(self):
        table = FlowTable()
        table.install(entry(actions=(Output(1),)), now=0.0)
        replacement = table.install(entry(actions=(Output(9),)), now=1.0)
        assert len(table) == 1
        assert table.lookup(packet(), 1, now=1.0) is replacement

    @pytest.mark.parametrize("first, second", [
        ("10.0.0.5", "10.0.0.5/32"),
        ("10.0.0.7/24", "10.0.0.0/24"),
    ])
    def test_two_spellings_of_one_rule_replace(self, first, second):
        table = FlowTable()
        table.install(entry(match=Match(ip_src=first)), now=0.0)
        replacement = table.install(entry(match=Match(ip_src=second)), now=1.0)
        assert len(table) == 1
        assert table.entries_with_cookie(0) == [replacement]

    def test_table_full(self):
        table = FlowTable(max_entries=1)
        table.install(entry(), now=0.0)
        with pytest.raises(RuntimeError):
            table.install(entry(match=Match(ip_dst="9.9.9.9")), now=0.0)


class TestExpiry:
    def test_hard_timeout(self):
        table = FlowTable()
        table.install(entry(hard_timeout=5.0), now=0.0)
        assert table.expire(now=4.9) == []
        expired = table.expire(now=5.0)
        assert len(expired) == 1 and expired[0][1] is RemovedReason.HARD_TIMEOUT
        assert len(table) == 0

    def test_idle_timeout_reset_by_hits(self):
        table = FlowTable()
        e = table.install(entry(idle_timeout=2.0), now=0.0)
        table.lookup(packet(), 1, now=1.5)
        assert table.expire(now=3.0) == []  # hit at 1.5 postponed expiry
        expired = table.expire(now=3.6)
        assert [(x[0], x[1]) for x in expired] == [(e, RemovedReason.IDLE_TIMEOUT)]

    def test_zero_timeouts_never_expire(self):
        table = FlowTable()
        table.install(entry(), now=0.0)
        assert table.expire(now=1e9) == []

    def test_hard_timeout_beats_idle(self):
        table = FlowTable()
        table.install(entry(idle_timeout=1.0, hard_timeout=1.0), now=0.0)
        expired = table.expire(now=1.0)
        assert expired[0][1] is RemovedReason.HARD_TIMEOUT


class TestRemoval:
    def test_remove_matching_exact(self):
        table = FlowTable()
        table.install(entry(match=Match(ip_dst="10.0.0.2")), now=0.0)
        table.install(entry(match=Match(ip_dst="10.0.0.3")), now=0.0)
        removed = table.remove_matching(Match(ip_dst="10.0.0.2"))
        assert len(removed) == 1 and len(table) == 1

    def test_remove_matching_with_filter_prefix(self):
        table = FlowTable()
        table.install(entry(match=Match(ip_src="198.18.0.1", ip_dst="10.0.0.2")), now=0.0)
        table.install(entry(match=Match(ip_src="198.18.0.2", ip_dst="10.0.0.2")), now=0.0)
        table.install(entry(match=Match(ip_src="10.0.0.5", ip_dst="10.0.0.2")), now=0.0)
        removed = table.remove_matching(Match(ip_src="198.18.0.0/16"))
        assert len(removed) == 2 and len(table) == 1

    def test_remove_by_cookie(self):
        table = FlowTable()
        table.install(entry(match=Match(ip_dst="10.0.0.2"), cookie=7), now=0.0)
        table.install(entry(match=Match(ip_dst="10.0.0.2"), priority=50, cookie=8), now=0.0)
        removed = table.remove_matching(Match.any(), cookie=7)
        assert len(removed) == 1 and removed[0].cookie == 7

    def test_entries_with_cookie(self):
        table = FlowTable()
        table.install(entry(cookie=7), now=0.0)
        assert len(table.entries_with_cookie(7)) == 1
        assert table.entries_with_cookie(9) == []

    def test_dump_is_readable(self):
        table = FlowTable()
        table.install(entry(match=Match(ip_dst="10.0.0.2"), actions=(Drop(),)), now=0.0)
        dump = table.dump()
        assert len(dump) == 1 and "drop" in dump[0]


class TestRateLimit:
    def test_burst_then_throttle(self):
        limiter = RateLimit(pps=10.0, burst=2.0)
        assert limiter.admit(0.0)
        assert limiter.admit(0.0)
        assert not limiter.admit(0.0)  # burst exhausted
        assert limiter.passed == 2 and limiter.dropped == 1

    def test_refill_over_time(self):
        limiter = RateLimit(pps=10.0, burst=1.0)
        assert limiter.admit(0.0)
        assert not limiter.admit(0.01)
        assert limiter.admit(0.2)  # 0.2s * 10pps = 2 tokens (capped at 1)

    def test_sustained_rate_close_to_pps(self):
        limiter = RateLimit(pps=100.0, burst=1.0)
        passed = sum(1 for i in range(1000) if limiter.admit(i * 0.001))
        # 1 second at 100 pps -> ~100 passed of 1000 offered.
        assert 90 <= passed <= 115

    def test_invalid_pps_rejected(self):
        with pytest.raises(ValueError):
            RateLimit(pps=0)

    def test_describe(self):
        assert "rate-limit" in RateLimit(pps=50).describe()
        assert Output(3).describe() == "output:3"
        assert Mirror(9).describe() == "mirror:9"
        assert ToController().describe().startswith("controller")

"""Tests for the SYN-flood signature verdict function."""

from __future__ import annotations

import pytest

from repro.core.signatures import (
    SynFloodSignature,
    SynFloodSignatureConfig,
    Verdict,
)
from repro.inspection.tracker import HandshakeEvidence


def evidence(syns, completions, sources=None, duration=1.0, victim="10.0.0.1"):
    """Fabricate handshake evidence; sources maps ip -> (syns, completions)."""
    ev = HandshakeEvidence(
        victim_ip=victim, window_start=0.0, window_end=duration,
        syn_total=syns, completion_total=completions,
    )
    if sources is None:
        sources = {"198.18.0.1": (syns, completions)}
    for ip, (s, c) in sources.items():
        ev.syns[ip] = s
        if c:
            ev.completions[ip] = c
    return ev


def spoofed_flood(n_sources=50, duration=1.0):
    sources = {f"198.18.0.{i + 1}": (1, 0) for i in range(n_sources)}
    return evidence(n_sources, 0, sources=sources, duration=duration)


def flash_crowd(n_sources=5, per_source=30, duration=1.0):
    sources = {f"10.0.0.{i + 10}": (per_source, per_source) for i in range(n_sources)}
    total = n_sources * per_source
    return evidence(total, total, sources=sources, duration=duration)


class TestVerdicts:
    def test_spoofed_flood_confirmed(self):
        report = SynFloodSignature().evaluate(spoofed_flood())
        assert report.verdict is Verdict.CONFIRMED
        assert report.constituent("volume").triggered
        assert report.constituent("incompleteness").triggered
        assert report.constituent("dispersion").triggered

    def test_flash_crowd_refuted(self):
        report = SynFloodSignature().evaluate(flash_crowd())
        assert report.verdict is Verdict.REFUTED
        assert report.completion_ratio == 1.0

    def test_too_little_evidence_inconclusive(self):
        report = SynFloodSignature().evaluate(spoofed_flood(n_sources=5))
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_low_rate_refuted_even_if_incomplete(self):
        """Volume constituent gates confirmation."""
        config = SynFloodSignatureConfig(min_syn_observations=10, min_attack_syn_rate=100.0)
        report = SynFloodSignature(config).evaluate(spoofed_flood(n_sources=20, duration=1.0))
        assert report.verdict is Verdict.REFUTED

    def test_middling_completion_inconclusive(self):
        """Between confirm and refute bands: extend, don't guess."""
        sources = {f"10.0.0.{i}": (2, 1) for i in range(30)}  # 50% completion
        ev = evidence(60, 30, sources=sources)
        report = SynFloodSignature().evaluate(ev)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_high_completion_refutes(self):
        sources = {f"10.0.0.{i}": (10, 8) for i in range(10)}
        ev = evidence(100, 80, sources=sources)
        report = SynFloodSignature().evaluate(ev)
        assert report.verdict is Verdict.REFUTED


class TestSourceClassification:
    def test_heavy_hitters_in_attacker_sources(self):
        sources = {"203.0.113.1": (200, 0)}
        sources.update({f"10.0.0.{i}": (3, 3) for i in range(10)})
        ev = evidence(230, 30, sources=sources)
        report = SynFloodSignature().evaluate(ev)
        assert report.attacker_sources == ("203.0.113.1",)

    def test_spoofed_population_in_suspects(self):
        report = SynFloodSignature().evaluate(spoofed_flood(n_sources=40))
        assert len(report.suspect_sources) == 40
        assert report.attacker_sources == ()

    def test_completed_sources_reported(self):
        report = SynFloodSignature().evaluate(flash_crowd(n_sources=3))
        assert len(report.completed_sources) == 3

    def test_benign_light_client_not_heavy_hitter(self):
        """A client with 2 failed attempts stays out of attacker_sources."""
        sources = {f"198.18.0.{i}": (1, 0) for i in range(40)}
        sources["10.0.0.7"] = (2, 0)  # unlucky benign client during flood
        ev = evidence(42, 0, sources=sources)
        report = SynFloodSignature().evaluate(ev)
        assert "10.0.0.7" not in report.attacker_sources
        assert "10.0.0.7" in report.suspect_sources


class TestConfig:
    def test_band_ordering_enforced(self):
        with pytest.raises(ValueError):
            SynFloodSignatureConfig(
                confirm_completion_below=0.8, refute_completion_above=0.5
            )

    def test_min_observations_enforced(self):
        with pytest.raises(ValueError):
            SynFloodSignatureConfig(min_syn_observations=0)

    def test_constituent_lookup_unknown_raises(self):
        report = SynFloodSignature().evaluate(spoofed_flood())
        with pytest.raises(KeyError):
            report.constituent("nonexistent")

    def test_report_carries_counts(self):
        report = SynFloodSignature().evaluate(spoofed_flood(n_sources=25))
        assert report.syn_total == 25
        assert report.source_count == 25

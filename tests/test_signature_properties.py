"""Property-based tests on signature verdict logic, plus long-run dynamics."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.signatures import (
    SynFloodSignature,
    SynFloodSignatureConfig,
    UdpFloodSignature,
    Verdict,
)
from repro.inspection.tracker import HandshakeEvidence


def evidence_from(sources: dict[str, tuple[int, int]], duration=1.0) -> HandshakeEvidence:
    ev = HandshakeEvidence(
        victim_ip="10.0.0.1", window_start=0.0, window_end=duration,
        syn_total=sum(s for s, _ in sources.values()),
        completion_total=sum(c for _, c in sources.values()),
    )
    for ip, (s, c) in sources.items():
        ev.syns[ip] = s
        if c:
            ev.completions[ip] = c
    return ev


source_maps = st.dictionaries(
    keys=st.integers(min_value=1, max_value=250).map(lambda i: f"198.18.0.{i}"),
    values=st.tuples(
        st.integers(min_value=1, max_value=50),  # syns
        st.integers(min_value=0, max_value=50),  # completions (clamped below)
    ).map(lambda t: (t[0], min(t[0], t[1]))),
    min_size=1,
    max_size=40,
)


class TestSynSignatureProperties:
    @given(sources=source_maps)
    @settings(max_examples=100)
    def test_verdict_is_always_defined(self, sources):
        report = SynFloodSignature().evaluate(evidence_from(sources))
        assert report.verdict in (Verdict.CONFIRMED, Verdict.REFUTED, Verdict.INCONCLUSIVE)
        assert 0.0 <= report.completion_ratio <= 1.0

    @given(sources=source_maps)
    @settings(max_examples=100)
    def test_source_partition_is_exact(self, sources):
        """attackers + suspects + completers cover every source once."""
        config = SynFloodSignatureConfig()
        report = SynFloodSignature(config).evaluate(evidence_from(sources))
        attackers = set(report.attacker_sources)
        suspects = set(report.suspect_sources)
        completed = set(report.completed_sources)
        assert not attackers & suspects
        assert not attackers & completed
        assert not suspects & completed
        assert attackers | suspects | completed == set(sources)

    @given(sources=source_maps, extra=st.integers(min_value=1, max_value=100))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
    def test_more_completions_never_create_a_confirmation(self, sources, extra):
        """Completing handshakes can only push the verdict away from
        CONFIRMED (monotonicity of the incompleteness constituent)."""
        base = evidence_from(sources)
        base_report = SynFloodSignature().evaluate(base)
        # Convert `extra` abandoned handshakes into completed ones.
        improved = evidence_from(sources)
        improved.completion_total = min(
            improved.syn_total, improved.completion_total + extra
        )
        improved_report = SynFloodSignature().evaluate(improved)
        if base_report.verdict is Verdict.REFUTED:
            assert improved_report.verdict is not Verdict.CONFIRMED

    @given(sources=source_maps)
    @settings(max_examples=60)
    def test_all_completing_traffic_never_confirmed(self, sources):
        """Traffic where every handshake completes must never confirm."""
        completing = {ip: (s, s) for ip, (s, _) in sources.items()}
        report = SynFloodSignature().evaluate(evidence_from(completing))
        assert report.verdict is not Verdict.CONFIRMED

    @given(n_sources=st.integers(min_value=25, max_value=200))
    @settings(max_examples=30)
    def test_pure_spoofed_flood_always_confirmed(self, n_sources):
        """Enough one-shot zero-completion sources at rate always confirm."""
        sources = {f"198.18.0.{i % 250}.{i // 250}".replace("..", "."): (1, 0)
                   for i in range(n_sources)}
        sources = {f"198.{18 + i // 250}.0.{i % 250 + 1}": (1, 0) for i in range(n_sources)}
        report = SynFloodSignature().evaluate(evidence_from(sources))
        assert report.verdict is Verdict.CONFIRMED


class TestLongRunDynamics:
    def test_persistent_attack_re_mitigated_after_rule_expiry(self):
        """Rules expire, the flood resurfaces, SPI re-confirms — repeatedly."""
        from repro.core.config import SpiConfig
        from repro.harness.scenario import ScenarioConfig, run_scenario
        from repro.harness.sweep import apply_overrides
        from repro.mitigation.manager import MitigationConfig
        from repro.workload.profiles import WorkloadConfig

        config = ScenarioConfig(
            topology="single",
            topology_params={"n_clients": 2, "n_attackers": 1},
            duration_s=60.0,
            defense="spi",
            workload=WorkloadConfig(
                attack_rate_pps=300, attack_start_s=5.0, attack_duration_s=1000
            ),
        )
        config = apply_overrides(
            config, {"spi.mitigation.rule_hard_timeout_s": 10.0}
        )
        result = run_scenario(config)
        confirmations = result.net.tracer.entries("spi.confirmed")
        # ~(60-5)/(10+~1.5) cycles; at least 3 full re-detections.
        assert len(confirmations) >= 3
        gaps = [
            b.time - a.time for a, b in zip(confirmations, confirmations[1:])
        ]
        # Each cycle is roughly rule lifetime + re-detection latency.
        assert all(9.0 <= gap <= 16.0 for gap in gaps)
        # Service holds up across cycles despite the brief re-detection dips.
        assert result.success_rate(20.0, 60.0) > 0.6

"""Tests for the exact-vs-sketch ``sketch-bounds`` variant of ``repro check``."""

from __future__ import annotations

import pytest

from repro.harness.fuzzer import (
    _SCALAR_FIELDS,
    VARIANTS,
    _ShadowPairExtractor,
    generate_scenario,
)
from repro.monitor.features import FeatureExtractor
from repro.net.headers import TCP_ACK, TCP_SYN, TcpHeader
from repro.net.packet import Packet

_MAC = "00:00:00:00:00:01"


def _syn(src_ip: str) -> Packet:
    return Packet.tcp_packet(
        _MAC, _MAC, src_ip, "10.0.0.2", TcpHeader(1234, 80, flags=TCP_SYN)
    )


def _ack(src_ip: str) -> Packet:
    return Packet.tcp_packet(
        _MAC, _MAC, src_ip, "10.0.0.2", TcpHeader(1234, 80, flags=TCP_ACK)
    )


class TestShadowPairExtractor:
    def _pair(self) -> _ShadowPairExtractor:
        return _ShadowPairExtractor(
            FeatureExtractor(), FeatureExtractor(backend="sketch")
        )

    def test_returns_exact_features(self):
        pair = self._pair()
        for i in range(40):
            pair.observe(_syn(f"10.0.{i}.1"))
        features = pair.close_window(1.0)
        assert features.backend == "exact"
        assert features.syn_count == 40
        assert features.distinct_sources == 40

    def test_records_both_sides_per_window(self):
        pair = self._pair()
        for i in range(30):
            pair.observe(_syn(f"10.0.{i}.1"))
        pair.close_window(1.0)
        for i in range(10):
            pair.observe(_ack(f"10.0.{i}.1"))
        pair.close_window(2.0)
        assert len(pair.windows) == 2
        exact, sketch, raw_syn, raw_udp = pair.windows[0]
        assert exact.backend == "exact"
        assert sketch.backend == "sketch"
        assert raw_syn == 30
        assert raw_udp == 0
        # Scalars agree: they come from the same batched fold.
        for name in _SCALAR_FIELDS:
            assert getattr(exact, name) == getattr(sketch, name)

    def test_sampling_probability_forwarded_to_both(self):
        pair = self._pair()
        pair.set_sampling_probability(0.25)
        assert pair.exact.sampling_probability == 0.25
        assert pair.sketch.sampling_probability == 0.25
        assert pair.sampling_probability == 0.25


class TestSketchDifferential:
    @pytest.mark.parametrize("seed", (0, 3))
    def test_seed_passes_bounds(self, seed):
        sketch_bounds = dict(VARIANTS)["sketch-bounds"]
        # The variant builds its own shadowed run; it reads no baseline.
        assert sketch_bounds(generate_scenario(seed), seed, "", 2) is None

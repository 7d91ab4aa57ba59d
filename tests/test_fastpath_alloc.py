"""The allocation fast path: the flood template and the vectorized
Internet checksum.

Everything here defends one promise: the fast path is invisible.  A
stamped packet must serialize byte-for-byte to what the classmethod
constructors build — and only when something reads its bytes — the
word-summed checksum must equal the word-at-a-time reference on any
input, and a flood-scale run must fingerprint identically on the fast
path and on the reference twins.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.harness.fuzzer import fingerprint_json
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.net.headers import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_SYN,
    EthernetHeader,
    TcpHeader,
    UdpHeader,
    internet_checksum,
)
from repro.net.packet import FloodTemplate, Packet, parse_packet
from repro.workload.profiles import WorkloadConfig

SRC_MAC = "02:00:00:00:00:01"
DST_MAC = "02:00:00:00:00:02"
VICTIM = "10.0.0.9"


def _legacy_syn(src_ip: str, src_port: int, seq: int) -> Packet:
    return Packet.tcp_packet(
        SRC_MAC, DST_MAC, src_ip, VICTIM,
        TcpHeader(src_port=src_port, dst_port=80, seq=seq, flags=TCP_SYN),
    )


def _legacy_udp(src_ip: str, src_port: int, payload: bytes) -> Packet:
    return Packet.udp_packet(
        SRC_MAC, DST_MAC, src_ip, VICTIM,
        UdpHeader(src_port=src_port, dst_port=53), payload=payload,
    )


def _syn_template() -> FloodTemplate:
    return FloodTemplate(SRC_MAC, DST_MAC, VICTIM, 80, PROTO_TCP)


def _udp_template(payload: bytes) -> FloodTemplate:
    return FloodTemplate(SRC_MAC, DST_MAC, VICTIM, 53, PROTO_UDP, payload=payload)


def _stamp_syn(template: FloodTemplate, src_ip: str, src_port: int, seq: int) -> Packet:
    header = TcpHeader(src_port=src_port, dst_port=80, seq=seq, flags=TCP_SYN)
    return template.stamp(src_ip, header)


def _stamp_udp(template: FloodTemplate, src_ip: str, src_port: int) -> Packet:
    return template.stamp(src_ip, UdpHeader(src_port=src_port, dst_port=53))


class TestSynFloodTemplate:
    def test_stamp_matches_classmethod_bytes(self):
        template = _syn_template()
        for src_ip, src_port, seq in [
            ("198.18.3.7", 1024, 0),
            ("198.18.255.254", 65535, 0xFFFFFFFF),
            ("1.2.3.4", 40000, 0x80008000),
        ]:
            stamped = _stamp_syn(template, src_ip, src_port, seq)
            assert stamped.to_bytes() == _legacy_syn(src_ip, src_port, seq).to_bytes()

    def test_stamp_leaves_wire_unset_and_parses_verified(self):
        stamped = _stamp_syn(_syn_template(), "198.18.0.1", 2048, 12345)
        parsed = parse_packet(stamped.to_bytes(), verify=True)  # checksums hold
        assert parsed.ip.src_ip == "198.18.0.1"
        assert parsed.tcp.seq == 12345

    def test_stamp_fields_match_classmethod(self):
        stamped = _stamp_syn(_syn_template(), "198.18.9.9", 5555, 77)
        legacy = _legacy_syn("198.18.9.9", 5555, 77)
        assert stamped.size_bytes == legacy.size_bytes
        assert stamped == legacy
        assert stamped.udp is None and stamped.icmp is None

    @given(st.integers(0, 0xFFFFFFFF), st.integers(1024, 65535))
    def test_stamp_checksums_for_any_seq_and_port(self, seq, src_port):
        stamped = _stamp_syn(_syn_template(), "198.18.1.2", src_port, seq)
        assert stamped.to_bytes() == _legacy_syn("198.18.1.2", src_port, seq).to_bytes()

    def test_rejects_other_protocols(self):
        with pytest.raises(ValueError):
            FloodTemplate(SRC_MAC, DST_MAC, VICTIM, 0, PROTO_ICMP)


class TestUdpFloodTemplate:
    def test_stamp_matches_classmethod_bytes(self):
        payload = b"x" * 64
        template = _udp_template(payload)
        for src_ip, src_port in [("198.18.3.7", 1024), ("203.0.113.200", 65535)]:
            stamped = _stamp_udp(template, src_ip, src_port)
            legacy = _legacy_udp(src_ip, src_port, payload)
            assert stamped.to_bytes() == legacy.to_bytes()
            assert stamped == legacy
            assert stamped.size_bytes == legacy.size_bytes

    def test_odd_length_payload_checksum(self):
        # Odd payloads exercise the zero-padding of the final 16-bit word.
        payload = b"abc"
        stamped = _stamp_udp(_udp_template(payload), "198.18.7.7", 3333)
        assert stamped.to_bytes() == _legacy_udp("198.18.7.7", 3333, payload).to_bytes()
        parse_packet(stamped.to_bytes(), verify=True)

    @given(st.integers(1024, 65535))
    def test_stamp_checksums_for_any_port(self, src_port):
        stamped = _stamp_udp(_udp_template(b"q" * 9), "198.18.1.2", src_port)
        assert stamped.to_bytes() == _legacy_udp("198.18.1.2", src_port, b"q" * 9).to_bytes()


class TestBytesOnDemand:
    """A one-process run packs no frame: DPI reads the mirrored frame itself,
    so the inspected frames are read but never serialized."""

    @pytest.mark.parametrize("attack_kind,detector", [("syn", "ewma"), ("udp", "udp-rate")])
    def test_only_inspected_frames_are_packed(self, monkeypatch, attack_kind, detector):
        packs = []
        pack = EthernetHeader.pack
        monkeypatch.setattr(
            EthernetHeader, "pack", lambda self: packs.append(1) or pack(self)
        )
        result = run_scenario(ScenarioConfig(
            topology="single", duration_s=6.0, detector=detector,
            workload=WorkloadConfig(
                attack_kind=attack_kind, attack_rate_pps=2000.0, attack_start_s=2.0
            ),
        ))
        attack_packets = sum(a.packets_sent for a in result.workload.attackers.values())
        inspected = result.spi.dpi.stats.frames_received
        assert 0 < inspected < attack_packets / 2  # the mirror window is selective
        assert len(packs) == 0


def _syn_flood_config(reference: bool) -> ScenarioConfig:
    """E5-style SYN flood: 4-switch linear chain, two 5000-pps attackers."""
    return ScenarioConfig(
        topology="linear",
        topology_params={"n_switches": 4, "clients_per_switch": 1, "n_attackers": 2},
        workload=WorkloadConfig(
            attack_kind="syn", attack_rate_pps=10000.0, attack_start_s=0.3
        ),
        duration_s=0.8,
        defense="spi",
        seed=5,
        reference=reference,
    )


def _udp_flood_config(reference: bool) -> ScenarioConfig:
    """UDP volumetric flood under SPI: most attack frames are mirrored."""
    return ScenarioConfig(
        topology="linear",
        topology_params={"n_switches": 2, "clients_per_switch": 1, "n_attackers": 2},
        workload=WorkloadConfig(
            attack_kind="udp", attack_rate_pps=20000.0, attack_start_s=0.3
        ),
        duration_s=0.8,
        defense="spi",
        detector="udp-rate",
        seed=7,
        reference=reference,
    )


@pytest.mark.parametrize("make", [_syn_flood_config, _udp_flood_config], ids=["syn", "udp"])
def test_fastpath_fingerprint_identical(make):
    """Flood scale on the fast path and on the reference twins
    (per-arrival scheduling, reference event loop, linear-scan flow
    tables) simulates byte-identical traffic.  ``repro check`` draws
    150–500 pps, so this is the one flood-rate check of the twins."""
    fast = fingerprint_json(run_scenario(make(reference=False)))
    slow = fingerprint_json(run_scenario(make(reference=True)))
    assert fast == slow, f"fast path changed the simulation for {make.__name__}"


def _reference_checksum(data: bytes) -> int:
    """The original word-at-a-time RFC 1071 loop."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestVectorizedChecksum:
    @given(st.binary(min_size=0, max_size=512))
    def test_matches_word_loop_reference(self, data):
        assert internet_checksum(data) == _reference_checksum(data)

    def test_known_edge_cases(self):
        for data in (b"", b"\x00", b"\xff", b"\xff" * 40, b"\x00" * 40,
                     b"\xff\xff\x00\x01", bytes(range(256)) * 3 + b"\x7f"):
            assert internet_checksum(data) == _reference_checksum(data)

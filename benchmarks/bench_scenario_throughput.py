"""Scenario throughput: packets simulated per second at flood scale.

The flood fast path (field-only packet templates, coalesced burst
scheduling) exists to make flood-scale scenarios cheap, so this
benchmark measures exactly that on two shapes:

* an E5-style SYN flood on a linear switch chain, where the reactive
  punt-and-flood cascade (every spoofed 5-tuple misses the flow table)
  dominates and bounds what emission-side work can save; and
* a UDP volumetric flood under selective packet inspection, where the
  mirror window covers most of the short run, so the inspector reads —
  and ``Packet.to_bytes()`` packs, 512-byte payload checksum included —
  most of the flood.  This is the one shape bytes-on-demand does not
  help: nearly every frame is read, so nothing is saved by not packing
  at birth.

Each shape is timed on the fast path (the shipped default) and on the
reference twins (``reference=True``: per-arrival scheduling, plus the
reference event loop and linear-scan flow tables).  All cases report
``packets_per_second`` — every frame serialized onto any link counts
once — via ``extra_info``, and the committed slim baseline gates the
fast-path medians like the other M1 benchmarks.

``_PREPR_BASELINE`` records the medians of the tree just before the
flood fast path first landed, measured on the same machine interleaved
run-for-run with the tree that produced the committed baseline; the
fast-path cases publish their speedup against it in ``extra_info``.

A non-benchmark companion test asserts each fast/reference pair
produces byte-identical fingerprints — the speedup must never buy a
different simulation.
"""

from __future__ import annotations

from repro.harness.fuzzer import fingerprint_json
from repro.harness.scenario import ScenarioConfig, ScenarioResult, run_scenario
from repro.workload.profiles import WorkloadConfig

#: Median wall-clock seconds for these exact configs on the commit just
#: before the flood fast path landed (measured interleaved with the
#: post-PR tree, median of 5 alternating runs per tree, same machine and
#: session that produced benchmarks/results/m1_baseline.json).
_PREPR_BASELINE = {
    "commit": "c486255",
    "synflood": {"median_s": 4.119, "packets_per_second": 47918.0},
    "udpflood": {"median_s": 4.841, "packets_per_second": 17103.0},
}


def _syn_flood_config(reference: bool = False) -> ScenarioConfig:
    """E5-style SYN flood: 4-switch linear chain, two 5000-pps attackers."""
    return ScenarioConfig(
        topology="linear",
        topology_params={"n_switches": 4, "clients_per_switch": 1, "n_attackers": 2},
        workload=WorkloadConfig(
            attack_kind="syn", attack_rate_pps=10000.0, attack_start_s=0.3
        ),
        duration_s=2.5,
        defense="spi",
        seed=5,
        reference=reference,
    )


def _udp_flood_config(reference: bool = False) -> ScenarioConfig:
    """UDP volumetric flood under SPI: every mirrored frame is re-parsed."""
    return ScenarioConfig(
        topology="linear",
        topology_params={"n_switches": 2, "clients_per_switch": 1, "n_attackers": 2},
        workload=WorkloadConfig(
            attack_kind="udp", attack_rate_pps=20000.0, attack_start_s=0.3
        ),
        duration_s=2.0,
        defense="spi",
        detector="udp-rate",
        seed=7,
        reference=reference,
    )


def _packets_simulated(result: ScenarioResult) -> int:
    """Frames serialized onto any link, in either direction."""
    return sum(
        link.stats_for(iface).packets_sent
        for link in result.net.links
        for iface in (link.a, link.b)
    )


def _run_throughput(benchmark, config: ScenarioConfig, shape: str | None) -> None:
    result = benchmark.pedantic(run_scenario, args=(config,), rounds=3, iterations=1)
    packets = _packets_simulated(result)
    assert packets > 50_000, "flood scenario did not reach flood scale"
    median = benchmark.stats.stats.median
    pps = packets / median
    benchmark.extra_info["packets_simulated"] = packets
    benchmark.extra_info["packets_per_second"] = round(pps, 1)
    if shape is not None:
        prepr = _PREPR_BASELINE[shape]
        benchmark.extra_info["prepr_commit"] = _PREPR_BASELINE["commit"]
        benchmark.extra_info["prepr_median_s"] = prepr["median_s"]
        benchmark.extra_info["speedup_vs_prepr"] = round(
            pps / prepr["packets_per_second"], 2
        )


def test_scenario_throughput_synflood(benchmark):
    """SYN flood, fast path on (the shipped default)."""
    _run_throughput(benchmark, _syn_flood_config(), "synflood")


def test_scenario_throughput_synflood_reference(benchmark):
    """SYN flood on the reference twins."""
    _run_throughput(benchmark, _syn_flood_config(reference=True), None)


def test_scenario_throughput_udpflood(benchmark):
    """UDP flood under SPI, fast path on (the shipped default)."""
    _run_throughput(benchmark, _udp_flood_config(), "udpflood")


def test_scenario_throughput_udpflood_reference(benchmark):
    """UDP flood under SPI on the reference twins."""
    _run_throughput(benchmark, _udp_flood_config(reference=True), None)


def test_fastpath_fingerprint_identical():
    """The timed variants above simulate byte-identical traffic."""
    for make in (_syn_flood_config, _udp_flood_config):
        fast = fingerprint_json(run_scenario(make()))
        slow = fingerprint_json(run_scenario(make(reference=True)))
        assert fast == slow, f"fast path changed the simulation for {make.__name__}"

"""Tests for the differential scenario fuzzer and its CLI entry point.

A handful of real differential runs (kept small — the 20-seed sweep
lives in CI via ``repro check``), plus determinism and failure shape
checks: the generator must be a pure function of its seed, the
fingerprint must exclude cache-dependent counters but catch genuine
metric drift, every entry of ``VARIANTS`` must agree with the default
run, and a divergence must surface as a failing outcome that names the
variant, not as an exception.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.harness import fuzzer
from repro.harness.experiments import BASE
from repro.harness.fuzzer import (
    VARIANTS,
    DifferentialOutcome,
    describe_outcome,
    fingerprint,
    fingerprint_json,
    generate_scenario,
    run_fuzz_suite,
)
from repro.harness.scenario import run_scenario
from repro.harness.serialize import config_to_dict
from repro.harness.sweep import apply_overrides

VARIANT_NAMES = [name for name, _check in VARIANTS]


def test_variant_table_is_the_seven_lanes():
    # A lane is added or dropped on purpose (README, CI comment, verify skill).
    assert VARIANT_NAMES == [
        "reference", "sharded-1", "sharded-2", "sharded-4",
        "served", "pooled", "sketch-bounds",
    ]

# sha256[:12] of each seed's config_to_dict JSON at the commit before the
# strategy knobs collapsed, with those knobs' keys dropped.  The defense
# knobs and unvaried knobs retired since then are re-inserted, by dotted
# path, at the defaults every seed carried.
_RETIRED_KNOBS = {
    "sampled_period_s": 5.0,
    "sampled_duty": 0.2,
    "flowstats_poll_s": 1.0,
    "flowstats_pps_threshold": 200.0,
    "baseline_mitigates": True,
    "probe_period_s": 0.5,
    "invariant_period_s": 0.5,
    "workload.server_port": 80,
    "workload.response_bytes": 2000,
    "workload.client_think_s": 0.5,
    "workload.request_bytes": 200,
    "spi.mirror_priority": 200,
    "spi.mirror_tcp_only": False,
    "spi.enable_udp_signature": True,
    "spi.alert_latency_s": 0.005,
    "spi.monitor.per_destination_cap": None,
    "spi.mitigation.aggregate_prefix_len": 16,
    "spi.mitigation.shield_pps": 50.0,
}
_PARENT_SHAPES = [
    "1b6032f9d172", "af45197dc1e2", "b41237b4ddba", "43cef666c77e",
    "ff52063dc733", "93666c0e22f5", "3143a4a799a7", "af6774ce4ad0",
    "67f759e87e2e", "6aec359efde8", "9427884c089f", "a95c7ccc884b",
    "0d6df053c062", "a34345698e84", "017ddd3b966f", "095d77133573",
    "453209487720", "dd2a9b408b40", "c34587a077d7", "ebc92e37b754",
    "1583df4004eb", "82913b36dbe1", "558dc74c3fea", "e8b98643914b",
    "a4fe25779b1b",
]


class TestGenerator:
    def test_deterministic_per_seed(self):
        assert generate_scenario(7) == generate_scenario(7)
        assert generate_scenario(7) != generate_scenario(8)

    def test_always_enables_invariants(self):
        for seed in range(20):
            config = generate_scenario(seed)
            assert config.check_invariants is True
            assert config.reference is False

    def test_udp_attacks_get_udp_detector(self):
        kinds = set()
        for seed in range(40):
            config = generate_scenario(seed)
            kinds.add(config.workload.attack_kind)
            if config.workload.attack_kind == "udp":
                assert config.detector == "udp-rate"
            else:
                assert config.detector != "udp-rate"
        assert kinds == {"syn", "udp"}

    def test_seeds_keep_their_parent_commit_shapes(self):
        # The pooling/burst draws came last, so dropping them must not
        # have moved any other draw of any seed.
        for seed, expected in enumerate(_PARENT_SHAPES):
            data = config_to_dict(generate_scenario(seed))
            del data["reference"]
            for path, value in _RETIRED_KNOBS.items():
                *parents, name = path.split(".")
                node = data
                for parent in parents:
                    node = node[parent]
                node[name] = value
            digest = hashlib.sha256(
                json.dumps(data, sort_keys=True).encode()
            ).hexdigest()
            assert digest[:12] == expected, seed


class TestFingerprint:
    def test_covers_core_metrics_and_omits_microflow(self):
        config = generate_scenario(2)
        data = fingerprint(run_scenario(config))
        assert {"detections", "switches", "links", "stacks",
                "final_time"} <= set(data)
        # The raw event count is schedule-encoding-dependent (burst
        # coalescing changes it) and must stay out of the fingerprint.
        assert "events_executed" not in data
        for counters in data["switches"].values():
            assert not any(key.startswith("microflow") for key in counters)
            assert {"lookups", "hits", "misses"} <= set(counters)
        # Canonical form is stable and parseable.
        text = fingerprint_json(run_scenario(config))
        assert json.loads(text) == json.loads(fingerprint_json(run_scenario(config)))

    def test_detects_genuine_metric_drift(self):
        config = generate_scenario(2)
        result_a = run_scenario(config)
        result_b = run_scenario(config)
        result_b.net.switches["s1"].counters.packets_forwarded += 1
        assert fingerprint_json(result_a) != fingerprint_json(result_b)


# star / spi / cusum / SYN flood with a flash crowd: monitors to shadow,
# several switches to shard.
_VARIANT_SEED = 10


# E7c's budget-1 point, cut to 12 s and given one benign client: three
# victims flooded at once on one switch, queued by a one-slot budget.
_MULTI_VICTIM = apply_overrides(BASE, {
    "topology": "single",
    "topology_params": {"n_servers": 3, "n_clients": 1, "n_attackers": 3},
    "workload.attack_rate_pps": 750.0,
    "spi.budget.max_concurrent": 1,
    "duration_s": 12.0,
    "check_invariants": True,
})


@pytest.fixture(scope="module")
def variant_case():
    """Each input every variant must reproduce, with its default run's
    fingerprint: the fuzzed scenario and the multi-victim one."""
    return [
        (config, fingerprint_json(run_scenario(config)))
        for config in (generate_scenario(_VARIANT_SEED), _MULTI_VICTIM)
    ]


@pytest.mark.parametrize("name", VARIANT_NAMES)
class TestVariants:
    def test_agrees_with_the_default_run(self, name, variant_case):
        check = dict(VARIANTS)[name]
        for config, baseline in variant_case:
            assert check(config, _VARIANT_SEED, baseline, 2) is None, config.topology

    def test_planted_divergence_names_the_variant(self, name, monkeypatch, capsys):
        from repro.cli import main

        def planted(config, seed, baseline, workers):
            return "planted divergence"

        def agrees(config, seed, baseline, workers):
            return None

        monkeypatch.setattr(fuzzer, "VARIANTS", tuple(
            (other, planted if other == name else agrees)
            for other in VARIANT_NAMES
        ))
        (outcome,) = run_fuzz_suite(n_seeds=1)
        assert not outcome.matched
        assert outcome.variants == tuple(VARIANT_NAMES)
        assert outcome.detail == f"{name}: planted divergence"
        assert f"diverged: {name}\n" in describe_outcome(outcome)
        assert main(["check", "--seeds", "1", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["failures"] == [
            {"seed": 0, "detail": f"{name}: planted divergence"}
        ]


class TestDifferentialRuns:
    @pytest.mark.parametrize("seed", [0, 3, 16])
    def test_seed_is_byte_identical_across_engines(self, seed):
        config = generate_scenario(seed)
        default = fingerprint_json(run_scenario(config))
        reference = dict(VARIANTS)["reference"]
        assert reference(config, seed, default, 2) is None

    def test_suite_report_aggregates(self):
        outcomes = run_fuzz_suite(n_seeds=2, base_seed=0)
        assert [outcome.seed for outcome in outcomes] == [0, 1]
        for outcome in outcomes:
            assert outcome.matched, describe_outcome(outcome)
            assert outcome.variants == tuple(VARIANT_NAMES)
            assert describe_outcome(outcome).endswith(
                f"[{' '.join(VARIANT_NAMES)}]"
            )

    def test_mismatch_surfaces_as_failed_report(self, monkeypatch):
        real = fuzzer.fingerprint_json
        calls = []

        def skewed(result):
            calls.append(result)
            text = real(result)
            if len(calls) > 1:  # corrupt every run after the default one
                data = json.loads(text)
                data["final_time"] += 1
                return json.dumps(data, sort_keys=True)
            return text

        monkeypatch.setattr(fuzzer, "fingerprint_json", skewed)
        monkeypatch.setattr(fuzzer, "VARIANTS", VARIANTS[:1])
        (outcome,) = run_fuzz_suite(n_seeds=1)
        assert not outcome.matched
        assert outcome.detail.startswith("reference: ")
        assert "final_time" in outcome.detail
        assert "FAIL" in describe_outcome(outcome)

    def test_invariant_violation_is_a_complaint_not_an_exception(self, monkeypatch):
        from repro.sim.invariants import InvariantViolation

        def trips(config, seed, baseline, workers):
            raise InvariantViolation("planted", "planted violation", sim_time=1.0)

        monkeypatch.setattr(fuzzer, "VARIANTS", (("reference", trips),))
        (outcome,) = run_fuzz_suite(n_seeds=1)
        assert not outcome.matched
        assert outcome.detail.startswith("reference: invariant violation")


class TestCheckCommand:
    def test_cli_check_passes_and_reports(self, capsys):
        from repro.cli import main

        assert main(["check", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert f"PASS: 2/2 seeds byte-identical across {len(VARIANTS)} variants" in out

    def test_cli_check_json_shape(self, capsys):
        from repro.cli import main

        assert main(["check", "--seeds", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["failures"] == []
        assert payload["seeds"] == 1
        assert payload["variants"] == VARIANT_NAMES

    def test_cli_check_fails_on_mismatch(self, capsys, monkeypatch):
        from repro.cli import main

        def broken_suite(**kwargs):
            return [DifferentialOutcome(
                seed=0, config=generate_scenario(0),
                complaints=(("served", "planted divergence"),),
            )]

        monkeypatch.setattr(
            "repro.harness.fuzzer.run_fuzz_suite", broken_suite
        )
        assert main(["check", "--seeds", "1", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["failures"][0]["detail"] == "served: planted divergence"

    def test_cli_check_has_no_selector_flags(self):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["check", "--serve-oracle"])

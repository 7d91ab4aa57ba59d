"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dumbbell" in out
        assert "spi" in out
        assert "ewma" in out
        assert "e1" in out


class TestRun:
    def test_json_output_shape(self, capsys):
        code = main(["run", "--duration", "12", "--rate", "300", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["defense"] == "spi"
        assert payload["detections"] == 1
        assert payload["time_to_mitigation_s"] is not None

    def test_table_output(self, capsys):
        assert main(["run", "--duration", "10", "--topology", "single"]) == 0
        out = capsys.readouterr().out
        assert "time_to_alert_s" in out
        assert "inspected_fraction" in out

    def test_no_attack(self, capsys):
        assert main(["run", "--duration", "8", "--no-attack", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["detections"] == 0

    def test_defense_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["run", "--defense", "hope"])

    def test_syn_cookies_flag(self, capsys):
        code = main([
            "run", "--duration", "12", "--defense", "none", "--syn-cookies",
            "--rate", "300", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success_after_attack"] > 0.9

    def test_reference_flag_results_identical(self, capsys):
        payloads = []
        for flags in ([], ["--reference"]):
            assert main(["run", "--duration", "10", "--json", *flags]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        # The linear-scan reference tables have no microflow cache to hit.
        assert payloads[0].pop("microflow_hit_rate") > 0
        assert payloads[1].pop("microflow_hit_rate") == 0
        assert payloads[0] == payloads[1]

    def test_sharded_summary_is_topology_wide(self, capsys):
        # The coordinator's replicas of foreign switches see no traffic,
        # so every datapath-wide number must come from all shards' slices.
        payloads = []
        for shards in ("1", "2"):
            assert main([
                "run", "--topology", "linear", "--duration", "8", "--rate", "300",
                "--shards", shards, "--json",
            ]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[1].pop("transport")["epochs"] > 0
        assert 0 < payloads[0]["microflow_hit_rate"] < 1
        assert payloads[0] == payloads[1]
        assert [case["state"] for case in payloads[0]["cases"]] == ["confirmed"]

    @pytest.mark.parametrize("flag", [
        "--engine=reference", "--no-pooling", "--no-burst-coalescing",
        "--transport=pickle",
    ])
    def test_retired_strategy_flags_rejected(self, flag):
        with pytest.raises(SystemExit):
            main(["run", flag])

    def test_monitor_backend_sketch_detects(self, capsys):
        code = main([
            "run", "--duration", "12", "--rate", "300",
            "--monitor-backend", "sketch", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["detections"] == 1

    def test_monitor_backend_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["run", "--monitor-backend", "bloom"])


class TestExperiment:
    def test_quick_experiment_prints_table(self, capsys):
        assert main(["experiment", "e3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E3" in out
        assert "always-on" in out

    def test_markdown_output(self, capsys):
        assert main(["experiment", "e3", "--quick", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.count("|") > 10

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e99"])

    def test_cached_experiment_hits_on_rerun(self, capsys, tmp_path):
        args = [
            "experiment", "e3", "--quick", "--workers", "1",
            "--cache", "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "misses" in cold and "0 hits" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm and "0 hits" not in warm
        # Tables are byte-identical cold vs warm (stats line aside).
        strip = lambda text: text.split("cache:")[0]  # noqa: E731
        assert strip(cold) == strip(warm)

    def test_no_cache_is_the_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["experiment", "e3", "--quick", "--workers", "1"]) == 0
        assert "cache:" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestCacheCommand:
    def test_info_and_clear_roundtrip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "info"]) == 0
        assert "entries: 0" in capsys.readouterr().out
        assert main([
            "experiment", "e3", "--quick", "--workers", "1", "--cache",
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "entries: 0" not in out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestCacheInfoJson:
    def test_stable_schema(self, capsys, tmp_path):
        code = main(["cache", "info", "--cache-dir", str(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["bytes", "entries", "path"]
        assert payload["entries"] == 0


class TestCtl:
    def test_unreachable_server_fails_cleanly(self, capsys):
        code = main(["ctl", "--port", "1", "status"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestBrokenStdoutPipe:
    """Writing to a reader that hung up (`| grep -q`) is a quiet exit.

    Regression: `repro ctl status --json | grep -q done` made grep exit
    on the first match, the CLI's print then raised BrokenPipeError, and
    the ctl ConnectionError handler misreported a healthy server as
    unreachable.
    """

    class _HungUpStdout:
        def write(self, data):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            raise ValueError("no underlying file")

    def test_main_exits_quietly_on_epipe(self, monkeypatch):
        import sys as _sys

        monkeypatch.setattr(_sys, "stdout", self._HungUpStdout())
        assert main(["list"]) == 0

    def test_ctl_does_not_misreport_server_unreachable(
        self, capsys, monkeypatch
    ):
        import sys as _sys

        from repro.service import client as client_module

        class _Client:
            def __init__(self, *args, **kwargs):
                pass

            def status(self):
                return {"sessions": 0, "by_state": {}, "session_list": []}

        monkeypatch.setattr(client_module, "ServiceClient", _Client)
        monkeypatch.setattr(_sys, "stdout", self._HungUpStdout())
        assert main(["ctl", "status", "--json"]) == 0
        assert "cannot reach" not in capsys.readouterr().err

    def test_subprocess_reader_hangs_up(self):
        import subprocess
        import sys as _sys

        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "list"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # reader goes away before the CLI writes
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err.decode()
        assert b"Traceback" not in err

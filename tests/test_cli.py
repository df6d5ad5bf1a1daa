"""Command-line interface: commands, flags, exit codes."""

from __future__ import annotations

import json

import pytest

from qkdsim.cli import main
from qkdsim.scenario import EXIT_USAGE


def run_args(configs, out, scenario="attack-link1.json", extra=()):
    return ["run",
            "--topology", str(configs / "reference_topology.json"),
            "--scenario", str(configs / scenario),
            "--seed", "42", "--out", str(out), *extra]


class TestRunCommand:
    def test_short_scenario_round_trip(self, tmp_path, configs):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"duration_s": 300}), encoding="utf-8")
        code = main(["run", "--topology", str(configs / "reference_topology.json"),
                     "--scenario", str(scenario), "--seed", "7",
                     "--out", str(tmp_path / "out"), "--deterministic"])
        assert code == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        info = json.loads((tmp_path / "out" / "run_info.json").read_text())
        assert info["seed"] == 7 and info["deterministic"] is True

    def test_qpm_log_flag_redirects_the_event_log(self, tmp_path, configs):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"duration_s": 300}), encoding="utf-8")
        log = tmp_path / "events.ndjson"
        code = main(["run", "--topology", str(configs / "reference_topology.json"),
                     "--scenario", str(scenario), "--seed", "7",
                     "--out", str(tmp_path / "out"), "--deterministic",
                     "--qpm-log", str(log)])
        assert code == 0
        assert log.exists()
        assert not (tmp_path / "out" / "qpm_log.ndjson").exists()

    def test_missing_file_is_a_usage_error(self, tmp_path, configs, capsys):
        code = main(["run", "--topology", str(configs / "reference_topology.json"),
                     "--scenario", str(tmp_path / "nope.json"),
                     "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_malformed_topology_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"duration_s": 60}), encoding="utf-8")
        code = main(["run", "--topology", str(bad), "--scenario", str(scenario),
                     "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_topology_directory_is_a_usage_error(self, tmp_path, configs, capsys):
        code = main(["run", "--topology", str(tmp_path),
                     "--scenario", str(configs / "attack-link1.json"),
                     "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_required_flag_exits_2(self, configs):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--topology", str(configs / "reference_topology.json")])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["explode"])
        assert excinfo.value.code == 2


class TestSweepCommand:
    def test_writes_the_grid(self, tmp_path, configs, capsys):
        code = main(["sweep", "--topology", str(configs / "reference_topology.json"),
                     "--link", "link1", "--from", "-80", "--to", "-68",
                     "--step", "0.5", "--out", str(tmp_path)])
        assert code == 0
        assert "sweep.csv" in capsys.readouterr().out
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 26
        assert lines[1].startswith("-80.00,")

    def test_unknown_link_is_a_usage_error(self, tmp_path, configs, capsys):
        code = main(["sweep", "--topology", str(configs / "reference_topology.json"),
                     "--link", "ghost", "--from", "-80", "--to", "-68",
                     "--step", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "unknown link" in capsys.readouterr().err


class TestSummarizeCommand:
    def test_plain_summary_exits_0(self, run_link1, capsys):
        code = main(["summarize", "--out", str(run_link1["out"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "run summary" in out
        assert "mitigation episodes" in out

    def test_thresholds_pass(self, run_link1, configs, capsys):
        code = main(["summarize", "--out", str(run_link1["out"]),
                     "--thresholds", str(configs / "thresholds.json")])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_thresholds_exit_1(self, run_link1, tmp_path, capsys):
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({"steady_state_skr_bps": [1e6, 2e6]}),
                          encoding="utf-8")
        code = main(["summarize", "--out", str(run_link1["out"]),
                     "--thresholds", str(strict)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_run_dir_is_a_usage_error(self, tmp_path, capsys):
        code = main(["summarize", "--out", str(tmp_path / "void")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

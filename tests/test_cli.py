"""Command-line interface: commands, flags, exit codes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qkdsim.cli import main
from qkdsim.scenario import EXIT_USAGE, ScenarioRun

SRC = Path(__file__).resolve().parent.parent / "src"


def python_m_qkdsim(*args, **env) -> subprocess.CompletedProcess:
    """`python -m qkdsim args` in a fresh process, with env added to its environment."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "qkdsim", *args],
                          env=env, capture_output=True, text=True, timeout=120)


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

    def test_an_unwritable_monitor_log_fails_before_the_run(self, tmp_path, configs,
                                                            capsys, monkeypatch):
        out = tmp_path / "out"
        assert main(run_args(configs, out, extra=["--deterministic"])) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(ScenarioRun, "execute",
                            lambda self: pytest.fail("the run started"))
        code = main(run_args(configs, out, scenario="attack-link1-then-link2.json",
                             extra=["--qpm-log", str(tmp_path / "missing" / "log.ndjson")]))
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("name", ["metrics.csv", "summary.txt"])
    def test_a_monitor_log_on_a_run_file_is_refused(self, tmp_path, configs, capsys,
                                                    monkeypatch, name):
        """A --qpm-log that names one of the run's own files, however spelt,
        exits 2 with one line before anything is written."""
        out = tmp_path / "out"
        assert main(run_args(configs, out, extra=["--deterministic"])) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(ScenarioRun, "execute",
                            lambda self: pytest.fail("the run started"))
        capsys.readouterr()
        fresh = tmp_path / "fresh"
        for run_dir, log in ((out, out / name), (out, out / "." / name),
                             (fresh, fresh / name)):
            code = main(run_args(configs, run_dir, extra=["--qpm-log", str(log)]))
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: monitor log") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not fresh.exists()

    @pytest.mark.parametrize("new_id", ["li,nk2", "li\nnk2"])
    def test_an_id_that_breaks_a_csv_field_is_refused(self, tmp_path, configs, capsys,
                                                      monkeypatch, new_id):
        """link2 renamed, as link and as path: exit 2 with one line before
        the run starts, leaving an earlier run's files as they were."""
        out = tmp_path / "out"
        assert main(run_args(configs, out, extra=["--deterministic"])) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        doc = json.loads((configs / "reference_topology.json").read_text(encoding="utf-8"))
        doc["links"][1]["id"] = doc["paths"][1]["id"] = doc["paths"][1]["link"] = new_id
        topology = tmp_path / "topology.json"
        topology.write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setattr(ScenarioRun, "execute",
                            lambda self: pytest.fail("the run started"))
        capsys.readouterr()
        code = main(["run", "--topology", str(topology),
                     "--scenario", str(configs / "attack-link1.json"),
                     "--seed", "42", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: link entry: id") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_a_relative_monitor_log_is_found_from_any_directory(self, tmp_path, configs,
                                                                capsys, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(run_args(configs, "rel",
                             extra=["--deterministic", "--qpm-log", "logs.ndjson"])) == 0
        info = json.loads((work / "rel" / "run_info.json").read_text(encoding="utf-8"))
        assert os.path.isabs(info["qpm_log"])
        assert os.path.samefile(info["qpm_log"], work / "logs.ndjson")
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["summarize", "--out", str(work / "rel")]) == 0
        assert capsys.readouterr().out == (work / "rel" / "summary.txt").read_text(
            encoding="utf-8")

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

    @pytest.mark.parametrize("scenario", [
        '{"duration_s": NaN}',
        '{"duration_s": true}',
        '{"duration_s": 600, "events": [{"t": Infinity, "link": "link1", '
        '"attack_power_dbm": -40}]}',
        '{"duration_s": 600, "events": [{"t": 10, "link": "link1", '
        '"attack_power_dbm": true}]}',
        '{"duration_s": 600, "events": [{"t": 10, "link": "link1", '
        '"attack_power_dbm": NaN}]}',
    ])
    def test_non_finite_or_bool_numbers_are_a_usage_error(self, tmp_path, configs, capsys,
                                                          scenario):
        (tmp_path / "s.json").write_text(scenario, encoding="utf-8")
        code = main(["run", "--topology", str(configs / "reference_topology.json"),
                     "--scenario", str(tmp_path / "s.json"), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_a_huge_attack_power_is_detected(self, tmp_path, configs):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"duration_s": 900, "events": [
            {"t": 300, "link": "link1", "attack_power_dbm": 5000}]}), encoding="utf-8")
        code = main(["run", "--topology", str(configs / "reference_topology.json"),
                     "--scenario", str(scenario), "--seed", "1",
                     "--out", str(tmp_path / "out"), "--deterministic"])
        assert code == 0
        info = json.loads((tmp_path / "out" / "run_info.json").read_text())
        assert (info["episodes"], info["final_active_path"]) == (1, "link2")

    def test_a_run_over_the_row_bound_is_refused_before_any_file(self, tmp_path, configs,
                                                                  capsys):
        """10**6 metrics rows at most: 60 s polls over 60,000,000 s make one more."""
        (tmp_path / "s.json").write_text('{"duration_s": 6e7}', encoding="utf-8")
        code = main(["run", "--topology", str(configs / "reference_topology.json"),
                     "--scenario", str(tmp_path / "s.json"), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "metrics rows" in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("grid", [["--from", "-80", "--to", "-70", "--step", "nan"],
                                      ["--from", "-80", "--to", "inf", "--step", "1"],
                                      ["--from=-inf", "--to", "-70", "--step", "1"]])
    def test_a_non_finite_grid_is_a_usage_error(self, tmp_path, configs, capsys, grid):
        code = main(["sweep", "--topology", str(configs / "reference_topology.json"),
                     "--link", "link1", *grid, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err

    def test_huge_powers_read_as_a_dead_channel(self, tmp_path, configs):
        code = main(["sweep", "--topology", str(configs / "reference_topology.json"),
                     "--link", "link1", "--from", "4000", "--to", "5000",
                     "--step", "1000", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1:] == ["4000.00,0.000000,0.500000", "5000.00,0.000000,0.500000"]

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

    def test_python_dash_m_runs_the_cli(self, run_link1):
        done = python_m_qkdsim("summarize", "--out", str(run_link1["out"]))
        assert done.returncode == 0, done.stderr
        assert done.stdout == (run_link1["out"] / "summary.txt").read_text(encoding="utf-8")


def _edit(name, change):
    def corrupt(run_dir: Path):
        path = run_dir / name
        path.write_text(change(path.read_text(encoding="utf-8")), encoding="utf-8")
    return corrupt


def _edit_info(change):
    return _edit("run_info.json", lambda text: json.dumps(change(json.loads(text))))


def _drop(key):
    def change(info):
        del info[key]
        return info
    return change


def _truncate_mid_row(text):
    cut = text.index("\n", len(text) // 2) + 1
    return text[:cut + 12]  # "t,active_path" of the next row


def _swap_rows(text):
    lines = text.splitlines(keepends=True)
    lines[5], lines[6] = lines[6], lines[5]
    return "".join(lines)


# (label, corruption, what the error line must name)
MALFORMED_RUNS = [
    ("truncated-metrics", _edit("metrics.csv", _truncate_mid_row), "metrics.csv line 108: expected 8 fields, got 2"),
    ("info-without-init-grace", _edit_info(_drop("init_grace_s")), "init_grace_s"),
    ("info-is-a-list", _edit_info(lambda info: [info]), "run_info.json must be an object"),
    ("event-without-kind",
     _edit("qpm_log.ndjson", lambda text: text.replace('"kind":"DETECTED",', "")),
     "qpm_log.ndjson line 4:"),
    ("two-field-timing-row", _edit("timing.csv", lambda text: text + "2,1.0\n"),
     "timing.csv line 3:"),
    ("metrics-t-decreases", _edit("metrics.csv", _swap_rows), "metrics.csv line 7: t decreases"),
    ("metrics-qber-nan",
     _edit("metrics.csv", lambda text: text.replace(",0.000000,-inf", ",nan,-inf", 1)),
     "metrics.csv line 2: qber is not finite"),
    ("metrics-without-qber-column",
     _edit("metrics.csv", lambda text: text.replace(",qber,", ",q,", 1)),
     "metrics.csv line 1: missing column 'qber'"),
    ("empty-metrics", _edit("metrics.csv", lambda text: ""), "metrics.csv: empty"),
    ("event-log-not-json", _edit("qpm_log.ndjson", lambda text: text + "{oops\n"),
     "qpm_log.ndjson line 8:"),
    ("info-grace-is-a-string", _edit_info(lambda info: {**info, "init_grace_s": "240"}),
     "init_grace_s must be a number"),
    ("metrics-qber-not-a-number",
     _edit("metrics.csv", lambda text: text.replace(",0.000000,-inf", ",low,-inf", 1)),
     "metrics.csv line 2: could not convert string to float: 'low'"),
    ("timing-field-not-a-number",
     _edit("timing.csv", lambda text: text.replace("\n1,2.000000,", "\n1,soon,", 1)),
     "timing.csv line 2: could not convert string to float: 'soon'"),
    ("timing-episode-not-an-integer",
     _edit("timing.csv", lambda text: text.replace("\n1,", "\n1.5,", 1)),
     "timing.csv line 2: invalid literal for int() with base 10: '1.5'"),
    ("event-without-path",
     _edit("qpm_log.ndjson", lambda text: text.replace('"path":"link1",', "", 1)),
     "qpm_log.ndjson line 1: missing required field 'path'"),
]


@pytest.mark.parametrize("corrupt,expected", [m[1:] for m in MALFORMED_RUNS],
                         ids=[m[0] for m in MALFORMED_RUNS])
def test_malformed_run_directory_is_a_usage_error(run_link1, tmp_path, capsys,
                                                   corrupt, expected):
    run_dir = tmp_path / "run"
    shutil.copytree(run_link1["out"], run_dir)
    corrupt(run_dir)
    code = main(["summarize", "--out", str(run_dir)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert expected in err


@pytest.mark.parametrize("name", ["topology", "scenario", "thresholds", "run_info.json",
                                  "qpm_log.ndjson", "metrics.csv", "timing.csv"])
def test_an_input_that_is_not_utf8_is_a_usage_error(run_link1, configs, tmp_path, capsys,
                                                    name):
    """Each file run or summarize reads, with a byte that is not UTF-8 in
    front: one line, exit 2, and the line names the file."""
    run_dir = tmp_path / "run"
    shutil.copytree(run_link1["out"], run_dir)
    files = {"topology": configs / "reference_topology.json",
             "scenario": configs / "attack-link1.json",
             "thresholds": configs / "thresholds.json"}
    source = files.get(name, run_dir / name)
    bad = tmp_path / f"bad-{name}" if name in files else source
    bad.write_bytes(b"\xff" + source.read_bytes())
    files[name] = bad
    if name in ("topology", "scenario"):
        args = ["run", "--topology", str(files["topology"]), "--scenario",
                str(files["scenario"]), "--seed", "1", "--out", str(tmp_path / "out")]
    else:
        args = ["summarize", "--out", str(run_dir), "--thresholds", str(files["thresholds"])]
    code = main(args)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err


@pytest.mark.parametrize("link,anchor,value", [
    (1, "suppression_db", 1e9),
    (1, "suppression_db", 1e308),
    (1, "suppression_db", -1e9),
    (0, "baseline_qber", 1e-320),
])
def test_extreme_calibration_anchor_is_a_usage_error(tmp_path, configs, capsys,
                                                     link, anchor, value):
    topology = json.loads((configs / "reference_topology.json").read_text(encoding="utf-8"))
    topology["links"][link]["channel"]["calibrate"][anchor] = value
    path = tmp_path / "topology.json"
    path.write_text(json.dumps(topology), encoding="utf-8")
    code = main(["run", "--topology", str(path),
                 "--scenario", str(configs / "attack-link1.json"),
                 "--seed", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1


# (label, thresholds file content or None for the bundled one, run_info.json
# change, what the error line must name)
MALFORMED_THRESHOLDS = [
    ("band-is-a-number", {"steady_state_skr_bps": 5}, None,
     "steady_state_skr_bps must be a list"),
    ("band-of-strings", {"steady_state_qber": ["a", "b"]}, None,
     "steady_state_qber must be a [low, high] pair of numbers"),
    ("band-of-three", {"steady_state_qber": [0.01, 0.02, 0.03]}, None,
     "steady_state_qber must be a [low, high] pair of numbers"),
    ("limit-is-a-string", {"controller_reinit_ratio_max": "0.01"}, None,
     "controller_reinit_ratio_max must be a number"),
    ("band-reversed", {"steady_state_qber": [0.05, 0.01]}, None,
     "thresholds.json: steady_state_qber must have low <= high, got [0.05, 0.01]"),
    ("limit-negative", {"controller_reinit_ratio_max": -1}, None,
     "thresholds.json: controller_reinit_ratio_max must not be negative, got -1"),
    ("parity-limit-negative", {"reinit_parity_frac_max": -0.5}, None,
     "thresholds.json: reinit_parity_frac_max must not be negative, got -0.5"),
    ("thresholds-is-a-list", [0.01], None, "must be an object"),
    ("first-init-zero", None, {"first_init_s": 0}, "first_init_s must be positive"),
]


@pytest.mark.parametrize("thresholds,info,expected", [m[1:] for m in MALFORMED_THRESHOLDS],
                         ids=[m[0] for m in MALFORMED_THRESHOLDS])
def test_malformed_thresholds_check_is_a_usage_error(run_link1, configs, tmp_path, capsys,
                                                     thresholds, info, expected):
    run_dir = tmp_path / "run"
    shutil.copytree(run_link1["out"], run_dir)
    path = configs / "thresholds.json"
    if thresholds is not None:
        path = tmp_path / "thresholds.json"
        path.write_text(json.dumps(thresholds), encoding="utf-8")
    if info is not None:
        _edit_info(lambda old: {**old, **info})(run_dir)
    code = main(["summarize", "--out", str(run_dir), "--thresholds", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert expected in err


def test_runs_are_byte_identical_across_processes(tmp_path, configs):
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hashseed-{hash_seed}"
        done = python_m_qkdsim(*run_args(configs, out, scenario="attack-link1-then-link2.json",
                                         extra=["--deterministic"]),
                               PYTHONHASHSEED=hash_seed)
        assert done.returncode == 0, done.stderr
        outputs.append({name: (out / name).read_bytes() for name in (
            "metrics.csv", "qpm_log.ndjson", "controller_log.ndjson", "timing.csv",
            "summary.txt")})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("deep", ["topology", "scenario", "run_info"])
def test_deeply_nested_json_is_a_usage_error(run_link1, configs, tmp_path, deep):
    """Python's JSON parser gives up on deep nesting with a RecursionError,
    which reads as any other file that cannot be parsed: one line, exit 2."""
    nested = "[" * 100000
    if deep == "run_info":
        run_dir = tmp_path / "run"
        shutil.copytree(run_link1["out"], run_dir)
        (run_dir / "run_info.json").write_text(nested, encoding="utf-8")
        args = ["summarize", "--out", str(run_dir)]
    else:
        files = {"topology": configs / "reference_topology.json",
                 "scenario": configs / "attack-link1.json",
                 deep: tmp_path / "deep.json"}
        files[deep].write_text(nested, encoding="utf-8")
        args = ["run", "--topology", str(files["topology"]), "--scenario",
                str(files["scenario"]), "--seed", "1", "--out", str(tmp_path / "out")]
    done = python_m_qkdsim(*args)
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr

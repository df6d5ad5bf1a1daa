"""Scenario loading, the simulated run loop, and artifact files."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qkdsim.physics import ATTACK_OFF
from qkdsim.qpm import (
    DETECTED,
    EXHAUSTED,
    MitigationEvent,
    QpmConfig,
    RECONFIG_DONE,
    RECONFIG_SENT,
    REINIT_DONE,
)
from qkdsim.scenario import (
    EXIT_EXHAUSTED,
    EXIT_OK,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    ScenarioRun,
    extract_episodes,
    load_scenario,
    run_scenario,
    sweep_attack_power,
    timing_rows,
)
from qkdsim.topology import resolve_active_path


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        path = write_json(tmp_path / "s.json", {
            "duration_s": 600,
            "events": [
                {"t": 10, "link": "link1", "attack_power_dbm": -40},
                {"t": 20, "link": "link1", "attack_power_dbm": "off"},
            ],
        })
        scenario = load_scenario(path)
        assert scenario.duration_s == 600.0
        assert scenario.events[0] == ScenarioEvent(10.0, "link1", -40.0)
        assert scenario.events[1].attack_power_dbm == ATTACK_OFF

    def test_no_events_is_valid(self, tmp_path):
        scenario = load_scenario(write_json(tmp_path / "s.json", {"duration_s": 60}))
        assert scenario.events == ()

    @pytest.mark.parametrize("doc,match", [
        ({"duration_s": 0}, "duration_s"),
        ({"duration_s": -5}, "duration_s"),
        ({}, "duration_s"),
        ({"duration_s": 60, "events": [{"t": -1, "link": "l", "attack_power_dbm": -4}]},
         "non-negative"),
        ({"duration_s": 60, "events": [{"t": 1, "link": 7, "attack_power_dbm": -4}]},
         "link must be a string"),
        ({"duration_s": 60, "events": [{"t": 1, "link": "l", "attack_power_dbm": "loud"}]},
         "number or"),
        ({"duration_s": 60, "events": [
            {"t": 5, "link": "l", "attack_power_dbm": -4},
            {"t": 1, "link": "l", "attack_power_dbm": -4}]},
         "sorted"),
        ({"duration_s": 60, "events": [
            {"t": 5, "link": "l", "attack_power_dbm": -4},
            {"t": 5, "link": "l", "attack_power_dbm": -9}]},
         "duplicate"),
        ([{"duration_s": 60}], "scenario must be an object"),
        ({"duration_s": 60, "events": [[1, "l", -4]]}, "event 0 must be an object"),
    ])
    def test_malformed_documents(self, tmp_path, doc, match):
        with pytest.raises(ScenarioError, match=match):
            load_scenario(write_json(tmp_path / "bad.json", doc))

    def test_unparseable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        with pytest.raises(ScenarioError, match="cannot parse"):
            load_scenario(str(bad))


class TestEpisodeExtraction:
    def make_events(self):
        return [
            MitigationEvent(0.004, RECONFIG_SENT, "link1", "initial provisioning"),
            MitigationEvent(0.02, RECONFIG_DONE, "link1", "initial provisioning", [1, 2]),
            MitigationEvent(122.0, REINIT_DONE, "link1", "state=Generating"),
            MitigationEvent(600.0, DETECTED, "link1", "qber=0.44"),
            MitigationEvent(600.01, RECONFIG_SENT, "link2", "fail over from link1"),
            MitigationEvent(600.03, RECONFIG_DONE, "link2", "fail over from link1", [5, 6, 7, 8]),
            MitigationEvent(717.0, REINIT_DONE, "link2", "state=Generating"),
        ]

    def test_first_init_and_one_episode(self):
        first_init, episodes = extract_episodes(self.make_events())
        assert first_init == pytest.approx(121.98)
        assert len(episodes) == 1
        ep = episodes[0]
        assert ep["path"] == "link2"
        assert (ep["t_detected"], ep["t_reconfig_done"], ep["t_reinit_done"]) == \
               (600.0, 600.03, 717.0)

    def test_incomplete_trailing_episode_is_dropped(self):
        events = self.make_events() + [MitigationEvent(900.0, DETECTED, "link2", "q")]
        _, episodes = extract_episodes(events)
        assert len(episodes) == 1

    def test_failed_candidates_do_not_split_the_episode(self):
        events = self.make_events()[:4] + [
            MitigationEvent(600.01, RECONFIG_SENT, "link2", "fail over from link1"),
            MitigationEvent(600.02, RECONFIG_SENT, "link3", "fail over from link1"),
            MitigationEvent(600.05, RECONFIG_DONE, "link3", "fail over from link1", [5, 6]),
            MitigationEvent(719.0, REINIT_DONE, "link3", "state=Generating"),
        ]
        _, episodes = extract_episodes(events)
        assert len(episodes) == 1
        assert episodes[0]["path"] == "link3"
        assert episodes[0]["t_reconfig_done"] == 600.05

    def test_timing_rows_anchor_at_the_latest_onset(self):
        _, episodes = extract_episodes(self.make_events())
        scenario = Scenario(duration_s=1200.0, events=(
            ScenarioEvent(580.0, "link1", -40.0),
            ScenarioEvent(900.0, "link2", -5.0),  # later onset, ignored here
        ))
        rows = timing_rows(episodes, scenario)
        assert rows == ["1,20.000000,0.030000,116.970000,137.000000"]

    def test_timing_rows_without_onset_use_detection_time(self):
        _, episodes = extract_episodes(self.make_events())
        rows = timing_rows(episodes, Scenario(duration_s=1200.0, events=()))
        assert rows[0].startswith("1,0.000000,")


class TestSweep:
    def test_grid_matches_the_model(self, tmp_path, configs, reference_topology):
        code = sweep_attack_power(str(configs / "reference_topology.json"),
                                  "link2", -20.0, -18.0, 1.0, str(tmp_path))
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "power_dbm,skr_bps,qber"
        assert len(lines) == 4
        from qkdsim.physics import qber, skr
        channel = reference_topology.link("link2").channel
        assert lines[1] == f"-20.00,{skr(channel, -20.0):.6f},{qber(channel, -20.0):.6f}"

    def test_degenerate_single_point(self, tmp_path, configs):
        sweep_attack_power(str(configs / "reference_topology.json"),
                           "link1", -50.0, -50.0, 5.0, str(tmp_path))
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("-50.00,")

    @pytest.mark.parametrize("kwargs,match", [
        ({"link_id": "ghost"}, "unknown link"),
        ({"step_db": 0.0}, "step_db"),
        ({"end_dbm": -60.0}, "end_dbm"),
    ])
    def test_bad_arguments(self, tmp_path, configs, kwargs, match):
        args = dict(link_id="link1", start_dbm=-50.0, end_dbm=-40.0, step_db=1.0)
        args.update(kwargs)
        with pytest.raises(ScenarioError, match=match):
            sweep_attack_power(str(configs / "reference_topology.json"),
                               out_dir=str(tmp_path), **args)


class TestScenarioRun:
    def test_unknown_link_in_events(self, reference_topology):
        scenario = Scenario(duration_s=60.0,
                            events=(ScenarioEvent(1.0, "ghost", -40.0),))
        with pytest.raises(ScenarioError, match="unknown link"):
            ScenarioRun(reference_topology, scenario, seed=1)

    def test_quiet_run_provisions_and_generates(self, reference_topology):
        run = ScenarioRun(reference_topology, Scenario(600.0, ()), seed=3)
        run.execute()
        assert len(run.metrics_rows) == 11  # samples at 0, 60, ..., 600
        fields = [row.split(",") for row in run.metrics_rows]
        assert all(len(f) == 8 for f in fields)
        assert all(f[1] == "link1" for f in fields)
        assert fields[0][7] == "AWAITING_REINIT"
        assert fields[-1][7] == "MONITORING"
        # No attacker: all three power columns read -inf throughout.
        assert all(f[4] == f[5] == f[6] == "-inf" for f in fields)
        # Keys flow once the session initializes (~120s) and a first
        # interval completes (~180s).
        assert float(fields[2][2]) == 0.0
        assert all(float(f[2]) > 700.0 for f in fields[4:])
        assert run.qpm.active_path == "link1"

    def test_detection_and_failover_under_attack(self, reference_topology):
        scenario = Scenario(1500.0, (ScenarioEvent(600.0, "link1", -40.0),))
        run = ScenarioRun(reference_topology, scenario, seed=9)
        run.execute()
        kinds = [e.kind for e in run.qpm.events]
        assert kinds == [RECONFIG_SENT, RECONFIG_DONE, REINIT_DONE,
                         DETECTED, RECONFIG_SENT, RECONFIG_DONE, REINIT_DONE]
        detected = next(e for e in run.qpm.events if e.kind == DETECTED)
        # Poll cadence is 60s: the first poll that can see the attack is
        # within one period plus the sampling interval of the onset.
        assert 600.0 < detected.t <= 600.0 + 2 * 60.0 + 1.0
        assert run.qpm.statuses == {"link1": "FAILED", "link2": "ACTIVE",
                                    "link3": "AVAILABLE"}
        assert run.qpm.active_path == "link2"
        # Times in the event stream never go backwards.
        times = [e.t for e in run.qpm.events]
        assert times == sorted(times)

    def test_identical_seeds_reproduce_the_run(self, reference_topology):
        scenario = Scenario(900.0, (ScenarioEvent(300.0, "link1", -40.0),))
        outputs = []
        for _ in range(2):
            run = ScenarioRun(reference_topology, scenario, seed=5)
            run.execute()
            outputs.append((list(run.metrics_rows),
                            [e.to_dict() for e in run.qpm.events],
                            run.controller_records))
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self, reference_topology):
        rows = []
        for seed in (1, 2):
            run = ScenarioRun(reference_topology, Scenario(400.0, ()), seed=seed)
            run.execute()
            rows.append(run.metrics_rows)
        assert rows[0] != rows[1]

    def test_exhaustion_with_custom_config(self, reference_topology):
        scenario = Scenario(900.0, (
            ScenarioEvent(0.0, "link1", -40.0),
            ScenarioEvent(0.0, "link2", -5.0),
            ScenarioEvent(0.0, "link3", -10.0),
        ))
        config = QpmConfig(poll_period_s=30.0, init_grace_s=60.0)
        run = ScenarioRun(reference_topology, scenario, seed=2, qpm_config=config)
        run.execute()
        assert any(e.kind == EXHAUSTED for e in run.qpm.events)
        assert run.qpm.mode == "ALARM"
        assert all(s == "FAILED" for s in run.qpm.statuses.values())
        # Each path was provisioned exactly once before being written off.
        done_paths = [e.path for e in run.qpm.events if e.kind == RECONFIG_DONE]
        assert done_paths == ["link1", "link2", "link3"]

    @given(st.lists(st.tuples(st.sampled_from([None, "link1", "link2", "link3"]),
                              st.sampled_from(["link1", "link2", "link3"]),
                              st.sampled_from([None, "alice", "bob", "int1", "int2"]),
                              st.integers(0, 4)),
                    max_size=12))
    # Bob commits, then Alice is lost at her barrier: link1 is broken.
    @example(requests=[(None, "link1", None, 0), ("link1", "link2", "alice", 2)])
    def test_current_circuit_tracks_the_fabric(self, reference_topology, requests):
        """After every reconfigure, failed or not, the circuit is the lit path.

        A request may lose one switch after that switch's first `sent`
        messages, so it can fail at a flow-mod, at a barrier (leaving
        other switches committed) or during compensation.
        """
        run = ScenarioRun(reference_topology, Scenario(60.0, ()), seed=1)
        for index, (tear_down, set_up, down, sent) in enumerate(requests):
            if down is not None:
                link, forward, budget = run.links[down], run.links[down].send, iter(range(sent))

                def send(msg):
                    link.connected = next(budget, None) is not None
                    return forward(msg)

                link.send = send
            status, _ = run.northbound.post_reconfigure(
                {"request_id": f"r{index}", "tear_down": tear_down, "set_up": set_up})
            assert status == 200
            if down is not None:
                del link.send
                link.connected = True
            states = {sid: sw.query_entries() for sid, sw in run.switches.items()}
            assert run.current_circuit()[0] == resolve_active_path(reference_topology, states)


@pytest.fixture(scope="module")
def short_run(tmp_path_factory, configs):
    out = tmp_path_factory.mktemp("short_run")
    scenario = write_json(out / "scenario.json", {
        "duration_s": 900,
        "events": [{"t": 300, "link": "link1", "attack_power_dbm": -40}],
    })
    code = run_scenario(str(configs / "reference_topology.json"), scenario,
                        seed=21, out_dir=str(out), deterministic=True)
    return out, code


class TestRunScenarioArtifacts:
    def test_exit_code_and_files(self, short_run):
        out, code = short_run
        assert code == EXIT_OK
        for name in ("metrics.csv", "qpm_log.ndjson", "controller_log.ndjson",
                     "timing.csv", "run_info.json", "summary.txt"):
            assert (out / name).exists(), name

    def test_metrics_header_names_links_in_topology_order(self, short_run):
        out, _ = short_run
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ("t,active_path,skr_bps,qber,attack_link1_dbm,"
                          "attack_link2_dbm,attack_link3_dbm,qpm_state")

    def test_attack_columns_reflect_the_scenario(self, short_run):
        out, _ = short_run
        rows = [line.split(",") for line in
                (out / "metrics.csv").read_text().splitlines()[1:]]
        by_t = {float(r[0]): r for r in rows}
        assert by_t[240.0][4] == "-inf"
        assert by_t[300.0][4] == "-40.00"
        assert by_t[900.0][4] == "-40.00"
        assert all(r[5] == "-inf" for r in rows)

    def test_timing_has_one_episode_with_sane_values(self, short_run):
        out, _ = short_run
        lines = (out / "timing.csv").read_text().splitlines()
        assert lines[0] == "episode,detect_s,controller_s,reinit_s,total_s"
        assert len(lines) == 2
        episode, detect_s, controller_s, reinit_s, total_s = lines[1].split(",")
        assert episode == "1"
        assert 0.0 <= float(detect_s) <= 121.0
        assert 0.0 < float(controller_s) < 1.0
        assert 100.0 < float(reinit_s) < 140.0
        assert abs(float(total_s) -
                   (float(detect_s) + float(controller_s) + float(reinit_s))) < 1e-6

    def test_run_info_contents(self, short_run, configs):
        out, _ = short_run
        info = json.loads((out / "run_info.json").read_text())
        assert info["seed"] == 21
        assert info["duration_s"] == 900.0
        assert info["deterministic"] is True
        assert info["qpm_log"] == "qpm_log.ndjson"
        assert info["episodes"] == 1
        assert info["exhausted"] is False
        assert info["final_active_path"] == "link2"
        assert info["final_qpm_mode"] == "MONITORING"
        assert 100.0 < info["first_init_s"] < 140.0
        assert "generated_at" not in info

    def test_qpm_log_schema(self, short_run):
        out, _ = short_run
        lines = (out / "qpm_log.ndjson").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["kind"] for e in events] == [
            "RECONFIG_SENT", "RECONFIG_DONE", "REINIT_DONE",
            "DETECTED", "RECONFIG_SENT", "RECONFIG_DONE", "REINIT_DONE"]
        for e in events:
            assert set(e) <= {"t", "kind", "path", "xids", "detail"}
            assert isinstance(e["t"], float)
        assert events[1]["xids"] == [1, 2]

    def test_controller_log_matches_qpm_xids(self, short_run):
        out, _ = short_run
        records = [json.loads(line) for line in
                   (out / "controller_log.ndjson").read_text().splitlines()]
        events = [json.loads(line) for line in
                  (out / "qpm_log.ndjson").read_text().splitlines()]
        done = [e for e in events if e["kind"] == "RECONFIG_DONE"]
        assert len(records) == len(done)
        for record, event in zip(records, done):
            assert [t["xid"] for t in record["transactions"]] == event["xids"]
            assert record["outcome"] == "SUCCESS"

    def test_summary_mentions_the_episode(self, short_run):
        out, _ = short_run
        text = (out / "summary.txt").read_text()
        assert "mitigation episodes" in text
        assert "episode 1:" in text
        assert "generated" not in text  # deterministic: no timestamp line

    def test_nondeterministic_run_records_a_timestamp(self, tmp_path, configs):
        scenario = write_json(tmp_path / "s.json", {"duration_s": 120})
        run_scenario(str(configs / "reference_topology.json"), scenario,
                     seed=1, out_dir=str(tmp_path), deterministic=False)
        info = json.loads((tmp_path / "run_info.json").read_text())
        assert "generated_at" in info
        assert "generated" in (tmp_path / "summary.txt").read_text()

    def test_custom_qpm_log_path(self, tmp_path, configs):
        scenario = write_json(tmp_path / "s.json", {"duration_s": 120})
        log_dir = tmp_path / "elsewhere"
        log_dir.mkdir()
        log_path = str(log_dir / "monitor.ndjson")
        run_scenario(str(configs / "reference_topology.json"), scenario,
                     seed=1, out_dir=str(tmp_path / "out"), deterministic=True,
                     qpm_log_path=log_path)
        assert (log_dir / "monitor.ndjson").exists()
        info = json.loads((tmp_path / "out" / "run_info.json").read_text())
        assert info["qpm_log"] == log_path

    def test_exhaustion_exit_code_honours_the_allow_flag(self, tmp_path, configs):
        scenario = write_json(tmp_path / "s.json", {
            "duration_s": 900,
            "events": [
                {"t": 0, "link": "link1", "attack_power_dbm": -40},
                {"t": 0, "link": "link2", "attack_power_dbm": -5},
                {"t": 0, "link": "link3", "attack_power_dbm": -10},
            ],
        })
        config = QpmConfig(poll_period_s=30.0, init_grace_s=60.0)
        code = run_scenario(str(configs / "reference_topology.json"), scenario,
                            seed=2, out_dir=str(tmp_path / "a"),
                            deterministic=True, qpm_config=config)
        assert code == EXIT_EXHAUSTED
        code = run_scenario(str(configs / "reference_topology.json"), scenario,
                            seed=2, out_dir=str(tmp_path / "b"),
                            deterministic=True, allow_exhaustion=True,
                            qpm_config=config)
        assert code == EXIT_OK
        info = json.loads((tmp_path / "b" / "run_info.json").read_text())
        assert info["exhausted"] is True
        assert info["final_qpm_mode"] == "ALARM"


# sha256 prefixes of the deterministic artifacts of the conftest reference
# runs. run_info.json and summary.txt are left out: they embed input paths.
GOLDEN = {
    "run_link1": {
        "metrics.csv": "e455cf4dbf2bc9af", "qpm_log.ndjson": "361a64894e9a4f60",
        "controller_log.ndjson": "a25f215ae0d6dae2", "timing.csv": "d06d0e6c37d1e78e"},
    "run_two_episodes": {
        "metrics.csv": "6cf6fffeda4efdd6", "qpm_log.ndjson": "39654e8b529cf64e",
        "controller_log.ndjson": "ddc3799535e50f45", "timing.csv": "704f30da5760be3c"},
    "run_all_links": {
        "metrics.csv": "182a94e426c03f45", "qpm_log.ndjson": "a1289bf9357d3d9d",
        "controller_log.ndjson": "b7fde2ae40cee5ea", "timing.csv": "fcfe693b10d22961"},
    "run_steady_link2": {
        "metrics.csv": "ba99a2e8118e2201", "qpm_log.ndjson": "7e3df5b282f694bc",
        "controller_log.ndjson": "63cb494e87339f90", "timing.csv": "b32c5657e6ba83ef"},
}


@pytest.mark.parametrize("run_fixture", sorted(GOLDEN))
def test_reference_artifacts_match_golden_hashes(request, run_fixture):
    out = request.getfixturevalue(run_fixture)["out"]
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
              for name in GOLDEN[run_fixture]}
    assert hashes == GOLDEN[run_fixture]

"""Scenario loading, the simulated run loop, and artifact files."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qkdsim.physics import ATTACK_OFF, CalibrationError
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
    PRIORITY_METRICS,
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
from qkdsim.topology import TopologyError, load_topology, resolve_active_path


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
        ({"duration_s": float("nan")}, "duration_s must be a number"),
        ({"duration_s": float("inf")}, "duration_s must be a number"),
        ({"duration_s": True}, "duration_s must be a number"),
        ({"duration_s": 10**400}, "duration_s must be a number"),
        ({"duration_s": 60, "events": [{"t": float("inf"), "link": "l",
                                        "attack_power_dbm": -4}]}, "t must be a number"),
        ({"duration_s": 60, "events": [{"t": False, "link": "l", "attack_power_dbm": -4}]},
         "t must be a number"),
        ({"duration_s": 60, "events": [{"t": 1, "link": "l", "attack_power_dbm": True}]},
         "number or"),
        ({"duration_s": 60, "events": [{"t": 1, "link": "l",
                                        "attack_power_dbm": float("nan")}]}, "number or"),
        ({"duration_s": 60, "events": [{"t": 1, "link": "l",
                                        "attack_power_dbm": float("-inf")}]}, "number or"),
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
        ({"step_db": float("nan")}, "finite"),
        ({"end_dbm": float("inf")}, "finite"),
        ({"start_dbm": float("-inf")}, "finite"),
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

    @pytest.mark.parametrize("duration_s, period_s", [
        (600.0, 60.0), (630.0, 60.0),
        # 1.0 // 0.1 == 9.0 although 10 * 0.1 == 1.0: no row at 1.0.
        (1.0, 0.1),
    ])
    def test_metrics_samples_are_chained(self, reference_topology, duration_s, period_s):
        """Rows a batch writes are never scheduled; cancelled samples never run."""
        run = ScenarioRun(reference_topology, Scenario(duration_s, ()), seed=3,
                          qpm_config=QpmConfig(poll_period_s=period_s))
        scheduled: list[float] = []
        live: set[int] = set()  # ids of scheduled metrics entries not yet run or cancelled
        most = 0
        schedule, cancel = run.scheduler.at, run.scheduler.cancel

        def counting_at(t, fn, priority=5):
            nonlocal most
            if priority != PRIORITY_METRICS:
                return schedule(t, fn, priority)
            scheduled.append(t)

            def sample():
                live.remove(id(entry))
                fn()
            entry = schedule(t, sample, priority)
            live.add(id(entry))
            most = max(most, len(live))
            return entry

        def counting_cancel(entry):
            live.discard(id(entry))
            cancel(entry)

        run.scheduler.at = counting_at
        run.scheduler.cancel = counting_cancel
        run.execute()
        expected = [k * period_s for k in range(int(duration_s // period_s) + 1)]
        assert scheduled == sorted(set(scheduled))
        assert set(scheduled) <= set(expected)
        assert [row.split(",")[0] for row in run.metrics_rows] == \
            [f"{t:.1f}" for t in expected]
        assert not live and most == 1

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


# Each link's death power in the reference topology: offsets from it
# reach below the knee (-8 or -10 dB), the abort point and past it.
DEATH_DBM = {"link1": -58.0, "link2": -9.0, "link3": -22.0}


def run_state(topology, seed, period, grace, debounce, threshold, duration, attacks,
              reinit=1.0, batches=True):
    """Everything a run leaves behind that a batch could change."""
    events = {}
    for frac, link, offset in attacks:
        t = float(int(frac * duration))
        power = ATTACK_OFF if offset is None else DEATH_DBM[link] + offset
        events[(t, link)] = ScenarioEvent(t, link, power)
    config = QpmConfig(poll_period_s=period, init_grace_s=grace,
                       zero_key_debounce=debounce, qber_threshold=threshold,
                       reinit_poll_period_s=reinit)
    scenario = Scenario(duration, tuple(sorted(events.values(), key=lambda e: e.t)))
    return finished_state(ScenarioRun(topology, scenario, seed, qpm_config=config), batches)


def finished_state(run, batches=True):
    """Execute run, with or without batches, and return what it leaves behind."""
    if not batches:
        run._advance_quiet = lambda: None
    run.execute()
    unit = run.unit
    return (run.metrics_rows, [e.to_dict() for e in run.qpm.events],
            run.controller_records, run.qpm.history, run.rng.bit_generator.state,
            (unit.state, unit._init_remaining, unit._interval_elapsed, unit._now,
             unit._sequence, unit._last_skr, unit._last_qber, unit._last_key_bits),
            run._last_sync)


periods = st.one_of(st.sampled_from([0.1, 1.0, 59.999999999, 60.0, 60.000000001, 600.0]),
                    st.floats(0.1, 600.0))
# Re-init poll periods: 130 s is longer than an init.
reinit_periods = st.one_of(st.sampled_from([0.1, 1.0, 1.0000000001, 7.3, 130.0]),
                           st.floats(0.05, 200.0))
attacks = st.lists(st.tuples(
    st.floats(0.0, 1.0), st.sampled_from(sorted(DEATH_DBM)),
    st.one_of(st.none(), st.sampled_from([-10.0, -8.0, -2.0, -1.0, -0.3, 0.0, 2.0]),
              st.floats(-12.0, 2.0))), max_size=5)


class TestQuietBatches:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), period=periods, grace=st.floats(0.0, 1000.0),
           debounce=st.integers(1, 9), threshold=st.sampled_from([0.08, 0.03]),
           duration=st.floats(100.0, 20000.0), attacks=attacks, reinit=reinit_periods)
    # A batch cut by a high qber, by an abort, and a 0.1 s poll period.
    @example(seed=794, period=120.0, grace=60.0, debounce=3, threshold=0.08,
             duration=7200.0, attacks=[(0.1, "link1", 0.0)], reinit=1.0)
    @example(seed=366, period=30.0, grace=60.0, debounce=3, threshold=0.08,
             duration=7200.0, attacks=[(0.5, "link1", 0.0)], reinit=1.0)
    @example(seed=67, period=0.1, grace=0.0, debounce=3, threshold=0.08,
             duration=200.0, attacks=[(0.5, "link1", -8.0)], reinit=1.0)
    # Attack changes during the first init (t=72) and during the re-init on
    # link2 (t=360).
    @example(seed=1, period=60.0, grace=240.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.01, "link1", 0.0), (0.05, "link2", -8.0)],
             reinit=1.0)
    # The 60th re-init poll lands 5e-10 s before the end of the first init,
    # so the tick that ends it is shorter than the init left.
    @example(seed=5, period=60.0, grace=240.0, debounce=2, threshold=0.08,
             duration=600.0, attacks=[], reinit=2.0369336841744454)
    # Every link is attacked past its death power: an exhaustion tail of
    # ALARM polls over an aborted unit.
    @example(seed=3, period=60.0, grace=60.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.0, "link1", 2.0), (0.0, "link2", 2.0),
                                       (0.0, "link3", 2.0)], reinit=1.0)
    # Every link is attacked just short of its death power: an ALARM tail
    # over a unit still generating, cut by an aborting block.
    @example(seed=0, period=60.0, grace=60.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.0, link, -0.3) for link in ("link1", "link2", "link3")],
             reinit=1.0)
    def test_batches_leave_the_run_as_the_event_loop_does(
            self, reference_topology, seed, period, grace, debounce, threshold, duration,
            attacks, reinit):
        duration = min(duration, 2000.0 * period)
        args = (reference_topology, seed, period, grace, debounce, threshold, duration, attacks,
                reinit)
        assert run_state(*args) == run_state(*args, batches=False)

    @pytest.mark.parametrize("topology, scenario, seed", [
        ("reference_topology.json", "attack-link1.json", 42),
        ("reference_topology.json", "attack-link1-then-link2.json", 7),
        ("reference_topology.json", "attack-all-links.json", 11),
        ("reference_topology_link2_first.json", "steadystate-link2.json", 42),
    ])
    def test_the_bundled_scenarios_run_as_on_the_event_loop(self, configs, topology,
                                                            scenario, seed):
        def state(batches):
            run = ScenarioRun(load_topology(str(configs / topology)),
                              load_scenario(str(configs / scenario)), seed)
            return finished_state(run, batches)

        assert state(True) == state(False)

    def test_a_quiet_day_is_batched(self, reference_topology):
        """Without batches an attack-free day polls about 1,560 times on the
        event loop; with them, only the re-init poll that sees the first init
        end and the poll that reads the first block."""
        run = ScenarioRun(reference_topology, Scenario(86400.0, ()), seed=1)
        polls, poll = [], run.qpm.poll
        run.qpm.poll = lambda t: (polls.append(t), poll(t))
        run.execute()
        assert len(polls) <= 5

    def test_an_alarm_tail_is_batched(self, reference_topology):
        """Every link attacked 1 dB short of its death power, over a 0.03
        threshold: all three fail over by t=540 and the unit keeps generating.
        The event loop alone polls 111 times after the exhaustion."""
        config = QpmConfig(init_grace_s=60.0, qber_threshold=0.03)
        attacks = tuple(ScenarioEvent(0.0, link, DEATH_DBM[link] - 1.0)
                        for link in ("link1", "link2", "link3"))
        run = ScenarioRun(reference_topology, Scenario(7200.0, attacks), seed=0,
                          qpm_config=config)
        polls, poll = [], run.qpm.poll
        run.qpm.poll = lambda t: (polls.append(t), poll(t))
        run.execute()
        exhausted = [e.t for e in run.qpm.events if e.kind == EXHAUSTED]
        assert len(exhausted) == 1
        assert sum(1 for t in polls if t > exhausted[0]) <= 2


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


# sha256 prefixes of summary.txt of the same runs without its "topology:"
# line, the one line that embeds input paths.
GOLDEN_SUMMARY = {
    "run_link1": "0903644a14f97f1f",
    "run_two_episodes": "748c7885a108d19f",
    "run_all_links": "8a9c259e23b75e1d",
    "run_steady_link2": "bc65a76939f4bfbf",
}


@pytest.mark.parametrize("run_fixture", sorted(GOLDEN_SUMMARY))
def test_reference_summaries_match_golden_hashes(request, run_fixture):
    out = request.getfixturevalue(run_fixture)["out"]
    lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("topology: "))
    assert hashlib.sha256(kept.encode()).hexdigest()[:16] == GOLDEN_SUMMARY[run_fixture]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MUTATED = {"topology": CONFIGS / "reference_topology.json",
           "scenario": CONFIGS / "attack-link1-then-link2.json"}
# Stand-ins for a value: every JSON type, and numbers at the extremes.
REPLACEMENTS = [None, True, 0, -1, 2.5, 1e-320, -1e308, 1e308, float("nan"), float("inf"), "",
                "link1", "off", [], {}]


def _locations(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _locations(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """The two documents with 1-3 values deleted or replaced.

    A replacement has another JSON type, or is a number at the extremes.
    """
    docs = {name: json.loads(path.read_text(encoding="utf-8"))
            for name, path in MUTATED.items()}
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(docs)))
        location = draw(st.sampled_from(list(_locations(docs[name]))))
        if not location:
            docs[name] = draw(st.sampled_from(REPLACEMENTS))
            continue
        parent = docs[name]
        for key in location[:-1]:
            parent = parent[key]
        key = location[-1]
        if draw(st.booleans()):
            del parent[key]
        else:
            old = parent[key]
            parent[key] = draw(st.sampled_from(
                [r for r in REPLACEMENTS if type(r) is not type(old) or r != old]))
    return docs


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(docs=mutated_documents())
def test_mutated_inputs_build_a_run_or_raise_a_config_error(tmp_path, docs):
    # The run is built, never executed: a valid duration_s of 1e308 never ends.
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    try:
        ScenarioRun(load_topology(str(paths["topology"])),
                    load_scenario(str(paths["scenario"])), seed=1)
    except (TopologyError, ScenarioError, CalibrationError):
        pass

"""Scenario loading, the simulated run loop, and artifact files."""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import LinkFaults
from qkdsim.physics import ATTACK_OFF, CalibrationError
from qkdsim.qkd_unit import STATE_GENERATING, STATE_IDLE
from qkdsim.qpm import (
    DETECTED,
    EXHAUSTED,
    MONITORING,
    MitigationEvent,
    QpmConfig,
    RECONFIG_DONE,
    RECONFIG_SENT,
    REINIT_DONE,
)
from qkdsim.report import summarize
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
         "^event 0: t must be a non-negative"),
        ({"duration_s": 60, "events": [
            {"t": 1, "link": "l", "attack_power_dbm": -4},
            {"t": -1, "link": "l", "attack_power_dbm": -4}]},
         "^event 1: t must be a non-negative"),
        ({"duration_s": 60, "events": [{"t": 1, "link": 7, "attack_power_dbm": -4}]},
         "link must be a string"),
        ({"duration_s": 60, "events": [{"t": 1, "link": "l", "attack_power_dbm": "loud"}]},
         "^event 0: attack_power_dbm must be a number or"),
        ({"duration_s": 60, "events": [
            {"t": 1, "link": "l", "attack_power_dbm": -4},
            {"t": 2, "link": "l", "attack_power_dbm": "loud"}]},
         "^event 1: attack_power_dbm must be a number or"),
        ({"duration_s": 60, "events": [
            {"t": 5, "link": "l", "attack_power_dbm": -4},
            {"t": 1, "link": "l", "attack_power_dbm": -4}]},
         "^event 1: events must be sorted by t"),
        ({"duration_s": 60, "events": [
            {"t": 5, "link": "l", "attack_power_dbm": -4},
            {"t": 5, "link": "l", "attack_power_dbm": -9}]},
         "^event 1: duplicate event for link 'l' at t=5"),
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
         "^event 0: attack_power_dbm must be a number or"),
        ({"duration_s": 60, "events": [{"t": 1, "link": "l",
                                        "attack_power_dbm": float("nan")}]},
         "^event 0: attack_power_dbm must be a number or"),
        ({"duration_s": 60, "events": [{"t": 1, "link": "l",
                                        "attack_power_dbm": float("-inf")}]},
         "^event 0: attack_power_dbm must be a number or"),
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

    def test_timing_rows_anchor_at_the_latest_onset(self, reference_topology):
        """The onset is the latest attack switched on at or before detection
        on the failed path's link; attacks on other links do not move it."""
        _, episodes = extract_episodes(self.make_events())
        assert episodes[0]["failed_path"] == "link1"
        scenario = Scenario(duration_s=1200.0, events=(
            ScenarioEvent(580.0, "link1", -40.0),
            ScenarioEvent(590.0, "link3", -60.0),  # another link, ignored here
            ScenarioEvent(900.0, "link2", -5.0),  # later onset, ignored here
        ))
        rows = timing_rows(episodes, scenario, reference_topology)
        assert rows == ["1,20.000000,0.030000,116.970000,137.000000"]

    def test_timing_rows_without_onset_use_detection_time(self, reference_topology):
        _, episodes = extract_episodes(self.make_events())
        scenario = Scenario(duration_s=1200.0, events=(
            ScenarioEvent(590.0, "link2", -60.0),
            ScenarioEvent(595.0, "link1", ATTACK_OFF),
        ))
        for scenario in (Scenario(duration_s=1200.0, events=()), scenario):
            rows = timing_rows(episodes, scenario, reference_topology)
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
        # About 10**13 points, and 10**21 of which the first ~3.5e5 read -50.
        ({"step_db": 1e-12}, "sweep points"),
        ({"step_db": 1e-20}, "sweep points"),
        ({"end_dbm": -50.0, "step_db": 5e-324}, "sweep points"),
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

    @pytest.mark.parametrize("period", ["poll_period_s", "reinit_poll_period_s"])
    def test_a_poll_period_the_clock_cannot_step_by_is_refused(self, reference_topology,
                                                               period):
        """600 + 1e-300 == 600: a chain of polls would never move."""
        with pytest.raises(ScenarioError, match=period):
            ScenarioRun(reference_topology, Scenario(600.0, ()), 1,
                        qpm_config=QpmConfig(**{period: 1e-300}))

    def test_more_metrics_rows_than_the_bound_are_refused(self, reference_topology):
        """A run writes 10**6 metrics rows at most: 60 s polls fill them by
        59,999,940 s, and one more poll period is refused."""
        ScenarioRun(reference_topology, Scenario(59_999_940.0, ()), 1)
        with pytest.raises(ScenarioError, match="metrics rows"):
            ScenarioRun(reference_topology, Scenario(60_000_000.0, ()), 1)

    def test_a_dropped_failover_barrier_costs_a_path_not_the_run(self, reference_topology,
                                                                  configs):
        """attack-link1 with alice's barrier of the link1->link2 failover lost
        once: the request is rolled back on both switches, the monitor moves
        on to link3, and the run ends monitoring on the path both the fabric
        and the controller name."""
        run = ScenarioRun(reference_topology,
                          load_scenario(str(configs / "attack-link1.json")), seed=42)
        # Alice's messages: 2 to provision link1, then 2 mods and the barrier.
        LinkFaults(run.links).drop("alice", 4)
        run.execute()
        kinds = [(ev.kind, ev.path) for ev in run.qpm.events if ev.t >= 602.0]
        assert kinds == [(DETECTED, "link1"), (RECONFIG_SENT, "link2"),
                         (RECONFIG_SENT, "link3"), (RECONFIG_DONE, "link3"),
                         (REINIT_DONE, "link3")]
        states = {sw: s.query_entries() for sw, s in run.switches.items()}
        assert resolve_active_path(reference_topology, states) == "link3"
        assert run.controller.active_path == "link3"
        assert run.qpm.mode == MONITORING

    def test_a_switch_lost_for_the_rest_of_a_failover_costs_a_path_not_the_run(
            self, reference_topology, configs):
        """attack-link1 with alice lost from her link1->link2 barrier to the end
        of that request, so she keeps her 2 staged mods: the link1->link3
        request's first mod to her drops them, and the run ends monitoring on
        link3."""
        run = ScenarioRun(reference_topology,
                          load_scenario(str(configs / "attack-link1.json")), seed=42)
        faults = LinkFaults(run.links)
        faults.down_after("alice", 4)
        log = run.controller.log

        def restore_after_the_failover(record):
            log(record)
            if record["set_up"] == "link2":
                faults.restore("alice")

        run.controller.log = restore_after_the_failover
        run.execute()
        events = [(ev.kind, ev.path, ev.t) for ev in run.qpm.events if ev.t >= 602.0]
        assert [(kind, path) for kind, path, _ in events] == [
            (DETECTED, "link1"), (RECONFIG_SENT, "link2"), (RECONFIG_SENT, "link3"),
            (RECONFIG_DONE, "link3"), (REINIT_DONE, "link3")]
        assert [t for *_, t in events[3:]] == pytest.approx([602.080, 719.0])
        states = {sw: s.query_entries() for sw, s in run.switches.items()}
        assert resolve_active_path(reference_topology, states) == "link3"
        assert run.controller.active_path == "link3"
        assert run.qpm.mode == MONITORING

    def test_quiet_run_provisions_and_generates(self, reference_topology):
        run = ScenarioRun(reference_topology, Scenario(600.0, ()), seed=3)
        run.execute()
        fields = [row.split(",") for row in run.metrics_text().splitlines()]
        assert len(fields) == 11  # samples at 0, 60, ..., 600
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
        assert run.qpm.statuses == {"link1": "FAILED", "link2": "AVAILABLE",
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
            outputs.append((run.metrics_text(),
                            [e.to_dict() for e in run.qpm.events],
                            run.controller_records))
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self, reference_topology):
        rows = []
        for seed in (1, 2):
            run = ScenarioRun(reference_topology, Scenario(400.0, ()), seed=seed)
            run.execute()
            rows.append(run.metrics_text())
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
        assert [row.split(",")[0] for row in run.metrics_text().splitlines()] == \
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
    # Bob commits, then Alice is lost at her barrier: she keeps 2 staged mods.
    @example(requests=[(None, "link1", None, 0), ("link1", "link2", "alice", 2)])
    # Back, she drops them at the next request's first mod to her, so its
    # compensation barrier cannot commit them and darken the fabric.
    @example(requests=[(None, "link1", None, 0), ("link1", "link2", "alice", 2),
                       ("link2", "link2", None, 0)])
    def test_current_circuit_tracks_the_fabric(self, reference_topology, requests):
        """After every reconfigure, failed or not, the circuit and the
        controller's active_path are the lit path; afterwards, with every
        switch up, a move from active_path to each path in turn succeeds.

        A request may lose one switch after that switch's first `sent`
        messages, so it can fail at a flow-mod, at a barrier (leaving
        other switches committed) or during compensation. The switch is
        back for the next request.
        """
        run = ScenarioRun(reference_topology, Scenario(60.0, ()), seed=1)
        faults = LinkFaults(run.links)

        def lit_path():
            states = {sid: sw.query_entries() for sid, sw in run.switches.items()}
            return resolve_active_path(reference_topology, states)

        for index, (tear_down, set_up, down, sent) in enumerate(requests):
            if down is not None:
                faults.down_after(down, sent)
            status, body = run.northbound.post_reconfigure(
                {"request_id": f"r{index}", "tear_down": tear_down, "set_up": set_up})
            assert status == 200
            if down is not None:
                faults.restore(down)
                # More flow-mods to the lost switch than it took: one was lost.
                record = run.controller_records[-1]
                mods = sum(t["switch"] == down for t in record["transactions"])
                assert mods <= sent or body["outcome"] == "FAILED"
            assert run.current_circuit()[0] == run.controller.active_path == lit_path()
        for index, set_up in enumerate(["link1", "link2", "link3"]):
            status, body = run.northbound.post_reconfigure(
                {"request_id": f"after{index}", "tear_down": run.controller.active_path,
                 "set_up": set_up})
            assert (status, body["outcome"]) == (200, "SUCCESS"), body.get("error")
            assert run.current_circuit()[0] == run.controller.active_path == lit_path() \
                == set_up

    def test_a_commit_syncs_the_unit_under_the_old_circuit(self, reference_topology):
        """The unit goes Idle at the commit that breaks its circuit, so a
        block that falls due during a path move is never drawn."""
        run = ScenarioRun(reference_topology, Scenario(3600.0, ()), seed=1)
        run.controller_client.post_reconfigure({"request_id": "r0", "set_up": "link1"})
        run.start_session()
        run.clock.advance(300.0)
        run.sync_unit()
        assert run.unit.state == STATE_GENERATING
        due = run._last_sync + run.unit.key_interval_s - run.unit._interval_elapsed
        # Posted 25 ms before the block: bob commits at +20 ms, alice at
        # +24 ms, and the reply lands at +28 ms.
        run.clock.advance(due - 0.025 - run.clock.now())
        rng_state = run.rng.bit_generator.state
        status, body = run.controller_client.post_reconfigure(
            {"request_id": "r1", "tear_down": "link1", "set_up": "link2"})
        assert (status, body["outcome"]) == (200, "SUCCESS")
        run.sync_unit()
        assert run.unit.state == STATE_IDLE
        assert run.rng.bit_generator.state == rng_state

    @pytest.mark.parametrize("elapsed", [60.0, 300.0], ids=["initializing", "generating"])
    def test_a_sync_one_ulp_on_ticks_no_time(self, reference_topology, elapsed):
        """sync_unit ticks whenever the clock has moved, however little; the
        unit counts a tick of at most _EPS as no time, so only the end of
        its last tick moves."""
        run = ScenarioRun(reference_topology, Scenario(3600.0, ()), seed=1)
        run.controller_client.post_reconfigure({"request_id": "r0", "set_up": "link1"})
        run.start_session()
        run.clock.advance(elapsed)
        run.sync_unit()
        unit = run.unit

        def fields():
            return (unit.state, unit._init_remaining, unit._interval_elapsed,
                    unit._last_skr, unit._last_qber, unit._last_key_bits,
                    run.rng.bit_generator.state)

        before, later = fields(), run._last_sync + math.ulp(run._last_sync)
        run.clock.advance_to(later)
        run.sync_unit()
        assert run._last_sync == later
        assert fields() == before


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
    return (run.metrics_text(), [e.to_dict() for e in run.qpm.events],
            run.controller_records, run.qpm.zero_key_polls, run.rng.bit_generator.state,
            (unit.state, unit._init_remaining, unit._interval_elapsed,
             unit._last_skr, unit._last_qber, unit._last_key_bits),
            run._last_sync,
            # Times and read-outs stay Python numbers, as the event loop keeps them.
            [type(x).__name__ for x in (run.clock.now(), run._last_sync, run.qpm.next_poll_t,
                                        unit._last_qber, unit._last_skr, unit._last_key_bits)])


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
    # Attack changes inside one batch: a lit-link change below the knee, an
    # unlit-link change, two changes at one time, a change at the time of a
    # poll and a sample (a 60 s re-init cadence keeps polls on the minute),
    # and a lit-link change whose first block acts.
    @example(seed=8, period=60.0, grace=240.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.5, "link1", -10.0)], reinit=1.0)
    @example(seed=9, period=60.0, grace=240.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.5, "link3", -8.0)], reinit=1.0)
    @example(seed=10, period=60.0, grace=240.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.5, "link2", -10.0), (0.5, "link3", -8.0)],
             reinit=1.0)
    @example(seed=11, period=60.0, grace=240.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.5, "link1", -8.0), (0.5, "link2", -10.0)],
             reinit=60.0)
    @example(seed=12, period=60.0, grace=240.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.5, "link1", 0.0)], reinit=1.0)
    # A stop tick that distils several blocks and aborts part way through:
    # the 300 s tick after the attack at 3600 s distils three, the second aborts.
    @example(seed=5, period=300.0, grace=60.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.5, "link1", -0.1)], reinit=1.0)
    # A tick that ends the init and distils a block: the first re-init poll
    # comes 190 s after the session starts, about 70 s after the init ends.
    @example(seed=1, period=600.0, grace=60.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.3, "link1", 0.0)], reinit=190.0)
    # Detections by zero-key debounce, with no attack: each init outlasts the
    # 60 s grace, and 30 s polls read a session's empty read-out twice before
    # its first block (DETECTED at t=152, 301 and 448).
    @example(seed=0, period=30.0, grace=60.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[], reinit=1.0)
    # One batch takes over the attack changes at 1800 s and 3600 s, each at
    # the time of a poll and a sample, and stops at the tick ending at 3660 s
    # whose block reads link1's attack: the change at 3660 s falls exactly
    # at the stop tick's end and runs on the event loop.
    @example(seed=8, period=60.0, grace=240.0, debounce=2, threshold=0.08,
             duration=7200.0, attacks=[(0.25, "link3", -8.0), (0.5, "link1", -0.3),
                                       (0.50834, "link2", -10.0)], reinit=60.0)
    # Hourly lit-link changes below the knee, then one at 28800 s whose first
    # block acts: one tick_while walks the nine stretches and stops there.
    @example(seed=13, period=60.0, grace=240.0, debounce=2, threshold=0.08,
             duration=36000.0,
             attacks=[(hour / 10 + 1e-6, "link1", offset) for hour, offset in enumerate(
                 [-10.0, -12.0, -9.0, -11.0, -8.0, -10.5, -9.5, 0.0], start=1)],
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

    @pytest.mark.parametrize("scenario, seed, most", [
        ("attack-link1.json", 42, 2),
        ("attack-link1-then-link2.json", 7, 3),
        ("attack-all-links.json", 11, 3),
    ])
    def test_the_event_loop_does_not_redraw_a_batch_stop_tick(self, configs, reference_topology,
                                                             scenario, seed, most):
        """A batch takes the tick that stops it, so the event loop draws only
        for ticks no batch took: the first block after each init."""
        run = ScenarioRun(reference_topology, load_scenario(str(configs / scenario)), seed)
        drawing, tick = [], run.unit.tick

        def counted(dt, channel, power):
            before = run.rng.bit_generator.state
            blocks = tick(dt, channel, power)
            if run.rng.bit_generator.state != before:
                drawing.append(run.clock.now())
            return blocks

        run.unit.tick = counted
        run.execute()
        assert len(drawing) <= most

    def test_a_quiet_day_is_batched(self, reference_topology):
        """Without batches an attack-free day polls about 1,560 times on the
        event loop; with them, only the re-init poll that sees the first init
        end and the poll that reads the first block."""
        run = ScenarioRun(reference_topology, Scenario(86400.0, ()), seed=1)
        polls, poll = [], run.qpm.poll
        run.qpm.poll = lambda t: (polls.append(t), poll(t))
        run.execute()
        assert len(polls) <= 5

    def test_an_hourly_drift_is_batched(self, reference_topology):
        """link1 falls at t=600 and link2, lit from then on, drifts hourly
        below its knee for a day. The batches take the attack changes over,
        link1's included: the event loop applies at most one of the 24."""
        powers = [-45.0 + (7 * hour) % 24 for hour in range(1, 24)]
        events = (ScenarioEvent(600.0, "link1", -40.0),
                  *(ScenarioEvent(3600.0 * hour, "link2", power)
                    for hour, power in enumerate(powers, start=1)))
        run = ScenarioRun(reference_topology, Scenario(86400.0, events), seed=3)
        applied, apply = [], run._apply_attack
        run._apply_attack = lambda event: (applied.append(event), apply(event))
        # The int64 kernel, not the loop, walks the batches from Generating.
        served, grid_steps = [], run.unit._grid_steps
        run.unit._grid_steps = lambda dts: (served.append(grid_steps(dts)), served[-1])[1]
        run.execute()
        assert served and all(steps is not None for steps in served)
        assert len(applied) <= 1
        assert run._attacks_applied == 24
        assert [e.kind for e in run.qpm.events].count(DETECTED) == 1
        last_row = run.metrics_text().splitlines()[-1]
        assert last_row.split(",")[4:7] == ["-40.00", f"{powers[-1]:.2f}", "-inf"]

    def test_events_ulps_apart_tick_as_on_the_event_loop(self, reference_topology):
        """Attack changes 2 ulps after the sample at 1800 s, 2, 4 and 5 ulps
        after the one at 3600 s, and 1 ulp after the one at 5400 s on the lit
        link. Each ends a tick of its own, however short, which the unit
        counts as no time; the next tick is timed from it, in a batch as on
        the event loop."""
        ulp = math.ulp(3600.0)
        events = (ScenarioEvent(1800.0 + 2 * math.ulp(1800.0), "link3", -40.0),
                  ScenarioEvent(3600.0 + 2 * ulp, "link3", -30.0),
                  ScenarioEvent(3600.0 + 4 * ulp, "link2", -30.0),
                  ScenarioEvent(3600.0 + 5 * ulp, "link3", -25.0),
                  ScenarioEvent(5400.0 + math.ulp(5400.0), "link1", -70.0))

        def state(batches):
            return finished_state(ScenarioRun(reference_topology, Scenario(7200.0, events),
                                              seed=4), batches)

        assert state(True) == state(False)

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


@settings(max_examples=200, deadline=None)
@given(start=st.floats(0.0, 1e7), period=st.one_of(
    st.sampled_from([1e-9, 0.1, 1.0, 1.0000000001, 59.999999999, 60.0, 7.3]),
    st.floats(1e-6, 1e4)), count=st.integers(1, 1100))
def test_add_accumulate_chains_as_repeated_addition(start, period, count):
    """The batch lists poll times with np.add.accumulate: bit for bit the
    monitor's t = t + period, one addition after another."""
    chain = [start]
    while len(chain) < count:
        chain.append(chain[-1] + period)
    times = np.full(count, period)
    times[0] = start
    assert np.add.accumulate(times).tolist() == chain


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
        """The timestamp goes into run_info.json only: summary.txt is the
        text summarize prints."""
        scenario = write_json(tmp_path / "s.json", {"duration_s": 120})
        run_scenario(str(configs / "reference_topology.json"), scenario,
                     seed=1, out_dir=str(tmp_path), deterministic=False)
        info = json.loads((tmp_path / "run_info.json").read_text())
        assert "generated_at" in info
        assert (tmp_path / "summary.txt").read_text() == summarize(str(tmp_path))[0]

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


def tree(path: Path) -> dict:
    """File name -> bytes of every file in the directory path."""
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.fixture(scope="module")
def rerun_inputs(tmp_path_factory, configs):
    """A short and a longer scenario, and the files a fresh run of the short one writes."""
    base = tmp_path_factory.mktemp("rerun")
    short = write_json(base / "short.json", {
        "duration_s": 600,
        "events": [{"t": 200, "link": "link1", "attack_power_dbm": -40}],
    })
    longer = write_json(base / "longer.json", {
        "duration_s": 1800,
        "events": [{"t": 200, "link": "link1", "attack_power_dbm": -40},
                   {"t": 900, "link": "link2", "attack_power_dbm": -5}],
    })
    topology = str(configs / "reference_topology.json")
    run_scenario(topology, short, seed=5, out_dir=str(base / "fresh"), deterministic=True)
    return topology, short, longer, tree(base / "fresh")


class TestRerunIntoAUsedDirectory:
    """A rerun leaves exactly the bytes a run into a fresh directory writes."""

    def test_over_the_files_of_a_longer_run(self, tmp_path, rerun_inputs):
        topology, short, longer, fresh = rerun_inputs
        run_scenario(topology, longer, seed=5, out_dir=str(tmp_path), deterministic=True)
        stale = tree(tmp_path)
        assert all(len(stale[name]) > len(fresh[name])
                   for name in ("metrics.csv", "qpm_log.ndjson", "controller_log.ndjson"))
        assert run_scenario(topology, short, seed=5, out_dir=str(tmp_path),
                            deterministic=True) == EXIT_OK
        assert tree(tmp_path) == fresh

    def test_a_timestamped_run_then_a_deterministic_one(self, tmp_path, rerun_inputs):
        topology, short, _, fresh = rerun_inputs
        run_scenario(topology, short, seed=5, out_dir=str(tmp_path), deterministic=False)
        stale = tree(tmp_path)
        assert len(stale["run_info.json"]) > len(fresh["run_info.json"])
        assert stale["summary.txt"].decode() == summarize(str(tmp_path))[0]
        run_scenario(topology, short, seed=5, out_dir=str(tmp_path), deterministic=True)
        assert tree(tmp_path) == fresh

    def test_through_a_symlinked_artifact(self, tmp_path, rerun_inputs):
        topology, short, _, fresh = rerun_inputs
        out = tmp_path / "out"
        out.mkdir()
        target = tmp_path / "kept.csv"
        target.write_bytes(fresh["metrics.csv"] * 2)
        (out / "metrics.csv").symlink_to(target)
        run_scenario(topology, short, seed=5, out_dir=str(out), deterministic=True)
        assert (out / "metrics.csv").is_symlink()
        assert target.read_bytes() == fresh["metrics.csv"]
        assert tree(out) == fresh

    def test_a_monitor_log_to_devnull(self, tmp_path, rerun_inputs):
        topology, short, _, fresh = rerun_inputs
        code = run_scenario(topology, short, seed=5, out_dir=str(tmp_path),
                            deterministic=True, qpm_log_path=os.devnull)
        assert code == EXIT_OK
        written = tree(tmp_path)
        assert set(written) == set(fresh) - {"qpm_log.ndjson"}
        for name in set(written) - {"run_info.json"}:
            assert written[name] == fresh[name], name
        info = json.loads(written["run_info.json"])
        assert info == {**json.loads(fresh["run_info.json"]), "qpm_log": os.devnull}

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_monitor_log_to_a_fifo(self, tmp_path, rerun_inputs):
        topology, short, _, fresh = rerun_inputs
        fifo = tmp_path / "log.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        code = run_scenario(topology, short, seed=5, out_dir=str(tmp_path / "out"),
                            deterministic=True, qpm_log_path=str(fifo))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == EXIT_OK
        assert received == [fresh["qpm_log.ndjson"]]
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == fresh["metrics.csv"]


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

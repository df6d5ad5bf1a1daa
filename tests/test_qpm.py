"""Mitigation monitor: detection predicate, path selection, failover loop."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkdsim.clock import Scheduler, SimClock
from qkdsim.qpm import (
    ACTIVE,
    ALARM,
    AVAILABLE,
    AWAITING_REINIT,
    DETECTED,
    EXHAUSTED,
    FAILED,
    MONITORING,
    Qpm,
    QpmConfig,
    RECONFIG_DONE,
    RECONFIG_SENT,
    REINIT_DONE,
    detect_failure,
    select_next_path,
)

CFG = QpmConfig()


def reading(qber=0.02, key_bits=57000, state="Generating", t=0.0) -> dict:
    return {"timestamp": t, "skr_bps": key_bits / 60.0, "qber": qber,
            "last_key_size_bits": key_bits, "state": state}


class TestDetectFailure:
    def test_high_qber_past_grace(self):
        r = reading(qber=0.21)
        assert detect_failure(r, [r], CFG, since_path_change=300.0)

    def test_anything_within_grace_is_ignored(self):
        r = reading(qber=0.45, key_bits=0, state="Aborted")
        assert not detect_failure(r, [r, r, r], CFG, since_path_change=240.0)

    def test_qber_at_threshold_does_not_trip(self):
        r = reading(qber=CFG.qber_threshold)
        assert not detect_failure(r, [r], CFG, since_path_change=300.0)

    def test_zero_key_needs_debounced_window(self):
        dead = reading(qber=0.03, key_bits=0)
        live = reading(qber=0.02)
        assert not detect_failure(dead, [live, dead], CFG, 300.0)
        assert detect_failure(dead, [live, dead, dead], CFG, 300.0)

    def test_single_zero_reading_is_not_enough(self):
        dead = reading(key_bits=0)
        assert not detect_failure(dead, [dead], CFG, 300.0)

    def test_aborted_zero_readings_count(self):
        dead = reading(qber=0.05, key_bits=0, state="Aborted")
        assert detect_failure(dead, [dead, dead], CFG, 300.0)

    def test_idle_or_initializing_zeros_do_not_count(self):
        for state in ("Idle", "Initializing"):
            dead = reading(qber=0.0, key_bits=0, state=state)
            assert not detect_failure(dead, [dead, dead, dead], CFG, 300.0)

    def test_high_qber_trips_even_while_keys_flow(self):
        r = reading(qber=0.11, key_bits=50000)
        assert detect_failure(r, [r], CFG, 300.0)


class TestSelectNextPath:
    def test_first_available_in_list_order(self):
        statuses = {"a": FAILED, "b": AVAILABLE, "c": AVAILABLE}
        assert select_next_path(statuses) == "b"

    def test_all_failed(self):
        assert select_next_path({"a": FAILED, "b": FAILED}) is None

    def test_active_is_not_a_candidate(self):
        assert select_next_path({"a": ACTIVE, "b": AVAILABLE}) == "b"

    def test_empty(self):
        assert select_next_path({}) is None


class StubController:
    """Northbound stand-in with scripted outcomes per set_up path."""

    def __init__(self, fail_paths=()):
        self.fail_paths = set(fail_paths)
        self.calls: list[dict] = []
        self._xid = 0

    def post_reconfigure(self, body):
        self.calls.append(dict(body))
        if body["set_up"] in self.fail_paths:
            return 200, {"request_id": body["request_id"], "outcome": "FAILED",
                         "transactions": [], "duration_ms": 1.0}
        xids = [self._xid + 1, self._xid + 2]
        self._xid += 2
        return 200, {"request_id": body["request_id"], "outcome": "SUCCESS",
                     "transactions": [{"xid": x, "switch": "sw", "status": "ACKED"}
                                      for x in xids],
                     "duration_ms": 1.0}


class StubQkd:
    """Monitor stand-in replaying a scripted timeline of readings.

    The script maps poll times to readings; missing times repeat the most
    recent scripted reading at or before that time.
    """

    def __init__(self, clock, script: dict):
        self.clock = clock
        self.script = dict(script)
        self.sessions: list[float] = []

    def read_monitor(self):
        t = self.clock.now()
        keys = [k for k in self.script if k <= t + 1e-9]
        if not keys:
            return reading(state="Idle", key_bits=0, qber=0.0, t=t)
        return dict(self.script[max(keys)], timestamp=t)

    def start_session(self):
        self.sessions.append(self.clock.now())


class FakeTopology:
    def __init__(self, ids):
        self._ids = list(ids)

    def path_ids(self):
        return list(self._ids)


def build_qpm(script, fail_paths=(), ids=("link1", "link2", "link3"),
              config=None):
    clock = SimClock()
    scheduler = Scheduler(clock)
    controller = StubController(fail_paths)
    qkd = StubQkd(clock, script)
    qpm = Qpm(config or CFG, FakeTopology(ids), controller, qkd, clock, scheduler)
    return qpm, scheduler, controller, qkd


class TestMitigationLoop:
    def test_startup_provisions_the_first_path(self):
        qpm, scheduler, controller, qkd = build_qpm({0.0: reading(state="Initializing", key_bits=0)})
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(10.0)
        assert [e.kind for e in qpm.events] == [RECONFIG_SENT, RECONFIG_DONE]
        assert qpm.statuses == {"link1": ACTIVE, "link2": AVAILABLE, "link3": AVAILABLE}
        assert qpm.active_path == "link1"
        assert qpm.mode == AWAITING_REINIT
        assert qkd.sessions == [0.0]
        assert controller.calls[0]["tear_down"] is None

    def test_full_episode_sequence(self):
        script = {
            0.0: reading(state="Initializing", key_bits=0, qber=0.0),
            100.0: reading(qber=0.02),          # re-init done, healthy
            600.0: reading(qber=0.30),          # attack drives QBER up
            641.0: reading(state="Initializing", key_bits=0, qber=0.0),
            760.0: reading(qber=0.019),         # healthy on the new path
        }
        qpm, scheduler, controller, qkd = build_qpm(script)
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(1200.0)
        kinds = [e.kind for e in qpm.events]
        assert kinds == [
            RECONFIG_SENT, RECONFIG_DONE,        # initial provisioning
            REINIT_DONE,
            DETECTED,                            # first poll past grace seeing 0.30
            RECONFIG_SENT, RECONFIG_DONE,        # fail over to link2
            REINIT_DONE,
        ]
        detected = qpm.events[3]
        assert detected.path == "link1"
        assert "qber=0.300000" in detected.detail
        assert qpm.statuses == {"link1": FAILED, "link2": ACTIVE, "link3": AVAILABLE}
        assert controller.calls[1]["tear_down"] == "link1"
        assert controller.calls[1]["set_up"] == "link2"
        # Detection waited out the grace window after the initial provisioning.
        assert detected.t > CFG.init_grace_s
        assert qpm.mode == MONITORING

    def test_event_times_are_monotone_and_xids_recorded(self):
        script = {0.0: reading(state="Initializing", key_bits=0), 100.0: reading()}
        qpm, scheduler, _, _ = build_qpm(script)
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(400.0)
        times = [e.t for e in qpm.events]
        assert times == sorted(times)
        done = next(e for e in qpm.events if e.kind == RECONFIG_DONE)
        assert done.xids == [1, 2]

    def test_failed_controller_response_moves_to_next_candidate(self):
        script = {
            0.0: reading(state="Initializing", key_bits=0),
            100.0: reading(),
            600.0: reading(qber=0.3),
            641.0: reading(state="Initializing", key_bits=0),
            760.0: reading(qber=0.02),
        }
        qpm, scheduler, controller, _ = build_qpm(script, fail_paths={"link2"})
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(1200.0)
        # link2 tried exactly once, then link3 wins; no retry of link2.
        set_ups = [c["set_up"] for c in controller.calls]
        assert set_ups == ["link1", "link2", "link3"]
        assert qpm.statuses == {"link1": FAILED, "link2": FAILED, "link3": ACTIVE}
        sent_paths = [e.path for e in qpm.events if e.kind == RECONFIG_SENT]
        assert sent_paths == ["link1", "link2", "link3"]

    def test_exhaustion_raises_alarm_and_keeps_polling(self):
        script = {
            0.0: reading(state="Initializing", key_bits=0),
            100.0: reading(),
            600.0: reading(qber=0.3),
        }
        qpm, scheduler, controller, _ = build_qpm(
            script, fail_paths={"link2", "link3"})
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(3600.0)
        assert qpm.mode == ALARM
        exhausted = [e for e in qpm.events if e.kind == EXHAUSTED]
        assert len(exhausted) == 1
        assert exhausted[0].path == "link1"
        # Polling continues but nothing else is attempted or emitted.
        assert len(controller.calls) == 3
        assert qpm.events[-1].kind == EXHAUSTED
        assert all(s == FAILED for s in qpm.statuses.values())

    def test_at_most_one_active_path_at_all_times(self):
        script = {
            0.0: reading(state="Initializing", key_bits=0),
            100.0: reading(),
            600.0: reading(qber=0.3),
            641.0: reading(state="Initializing", key_bits=0),
            760.0: reading(),
        }
        qpm, scheduler, _, _ = build_qpm(script)
        observed = []
        original = qpm._emit

        def spying_emit(*args, **kwargs):
            original(*args, **kwargs)
            observed.append(sum(1 for s in qpm.statuses.values() if s == ACTIVE))

        qpm._emit = spying_emit
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(1200.0)
        assert set(observed) <= {0, 1}

    def test_awaiting_reinit_accepts_an_aborted_first_sample(self):
        # If the new path is also under attack, the session lands in
        # Aborted; the monitor must leave the fast-poll mode regardless.
        script = {
            0.0: reading(state="Initializing", key_bits=0),
            100.0: reading(state="Aborted", key_bits=0, qber=0.4),
        }
        qpm, scheduler, _, _ = build_qpm(script)
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(150.0)
        assert any(e.kind == REINIT_DONE for e in qpm.events)
        assert qpm.mode == MONITORING

    def test_reinit_polls_run_on_the_fast_cadence(self):
        script = {0.0: reading(state="Initializing", key_bits=0), 90.0: reading()}
        qpm, scheduler, _, qkd = build_qpm(script)
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(91.0)
        done = next(e for e in qpm.events if e.kind == REINIT_DONE)
        # One-second polls see the transition within one second of t=90.
        assert 90.0 <= done.t <= 91.0

    def test_event_serialization_schema(self):
        qpm, scheduler, _, _ = build_qpm({0.0: reading(state="Initializing", key_bits=0)})
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(1.0)
        sent, done = qpm.events[0], qpm.events[1]
        assert list(sent.to_dict()) == ["t", "kind", "path", "detail"]
        assert list(done.to_dict()) == ["t", "kind", "path", "xids", "detail"]


readings = st.builds(reading, qber=st.floats(0.0, 0.5), key_bits=st.integers(0, 10**6),
                     state=st.sampled_from(["Idle", "Initializing", "Generating", "Aborted"]))


class TestCleanReadings:
    @settings(max_examples=300, deadline=None)
    @given(history=st.lists(readings, max_size=12), current=readings,
           key_bits=st.integers(1, 10**6), since=st.floats(-1e6, 1e6),
           grace=st.floats(0.0, 1e4), debounce=st.integers(1, 9),
           threshold=st.floats(1e-6, 0.5, exclude_max=True))
    def test_a_clean_reading_never_detects(self, history, current, key_bits, since, grace,
                                           debounce, threshold):
        """qber at most the threshold and some key bits: no history, time since
        the path change, grace, debounce or threshold makes it a detection."""
        config = QpmConfig(qber_threshold=threshold, zero_key_debounce=debounce,
                           init_grace_s=grace)
        clean = dict(current, qber=min(current["qber"], threshold), last_key_size_bits=key_bits)
        assert not detect_failure(clean, history + [clean], config, since)


class TestPollsThatCannotAct:
    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from([MONITORING, AWAITING_REINIT, ALARM]),
           history=st.lists(readings, max_size=8), current=readings,
           grace=st.floats(0.0, 120.0), debounce=st.integers(1, 9),
           threshold=st.floats(1e-6, 0.5, exclude_max=True))
    def test_a_poll_that_cannot_act_only_adds_to_the_history(
            self, mode, history, current, grace, debounce, threshold):
        """In every mode, whatever the history, grace window, debounce and
        threshold: a reading that could_act rejects emits no event, leaves
        the mode, statuses, controller and session alone, and joins the
        history."""
        config = QpmConfig(qber_threshold=threshold, zero_key_debounce=debounce,
                           init_grace_s=grace)
        ids = ("link1", "link2", "link3")
        first = reading(state="Generating" if mode == MONITORING else "Initializing")
        qpm, scheduler, controller, qkd = build_qpm(
            {0.0: first}, fail_paths=ids if mode == ALARM else (), ids=ids, config=config)
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(1.0)
        assert qpm.mode == mode
        assume(not qpm.could_act(current["qber"], current["last_key_size_bits"],
                                 current["state"]))
        qpm.history[:] = history
        qkd.script = {0.0: current}
        t = qpm.next_poll_t
        before = (list(qpm.events), dict(qpm.statuses), list(controller.calls),
                  list(qkd.sessions))
        scheduler.run_until(t)
        assert (qpm.events, qpm.statuses, controller.calls, qkd.sessions) == before
        assert qpm.mode == mode
        assert qpm.history == (history + [dict(current, timestamp=t)])[-qpm._history_cap:]


class TestBatchedPolls:
    @pytest.mark.parametrize("script", [
        pytest.param([reading()] * 12, id="quiet"),
        pytest.param([reading(qber=CFG.qber_threshold, key_bits=1)] * 12, id="at-the-edge"),
    ])
    def test_batched_polls_match_polling(self, script):
        start = {0.0: reading(state="Initializing", key_bits=0, qber=0.0), 100.0: reading()}
        twins = [build_qpm(start) for _ in range(2)]
        for qpm, scheduler, _, _ in twins:
            scheduler.at(0.0, lambda qpm=qpm: qpm.startup(0.0), priority=Qpm.PRIORITY)
            scheduler.run_until(200.0)
            assert qpm.mode == MONITORING
        (batched, _, _, _), (polled, scheduler, _, qkd) = twins
        times = [batched.next_poll_t]
        while len(times) < len(script):
            times.append(times[-1] + CFG.poll_period_s)
        qkd.script.update(zip(times, script))
        batched.skip_polls(times, lambda j: dict(script[j], timestamp=times[j]))
        scheduler.run_until(times[-1])
        assert polled.events == batched.events
        assert batched.history == polled.history
        assert batched.next_poll_t == polled.next_poll_t


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"poll_period_s": 0.0},
        {"reinit_poll_period_s": -1.0},
        {"qber_threshold": 0.0},
        {"qber_threshold": 0.5},
        {"zero_key_debounce": 0},
        {"init_grace_s": -1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QpmConfig(**kwargs)

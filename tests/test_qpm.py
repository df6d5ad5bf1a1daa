"""Mitigation monitor: detection predicate, path selection, failover loop."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkdsim.clock import Scheduler, SimClock
from qkdsim.controller import ReconfigReport
from qkdsim.qpm import (
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
        assert detect_failure(reading(qber=0.21), 0, CFG, since_path_change=300.0)

    def test_anything_within_grace_is_ignored(self):
        r = reading(qber=0.45, key_bits=0, state="Aborted")
        assert not detect_failure(r, 3, CFG, since_path_change=240.0)

    def test_qber_at_threshold_does_not_trip(self):
        r = reading(qber=CFG.qber_threshold)
        assert not detect_failure(r, 0, CFG, since_path_change=300.0)

    def test_zero_key_needs_debounced_window(self):
        dead = reading(qber=0.03, key_bits=0)
        assert not detect_failure(dead, 1, CFG, 300.0)
        assert detect_failure(dead, 2, CFG, 300.0)
        assert detect_failure(dead, 3, CFG, 300.0)

    def test_high_qber_trips_even_while_keys_flow(self):
        assert detect_failure(reading(qber=0.11, key_bits=50000), 0, CFG, 300.0)

    # Which polls count towards the zero-key debounce, seen through polls.

    def test_zero_key_needs_debounced_polls(self):
        qpm, scheduler, _, qkd = monitoring_qpm()
        dead, live = reading(qber=0.03, key_bits=0), reading(qber=0.02)
        assert poll_each(qpm, scheduler, qkd, [live, dead]) == [[], []]
        assert qpm.zero_key_polls == 1
        assert poll_each(qpm, scheduler, qkd, [dead]) == [[DETECTED, RECONFIG_SENT,
                                                           RECONFIG_DONE]]
        # The path change starts the count again.
        assert qpm.zero_key_polls == 0

    def test_single_zero_reading_is_not_enough(self):
        qpm, scheduler, _, qkd = monitoring_qpm()
        dead, live = reading(key_bits=0), reading()
        assert poll_each(qpm, scheduler, qkd, [dead, live, dead]) == [[], [], []]
        assert qpm.zero_key_polls == 1

    def test_aborted_zero_readings_count(self):
        qpm, scheduler, _, qkd = monitoring_qpm()
        dead = reading(qber=0.05, key_bits=0, state="Aborted")
        assert poll_each(qpm, scheduler, qkd, [dead, dead])[1][0] == DETECTED
        assert "last_key_size_bits=0 state=Aborted" in qpm.events[-3].detail

    def test_idle_or_initializing_zeros_do_not_count(self):
        for state in ("Idle", "Initializing"):
            qpm, scheduler, _, qkd = monitoring_qpm()
            dead = reading(qber=0.0, key_bits=0, state=state)
            assert poll_each(qpm, scheduler, qkd, [dead] * 3) == [[], [], []]
            assert qpm.zero_key_polls == 0


class TestSelectNextPath:
    def test_first_available_in_list_order(self):
        statuses = {"a": FAILED, "b": AVAILABLE, "c": AVAILABLE}
        assert select_next_path(statuses) == "b"

    def test_all_failed(self):
        assert select_next_path({"a": FAILED, "b": FAILED}) is None

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
        report = ReconfigReport(body["request_id"], body.get("tear_down"), body["set_up"],
                                t_start=0.0, t_end=0.001)
        if body["set_up"] in self.fail_paths:
            report.error = f"scripted failure of {body['set_up']}"
            return 200, report.to_dict()
        for _ in range(2):
            self._xid += 1
            report.transactions.append({"xid": self._xid, "switch": "sw", "command": "ADD",
                                        "in_port": 0, "out_port": 1, "status": "ACKED"})
        return 200, report.to_dict()


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
              config=None, monitor=Qpm):
    clock = SimClock()
    scheduler = Scheduler(clock)
    controller = StubController(fail_paths)
    qkd = StubQkd(clock, script)
    qpm = monitor(config or CFG, FakeTopology(ids), controller, qkd, clock, scheduler)
    return qpm, scheduler, controller, qkd


def monitoring_qpm(config=CFG):
    """A monitor past its grace window, MONITORING a healthy link1."""
    qpm, scheduler, controller, qkd = build_qpm(
        {0.0: reading(state="Initializing", key_bits=0, qber=0.0), 100.0: reading()},
        config=config)
    scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
    scheduler.run_until(config.init_grace_s + 1.0)
    assert qpm.mode == MONITORING
    return qpm, scheduler, controller, qkd


def poll_each(qpm, scheduler, qkd, script):
    """Make the next polls read the script's readings in turn; the kinds of
    the events each poll emits."""
    emitted = []
    for r in script:
        t, before = qpm.next_poll_t, len(qpm.events)
        qkd.script[t] = r
        scheduler.run_until(t)
        emitted.append([e.kind for e in qpm.events[before:]])
    return emitted


class TestMitigationLoop:
    def test_startup_provisions_the_first_path(self):
        qpm, scheduler, controller, qkd = build_qpm({0.0: reading(state="Initializing", key_bits=0)})
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(10.0)
        assert [e.kind for e in qpm.events] == [RECONFIG_SENT, RECONFIG_DONE]
        assert qpm.statuses == {"link1": AVAILABLE, "link2": AVAILABLE, "link3": AVAILABLE}
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
        assert qpm.statuses == {"link1": FAILED, "link2": AVAILABLE, "link3": AVAILABLE}
        assert qpm.active_path == "link2"
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
        assert qpm.statuses == {"link1": FAILED, "link2": FAILED, "link3": AVAILABLE}
        assert qpm.active_path == "link3"
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

    def test_the_lit_path_is_failed_before_a_failover_selects(self):
        """statuses holds no ACTIVE: the lit path stays AVAILABLE until
        detection marks it FAILED, before any failover selects a target,
        so no request sets up the path it tears down."""
        script = {
            0.0: reading(state="Initializing", key_bits=0),
            100.0: reading(),
            600.0: reading(qber=0.3),
            641.0: reading(state="Initializing", key_bits=0),
            760.0: reading(),
        }
        qpm, scheduler, controller, _ = build_qpm(script)
        observed = []
        post = controller.post_reconfigure

        def spying_post(body):
            observed.append((body["tear_down"], body["set_up"], dict(qpm.statuses)))
            return post(body)

        controller.post_reconfigure = spying_post
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(1200.0)
        assert observed == [
            (None, "link1", {"link1": AVAILABLE, "link2": AVAILABLE, "link3": AVAILABLE}),
            ("link1", "link2", {"link1": FAILED, "link2": AVAILABLE, "link3": AVAILABLE}),
        ]
        assert set(qpm.statuses.values()) <= {AVAILABLE, FAILED}
        assert qpm.active_path == "link2"

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
    @given(count=st.integers(0, 20), current=readings, key_bits=st.integers(1, 10**6),
           since=st.floats(-1e6, 1e6), grace=st.floats(0.0, 1e4), debounce=st.integers(1, 9),
           threshold=st.floats(1e-6, 0.5, exclude_max=True))
    def test_a_clean_reading_never_detects(self, count, current, key_bits, since, grace,
                                           debounce, threshold):
        """qber at most the threshold and some key bits: no zero-key count
        before it, time since the path change, grace, debounce or threshold
        makes a poll on it a detection."""
        config = QpmConfig(qber_threshold=threshold, zero_key_debounce=debounce,
                           init_grace_s=grace)
        clean = dict(current, qber=min(current["qber"], threshold), last_key_size_bits=key_bits)
        # A poll on it counts 0 zero-key polls.
        assert not detect_failure(clean, 0, config, since)
        qpm, scheduler, _, qkd = build_qpm({0.0: reading()}, config=config)
        scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
        scheduler.run_until(1.0)
        assert qpm.mode == MONITORING
        qpm.zero_key_polls = count
        assert poll_each(qpm, scheduler, qkd, [clean]) == [[]]
        assert qpm.zero_key_polls == 0


class TestPollsThatCannotAct:
    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from([MONITORING, AWAITING_REINIT, ALARM]),
           count=st.integers(0, 20), current=readings,
           grace=st.floats(0.0, 120.0), debounce=st.integers(1, 9),
           threshold=st.floats(1e-6, 0.5, exclude_max=True))
    # ALARM rejects even a zero-key reading from a Generating unit.
    @example(mode=ALARM, count=1, current=reading(key_bits=0), grace=60.0, debounce=2,
             threshold=0.08)
    def test_a_poll_that_cannot_act_only_ends_the_zero_key_run(
            self, mode, count, current, grace, debounce, threshold):
        """In every mode, whatever the zero-key count, grace window, debounce
        and threshold: a reading that could_act rejects emits no event, leaves
        the mode, statuses, controller and session alone, and sets the count
        to 0."""
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
        qpm.zero_key_polls = count
        qkd.script = {0.0: current}
        t = qpm.next_poll_t
        before = (list(qpm.events), dict(qpm.statuses), list(controller.calls),
                  list(qkd.sessions))
        scheduler.run_until(t)
        assert (qpm.events, qpm.statuses, controller.calls, qkd.sessions) == before
        assert qpm.mode == mode
        assert qpm.zero_key_polls == 0


class TestBatchedPolls:
    @pytest.mark.parametrize("script", [
        pytest.param([reading()] * 12, id="quiet"),
        pytest.param([reading(qber=CFG.qber_threshold, key_bits=1)] * 12, id="at-the-edge"),
    ])
    def test_batched_polls_match_polling(self, script):
        twins = [monitoring_qpm() for _ in range(2)]
        for qpm, _, _, _ in twins:
            qpm.zero_key_polls = 1
        (batched, _, _, _), (polled, scheduler, _, qkd) = twins
        times = [batched.next_poll_t]
        while len(times) < len(script):
            times.append(times[-1] + CFG.poll_period_s)
        qkd.script.update(zip(times, script))
        batched.skip_polls(times[-1])
        scheduler.run_until(times[-1])
        assert polled.events == batched.events
        assert batched.zero_key_polls == polled.zero_key_polls == 0
        assert batched.next_poll_t == polled.next_poll_t


def window_detect(reading, history, config, since_path_change) -> bool:
    """The detection rule over a log of readings, kept as the oracle for the
    zero-key count: history is the readings since the last path change (at
    most the last max(debounce, 8)), the current one last."""
    if since_path_change <= config.init_grace_s:
        return False
    if reading["qber"] > config.qber_threshold:
        return True
    window = history[-config.zero_key_debounce:]
    return len(window) == config.zero_key_debounce and all(
        r["last_key_size_bits"] == 0 and r["state"] in ("Generating", "Aborted") for r in window)


class WindowQpm(Qpm):
    """The monitor with a log of readings and window_detect in place of the
    zero-key count."""

    def __init__(self, *args):
        super().__init__(*args)
        self.history = []

    def poll(self, sched_t):
        reading = self.qkd_client.read_monitor()
        self.history = (self.history + [reading])[-max(self.config.zero_key_debounce, 8):]
        if self.could_act(reading["qber"], reading["last_key_size_bits"], reading["state"]):
            if self.mode == AWAITING_REINIT:
                self._emit(REINIT_DONE, path=self.active_path or "",
                           detail=f"state={reading['state']}")
                self.mode = MONITORING
            elif self.active_path is not None and window_detect(
                    reading, self.history, self.config, self.clock.now() - self._t_path_change):
                self._on_detect(reading)
        self._schedule_next(sched_t)

    def _emit(self, kind, path, detail, xids=None):
        super()._emit(kind, path, detail, xids)
        if kind == RECONFIG_DONE:
            self.history = []


script_readings = st.builds(
    reading, qber=st.sampled_from([0.0, 0.02, 0.08, 0.3]), key_bits=st.sampled_from([0, 0, 57000]),
    state=st.sampled_from(["Idle", "Initializing", "Generating", "Aborted"]))


class TestZeroKeyCountMatchesTheWindow:
    @settings(max_examples=300, deadline=None)
    @given(script=st.lists(st.tuples(st.integers(0, 7200), script_readings), max_size=40),
           period=st.sampled_from([30.0, 60.0, 97.5]), reinit=st.sampled_from([1.0, 45.0]),
           grace=st.floats(0.0, 400.0), debounce=st.integers(1, 9),
           fail_paths=st.sets(st.sampled_from(["link1", "link2", "link3"])))
    # Three zero-key detections after a reading with key bits, the last of
    # them exhausting the paths.
    @example(script=[(0, reading(state="Initializing", key_bits=0)), (100, reading()),
                     (500, reading(key_bits=0)), (1000, reading(key_bits=0, state="Aborted"))],
             period=60.0, reinit=1.0, grace=240.0, debounce=3, fail_paths=set())
    def test_events_equal_the_window_rule(self, script, period, reinit, grace, debounce,
                                          fail_paths):
        """Whatever the readings, debounce, grace and failing paths, the
        monitor emits the events, at the same times and with the same
        details, that a monitor with a window of readings emits."""
        config = QpmConfig(poll_period_s=period, reinit_poll_period_s=reinit,
                           init_grace_s=grace, zero_key_debounce=debounce)

        def run(monitor):
            qpm, scheduler, controller, qkd = build_qpm(
                {float(t): r for t, r in script}, fail_paths=fail_paths, config=config,
                monitor=monitor)
            scheduler.at(0.0, lambda: qpm.startup(0.0), priority=Qpm.PRIORITY)
            scheduler.run_until(7200.0)
            return ([e.to_dict() for e in qpm.events], qpm.statuses, qpm.mode,
                    qpm.next_poll_t, controller.calls, qkd.sessions)

        assert run(Qpm) == run(WindowQpm)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"poll_period_s": 0.0},
        {"reinit_poll_period_s": -1.0},
        {"qber_threshold": 0.0},
        {"qber_threshold": 0.5},
        {"zero_key_debounce": 0},
        {"init_grace_s": -1.0},
        # Not finite: NaN passes every comparison above as false.
        {"poll_period_s": math.inf},
        {"poll_period_s": math.nan},
        {"reinit_poll_period_s": math.inf},
        {"reinit_poll_period_s": math.nan},
        {"qber_threshold": math.nan},
        {"init_grace_s": math.inf},
        {"init_grace_s": math.nan},
        # The debounce counts polls: a whole number, not a bool.
        {"zero_key_debounce": math.nan},
        {"zero_key_debounce": 2.5},
        {"zero_key_debounce": 2.0},
        {"zero_key_debounce": True},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QpmConfig(**kwargs)

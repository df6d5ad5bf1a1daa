"""QKD unit pair: session lifecycle, key blocks, monitor read-out."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkdsim.clock import SimClock
from qkdsim.physics import (
    ATTACK_OFF,
    QBER_SIGMA,
    SKR_SIGMA,
    CalibrationAnchors,
    abort_qber,
    calibrate,
    qber,
    skr,
)
from qkdsim.qkd_unit import (
    _EPS,
    STATE_ABORTED,
    STATE_GENERATING,
    STATE_IDLE,
    STATE_INITIALIZING,
    KeyBlock,
    MonitorAgent,
    QkdUnitPair,
)

CHANNEL = calibrate(CalibrationAnchors(950.0, 0.02, -17.0, -9.0, 45.0))
KILL_POWER = -5.0  # comfortably past this channel's death power


def make_unit(seed=0, jitter=0.0, **kwargs) -> QkdUnitPair:
    return QkdUnitPair(np.random.default_rng(seed), init_jitter_frac=jitter, **kwargs)


class TestLifecycle:
    def test_initialization_takes_the_configured_time(self):
        unit = make_unit()
        unit.start_session(CHANNEL, now=0.0)
        assert unit.state == STATE_INITIALIZING
        unit.tick(119.0, CHANNEL, ATTACK_OFF)
        assert unit.state == STATE_INITIALIZING
        unit.tick(1.0, CHANNEL, ATTACK_OFF)
        assert unit.state == STATE_GENERATING
        assert unit.read_monitor(120.0)["skr_bps"] == 0.0  # no block distilled yet

    def test_one_block_per_interval_after_init(self):
        unit = make_unit()
        unit.start_session(CHANNEL, now=0.0)
        blocks = unit.tick(120.0 + 3 * 60.0, CHANNEL, ATTACK_OFF)
        assert [b.sequence_no for b in blocks] == [1, 2, 3]
        assert [b.produced_at for b in blocks] == pytest.approx([180.0, 240.0, 300.0])
        for b in blocks:
            # Size is rate times interval with ~3% jitter around 950 b/s.
            assert 950 * 60 * 0.85 < b.size_bits < 950 * 60 * 1.15

    def test_sequence_numbers_are_gapless_over_a_long_run(self):
        unit = make_unit()
        unit.start_session(CHANNEL, now=0.0)
        blocks = unit.tick(120.0 + 200 * 60.0, CHANNEL, ATTACK_OFF)
        assert [b.sequence_no for b in blocks] == list(range(1, 201))

    def test_attack_aborts_at_the_first_distillation(self):
        unit = make_unit()
        unit.start_session(CHANNEL, now=0.0)
        blocks = unit.tick(180.0, CHANNEL, KILL_POWER)
        assert blocks == []
        assert unit.state == STATE_ABORTED
        reading = unit.read_monitor(180.0)
        assert reading["skr_bps"] == 0.0
        assert reading["last_key_size_bits"] == 0
        assert reading["qber"] > 0.09  # at or past the abort point

    def test_aborted_session_stays_aborted(self):
        unit = make_unit()
        unit.start_session(CHANNEL, now=0.0)
        unit.tick(180.0, CHANNEL, KILL_POWER)
        assert unit.tick(3600.0, CHANNEL, ATTACK_OFF) == []
        assert unit.state == STATE_ABORTED

    @pytest.mark.parametrize("prepare", [
        pytest.param(lambda u: None, id="from-idle"),
        pytest.param(lambda u: u.start_session(CHANNEL, 0.0), id="from-initializing"),
        pytest.param(lambda u: (u.start_session(CHANNEL, 0.0),
                                u.tick(130.0, CHANNEL, ATTACK_OFF)), id="from-generating"),
        pytest.param(lambda u: (u.start_session(CHANNEL, 0.0),
                                u.tick(180.0, CHANNEL, KILL_POWER)), id="from-aborted"),
    ])
    def test_losing_the_circuit_drops_to_idle(self, prepare):
        unit = make_unit()
        prepare(unit)
        unit.tick(1.0, None, ATTACK_OFF)
        assert unit.state == STATE_IDLE
        reading = unit.read_monitor(0.0)
        assert (reading["skr_bps"], reading["qber"], reading["last_key_size_bits"]) == (0.0, 0.0, 0)

    def test_restart_after_idle_reinitializes(self):
        unit = make_unit()
        unit.start_session(CHANNEL, now=0.0)
        unit.tick(200.0, CHANNEL, ATTACK_OFF)
        unit.tick(5.0, None, ATTACK_OFF)
        unit.start_session(CHANNEL, now=205.0)
        assert unit.state == STATE_INITIALIZING
        blocks = unit.tick(120.0 + 60.0, CHANNEL, ATTACK_OFF)
        assert [b.sequence_no for b in blocks] == [1]  # fresh session numbering

    def test_reinit_duration_matches_first_init_without_jitter(self):
        durations = []
        unit = make_unit(jitter=0.0)
        for round_no in range(2):
            unit.tick(1.0, None, ATTACK_OFF)
            unit.start_session(CHANNEL, now=unit._now)
            elapsed = 0.0
            while unit.state == STATE_INITIALIZING:
                unit.tick(0.5, CHANNEL, ATTACK_OFF)
                elapsed += 0.5
            durations.append(elapsed)
        assert durations[0] == durations[1] == 120.0

    def test_init_jitter_stays_within_the_configured_fraction(self):
        unit = make_unit(seed=5, jitter=0.1)
        durations = []
        for _ in range(40):
            unit.tick(1.0, None, ATTACK_OFF)
            unit.start_session(CHANNEL, now=unit._now)
            elapsed = 0.0
            while unit.state == STATE_INITIALIZING:
                unit.tick(0.25, CHANNEL, ATTACK_OFF)
                elapsed += 0.25
            durations.append(elapsed)
        assert all(120.0 * 0.9 - 0.25 <= d <= 120.0 * 1.1 + 0.25 for d in durations)
        assert len(set(durations)) > 1  # jitter actually varies


class TestDeterminismAndPartitioning:
    def test_same_seed_same_timeline(self):
        runs = []
        for _ in range(2):
            unit = make_unit(seed=42, jitter=0.03)
            unit.start_session(CHANNEL, now=0.0)
            runs.append(unit.tick(1200.0, CHANNEL, ATTACK_OFF))
        assert runs[0] == runs[1]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.1, 200.0), min_size=1, max_size=30))
    def test_tick_partitioning_is_irrelevant(self, chunks):
        total = sum(chunks)
        # Keep totals away from exact block boundaries so float accumulation
        # cannot flip a boundary crossing between the two executions.
        boundary_distance = abs((total - 120.0) % 60.0)
        if min(boundary_distance, 60.0 - boundary_distance) < 1e-3:
            chunks = chunks + [0.5]
            total += 0.5
        one = make_unit(seed=7)
        one.start_session(CHANNEL, now=0.0)
        whole = one.tick(total, CHANNEL, ATTACK_OFF)
        other = make_unit(seed=7)
        other.start_session(CHANNEL, now=0.0)
        pieces = []
        for chunk in chunks:
            pieces.extend(other.tick(chunk, CHANNEL, ATTACK_OFF))
        assert [(b.sequence_no, b.size_bits) for b in whole] == \
               [(b.sequence_no, b.size_bits) for b in pieces]
        assert [b.produced_at for b in pieces] == pytest.approx(
            [b.produced_at for b in whole], abs=1e-6)
        assert one.state == other.state
        assert one.read_monitor(total) == other.read_monitor(total)


class LoopUnit(QkdUnitPair):
    """Reference unit: tick written out step by step, one block and one
    scalar sample at a time, independent of the unit's own code."""

    def tick(self, dt, active_channel, attack_power_dbm):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if active_channel is None:
            self._now += dt
            self._to_idle()
            return []
        produced = []
        remaining = dt
        while remaining > _EPS:
            if self.state == STATE_INITIALIZING:
                step = min(remaining, self._init_remaining)
                self._init_remaining -= step
                self._now += step
                remaining -= step
                if self._init_remaining <= _EPS:
                    self.state = STATE_GENERATING
                    self._interval_elapsed = 0.0
            elif self.state == STATE_GENERATING:
                step = min(remaining, self.key_interval_s - self._interval_elapsed)
                self._interval_elapsed += step
                self._now += step
                remaining -= step
                if self._interval_elapsed >= self.key_interval_s - _EPS:
                    self._interval_elapsed = 0.0
                    block = self._distill(active_channel, attack_power_dbm)
                    if block is not None:
                        produced.append(block)
            else:
                self._now += remaining
                remaining = 0.0
        return produced

    def _distill(self, channel, power):
        q = qber(channel, power) * (1.0 + QBER_SIGMA * self.rng.standard_normal())
        s = skr(channel, power) * (1.0 + SKR_SIGMA * self.rng.standard_normal())
        self._last_qber = min(max(q, 0.0), 0.5)
        if self._last_qber >= abort_qber(channel.ec_efficiency):
            self.state = STATE_ABORTED
            self._last_skr, self._last_key_bits = 0.0, 0
            return None
        self._last_skr = max(s, 0.0)
        self._last_key_bits = round(self._last_skr * self.key_interval_s)
        if self._last_key_bits <= 0:
            return None
        self._sequence += 1
        return KeyBlock(self._sequence, self._last_key_bits, self._now)


def unit_state(unit: QkdUnitPair):
    return (unit.state, unit._init_remaining, unit._interval_elapsed, unit._now,
            unit._sequence, unit._last_skr, unit._last_qber, unit._last_key_bits,
            unit.rng.bit_generator.state)


def to_boundary(unit: QkdUnitPair) -> float:
    """Time left until the unit's next init end or key boundary."""
    if unit.state == STATE_INITIALIZING:
        return unit._init_remaining
    return unit.key_interval_s - unit._interval_elapsed


near = st.sampled_from([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9])
steps = st.one_of(
    st.tuples(st.just("tick"), st.floats(1e-15, 1e-9)),
    st.tuples(st.just("tick"), st.floats(1e-6, 200.0)),
    st.tuples(st.just("near"), near),
    st.tuples(st.just("power"), st.sampled_from([ATTACK_OFF, -40.0, -12.0, -9.2, KILL_POWER])),
    st.tuples(st.just("lose"), st.floats(0.5, 5.0)),
    st.tuples(st.just("restart"), st.none()),
)


class TestTickMatchesTheLoop:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(steps, max_size=40))
    @example(1, [("near", -1e-9), ("near", 1e-9), ("near", 0.0), ("tick", 1e-9),
                 ("near", -5e-10), ("near", 5e-10), ("power", KILL_POWER), ("near", 0.0)])
    # Clean blocks, then one that aborts, inside the 600 s tick.
    @example(3, [("tick", 130.0), ("power", -9.2), ("tick", 600.0), ("tick", 60.0)])
    def test_every_tick_equals_the_reference_loop(self, seed, ops):
        fast = make_unit(seed=seed, jitter=0.03)
        slow = LoopUnit(np.random.default_rng(seed), init_jitter_frac=0.03)
        for unit in (fast, slow):
            unit.start_session(CHANNEL, now=0.0)
        power = ATTACK_OFF
        for kind, value in ops:
            if kind == "power":
                power = value
                continue
            if kind == "restart":
                fast.start_session(CHANNEL, fast._now)
                slow.start_session(CHANNEL, slow._now)
            else:
                channel = None if kind == "lose" else CHANNEL
                dt = to_boundary(slow) + value if kind == "near" else value
                if dt <= 0:
                    continue
                assert fast.tick(dt, channel, power) == slow.tick(dt, channel, power)
            assert unit_state(fast) == unit_state(slow)

    @pytest.mark.parametrize("init_time_s, key_interval_s, ticks, state, sequence", [
        # 2.001e-9 - 1.001e-9 == _EPS exactly: init ends on this tick.
        pytest.param(2.001e-9, 60.0, [1.001e-9], STATE_GENERATING, 0, id="init"),
        # 0.0 + (1.0 - _EPS) == 1.0 - _EPS exactly: a block is distilled.
        pytest.param(1.0, 1.0, [1.0, 1.0 - 1e-9], STATE_GENERATING, 1, id="interval"),
    ])
    def test_a_tick_ending_exactly_eps_early_reaches_the_boundary(
            self, init_time_s, key_interval_s, ticks, state, sequence):
        fast = make_unit(init_time_s=init_time_s, key_interval_s=key_interval_s)
        slow = LoopUnit(np.random.default_rng(0), init_time_s=init_time_s,
                        key_interval_s=key_interval_s, init_jitter_frac=0.0)
        for unit in (fast, slow):
            unit.start_session(CHANNEL, now=0.0)
        for dt in ticks:
            assert fast.tick(dt, CHANNEL, ATTACK_OFF) == slow.tick(dt, CHANNEL, ATTACK_OFF)
            assert unit_state(fast) == unit_state(slow)
        assert (fast.state, fast._sequence) == (state, sequence)


tick_lengths = st.one_of(
    st.sampled_from([1e-9, 5e-10, 2e-9, 1e-6, 30.0, 60.0, 60.0 - 1e-9, 60.0 + 1e-9, 120.0,
                     150.0, 600.0]),
    st.floats(1e-11, 700.0))


def clean(qber_max):
    """The monitoring stop rule: qber above qber_max or no key bits."""
    return lambda q, bits, state: (q > qber_max) | (bits == 0)


def never(q, bits, state):
    return False


class TestTickWhileClean:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 100.0),
           st.lists(tick_lengths, max_size=40),
           st.sampled_from([ATTACK_OFF, -17.0, -10.0, -9.5, -9.0, KILL_POWER]),
           st.sampled_from([0.021, 0.025, 0.08, 0.5, None]))
    @example(3, 5.0, [60.0] * 12, -9.5, 0.08)  # blocks abort part way
    # Ticks longer than the key interval: the tick distilling the first
    # block that is not clean distils clean blocks before it.
    @example(1, 5.0, [313.0] * 6, ATTACK_OFF, 0.021)
    # No stop rule: at the death power blocks without key bits are kept
    # (no sequence number) until one aborts.
    @example(3, 5.0, [60.0] * 12, -9.0, None)
    def test_the_kept_prefix_equals_ticking(self, seed, past_init, dts, power, qber_max):
        """qber_max None stands for a rule that never stops the batch: only an
        aborting block does."""
        batched, ticked = make_unit(seed=seed, jitter=0.03), make_unit(seed=seed, jitter=0.03)
        looped = LoopUnit(np.random.default_rng(seed), init_jitter_frac=0.03)
        for unit in (batched, ticked, looped):
            unit.start_session(CHANNEL, now=0.0)
            unit.tick(unit._init_remaining + past_init, CHANNEL, ATTACK_OFF)
            assume(unit.state == STATE_GENERATING)
        distilled = []

        def distill(channel, power, distill=looped._distill):
            block = distill(channel, power)
            distilled.append((looped._last_qber, looped._last_skr, looped._last_key_bits,
                              looped.state))
            return block

        looped._distill = distill
        acts = never if qber_max is None else clean(qber_max)
        ticks, block_ticks, readouts = batched.tick_while(dts, CHANNEL, power, acts)
        for i, dt in enumerate(dts[:ticks]):
            reading = ticked.read_monitor(ticked._now)
            blocks = sum(1 for b in block_ticks if b < i)
            assert readouts[blocks] == (
                reading["qber"], reading["skr_bps"], reading["last_key_size_bits"])
            assert ticked.tick(dt, CHANNEL, power) == looped.tick(dt, CHANNEL, power)
        assert unit_state(batched) == unit_state(ticked) == unit_state(looped)
        # Every kept block keeps the unit Generating and is not flagged, and
        # the next tick distils one that aborts or is flagged.
        assert readouts[1:] == [r[:3] for r in distilled]
        assert all(not acts(q, bits, state) and state == STATE_GENERATING
                   for q, _, bits, state in distilled)
        if ticks < len(dts):
            looped.tick(dts[ticks], CHANNEL, power)
            assert any(acts(q, bits, state) or state == STATE_ABORTED
                       for q, _, bits, state in distilled[len(readouts) - 1:])

    def test_an_unclean_first_block_changes_nothing(self):
        """An aborting first block stops the batch under any rule."""
        unit = make_unit(seed=4)
        unit.start_session(CHANNEL, now=0.0)
        unit.tick(150.0, CHANNEL, ATTACK_OFF)
        before = unit_state(unit)
        for acts in (clean(0.08), never):
            assert unit.tick_while([60.0] * 10, CHANNEL, KILL_POWER, acts)[0] == 0
            assert unit_state(unit) == before


fixed_ticks = st.one_of(
    st.sampled_from([5e-13, 1e-9, 1.5e-9, 1.0, 1.0000000001, 7.3, 60.0, 130.0]),
    st.floats(1e-12, 200.0))


class TestTickWhileFixed:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.lists(fixed_ticks, max_size=60),
           st.sampled_from([None, -2e-9, -1e-9, -5e-10, 0.0, 5e-10, 2e-9]))
    # Ticks of at most _EPS change nothing; the last one ends 5e-10 s early.
    @example(1, False, [5e-13, 1e-9, 60.0, 1e-9, 30.0], -5e-10)
    def test_the_ticks_taken_equal_ticking(self, seed, aborted, dts, near_end):
        """From Initializing or Aborted, each tick taken leaves the unit as tick
        and the reference loop do, draws nothing and keeps the read-out; the
        first tick not taken is one that ends the init."""
        units = (make_unit(seed=seed, jitter=0.03), make_unit(seed=seed, jitter=0.03),
                 LoopUnit(np.random.default_rng(seed), init_jitter_frac=0.03))
        for unit in units:
            unit.start_session(CHANNEL, now=0.0)
            if aborted:
                unit.tick(unit._init_remaining + 60.0, CHANNEL, KILL_POWER)
                assume(unit.state == STATE_ABORTED)
        batched, ticked, looped = units
        if near_end is not None:
            # Add a tick that ends near_end away from the end of the init.
            probe = make_unit(seed=seed, jitter=0.03)
            probe.start_session(CHANNEL, now=0.0)
            for dt in dts:
                probe.tick(dt, CHANNEL, ATTACK_OFF)
            if probe.state == STATE_INITIALIZING and probe._init_remaining + near_end > 0:
                dts = dts + [probe._init_remaining + near_end]
        readout = ticked.read_monitor(0.0)
        ticks, block_ticks, readouts = batched.tick_while(dts, CHANNEL, KILL_POWER, never)
        assert block_ticks == []
        assert readouts == [(readout["qber"], readout["skr_bps"], readout["last_key_size_bits"])]
        for dt in dts[:ticks]:
            assert ticked.tick(dt, CHANNEL, KILL_POWER) == looped.tick(dt, CHANNEL, KILL_POWER)
            assert unit_state(ticked) == unit_state(looped)
            assert ticked.read_monitor(0.0) == readout
        assert unit_state(batched) == unit_state(ticked)
        if ticks < len(dts):
            ticked.tick(dts[ticks], CHANNEL, ATTACK_OFF)
            assert ticked.state == STATE_GENERATING

    def test_init_left_is_the_time_to_generating(self):
        unit = make_unit()
        assert unit.init_left() == math.inf
        unit.start_session(CHANNEL, now=0.0)
        assert unit.tick_while([30.0, 30.0], CHANNEL, ATTACK_OFF, never)[0] == 2
        assert unit.init_left() == 60.0
        assert unit.tick_while([59.0, 1.0, 1.0], CHANNEL, ATTACK_OFF, never)[0] == 1
        assert unit.state == STATE_INITIALIZING
        unit.tick(1.0, CHANNEL, ATTACK_OFF)
        assert (unit.state, unit.init_left()) == (STATE_GENERATING, math.inf)


class TestMonitorReadout:
    def test_reading_is_side_effect_free(self):
        unit = make_unit()
        unit.start_session(CHANNEL, now=0.0)
        unit.tick(200.0, CHANNEL, ATTACK_OFF)
        first = unit.read_monitor(200.0)
        second = unit.read_monitor(200.0)
        assert first == second

    def test_schema_and_zeroing_outside_generation(self):
        unit = make_unit()
        expected_keys = {"timestamp", "skr_bps", "qber", "last_key_size_bits", "state"}
        assert set(unit.read_monitor(0.0)) == expected_keys
        unit.start_session(CHANNEL, now=0.0)
        reading = unit.read_monitor(1.5)
        assert reading["state"] == STATE_INITIALIZING
        assert reading["skr_bps"] == 0.0 and reading["last_key_size_bits"] == 0
        unit.tick(200.0, CHANNEL, ATTACK_OFF)
        reading = unit.read_monitor(200.0)
        assert reading["state"] == STATE_GENERATING
        assert reading["skr_bps"] > 0.0
        assert reading["last_key_size_bits"] > 0
        assert reading["timestamp"] == 200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_unit(init_time_s=0.0)
        with pytest.raises(ValueError):
            make_unit(jitter=1.0)
        unit = make_unit()
        with pytest.raises(ValueError):
            unit.tick(0.0, CHANNEL, ATTACK_OFF)
        with pytest.raises(ValueError):
            unit.start_session(None, 0.0)
        unit.tick(10.0, CHANNEL if False else None, ATTACK_OFF)
        with pytest.raises(ValueError):
            unit.start_session(CHANNEL, now=5.0)  # behind the unit's clock


class TestMonitorAgent:
    def test_line_protocol_matches_direct_reads(self):
        clock = SimClock()
        unit = make_unit()
        unit.start_session(CHANNEL, now=0.0)
        unit.tick(200.0, CHANNEL, ATTACK_OFF)
        clock.advance(200.0)
        agent = MonitorAgent(unit, clock)
        line = agent.process_line('{"op":"read_monitor"}')
        assert line.endswith("\n")
        assert json.loads(line) == unit.read_monitor(200.0)

    def test_unknown_op_rejected(self):
        agent = MonitorAgent(make_unit(), SimClock())
        with pytest.raises(ValueError):
            agent.process_line('{"op":"reboot"}')

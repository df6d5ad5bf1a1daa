"""Paired QKD unit emulation: session lifecycle and key-block production.

One object stands for the Alice/Bob pair sharing a session. A session
initializes for a configurable duration, then distills one final key
block per key interval at the channel model's jittered rate. A sampled
error rate at or above the correctable limit aborts the session; losing
the optical circuit drops it to Idle (control-plane action, not attack).
The monitor read-out is the poll target for failure detection: key size
and rate read as zero whenever keys are not being generated.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import physics
from .physics import ChannelParams

STATE_IDLE = "Idle"
STATE_INITIALIZING = "Initializing"
STATE_GENERATING = "Generating"
STATE_ABORTED = "Aborted"

_EPS = 1e-9


@dataclass(frozen=True)
class KeyBlock:
    sequence_no: int
    size_bits: int
    produced_at: float


class QkdUnitPair:
    """State machine advanced by the simulation owner via tick().

    rng is a caller-owned numpy Generator; each session consumes one
    uniform draw (init-duration jitter) followed by two normal draws per
    key interval (QBER then SKR, inside physics.sample), so the draw
    order is a pure function of the event timeline.
    """

    def __init__(self, rng, init_time_s: float = 120.0, key_interval_s: float = 60.0,
                 init_jitter_frac: float = 0.03):
        if init_time_s <= 0 or key_interval_s <= 0:
            raise ValueError("init_time_s and key_interval_s must be positive")
        if not 0.0 <= init_jitter_frac < 1.0:
            raise ValueError("init_jitter_frac must be in [0, 1)")
        self.rng = rng
        self.init_time_s = init_time_s
        self.key_interval_s = key_interval_s
        self.init_jitter_frac = init_jitter_frac
        self.state = STATE_IDLE
        self._now = 0.0
        self._init_remaining = 0.0
        self._interval_elapsed = 0.0
        self._sequence = 0
        self._last_skr = 0.0
        self._last_qber = 0.0
        self._last_key_bits = 0

    def start_session(self, channel: ChannelParams, now: float):
        """Begin (re-)initialization; caller guarantees a complete circuit."""
        if channel is None:
            raise ValueError("start_session requires an established channel")
        if now < self._now - _EPS:
            raise ValueError("session start before the unit's current time")
        self._now = max(self._now, now)
        jitter = 1.0 + self.init_jitter_frac * (2.0 * self.rng.random() - 1.0)
        self._init_remaining = self.init_time_s * jitter
        self._interval_elapsed = 0.0
        self._sequence = 0
        self._last_skr = 0.0
        self._last_qber = 0.0
        self._last_key_bits = 0
        self.state = STATE_INITIALIZING

    def tick(self, dt: float, active_channel, attack_power_dbm: float) -> list[KeyBlock]:
        """Advance dt seconds under the given circuit/attack conditions."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if active_channel is None:
            self._now += dt
            self._to_idle()
            return []
        # Fast paths: a tick that ends more than _EPS before the end of
        # the init period or key interval is one iteration of the loop
        # below, with the same float arithmetic (such a dt is never above
        # the time left, so the loop's min() would pick dt too). No-op
        # ticks of dt <= _EPS and ticks reaching a boundary take the loop.
        if dt > _EPS:
            if self.state == STATE_GENERATING:
                elapsed = self._interval_elapsed + dt
                if elapsed < self.key_interval_s - _EPS:
                    self._interval_elapsed = elapsed
                    self._now += dt
                    return []
            elif self.state == STATE_INITIALIZING:
                init_remaining = self._init_remaining - dt
                if init_remaining > _EPS:
                    self._init_remaining = init_remaining
                    self._now += dt
                    return []
        produced: list[KeyBlock] = []
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
            else:  # Idle or Aborted: time passes, nothing happens
                self._now += remaining
                remaining = 0.0
        return produced

    def tick_while_clean(self, dts, active_channel, attack_power_dbm: float,
                         qber_max: float):
        """tick(dt, ...) for each of dts from Generating with a clean read-out, up
        to the tick distilling the first block that is not clean: qber above
        qber_max or no key bits (an aborting block has none). All samples are
        drawn in one call, the same values as one at a time.

        Returns the ticks taken, the tick distilling each block of dts, and the
        read-outs (qber, skr_bps, key_bits) after 0, 1, ... of the blocks kept.
        """
        block_ticks, elapsed, now = self._key_steps(dts)
        rng_state = self.rng.bit_generator.state
        q, s = physics.sample_array(active_channel, attack_power_dbm,
                                    self.rng.standard_normal(2 * len(block_ticks)))
        bits = np.rint(s * self.key_interval_s).astype(np.int64)
        unclean = np.flatnonzero((q > qber_max) | (bits == 0))
        ticks, kept = len(dts), len(block_ticks)
        if len(unclean):
            ticks = block_ticks[unclean[0]]
            # One tick may distil several blocks: keep those before it.
            kept = bisect_left(block_ticks, ticks)
            self.rng.bit_generator.state = rng_state
            self.rng.standard_normal(2 * kept)
            _, elapsed, now = self._key_steps(dts[:ticks])
        self._interval_elapsed, self._now = elapsed, now
        readouts = [(self._last_qber, self._last_skr, self._last_key_bits)]
        readouts += zip(q[:kept].tolist(), s[:kept].tolist(), bits[:kept].tolist())
        self._last_qber, self._last_skr, self._last_key_bits = readouts[-1]
        self._sequence += kept  # every kept block has key bits
        return ticks, block_ticks, readouts

    def tick_while_fixed(self, dts) -> int:
        """tick(dt, <a lit circuit>, ...) for each of dts while the read-out stays
        as it is: all of them from Aborted, and from Initializing up to the tick
        that ends the init. Such ticks draw nothing. Returns the ticks taken."""
        initializing = self.state == STATE_INITIALIZING
        init_remaining, now = self._init_remaining, self._now
        ticks = 0
        for dt in dts:
            if dt > _EPS:  # a shorter tick changes nothing, not even the clock
                if initializing:
                    if init_remaining - dt <= _EPS:
                        break
                    init_remaining -= dt
                now += dt
            ticks += 1
        self._init_remaining, self._now = init_remaining, now
        return ticks

    def init_left(self) -> float:
        """Simulated time left in the init, to within _EPS, while Initializing."""
        return self._init_remaining

    def _key_steps(self, dts) -> tuple[list[int], float, float]:
        """tick's interval arithmetic over dts from Generating: the tick
        distilling each block, and the elapsed interval and clock after."""
        interval = self.key_interval_s
        edge = interval - _EPS
        elapsed, now = self._interval_elapsed, self._now
        block_ticks: list[int] = []
        for i, dt in enumerate(dts):
            if dt > _EPS and elapsed + dt < edge:
                elapsed += dt
                now += dt
                continue
            remaining = dt
            while remaining > _EPS:
                step = min(remaining, interval - elapsed)
                elapsed += step
                now += step
                remaining -= step
                if elapsed >= edge:
                    elapsed = 0.0
                    block_ticks.append(i)
        return block_ticks, elapsed, now

    def read_monitor(self, now: float) -> dict:
        """Side-effect-free monitoring read-out in the wire schema."""
        generating = self.state == STATE_GENERATING
        return {
            "timestamp": round(now, 6),
            "skr_bps": self._last_skr if generating else 0.0,
            "qber": self._last_qber if self.state != STATE_IDLE else 0.0,
            "last_key_size_bits": self._last_key_bits if generating else 0,
            "state": self.state,
        }

    # -- internals ---------------------------------------------------------

    def _distill(self, channel: ChannelParams, attack_power_dbm: float):
        sample = physics.sample(channel, attack_power_dbm, self.rng)
        self._last_qber = sample.qber
        self._last_skr = sample.skr_bps
        if sample.qber >= physics.abort_qber(channel.ec_efficiency):
            self.state = STATE_ABORTED
            self._last_key_bits = 0
            return None
        bits = int(round(sample.skr_bps * self.key_interval_s))
        self._last_key_bits = bits
        if bits <= 0:
            return None
        self._sequence += 1
        return KeyBlock(sequence_no=self._sequence, size_bits=bits, produced_at=self._now)

    def _to_idle(self):
        self.state = STATE_IDLE
        self._init_remaining = 0.0
        self._interval_elapsed = 0.0
        self._last_skr = 0.0
        self._last_qber = 0.0
        self._last_key_bits = 0


class MonitorAgent:
    """Line-oriented monitor protocol over one unit pair.

    The socket transport and the in-process client both produce readings
    through here, so the serialized schema is identical in either mode.
    """

    def __init__(self, unit: QkdUnitPair, clock):
        self.unit = unit
        self.clock = clock

    def process_line(self, line: str) -> str:
        request = json.loads(line)
        if request.get("op") != "read_monitor":
            raise ValueError(f"unknown monitor op {request.get('op')!r}")
        reading = self.unit.read_monitor(self.clock.now())
        return json.dumps(reading, separators=(",", ":")) + "\n"

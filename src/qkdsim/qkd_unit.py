"""Paired QKD unit emulation: session lifecycle and key-block production.

One object stands for the Alice/Bob pair sharing a session. A session
initializes for a configurable duration, then distills one final key
block per key interval at the channel model's jittered rate. A sampled
error rate at or above the correctable limit aborts the session; losing
the optical circuit drops it to Idle (control-plane action, not attack).
The monitor read-out is the poll target for failure detection: key size
and rate read as zero whenever keys are not being generated.

One engine advances the unit: _steps runs the interval arithmetic over
a list of ticks on a lit circuit, and physics.sample turns the blocks
it distils into read-outs, all from one draw of normals. tick is that
engine over one dt: it ends the init first if the init ends within dt,
and stops the session at a block that aborts. tick_while runs it over
many ticks for as long as the state stays as it is and no block's
read-out meets the caller's stop rule. Where either stops at a block
the draw covered blocks past it, the rng is put back and redrawn up
to the blocks kept, so the random stream is the one that distilling
block by block would leave.
"""

from __future__ import annotations

import json
import math
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
    """State machine advanced by the simulation owner via tick() or
    tick_while(), both the batch engine (_steps, then one physics.sample).

    rng is a caller-owned numpy Generator; each session consumes one
    uniform draw (init-duration jitter) followed by two standard normal
    draws per distilled block (QBER's then SKR's), in block order. numpy
    gives the same normals whether they are drawn one block at a time or
    many at once, so the draw order is a pure function of the event
    timeline, however the timeline is cut into ticks.
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
        """Advance dt seconds under the given circuit/attack conditions: end
        the init if it ends within dt, then run _steps over [dt] and sample
        its blocks in one draw. A block that aborts ends the session there."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if active_channel is None:
            self._now += dt
            self._to_idle()
            return []
        if self.state == STATE_INITIALIZING and dt > _EPS and self._init_remaining - dt <= _EPS:
            step = min(dt, self._init_remaining)
            self._init_remaining -= step
            self._now += step
            dt -= step
            self.state = STATE_GENERATING
        _, _, times, init_left, elapsed, now = self._steps([dt])
        produced: list[KeyBlock] = []
        if times:
            rng_state = self.rng.bit_generator.state if len(times) > 1 else None
            q, s = (x.tolist() for x in physics.sample(
                active_channel, attack_power_dbm, self.rng.standard_normal(2 * len(times))))
            limit = physics.abort_qber(active_channel.ec_efficiency)
            n = next((i + 1 for i, x in enumerate(q) if x >= limit), len(q))
            if q[n - 1] >= limit:  # the session stops at the first aborting block
                if n < len(q):  # the draw covered blocks past it: redraw up to it
                    self.rng.bit_generator.state = rng_state
                    self.rng.standard_normal(2 * n)
                _, _, _, init_left, elapsed, now = self._steps([dt], abort_at=n)
                self.state = STATE_ABORTED
            bits = [round(x * self.key_interval_s) for x in s[:n]]
            # An aborting block has no key rate, so no key bits.
            self._last_qber, self._last_skr, self._last_key_bits = q[n - 1], s[n - 1], bits[-1]
            for size, t in zip(bits, times):
                if size > 0:
                    self._sequence += 1
                    produced.append(KeyBlock(self._sequence, size, t))
        self._init_remaining, self._interval_elapsed, self._now = init_left, elapsed, now
        return produced

    def tick_while(self, dts, active_channel, attack_power_dbm: float, acts):
        """tick(dt, active_channel, attack_power_dbm) on a lit circuit for each
        of dts while the state stays as it is and no block distilled has a
        read-out (qber, key_bits, state) that acts flags: up to the tick that
        ends the init, or that distils an aborting block or one acts flags.
        acts works elementwise on numpy arrays. All samples are drawn in one
        call, the same values as one at a time.

        Returns the ticks taken, the tick distilling each block of dts, and the
        read-outs (qber, skr_bps, key_bits) after 0, 1, ... of the blocks kept.
        """
        reading = self.read_monitor(self._now)
        readouts = [(reading["qber"], reading["skr_bps"], reading["last_key_size_bits"])]
        ticks, block_ticks, _, init_left, elapsed, now = self._steps(dts)
        if block_ticks:
            rng_state = self.rng.bit_generator.state
            q, s = physics.sample(active_channel, attack_power_dbm,
                                  self.rng.standard_normal(2 * len(block_ticks)))
            bits = np.rint(s * self.key_interval_s).astype(np.int64)
            stops = np.flatnonzero(acts(q, bits, self.state) | (
                q >= physics.abort_qber(active_channel.ec_efficiency)))
            kept = len(block_ticks)
            if len(stops):
                ticks = block_ticks[stops[0]]
                # One tick may distil several blocks: keep those before it.
                kept = bisect_left(block_ticks, ticks)
                self.rng.bit_generator.state = rng_state
                self.rng.standard_normal(2 * kept)
                _, _, _, init_left, elapsed, now = self._steps(dts[:ticks])
            readouts += zip(q[:kept].tolist(), s[:kept].tolist(), bits[:kept].tolist())
            self._last_qber, self._last_skr, self._last_key_bits = readouts[-1]
            self._sequence += int(np.count_nonzero(bits[:kept]))
        self._init_remaining, self._interval_elapsed, self._now = init_left, elapsed, now
        return ticks, block_ticks, readouts

    def init_left(self) -> float:
        """Simulated time left in the init, to within _EPS; inf outside it."""
        return self._init_remaining if self.state == STATE_INITIALIZING else math.inf

    def _steps(self, dts, abort_at=0):
        """The interval arithmetic over dts on a lit circuit, up to the tick
        that ends the init: the ticks taken, the tick distilling each block and
        its time, and the init left, elapsed interval and clock after them.
        With abort_at n > 0, the session aborts at the n-th block: from there
        on time passes and nothing happens."""
        initializing = self.state == STATE_INITIALIZING
        generating = self.state == STATE_GENERATING
        interval = self.key_interval_s
        edge = interval - _EPS
        init_left, elapsed, now = self._init_remaining, self._interval_elapsed, self._now
        block_ticks: list[int] = []
        block_times: list[float] = []
        for i, dt in enumerate(dts):
            if dt <= _EPS:  # changes nothing, not even the clock
                continue
            if initializing:
                if init_left - dt <= _EPS:
                    return i, block_ticks, block_times, init_left, elapsed, now
                init_left -= dt
            elif generating:
                if elapsed + dt >= edge:  # the tick distils one block or more
                    remaining = dt
                    while remaining > _EPS:
                        step = min(remaining, interval - elapsed)
                        elapsed += step
                        now += step
                        remaining -= step
                        if elapsed >= edge:
                            elapsed = 0.0
                            block_ticks.append(i)
                            block_times.append(now)
                            if len(block_ticks) == abort_at:
                                generating = False
                                if remaining > _EPS:
                                    now += remaining
                                break
                    continue
                elapsed += dt
            now += dt
        return len(dts), block_ticks, block_times, init_left, elapsed, now

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

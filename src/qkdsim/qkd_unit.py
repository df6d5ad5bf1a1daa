"""Paired QKD unit emulation: session lifecycle and key-block production.

One object stands for the Alice/Bob pair sharing a session. A session
initializes for a configurable duration, then distills one final key
block per key interval at the channel model's jittered rate. A sampled
error rate at or above the correctable limit aborts the session; losing
the optical circuit drops it to Idle (control-plane action, not attack).
The monitor read-out is the poll target for failure detection: key size
and rate read as zero whenever keys are not being generated.

The unit keeps no clock. It is a session state machine that its caller
advances by the lengths of ticks, so time is the caller's: the init
left and the elapsed key interval are all the unit knows of it, and a
read-out is stamped with the time the caller passes in.

One engine advances the unit, tick_while: _steps runs the interval
arithmetic over ticks on a lit circuit, up to and including the first
that ends the init or distils a block that aborts or meets the caller's
stop rule, and physics.sample turns the blocks into read-outs from one
draw of normals. tick is tick_while over one dt with a rule that flags
nothing. Where the draw covered blocks past those kept, the rng is put
back and redrawn, so the random stream is the one that distilling block
by block would leave.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import physics
from .physics import ChannelParams

STATE_IDLE = "Idle"
STATE_INITIALIZING = "Initializing"
STATE_GENERATING = "Generating"
STATE_ABORTED = "Aborted"

# A tick of at most this long is no time and changes nothing. It is the
# only time tolerance: callers tick over any time that has passed.
_EPS = 1e-9
# The read-outs of a tick_while that keeps no block.
_NO_BLOCKS = np.empty(0)


def _never(qber, key_bits, state):
    """The stop rule that tick passes tick_while: it flags no read-out."""
    return False


@dataclass(frozen=True)
class KeyBlock:
    size_bits: int


class QkdUnitPair:
    """Session state machine advanced by its owner via tick_while(), or
    tick() over one dt; the owner keeps the time.

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
        self._init_remaining = 0.0
        self._interval_elapsed = 0.0
        self._last_skr = 0.0
        self._last_qber = 0.0
        self._last_key_bits = 0

    def start_session(self, channel: ChannelParams):
        """Begin (re-)initialization; caller guarantees a complete circuit."""
        if channel is None:
            raise ValueError("start_session requires an established channel")
        jitter = 1.0 + self.init_jitter_frac * (2.0 * self.rng.random() - 1.0)
        self._init_remaining = self.init_time_s * jitter
        self._interval_elapsed = 0.0
        self._last_skr = 0.0
        self._last_qber = 0.0
        self._last_key_bits = 0
        self.state = STATE_INITIALIZING

    def tick(self, dt: float, active_channel, attack_power_dbm: float) -> list[KeyBlock]:
        """Advance dt seconds under the given circuit/attack conditions:
        tick_while over [dt] with a rule that flags nothing."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if active_channel is None:
            self.state = STATE_IDLE
            return []
        bits = self.tick_while([dt], active_channel, attack_power_dbm, _never)[-1]
        return [KeyBlock(size) for size in bits.tolist() if size > 0]

    def tick_while(self, dts, active_channel, attack_power_dbm: float, acts):
        """Advance over each of dts on a lit circuit, up to and including the
        first tick that ends the init or distils a block that aborts or whose
        read-out (qber, key_bits, state) acts flags, elementwise on numpy
        arrays. That stop tick is taken whole unless a block in it aborts:
        the session ends there and the rest of the tick passes. A tick of at
        most _EPS is no time.

        Returns the ticks taken, whether the last one was a stop, the tick
        distilling each kept block, and their read-outs as arrays: qber,
        skr_bps and key_bits. The ticks' times are the caller's."""
        ticks, stopped, block_ticks, init_left, elapsed = self._steps(dts)
        q = s = bits = _NO_BLOCKS
        aborted = False
        if block_ticks:
            rng_state = self.rng.bit_generator.state
            q, s = physics.sample(active_channel, attack_power_dbm,
                                  self.rng.standard_normal(2 * len(block_ticks)))
            bits = np.rint(s * self.key_interval_s).astype(np.int64)
            aborts = q >= physics.abort_qber(active_channel.ec_efficiency)
            stops = np.flatnonzero(acts(q, bits, self.state) | aborts)
            if len(stops):
                stop = block_ticks[stops[0]]
                kept = bisect_right(block_ticks, stop)  # the whole stop tick
                aborted = bool(aborts[:kept].any())
                if aborted:  # or up to its first aborting block
                    kept = int(aborts.argmax()) + 1
                if kept < len(block_ticks):  # the draw covered more: redraw
                    self.rng.bit_generator.state = rng_state
                    self.rng.standard_normal(2 * kept)
                    block_ticks = block_ticks[:kept]
                    q, s, bits = q[:kept], s[:kept], bits[:kept]
                if aborted:  # the aborting block closed an interval
                    ticks, elapsed = stop + 1, 0.0
                elif stop + 1 < ticks:
                    ticks = stop + 1
                    *_, init_left, elapsed = self._steps(dts[:ticks])
                stopped = True
            self._last_qber, self._last_skr = float(q[-1]), float(s[-1])
            self._last_key_bits = int(bits[-1])
        if stopped:
            self.state = STATE_ABORTED if aborted else STATE_GENERATING
        self._init_remaining, self._interval_elapsed = init_left, elapsed
        return ticks, stopped, block_ticks, q, s, bits

    def init_left(self) -> float:
        """Simulated time left in the init, to within _EPS; inf outside it."""
        return self._init_remaining if self.state == STATE_INITIALIZING else math.inf

    def _steps(self, dts):
        """The interval arithmetic over dts on a lit circuit, up to and including
        the tick that ends the init: the ticks taken, whether the init ended,
        each block's tick, and the init left and elapsed interval after them.
        A tick of at most _EPS is no time and changes nothing; outside
        Initializing and Generating no tick does."""
        init_left, elapsed = self._init_remaining, self._interval_elapsed
        block_ticks: list[int] = []
        ticks, ended, first = len(dts), False, 0
        if self.state == STATE_INITIALIZING:
            for first, dt in enumerate(dts):
                if dt <= _EPS:  # changes nothing
                    continue
                if init_left - dt > _EPS:
                    init_left -= dt
                    continue
                # The init ends within this tick; the rest of it generates.
                step = min(dt, init_left)
                init_left -= step
                ticks, ended, dts = first + 1, True, [dt - step]
                break
            else:  # the init outlasts every tick
                return ticks, ended, block_ticks, init_left, elapsed
        elif self.state != STATE_GENERATING:
            return ticks, ended, block_ticks, init_left, elapsed
        interval = self.key_interval_s
        edge = interval - _EPS
        for i, dt in enumerate(dts, first):
            if dt <= _EPS:
                continue
            if elapsed + dt >= edge:  # the tick distils one block or more
                remaining = dt
                while remaining > _EPS:
                    step = interval - elapsed
                    if remaining <= step:
                        step = remaining
                    elapsed += step
                    remaining -= step
                    if elapsed >= edge:
                        elapsed = 0.0
                        block_ticks.append(i)
                continue
            elapsed += dt
        return ticks, ended, block_ticks, init_left, elapsed

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


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

One engine advances the unit, tick_while: it walks the interval
arithmetic over ticks on a lit circuit, up to and including the first
that ends the init or distils a block that aborts or meets the caller's
stop rule, and physics.sample turns the blocks into read-outs from one
draw of normals, at the attack power of each block's stretch of ticks.
tick is tick_while over one dt in one stretch, with a rule that flags
nothing. Where the draw covered blocks past those kept, the rng is put
back and redrawn, so the random stream is the one that distilling block
by block would leave.

Two walks give the same ticks, bit for bit. _steps is the loop over the
ticks, with every float operation and _EPS snap of the session's rules;
it serves the init, short calls and anything off the kernel's domain,
and it is the kernel's test oracle. _grid_steps walks a long call from
Generating on int64 time: where every time is a multiple of one power of
two small enough that the loop's sums are exact, and no tick ends within
_EPS of a key boundary, cumsum and floor division by the interval give
the loop's block ticks and remainders exactly. Elsewhere it declines and
the loop runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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
# The block ticks and read-outs of a tick_while that keeps no block.
_NO_TICKS = np.empty(0, dtype=np.int64)
_NO_BLOCKS = np.empty(0)
# Ticks a call from Generating walks at least to take the int64 kernel.
# Below it the loop is cheaper: on one block every other tick, the loop
# took 8, 16 and 45 us over 64, 128 and 355 ticks, the kernel 16, 16 and
# 20 us (x86-64, Python 3.11, numpy 2.4).
_KERNEL_TICKS = 128


def _means(channel: ChannelParams, attack_power_dbm: float) -> tuple[float, float]:
    """The channel model's (qber, skr_bps) at an attack power."""
    return physics.qber(channel, attack_power_dbm), physics.skr(channel, attack_power_dbm)


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
        tick_while over [dt] in one stretch, with a rule that flags nothing."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if active_channel is None:
            self.state = STATE_IDLE
            return []
        bits = self.tick_while([dt], active_channel, [(1, attack_power_dbm)], _never)[-1]
        return [KeyBlock(size) for size in bits.tolist() if size > 0]

    def tick_while(self, dts, active_channel, stretches, acts):
        """Advance over each of dts (a list or a float array) on a lit
        circuit, up to and including the first tick that ends the init or
        distils a block that aborts or whose read-out (qber, key_bits, state)
        acts flags, elementwise on numpy arrays. That stop tick is taken
        whole unless a block in it aborts: the session ends there and the
        rest of the tick passes. A tick of at most _EPS is no time.

        stretches [(end, attack_power_dbm), ...] give the power of the ticks
        before each end and after the one before; the last end is len(dts).
        From Generating, the walk also ends, with no stop, after the first
        tick with a block in the first stretch whose model means acts flags
        or abort: that block would most likely stop the call, and the blocks
        past it need not be drawn.

        Returns the ticks taken, whether the last one was a stop, the tick
        distilling each kept block, and their read-outs as arrays: qber,
        skr_bps and key_bits. The ticks' times are the caller's."""
        interval, state = self.key_interval_s, self.state
        # From Generating, each stretch's model means up to the first that
        # acts or abort flags, which starts at tick flagged; the walk ends
        # with it.
        means, flagged, steps = [], None, None
        if len(dts) > 1 and state == STATE_GENERATING:
            abort, start = physics.abort_qber(active_channel.ec_efficiency), 0
            for end, power in stretches:
                q, s = _means(active_channel, power)
                means.append((q, s))
                if q >= abort or acts(q, round(s * interval), state):
                    flagged, dts = start, dts[:end]
                    break
                start = end
            if len(dts) >= _KERNEL_TICKS:
                steps = self._grid_steps(np.asarray(dts, dtype=float))
        if steps is None:
            steps = self._steps(dts.tolist() if isinstance(dts, np.ndarray) else dts)
        ticks, stopped, block_ticks, init_left, rests = steps
        if flagged is not None:  # up to the first tick with a block from there
            first = bisect_left(block_ticks, flagged)
            if first < len(block_ticks):
                ticks = int(block_ticks[first]) + 1
                block_ticks = block_ticks[:bisect_left(block_ticks, ticks)]
        q = s = bits = _NO_BLOCKS
        aborted = False
        if len(block_ticks):
            # The stretch of the last block, and how many blocks each stretch
            # up to it distils.
            last, counts = 0, [len(block_ticks)]
            if len(stretches) > 1:
                ends = [end for end, _ in stretches]
                last = bisect_right(ends, block_ticks[-1])
                cuts = np.searchsorted(block_ticks, ends[:last]).tolist()
                counts = [b - a for a, b in zip([0, *cuts], [*cuts, len(block_ticks)])]
            for _, power in stretches[len(means):last + 1]:
                means.append(_means(active_channel, power))
            rng_state = self.rng.bit_generator.state
            q, s = physics.sample(active_channel, tuple(means[:last + 1]), counts,
                                  self.rng.standard_normal(2 * len(block_ticks)))
            bits = np.rint(s * interval).astype(np.int64)
            aborts = q >= physics.abort_qber(active_channel.ec_efficiency)
            stops = np.flatnonzero(acts(q, bits, state) | aborts)
            if len(stops):
                stop = int(block_ticks[stops[0]])
                kept = bisect_right(block_ticks, stop)  # the whole stop tick
                aborted = bool(aborts[:kept].any())
                if aborted:  # or up to its first aborting block
                    kept = int(aborts.argmax()) + 1
                if kept < len(block_ticks):  # the draw covered more: redraw
                    self.rng.bit_generator.state = rng_state
                    self.rng.standard_normal(2 * kept)
                    block_ticks = block_ticks[:kept]
                    q, s, bits = q[:kept], s[:kept], bits[:kept]
                ticks, stopped = stop + 1, True
            self._last_qber, self._last_skr = float(q[-1]), float(s[-1])
            self._last_key_bits = int(bits[-1])
            block_ticks = np.asarray(block_ticks, dtype=np.int64)
        else:
            block_ticks = _NO_TICKS
        if stopped:
            self.state = STATE_ABORTED if aborted else STATE_GENERATING
        self._init_remaining = init_left
        if aborted:  # the aborting block closed an interval
            self._interval_elapsed = 0.0
        elif ticks:
            self._interval_elapsed = float(rests[ticks - 1])
        return ticks, stopped, block_ticks, q, s, bits

    def init_left(self) -> float:
        """Simulated time left in the init, to within _EPS; inf outside it."""
        return self._init_remaining if self.state == STATE_INITIALIZING else math.inf

    def _steps(self, dts):
        """The interval arithmetic over dts on a lit circuit, up to and including
        the tick that ends the init, as a loop over the ticks: the ticks taken,
        whether the init ended, each block's tick, the init left, and the
        elapsed interval after each tick. A tick of at most _EPS is no time
        and changes nothing; outside Initializing and Generating no tick
        does. It serves every call the kernel does not, and is its oracle."""
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
                return ticks, ended, block_ticks, init_left, [elapsed] * ticks
        elif self.state != STATE_GENERATING:
            return ticks, ended, block_ticks, init_left, [elapsed] * ticks
        rests = [elapsed] * first
        interval = self.key_interval_s
        edge = interval - _EPS
        for i, dt in enumerate(dts, first):
            if dt <= _EPS:
                pass
            elif elapsed + dt >= edge:  # the tick distils one block or more
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
            else:
                elapsed += dt
            rests.append(elapsed)
        return ticks, ended, block_ticks, init_left, rests

    def _grid_steps(self, dts):
        """_steps over dts, a float array, from Generating on int64 time; or
        None where the loop's result could differ by a bit.

        The time unit is the power of two g with key_interval_s + max(dts)
        below 2**53 * g, which no sum or difference the loop makes exceeds.
        Where the interval, the elapsed interval and every dt are multiples
        of g, each of those is exact, so cumsum and floor division by the
        interval, on int64 counts of g, give the loop's block ticks and
        remainders. It declines a total of 2**62 units or more, a dt of at
        most _EPS, and a tick that ends within _EPS of a key boundary,
        before it or after one it crosses: the loop snaps those."""
        interval = self.key_interval_s
        scale = 2.0 ** (53 - math.frexp(interval + float(dts.max()))[1])  # 1 / g
        n, start = interval * scale, self._interval_elapsed * scale
        units = dts * scale
        ints = units.astype(np.int64)
        near = int(_EPS * scale) + 1  # units within _EPS, and the edge's rounding
        if not (n.is_integer() and start.is_integer() and np.count_nonzero(ints != units) == 0
                and int(ints.min()) > near and (len(dts) < 512  # each below 2**53 units
                                                or float(units.sum()) + start < 2.0 ** 62)):
            return None
        n = int(n)
        ints[0] += int(start)
        ends = np.cumsum(ints)
        blocks = ends // n
        rests = ends - blocks * n
        if np.count_nonzero((np.minimum(rests, n - rests) - 1).view(np.uint64) < near):
            return None
        block_ticks = np.searchsorted(blocks, np.arange(1, int(blocks[-1]) + 1))
        return len(dts), False, block_ticks, self._init_remaining, rests * (1.0 / scale)

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


"""Run summary: steady-state statistics, episode timing, checks.

One renderer, two sources. render_summary turns a run's metadata,
metrics, episode timing and monitor events into the summary text.
run_scenario calls it with what the run has just written, taken from
memory, so the summary shows the values as written: the metrics as the
floats their text reads back as (as_written), computed from the run's
own numbers without formatting or parsing a row, and the few timing
rows through the parser that reads timing.csv. summarize(out_dir) loads
the same four inputs from the files a run leaves behind (metrics.csv,
timing.csv, the monitor event log, run_info.json), so a run can be
summarised again long after it finished; a file that cannot be parsed
raises RunFileError naming the file and line. Steady-state windows span
from each re-initialization (plus the detection grace period) to the
next detection or the end of the run; acceptance thresholds live in a
JSON file so the expected bands are reviewable data rather than code.
A window's std is statistics.pstdev bit for bit, from exact sums: for
64 to 2**20 values whose magnitudes span less than about 2**9 they are
summed in int64 limbs on numpy, and otherwise (short windows, wider
spans, subnormals, inf, nan) in Python ints.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from operator import mul
from typing import Optional

import numpy as np

from .topology import NUMBER, checked, is_number, parse_json, read_json, read_text

# A float square root needs 2 * 53 + 3 bits of the radicand to round
# correctly through round-to-odd (the width statistics.pstdev uses).
_SQRT_BITS = 109

# pstdev's int64 limb kernel (_sums): its three 21-bit limbs, high first
# (the mask -1 keeps the high limb's sign), and the most values it sums.
_LIMB_SHIFTS = np.array([[42], [21], [0]])
_LIMB_MASKS = np.array([[-1], [(1 << 21) - 1], [(1 << 21) - 1]])
_KERNEL_ROWS_MAX = 1 << 20
# Below this many values the Python-int sums are the cheaper. pstdev
# over six-decimal values near 0.02, on a 2-core x86-64 VM with Python
# 3.11 and numpy 2.4: 8 values 5.5 us by ints against 12.4 us by the
# kernel, level at 48-64 values, 96 values 27 us against 16 us, and
# 3,583 values 980 us against 130 us.
_KERNEL_ROWS_MIN = 64

# run_info.json fields a summary reads, and their kinds (object: any).
_INFO_FIELDS = {"topology": object, "scenario": object, "seed": object,
                "duration_s": NUMBER, "qpm_log": str, "init_grace_s": NUMBER,
                "episodes": object, "exhausted": object, "final_active_path": object}
_TIMING_COLUMNS = {"episode": int, "detect_s": float, "controller_s": float,
                   "reinit_s": float, "total_s": float}


class RunFileError(ValueError):
    """A run artifact or thresholds file that cannot be parsed; the message names it."""


@dataclass(frozen=True)
class Metrics:
    """The metrics.csv columns a summary reads, one entry per row.

    t never decreases, and the numbers are finite.
    """

    t: list[float]
    skr_bps: list[float]
    qber: list[float]


def as_written(values, digits: int) -> list[float]:
    """float('%.{digits}f' % v) for each of values, without the text.

    With p = v * 10**digits rounded to a float, '%.{digits}f' writes the
    integer nearest the exact product (ties to even) over 10**digits, and
    float() reads back the float nearest that quotient, which is what
    rint(p) / 10**digits gives, sign of zero included, unless the
    product's rounding can cross a half-integer: where p lies within an
    ulp of one, or is 2**52 or more in magnitude, or is not finite. Those
    values go through the text.
    """
    v = np.asarray(values, dtype=float)
    scale = 10.0 ** digits
    with np.errstate(over="ignore", invalid="ignore"):
        p = v * scale
        written = np.rint(p) / scale
        size = np.abs(p)
        tie_safe = np.abs(size - np.floor(size) - 0.5) > np.spacing(size)
        text = np.flatnonzero(~(tie_safe & (size < 2.0 ** 52)))
    for i in text.tolist():
        written[i] = float("%.*f" % (digits, v[i]))
    return written.tolist()


def _table(header: str, rows: list[str], source: str, names: dict) -> list[list]:
    """The named columns of a CSV table, each field converted by the type
    (int or float) that names maps its column to."""
    fields = header.split(",")
    for name in names:
        if name not in fields:
            raise RunFileError(f"{source} line 1: missing column '{name}'")
    picks = [(fields.index(name), kind) for name, kind in names.items()]
    columns: list[list] = [[] for _ in picks]
    for line, row in enumerate(rows, start=2):
        parts = row.split(",")
        if len(parts) != len(fields):
            raise RunFileError(f"{source} line {line}: expected {len(fields)} fields, "
                               f"got {len(parts)}")
        try:
            for column, (index, kind) in zip(columns, picks):
                column.append(kind(parts[index]))
        except ValueError as exc:
            raise RunFileError(f"{source} line {line}: {exc}") from None
    return columns


def parse_metrics(header: str, rows: list[str], source: str) -> Metrics:
    """Metrics from the header and row lines of metrics.csv, by column."""
    t, skr, qber = _table(header, rows, source, {"t": float, "skr_bps": float, "qber": float})
    for name, column in (("t", t), ("skr_bps", skr), ("qber", qber)):
        if not all(map(math.isfinite, column)):
            line = next(i for i, x in enumerate(column, start=2) if not math.isfinite(x))
            raise RunFileError(f"{source} line {line}: {name} is not finite")
    if t != sorted(t):
        line = next(i for i in range(1, len(t)) if t[i] < t[i - 1]) + 2
        raise RunFileError(f"{source} line {line}: t decreases")
    return Metrics(t=t, skr_bps=skr, qber=qber)


def parse_timing(header: str, rows: list[str], source: str) -> list[dict]:
    """Episode dicts from the header and row lines of timing.csv."""
    columns = _table(header, rows, source, _TIMING_COLUMNS)
    return [dict(zip(_TIMING_COLUMNS, row)) for row in zip(*columns)]


def _read_csv(path: str, parse):
    lines = read_text(path, RunFileError).splitlines()
    if not lines:
        raise RunFileError(f"{path}: empty, expected a header line")
    return parse(lines[0], lines[1:], path)


def load_metrics(path: str) -> Metrics:
    return _read_csv(path, parse_metrics)


def load_timing(path: str) -> list[dict]:
    return _read_csv(path, parse_timing)


def load_events(path: str) -> list[dict]:
    events = []
    # At "\n" only: a JSON string may hold a raw U+2028, which splitlines
    # would split at.
    for line, text in enumerate(read_text(path, RunFileError).split("\n"), start=1):
        if not text.strip():
            continue
        where = f"{path} line {line}"
        event = parse_json(text, where, RunFileError)
        checked(event, "kind", str, where, RunFileError)
        checked(event, "t", NUMBER, where, RunFileError)
        if "path" not in event:
            raise RunFileError(f"{where}: missing required field 'path'")
        events.append(event)
    return events


def load_info(out_dir: str) -> dict:
    path = os.path.join(out_dir, "run_info.json")
    info = read_json(path, RunFileError)
    for key, kind in _INFO_FIELDS.items():
        checked(info, key, kind, path, RunFileError)
    if info.get("first_init_s") is not None:
        if checked(info, "first_init_s", NUMBER, path, RunFileError) <= 0:
            raise RunFileError(f"{path}: first_init_s must be positive, "
                               f"got {info['first_init_s']!r}")
    return info


def load_thresholds(path: str) -> dict:
    """A thresholds file: bands are [low, high] pairs of numbers with low <= high,
    limits are numbers of at least 0."""
    thresholds = read_json(path, RunFileError)
    for key in ("steady_state_skr_bps", "steady_state_qber"):
        band = checked(thresholds, key, list, path, RunFileError, default=[0, 0])
        if len(band) != 2 or not all(map(is_number, band)):
            raise RunFileError(f"{path}: {key} must be a [low, high] pair of numbers, "
                               f"got {band!r}")
        if band[0] > band[1]:
            raise RunFileError(f"{path}: {key} must have low <= high, got {band!r}")
    for key in ("controller_reinit_ratio_max", "reinit_parity_frac_max"):
        if checked(thresholds, key, NUMBER, path, RunFileError, default=0) < 0:
            raise RunFileError(f"{path}: {key} must not be negative, "
                               f"got {thresholds[key]!r}")
    return thresholds


def pstdev(data: list[float]) -> float:
    """statistics.pstdev of one or more floats, bit for bit, in integers.

    Every float is n / d with d a power of two, so over a common power of
    two d the population variance is (c * sum(n**2) - sum(n)**2) / (c * d)**2
    exactly; its square root is then rounded once, to the nearest float.
    The three sums come from _sums' int64 limbs where its domain allows
    (at most 2**20 values, scale 2**shift a finite float, every n below
    2**62 in magnitude) and the data holds _KERNEL_ROWS_MIN values or more;
    otherwise, and for inf or nan, from _integers' Python ints.
    """
    sums = _sums(data) if len(data) >= _KERNEL_ROWS_MIN else None
    if sums is None:
        nums, scale = _integers(data)
        sums = len(nums), sum(nums), sum(map(mul, nums, nums)), scale
    count, total, squares, scale = sums
    num = count * squares - total * total
    den = (count * scale) ** 2
    # Round-to-odd square root on _SQRT_BITS bits, then one rounding
    # in the int / int division.
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        return (_isqrt_rto(num, den << 2 * q) << q) / 1
    return _isqrt_rto(num << -2 * q, den) / (1 << -q)


def _sums(data: list[float]) -> Optional[tuple[int, int, int, int]]:
    """count, sum(n), sum(n**2) and d for the floats as integers n over
    d = 2**shift, the denominator _integers picks, summed in int64 limbs;
    None outside the domain pstdev's docstring gives.

    Each n is h * 2**42 + m * 2**21 + l with h = n >> 42 (signed, below
    2**20 in magnitude) and m, l in [0, 2**21); every limb product is
    below 2**42 in magnitude, so its sum over 2**20 values fits int64.
    """
    if len(data) > _KERNEL_ROWS_MAX:
        return None
    x = np.array(data, dtype=float)
    size = np.abs(x)
    tiny = float(size.min()) or float(np.min(size, where=size > 0, initial=math.inf))
    shift = max(0, 53 - math.frexp(tiny if tiny < math.inf else 1.0)[1])
    # A Python float product overflows to inf without a warning, and a
    # nan fails the comparison; so the array is scaled only when every
    # product is exact and below 2**62.
    if shift > 1023 or not float(size.max()) * 2.0 ** shift < 2.0 ** 62:
        return None
    limbs = (x * 2.0 ** shift).astype(np.int64) >> _LIMB_SHIFTS & _LIMB_MASKS
    (hh, hm, hl), (_, mm, ml), (_, _, ll) = (limbs @ limbs.T).tolist()
    h, m, l = limbs.sum(axis=1).tolist()
    total = (h << 42) + (m << 21) + l
    squares = (hh << 84) + (hm << 64) + ((2 * hl + mm) << 42) + (ml << 22) + ll
    return len(data), total, squares, 1 << shift


def _integers(data: list[float]) -> tuple[list[int], int]:
    """The floats as integers n over one power of two d, and d: 2**(53 - e)
    for e the exponent of the smallest nonzero magnitude, unless that
    overflows a float; then the largest denominator of the exact ratios."""
    tiny = min(map(abs, data)) or min(filter(None, map(abs, data)), default=1.0)
    shift = max(0, 53 - math.frexp(tiny)[1])
    try:
        return list(map(int, map((2.0 ** shift).__mul__, data))), 1 << shift
    except OverflowError:
        ratios = list(map(float.as_integer_ratio, data))
        scale = max(d for _, d in ratios)
        return [n * (scale // d) for n, d in ratios], scale


def _isqrt_rto(num: int, den: int) -> int:
    root = math.isqrt(num // den)
    return root | (root * root * den != num)


def steady_windows(events: list[dict], grace_s: float, duration_s: float) -> list[dict]:
    """Windows of undisturbed operation between re-init and next detection."""
    detections = [ev["t"] for ev in events if ev["kind"] == "DETECTED"]
    windows = []
    for ev in events:
        if ev["kind"] != "REINIT_DONE":
            continue
        start = ev["t"] + grace_s
        later = [d for d in detections if d >= ev["t"]]
        end = min(later) if later else duration_s
        windows.append({"path": ev["path"], "start": start, "end": end})
    return windows


def window_stats(window: dict, metrics: Metrics) -> dict:
    """The window with the count, means and stds of the rows start <= t < end."""
    lo = bisect_left(metrics.t, window["start"])
    hi = max(lo, bisect_left(metrics.t, window["end"]))
    stats = dict(window)
    stats["n"] = hi - lo
    if hi > lo:
        skrs = metrics.skr_bps[lo:hi]
        qbers = metrics.qber[lo:hi]
        stats.update(
            skr_mean=math.fsum(skrs) / len(skrs), skr_std=pstdev(skrs),
            qber_mean=math.fsum(qbers) / len(qbers), qber_std=pstdev(qbers),
        )
    return stats


def summarize(out_dir: str, thresholds_path: Optional[str] = None) -> tuple[str, bool]:
    """Render the summary of a run directory; the flag reports whether all checks passed."""
    info = load_info(out_dir)
    qpm_log = info["qpm_log"]
    if not os.path.isabs(qpm_log):
        qpm_log = os.path.join(out_dir, qpm_log)
    return render_summary(
        info,
        load_metrics(os.path.join(out_dir, "metrics.csv")),
        load_timing(os.path.join(out_dir, "timing.csv")),
        load_events(qpm_log),
        thresholds_path,
    )


def render_summary(info: dict, metrics: Metrics, timing: list[dict], events: list[dict],
                   thresholds_path: Optional[str] = None) -> tuple[str, bool]:
    """The summary text of one run; the flag reports whether all checks passed."""
    windows = [
        window_stats(w, metrics)
        for w in steady_windows(events, info["init_grace_s"], info["duration_s"])
    ]

    lines = [
        "run summary",
        f"topology: {info['topology']}  scenario: {info['scenario']}  "
        f"seed={info['seed']}  duration_s={info['duration_s']}",
    ]
    first_init = info.get("first_init_s")
    lines.append(
        f"first_init_s={first_init}  episodes={info['episodes']}  "
        f"exhausted={str(info['exhausted']).lower()}  "
        f"final_active_path={info['final_active_path']}"
    )

    lines.append("")
    lines.append(f"steady-state windows (first {info['init_grace_s']}s after "
                 "each re-init excluded)")
    if not windows:
        lines.append("  none")
    for i, w in enumerate(windows, start=1):
        if w["n"] == 0:
            lines.append(
                f"  window {i}: path={w['path']} "
                f"t=[{w['start']:.1f},{w['end']:.1f}) SKIPPED (no samples)"
            )
        else:
            lines.append(
                f"  window {i}: path={w['path']} t=[{w['start']:.1f},{w['end']:.1f}) "
                f"n={w['n']} skr_mean={w['skr_mean']:.3f} skr_std={w['skr_std']:.3f} "
                f"qber_mean={w['qber_mean']:.6f} qber_std={w['qber_std']:.6f}"
            )

    lines.append("")
    lines.append("mitigation episodes")
    if not timing:
        lines.append("  none")
    for row in timing:
        ratio = (row["controller_s"] / row["reinit_s"]) if row["reinit_s"] > 0 else float("inf")
        lines.append(
            f"  episode {row['episode']}: detect_s={row['detect_s']:.3f} "
            f"controller_s={row['controller_s']:.3f} reinit_s={row['reinit_s']:.3f} "
            f"total_s={row['total_s']:.3f} controller/reinit={ratio:.6f}"
        )

    all_pass = True
    if thresholds_path is not None:
        thresholds = load_thresholds(thresholds_path)
        lines.append("")
        lines.append("acceptance checks")
        check_lines, all_pass = _checks(thresholds, windows, timing, first_init)
        lines.extend("  " + line for line in check_lines)

    return "\n".join(lines) + "\n", all_pass


def _checks(thresholds: dict, windows: list[dict], timing: list[dict],
            first_init_s: Optional[float]) -> tuple[list[str], bool]:
    lines: list[str] = []
    all_pass = True

    def verdict(ok: bool) -> str:
        nonlocal all_pass
        if not ok:
            all_pass = False
        return "PASS" if ok else "FAIL"

    populated = [(i, w) for i, w in enumerate(windows, start=1) if w["n"] > 0]
    for key, stat, digits in (("steady_state_skr_bps", "skr_mean", 3),
                              ("steady_state_qber", "qber_mean", 6)):
        if key not in thresholds:
            continue
        if not populated:
            lines.append("SKIPPED steady_state checks: no populated window")
            break
        index, final = populated[-1]
        lo, hi = thresholds[key]
        ok = lo <= final[stat] <= hi
        lines.append(f"{verdict(ok)} {key} window={index} "
                     f"mean={final[stat]:.{digits}f} in [{lo},{hi}]")

    if "controller_reinit_ratio_max" in thresholds:
        limit = thresholds["controller_reinit_ratio_max"]
        if not timing:
            lines.append("SKIPPED controller_reinit_ratio: no episodes")
        for row in timing:
            ratio = (row["controller_s"] / row["reinit_s"]) if row["reinit_s"] > 0 else float("inf")
            ok = ratio < limit
            lines.append(
                f"{verdict(ok)} controller_reinit_ratio episode={row['episode']} "
                f"ratio={ratio:.6f} < {limit}"
            )

    if "reinit_parity_frac_max" in thresholds:
        limit = thresholds["reinit_parity_frac_max"]
        if not timing or first_init_s is None:
            lines.append("SKIPPED reinit_parity: no episodes or no first init")
        else:
            for row in timing:
                frac = abs(row["reinit_s"] - first_init_s) / first_init_s
                ok = frac <= limit
                lines.append(
                    f"{verdict(ok)} reinit_parity episode={row['episode']} "
                    f"frac={frac:.6f} <= {limit}"
                )

    return lines, all_pass

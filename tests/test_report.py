"""Summary reporting: steady windows, stats, threshold checks."""

from __future__ import annotations

import json
import math
import random
import statistics
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdsim import report
from qkdsim.qpm import QpmConfig
from qkdsim.report import (
    Metrics,
    as_written,
    load_events,
    load_metrics,
    load_timing,
    pstdev,
    steady_windows,
    summarize,
    window_stats,
)
from qkdsim.scenario import Scenario, ScenarioEvent, ScenarioRun, run_scenario


def ev(t, kind, path="link1"):
    return {"t": t, "kind": kind, "path": path, "detail": ""}


class TestSteadyWindows:
    def test_window_per_reinit_bounded_by_next_detection(self):
        events = [
            ev(0.02, "RECONFIG_DONE"),
            ev(122.0, "REINIT_DONE"),
            ev(600.0, "DETECTED"),
            ev(600.03, "RECONFIG_DONE", "link2"),
            ev(719.0, "REINIT_DONE", "link2"),
        ]
        windows = steady_windows(events, grace_s=240.0, duration_s=12600.0)
        assert windows == [
            {"path": "link1", "start": 362.0, "end": 600.0},
            {"path": "link2", "start": 959.0, "end": 12600.0},
        ]

    def test_no_detection_extends_to_duration(self):
        windows = steady_windows([ev(120.0, "REINIT_DONE")], 240.0, 600.0)
        assert windows == [{"path": "link1", "start": 360.0, "end": 600.0}]

    def test_no_reinit_no_windows(self):
        assert steady_windows([ev(0.0, "RECONFIG_DONE")], 240.0, 600.0) == []


def metrics_of(t, skr, qber) -> Metrics:
    return Metrics(t=list(t), skr_bps=list(skr), qber=list(qber))


class TestWindowStats:
    def test_means_and_stds_match_statistics(self):
        t = [float(s) for s in range(0, 600, 60)]
        metrics = metrics_of(t, [900.0 + x for x in t], [0.02 + x / 1e5 for x in t])
        window = {"path": "p", "start": 120.0, "end": 360.0}
        stats = window_stats(window, metrics)
        rows = [i for i, x in enumerate(t) if 120.0 <= x < 360.0]
        skrs = [metrics.skr_bps[i] for i in rows]
        qbers = [metrics.qber[i] for i in rows]
        assert stats["n"] == 4
        assert stats["skr_mean"] == statistics.fmean(skrs)
        assert stats["skr_std"] == statistics.pstdev(skrs)
        assert stats["qber_mean"] == statistics.fmean(qbers)
        assert stats["qber_std"] == statistics.pstdev(qbers)

    def test_empty_window(self):
        stats = window_stats({"path": "p", "start": 0.0, "end": 1.0}, metrics_of([], [], []))
        assert stats["n"] == 0
        assert "skr_mean" not in stats

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.integers(0, 3), max_size=40),
           start=st.integers(-2, 50), length=st.integers(-3, 50))
    def test_window_holds_the_rows_the_filter_selects(self, steps, start, length):
        # Sorted times with repeats, and windows that begin or end on a
        # sample, between samples, outside the run, or end before they start.
        t, now = [], 0.0
        for step in steps:
            now += step / 2
            t.append(now)
        metrics = metrics_of(t, [900.0 + 7 * i for i in range(len(t))],
                             [0.02 + i / 1e4 for i in range(len(t))])
        window = {"path": "p", "start": start / 2, "end": (start + length) / 2}
        stats = window_stats(window, metrics)
        rows = [i for i, x in enumerate(t) if window["start"] <= x < window["end"]]
        assert stats["n"] == len(rows)
        if rows:
            skrs = [metrics.skr_bps[i] for i in rows]
            qbers = [metrics.qber[i] for i in rows]
            assert (stats["skr_mean"], stats["skr_std"], stats["qber_mean"], stats["qber_std"]) \
                == (statistics.fmean(skrs), statistics.pstdev(skrs),
                    statistics.fmean(qbers), statistics.pstdev(qbers))


finite = st.floats(min_value=1e-4, max_value=1e4)
signed = st.one_of(finite, finite.map(lambda x: -x))
six_decimals = st.floats(min_value=0.0, max_value=1e4).map(lambda x: float(f"{x:.6f}"))

# Long lists, long enough for pstdev's int64 limb kernel, each built from
# one drawn seed so that a 2,000-value example costs three draws:
# six-decimal values near a QBER (0.02) and near a key rate (1,000 b/s),
# and signed values whose magnitudes span less than 2**10, the kernel's
# range at full precision.
LONG_VALUES = {
    "qber": lambda rng: float(f"{rng.gauss(0.02, 0.002):.6f}"),
    "skr": lambda rng: float(f"{rng.gauss(1000.0, 30.0):.6f}"),
    "signed": lambda rng: rng.choice((1.0, -1.0)) * rng.uniform(0.5, 400.0),
}
CUT = report._KERNEL_ROWS_MIN


def long_list(kind: str, size: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [LONG_VALUES[kind](rng) for _ in range(size)]


long_lists = st.builds(long_list, st.sampled_from(sorted(LONG_VALUES)),
                       st.integers(CUT - 1, 2000), st.integers(0, 2 ** 32 - 1))
# The kernel scales by 2**52 for a smallest magnitude of 1.0, so 1024.0
# scales to 2**62, the first magnitude it refuses.
BELOW_2_62 = [1.0] * CUT + [1024.0 - 2.0 ** -42, -(1024.0 - 2.0 ** -42)]


class TestPstdev:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.lists(signed, min_size=1, max_size=60),
        st.lists(six_decimals, min_size=1, max_size=60),
        st.tuples(signed, st.integers(1, 60)).map(lambda p: [p[0]] * p[1]),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
        long_lists,
    ))
    @example(data=long_list("qber", CUT, 0))
    @example(data=long_list("qber", CUT - 1, 0))
    @example(data=[5e-324 * k for k in range(-1000, 1000)])  # subnormals
    @example(data=[0.0, -0.0] * CUT)
    @example(data=[-x for x in long_list("skr", 2000, 1)])
    @example(data=BELOW_2_62)
    @example(data=[1.0] * CUT + [1024.0])
    @example(data=[-1.0] * CUT + [-1024.0])
    @example(data=[1e300, 1e-320] * CUT)
    @example(data=[0.0])
    @example(data=[1e-4, 1e4])
    @example(data=[0.1, 0.2, 0.3])
    @example(data=[0.0, -0.0, 0.0])
    @example(data=[5e-324, 1e-310, 2.2250738585072014e-308])  # subnormals
    @example(data=[1e-300, 1.0, 1e300])  # the power-of-two scale overflows
    @example(data=[1e-300, -3.5e-12, 7.0, -1e300, 1.7e308])
    def test_bit_equal_to_statistics(self, data):
        assert pstdev(data) == statistics.pstdev(data)


def exact(sums):
    count, total, squares, scale = sums
    return count, Fraction(total, scale), Fraction(squares, scale * scale)


def integer_sums(data):
    nums, scale = report._integers(data)
    return len(nums), sum(nums), sum(map(mul, nums, nums)), scale


# Six-decimal values whose magnitudes span less than 2**9.
in_range = st.floats(min_value=1.0, max_value=500.0).map(lambda x: float(f"{x:.6f}"))


class TestLimbKernel:
    """report._sums against the Python-int sums it replaces, before the
    final rounding can hide a wrong limb term."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.one_of(long_lists, st.lists(in_range, min_size=1, max_size=60)))
    @example(data=[0.0, -0.0] * CUT)
    @example(data=BELOW_2_62)
    @example(data=[-x for x in long_list("qber", 2000, 2)])
    def test_sums_equal_the_integer_sums(self, data):
        sums = report._sums(data)
        assert sums is not None
        assert exact(sums) == exact(integer_sums(data))

    @pytest.mark.parametrize("data", [
        [5e-324 * k for k in range(1, 100)],  # the scale 2**1126 is not a float
        [1e300, 1e-320] * CUT,
        [1.0] * CUT + [1024.0],  # scales to 2**62
        [1.0] * CUT + [-1024.0],
        [1.0, math.inf],
        [1.0, math.nan],
        [0.0] * (report._KERNEL_ROWS_MAX + 1),
    ], ids=["subnormal", "wide", "2**62", "-2**62", "inf", "nan", "too-many"])
    def test_refuses_data_outside_its_domain(self, data):
        assert report._sums(data) is None

    def test_sums_fit_int64_at_the_most_rows(self):
        # -top scales to -2**62 + 2**42 - 2**9, whose limbs are as large as
        # a float scaled below 2**62 allows: -2**20, 2**21 - 1 and
        # 2**21 - 2**9; top's high limb is 2**20 - 1.
        top = 1024.0 - 2.0 ** -10 + 2.0 ** -43
        rows = report._KERNEL_ROWS_MAX // 2
        data = [1.0] + [top, -top] * rows
        data.pop()
        sums = report._sums(data)
        one, n = 1 << 52, int(top * 2 ** 52)
        assert sums == (len(data), one + n, one * one + (2 * rows - 1) * n * n, one)


class TestLoadersAndSummary:
    def test_loaders_round_trip_real_artifacts(self, run_link1):
        out = run_link1["out"]
        metrics = load_metrics(str(out / "metrics.csv"))
        rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert metrics.t[0] == 0.0
        assert metrics.t[-1] == 12600.0
        assert [len(c) for c in (metrics.t, metrics.skr_bps, metrics.qber)] == [len(rows)] * 3
        last = rows[-1].split(",")
        assert (metrics.skr_bps[-1], metrics.qber[-1]) == (float(last[2]), float(last[3]))
        timing = load_timing(str(out / "timing.csv"))
        assert len(timing) == 1 and timing[0]["episode"] == 1
        events = load_events(str(out / "qpm_log.ndjson"))
        assert events[0]["kind"] == "RECONFIG_SENT"

    def test_summary_passes_bundled_thresholds(self, run_link1, configs):
        text, all_pass = summarize(str(run_link1["out"]),
                                   thresholds_path=str(configs / "thresholds.json"))
        assert all_pass
        assert "acceptance checks" in text
        assert "FAIL" not in text
        assert text.count("PASS") == 4  # skr, qber, ratio, parity

    def test_failing_thresholds_flip_the_verdict(self, run_link1, tmp_path):
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({
            "steady_state_skr_bps": [10000.0, 20000.0],
            "controller_reinit_ratio_max": 1e-9,
        }), encoding="utf-8")
        text, all_pass = summarize(str(run_link1["out"]), thresholds_path=str(strict))
        assert not all_pass
        assert "FAIL steady_state_skr_bps" in text
        assert "FAIL controller_reinit_ratio" in text

    def test_episodeless_run_skips_episode_checks(self, run_steady_link2, configs):
        text, all_pass = summarize(str(run_steady_link2["out"]),
                                   thresholds_path=str(configs / "thresholds.json"))
        assert all_pass  # SKIPPED lines do not fail the run
        assert "SKIPPED controller_reinit_ratio: no episodes" in text
        assert "SKIPPED reinit_parity" in text
        assert "PASS steady_state_skr_bps" in text

    def test_a_run_with_no_populated_window_skips_steady_state_checks(self, tmp_path,
                                                                      configs):
        """A run that ends inside the first init has no steady window: both
        band checks give way to one SKIPPED line, which does not fail it."""
        scenario = tmp_path / "short.json"
        scenario.write_text(json.dumps({"duration_s": 60, "events": []}), encoding="utf-8")
        out = tmp_path / "out"
        run_scenario(str(configs / "reference_topology.json"), str(scenario), seed=1,
                     out_dir=str(out), deterministic=True)
        text, all_pass = summarize(str(out), thresholds_path=str(configs / "thresholds.json"))
        assert all_pass
        checks = text[text.index("acceptance checks"):]
        assert checks.count("steady_state") == 1
        assert "SKIPPED steady_state checks: no populated window" in checks

    def test_summary_without_thresholds_has_no_checks_section(self, run_link1):
        text, all_pass = summarize(str(run_link1["out"]))
        assert all_pass
        assert "acceptance checks" not in text
        assert "steady-state windows" in text
        assert "mitigation episodes" in text


class TestSummaryFromMemory:
    @pytest.mark.parametrize("run_fixture", ["run_link1", "run_two_episodes",
                                             "run_all_links", "run_steady_link2"])
    def test_written_summary_equals_the_summary_of_the_files(self, request, run_fixture):
        out = request.getfixturevalue(run_fixture)["out"]
        assert (out / "summary.txt").read_text(encoding="utf-8") == summarize(str(out))[0]

    def test_tenth_second_polls(self, tmp_path, configs):
        # metrics.csv writes t with one decimal, so at a 0.1 s period the
        # written t differs from k * period; the summary must use the former.
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"duration_s": 1200, "events": [
            {"t": 600, "link": "link1", "attack_power_dbm": -40}]}), encoding="utf-8")
        out = tmp_path / "out"
        run_scenario(str(configs / "reference_topology.json"), str(scenario), seed=3,
                     out_dir=str(out), deterministic=True,
                     qpm_config=QpmConfig(poll_period_s=0.1))
        text = (out / "summary.txt").read_text(encoding="utf-8")
        assert text == summarize(str(out))[0]
        assert "window 2: path=link2" in text

    def test_a_drifting_half_day(self, tmp_path, configs, reference_topology):
        """link1 falls at t=600 and link2, lit from then on, drifts hourly for
        12 h in [-45, -22] dBm: batches of many stretches between rows the
        event loop samples. The summary still equals that of the files, and
        metrics.csv equals the rows rendered one by one."""
        draw = random.Random(17)
        events = [{"t": 600, "link": "link1", "attack_power_dbm": -40}] + [
            {"t": 3600 * hour, "link": "link2",
             "attack_power_dbm": round(draw.uniform(-45.0, -22.0), 2)}
            for hour in range(1, 12)]
        scenario = tmp_path / "drift.json"
        scenario.write_text(json.dumps({"duration_s": 43200, "events": events}),
                            encoding="utf-8")
        out = tmp_path / "out"
        topology = str(configs / "reference_topology.json")
        run_scenario(topology, str(scenario), seed=5, out_dir=str(out), deterministic=True)
        assert (out / "summary.txt").read_text(encoding="utf-8") == summarize(str(out))[0]

        run = ScenarioRun(reference_topology, Scenario(43200.0, tuple(
            ScenarioEvent(float(e["t"]), e["link"], float(e["attack_power_dbm"]))
            for e in events)), seed=5)
        sampled, sample = [], run._sample_metrics
        run._sample_metrics = lambda k: (sampled.append(k), sample(k))
        run.execute()
        rows = iter(zip(*run._metrics_columns))
        per_row = "".join(template % next(rows) + "\n"
                          for template, n in run._metrics_runs for _ in range(n))
        lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert "".join(lines[1:]) == per_row
        assert len(lines) == 1 + 721
        assert 2 <= len(sampled) < 100 and len(run._metrics_runs) > 10


def _written(values, digits):
    """float('%.*f' % (digits, v)) for each v, with the sign of zero."""
    return [(x, math.copysign(1.0, x)) for x in
            (float("%.*f" % (digits, v)) for v in values)]


def _around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
       st.sampled_from([1, 6]))
@example(_around(7812.5 / 10**6) + _around(-123456.5 / 10**6) + _around(0.25), 6)
@example(_around(0.25) + _around(-0.35) + _around(12.25) + _around(123456.5 / 10**6), 1)
@example([0.0, -0.0, 1 / 128, -1 / 128, 5e-324, -5e-324], 6)
@example([2.0 ** 52 / 10**6, -(2.0 ** 52) / 10**6, 1e300, -1e300], 6)
@example([2.0 ** 52 / 10, 1e300, -1e300, -0.04, 0.05], 1)
def test_as_written_equals_the_text_round_trip(values, digits):
    assert [(x, math.copysign(1.0, x)) for x in as_written(values, digits)] == \
        _written(values, digits)

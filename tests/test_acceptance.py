"""End-to-end acceptance criteria.

Each test exercises one externally checkable property of the simulator
and prints a single PASS/FAIL line (bypassing capture) so a suite run
doubles as an acceptance report:

  AC-01  attacked link1 band: SKR and QBER inside the published band
  AC-02  monotone degradation with attack power; dead at the death power
  AC-03  link2 unaffected below its knee, dead at its death power
  AC-04  attack on link1 is detected and mitigated onto link2
  AC-05  switching is transparent: post-failover matches native link2
  AC-06  controller time is a sub-1% fraction of re-initialization time
  AC-07  re-initialization parity with the first initialization
  AC-08  path switching is atomic under interleaved observation
  AC-09  transaction-id hygiene; one flow-mod per cross-connect
  AC-10  path exhaustion raises the alarm and a distinct exit code
  AC-11  identical inputs and seed reproduce identical output bytes
  AC-12  numeric internals agree with independent oracles
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import conftest
from qkdsim.controller import SdnController
from qkdsim.physics import abort_qber, binary_entropy, qber, skr
from qkdsim.report import load_events, load_metrics, load_timing, steady_windows
from qkdsim.scenario import EXIT_EXHAUSTED, EXIT_OK, run_scenario, sweep_attack_power
from qkdsim.switch import OpticalSwitch
from qkdsim.topology import resolve_active_path

from qkdsim.clock import SimClock
from qkdsim.controller import InProcessSwitchLink


def _report(number: int, ok: bool, detail: str):
    line = f"AC-{number:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


def _tail_window_stats(out_dir: Path, tail_s: float = 10800.0):
    """Mean SKR/QBER over the last tail_s of the final steady window."""
    info = json.loads((out_dir / "run_info.json").read_text())
    events = load_events(str(out_dir / info["qpm_log"]) if not Path(info["qpm_log"]).is_absolute()
                         else info["qpm_log"])
    metrics = load_metrics(str(out_dir / "metrics.csv"))
    windows = steady_windows(events, info["init_grace_s"], info["duration_s"])
    final = windows[-1]
    start = max(final["start"], final["end"] - tail_s)
    rows = [i for i, t in enumerate(metrics.t) if start <= t < final["end"]]
    assert rows, "steady window has no samples"
    return {
        "path": final["path"],
        "span_s": final["end"] - start,
        "skr_mean": float(np.mean([metrics.skr_bps[i] for i in rows])),
        "qber_mean": float(np.mean([metrics.qber[i] for i in rows])),
        "n": len(rows),
    }


class TestAttackResponseCurves:
    def test_ac01_attacked_link1_band(self, tmp_path, configs):
        t0 = time.perf_counter()
        sweep_attack_power(str(configs / "reference_topology.json"), "link1",
                           -80.0, -68.0, 0.5, str(tmp_path))
        elapsed = time.perf_counter() - t0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        skrs = [float(r[1]) for r in rows]
        qbers = [float(r[2]) for r in rows]
        in_band = (all(700.0 <= s <= 800.0 for s in skrs)
                   and all(0.025 <= q <= 0.03 for q in qbers))
        ok = in_band and elapsed < 1.0
        _report(1, ok,
                f"link1 at -80..-68 dBm: skr [{min(skrs):.1f},{max(skrs):.1f}] b/s "
                f"within [700,800], qber [{min(qbers):.4f},{max(qbers):.4f}] "
                f"within [0.025,0.03], {len(rows)} points in {elapsed:.2f}s")

    def test_ac02_monotone_degradation_until_death(self, reference_topology):
        t0 = time.perf_counter()
        channel = reference_topology.link("link1").channel
        powers = np.arange(-80.0, -40.0, 0.25)
        skrs = [skr(channel, p) for p in powers]
        qbers = [qber(channel, p) for p in powers]
        monotone = (all(a >= b - 1e-9 for a, b in zip(skrs, skrs[1:]))
                    and all(a <= b + 1e-12 for a, b in zip(qbers, qbers[1:])))
        dead_at_death = skr(channel, -58.0) == 0.0
        alive_before = skr(channel, -60.0) > 0.0
        elapsed = time.perf_counter() - t0
        first_zero = next(p for p, s in zip(powers, skrs) if s == 0.0)
        ok = monotone and dead_at_death and alive_before and elapsed < 1.0
        _report(2, ok,
                f"link1 skr non-increasing and qber non-decreasing over "
                f"{len(powers)} points, skr(-58.0)=0 exactly (first zero at "
                f"{first_zero:.2f} dBm), {elapsed:.2f}s")

    def test_ac03_link2_flat_below_knee_dead_past_death(self, reference_topology):
        t0 = time.perf_counter()
        channel = reference_topology.link("link2").channel
        baseline = skr(channel, float("-inf"))
        below = np.arange(-40.0, -17.0, 0.25)  # strictly below the knee
        drops = [1.0 - skr(channel, p) / baseline for p in below]
        flat = all(d < 0.01 for d in drops)
        dead = all(skr(channel, p) == 0.0 for p in np.arange(-9.0, 0.5, 0.5))
        elapsed = time.perf_counter() - t0
        ok = flat and dead and elapsed < 1.0
        _report(3, ok,
                f"link2 skr drop below -17 dBm at most {max(drops) * 100:.3f}% "
                f"(<1%), skr=0 exactly for all powers >= -9 dBm, {elapsed:.2f}s")


class TestMitigation:
    def test_ac04_detect_and_failover_to_link2(self, run_link1):
        out, wall = run_link1["out"], run_link1["wall_s"]
        events = load_events(str(out / "qpm_log.ndjson"))
        kinds = [e["kind"] for e in events]
        order_ok = kinds == ["RECONFIG_SENT", "RECONFIG_DONE", "REINIT_DONE",
                             "DETECTED", "RECONFIG_SENT", "RECONFIG_DONE",
                             "REINIT_DONE"]
        detected = next((e for e in events if e["kind"] == "DETECTED"), None)
        onset_ok = detected is not None and detected["t"] > 600.0
        paths_ok = (detected is not None and detected["path"] == "link1"
                    and events[-2]["path"] == "link2")
        stats = _tail_window_stats(out)
        means_ok = (stats["path"] == "link2" and stats["span_s"] >= 10800.0
                    and 855.0 <= stats["skr_mean"] <= 1045.0
                    and 0.015 <= stats["qber_mean"] <= 0.025)
        ok = order_ok and onset_ok and paths_ok and means_ok and wall < 5.0
        _report(4, ok,
                f"attack at 600s detected at {detected['t']:.1f}s, failover "
                f"link1->link2; 3h window on link2: skr_mean={stats['skr_mean']:.1f} "
                f"in [855,1045], qber_mean={stats['qber_mean']:.4f} in "
                f"[0.015,0.025]; 12600s simulated in {wall:.2f}s wall")

    def test_ac05_switchover_is_transparent(self, run_link1, run_steady_link2):
        mitigated = _tail_window_stats(run_link1["out"])
        native = _tail_window_stats(run_steady_link2["out"])
        skr_delta = abs(mitigated["skr_mean"] - native["skr_mean"]) / native["skr_mean"]
        qber_delta = abs(mitigated["qber_mean"] - native["qber_mean"]) / native["qber_mean"]
        wall = run_link1["wall_s"] + run_steady_link2["wall_s"]
        ok = (native["path"] == "link2" and skr_delta < 0.05 and qber_delta < 0.05
              and wall < 10.0)
        _report(5, ok,
                f"post-failover vs native link2: skr {mitigated['skr_mean']:.1f} vs "
                f"{native['skr_mean']:.1f} ({skr_delta * 100:.2f}%), qber "
                f"{mitigated['qber_mean']:.5f} vs {native['qber_mean']:.5f} "
                f"({qber_delta * 100:.2f}%), both <5%; {wall:.2f}s wall")

    def test_ac06_controller_time_is_negligible(self, run_link1, run_two_episodes):
        ratios = []
        for run in (run_link1, run_two_episodes):
            for row in load_timing(str(run["out"] / "timing.csv")):
                ratios.append(row["controller_s"] / row["reinit_s"])
        ok = bool(ratios) and all(r < 0.01 for r in ratios)
        _report(6, ok,
                f"controller/reinit ratio over {len(ratios)} episodes: "
                f"max {max(ratios):.6f} < 0.01")

    def test_ac07_reinit_parity_with_first_init(self, run_link1, run_two_episodes):
        fracs = []
        for run in (run_link1, run_two_episodes):
            info = json.loads((run["out"] / "run_info.json").read_text())
            first_init = info["first_init_s"]
            for row in load_timing(str(run["out"] / "timing.csv")):
                fracs.append(abs(row["reinit_s"] - first_init) / first_init)
        ok = bool(fracs) and all(f <= 0.10 for f in fracs)
        _report(7, ok,
                f"re-init duration within 10% of first init for {len(fracs)} "
                f"episodes: max deviation {max(fracs) * 100:.1f}%")


class TestControlPlaneGuarantees:
    def test_ac08_switching_is_atomic_under_observation(self, reference_topology):
        clock = SimClock()
        switches = {sw: OpticalSwitch(sw, n)
                    for sw, n in reference_topology.switches.items()}
        links = {sw: InProcessSwitchLink(s, clock) for sw, s in switches.items()}
        controller = SdnController(reference_topology, links, clock)
        controller.handle_reconfigure("r0", None, "link1")

        observed: list = []

        def observe(_switch):
            states = {sw: s.query_entries() for sw, s in switches.items()}
            observed.append(resolve_active_path(reference_topology, states))

        for s in switches.values():
            s.on_commit = observe
        report = controller.handle_reconfigure("r1", "link1", "link2")
        residue = sum(s.pending_count for s in switches.values())
        # Bob commits first and breaks link1; Alice's commit lights link2.
        ok = (report.outcome == "SUCCESS" and observed == [None, "link2"]
              and residue == 0)
        _report(8, ok,
                f"fabric after each of {len(observed)} commits during failover: "
                f"{[str(o) for o in observed]}, never two complete paths; "
                f"final path link2, no staged residue")

    def test_ac09_xid_hygiene_and_one_flow_mod_per_cross_connect(
            self, run_two_episodes, reference_topology):
        records = [json.loads(line) for line in
                   (run_two_episodes["out"] / "controller_log.ndjson")
                   .read_text().splitlines()]
        records.sort(key=lambda r: r["t_start"])
        issue_order: list[int] = []
        per_cc_ok = True
        for record in records:
            issue_order.extend(t["xid"] for t in record["transactions"])
            issue_order.extend(record["barrier_xids"])
            mods = {"ADD": [], "DELETE": []}
            for t in record["transactions"]:
                mods[t["command"]].append((t["switch"], t["in_port"], t["out_port"]))
            expected_del = ([] if record["tear_down"] is None else
                            [(c.switch, c.in_port, c.out_port) for c in
                             reference_topology.path(record["tear_down"]).cross_connects])
            expected_add = [(c.switch, c.in_port, c.out_port) for c in
                            reference_topology.path(record["set_up"]).cross_connects]
            if sorted(mods["DELETE"]) != sorted(expected_del):
                per_cc_ok = False
            if sorted(mods["ADD"]) != sorted(expected_add):
                per_cc_ok = False
        strictly_increasing = all(a < b for a, b in zip(issue_order, issue_order[1:]))
        unique = len(set(issue_order)) == len(issue_order)
        ok = (bool(records) and issue_order and issue_order[0] == 1
              and strictly_increasing and unique and per_cc_ok)
        _report(9, ok,
                f"{len(issue_order)} xids across {len(records)} reconfigurations: "
                f"start at 1, strictly increasing, unique; every transition "
                f"issued exactly one flow-mod per cross-connect")

    def test_ac10_exhaustion_alarm_and_exit_code(self, run_all_links, tmp_path, configs):
        out, code = run_all_links["out"], run_all_links["code"]
        events = load_events(str(out / "qpm_log.ndjson"))
        exhausted = [e for e in events if e["kind"] == "EXHAUSTED"]
        info = json.loads((out / "run_info.json").read_text())
        metrics = load_metrics(str(out / "metrics.csv"))
        states = [row.rsplit(",", 1)[1]
                  for row in (out / "metrics.csv").read_text().splitlines()[1:]]
        t_exhausted = exhausted[0]["t"] if exhausted else None
        after = [state for t, state in zip(metrics.t, states)
                 if t_exhausted is not None and t > t_exhausted]
        survives = (bool(after) and all(state == "ALARM" for state in after)
                    and metrics.t[-1] == info["duration_s"])
        allowed_code = run_scenario(
            str(configs / "reference_topology.json"),
            str(configs / "attack-all-links.json"), seed=11,
            out_dir=str(tmp_path), deterministic=True, allow_exhaustion=True)
        ok = (code == EXIT_EXHAUSTED and len(exhausted) == 1 and survives
              and info["exhausted"] is True and info["final_qpm_mode"] == "ALARM"
              and allowed_code == EXIT_OK)
        _report(10, ok,
                f"all paths failed at t={t_exhausted:.0f}s: exit code {code} "
                f"(expected {EXIT_EXHAUSTED}), ALARM persists for {len(after)} more "
                f"samples to t={metrics.t[-1]:.0f}s; --allow-exhaustion exits "
                f"{allowed_code}")

    def test_ac11_byte_identical_reruns(self, run_link1, tmp_path, configs):
        rerun = tmp_path / "rerun"
        run_scenario(str(configs / "reference_topology.json"),
                     str(configs / "attack-link1.json"), seed=42,
                     out_dir=str(rerun), deterministic=True)
        names = ["metrics.csv", "qpm_log.ndjson", "controller_log.ndjson",
                 "timing.csv", "run_info.json", "summary.txt"]
        diffs = [n for n in names
                 if (run_link1["out"] / n).read_bytes() != (rerun / n).read_bytes()]
        total = sum((rerun / n).stat().st_size for n in names)
        ok = not diffs
        _report(11, ok,
                f"two runs (same topology, scenario, seed=42): all {len(names)} "
                f"artifacts byte-identical ({total} bytes)"
                + (f"; differing: {diffs}" if diffs else ""))


class TestNumericOracles:
    def test_ac12_entropy_and_abort_threshold_oracles(self):
        from mpmath import mp, mpf

        mp.dps = 30

        def oracle_h2(x):
            if x in (0.0, 1.0):
                return 0.0
            mx = mpf(x)
            return float(-(mx * mp.log(mx) + (1 - mx) * mp.log(1 - mx)) / mp.log(2))

        grid = [k / 1000.0 for k in range(1001)]
        max_err = max(abs(binary_entropy(x) - oracle_h2(x)) for x in grid)

        # Independent brute-force scan for the abort point of f=1.2:
        # the first q where the secret fraction is non-positive.
        step = 1e-5
        scan = next(q for q in (k * step for k in range(1, 50001))
                    if 1.0 - 2.2 * oracle_h2(q) <= 0.0)
        bisected = abort_qber(1.2)
        scan_err = abs(bisected - scan)
        ok = max_err <= 1e-12 and scan_err < 1e-4 and abs(bisected - 0.0955) < 1e-4
        _report(12, ok,
                f"binary entropy vs 30-digit oracle on 1001 points: max err "
                f"{max_err:.2e} <= 1e-12; abort qber {bisected:.6f} vs brute scan "
                f"{scan:.6f} (err {scan_err:.2e} < 1e-4, near 0.0955)")

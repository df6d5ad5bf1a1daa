#!/usr/bin/env python3
"""qkdsim benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload long-attack --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced units of the same work and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Exit code 1 means a correctness check failed, 2
that the simulator's sources were not found next to this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Cold set-up in a fresh interpreter: import, topology load with
# calibration, scenario load and ScenarioRun (or, for reroute-storm,
# the switches, controller and northbound API).
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import setups
if not setups.qkdsim.__file__.startswith(sys.argv[1]):
    sys.exit("qkdsim imported from " + setups.qkdsim.__file__)
if sys.argv[3] == "reroute-storm":
    setups.build_fabric(sys.argv[4])
else:
    setups.build_run(sys.argv[4], sys.argv[5], int(sys.argv[6]))
print(time.perf_counter() - start)
"""

# Host-speed correction. The host this benchmark runs on is shared, and
# its speed drifts by 10-30% over spells of seconds to minutes; that
# drift is common to all Python code, so a fixed loop timed next to
# each unit cancels most of it. Every reported time is scaled by
# REFERENCE_S / (the loop's time around it): it reads as host time on a
# host where the loop takes REFERENCE_S, which is about its time on a
# quiet 2-core x86-64 VM with Python 3.11.
REFERENCE_ITERATIONS = 60000
REFERENCE_S = 0.015

# Name, unit and scale of one operation as each workload reports it.
OPERATIONS = {
    "long-attack": ("runs", "run_s", "s", 1.0),
    "failover-batch": ("runs", "run_s", "s", 1.0),
    "reroute-storm": ("reroutes", "reroute_us", "us", 1e6),
}


def reference_loop_s() -> float:
    start = perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 97, i & 15)
        table[key] = table.get(key, 0) + 1
        acc += math.sqrt(i)
    return perf_counter() - start


def host_factor(before_s: float, after_s: float) -> float:
    """Scale that maps a time measured between two reference loops to REFERENCE_S."""
    return 2.0 * REFERENCE_S / (before_s + after_s)


def cold_setup_s(workload) -> float:
    before = reference_loop_s()
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(BENCH),
         workload.name, *workload.setup_args],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) * host_factor(
        before, reference_loop_s())


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile of sorted samples and how many lie beyond it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def count_failed(units) -> int:
    """Failed operations; a unit whose digest differs from the first fails whole."""
    first = units[0].digest
    return sum(u.attempted if u.digest != first else len(u.failures) for u in units)


def end_to_end(units, factors, setup_samples, peak_rss_mb) -> dict:
    """Throughputs are medians over units; op_ms_p50 is over all operations."""
    busy = [sum(u.op_s) * f for u, f in zip(units, factors)]
    return {
        "setup_s": (median(setup_samples), "s"),
        "sim_speed": (median(u.sim_s / b for u, b in zip(units, busy)), "sim-s/s"),
        "ops_per_s": (median(u.attempted / b for u, b in zip(units, busy)), "1/s"),
        "op_ms_p50": (median(s * f for u, f in zip(units, factors) for s in u.op_s) * 1e3,
                      "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def operation_lines(workload, op_s: list[float], ops_per_s: float) -> list[str]:
    """The workload's own names for throughput and per-operation time."""
    ops, prefix, unit, scale = OPERATIONS[workload.name]
    ordered = sorted(op_s)
    lines = [f"{ops}_per_s {ops_per_s!r} {ops}/s (n={len(ordered)})"]
    for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        value, beyond = percentile(ordered, q)
        if label == "p50" or beyond >= 10:
            lines.append(f"{prefix}_{label} {value * scale!r} {unit} (n={len(ordered)})")
        else:
            lines.append(f"{prefix}_{label} not reported: {beyond} samples beyond it, "
                         "fewer than 10")
    return lines


def layer_metrics(tracer) -> dict:
    t = tracer.totals()
    c = tracer.counters

    def calls(name):
        return t[name][0], "count"

    def total_s(name):
        return t[name][1], "s"

    def self_s(name):
        return t[name][2], "s"

    def ratio(a, b):
        return a / b if b else 0.0

    reconfigures = t["controller.reconfigure"][0]
    messages = t["switch.flow_mod"][0] + t["switch.barrier"][0]
    return {
        "physics.calibrate.calls": calls("physics.calibrate"),
        "physics.calibrate.self_s": self_s("physics.calibrate"),
        "physics.sample.calls": calls("physics.sample"),
        "physics.sample.self_s": self_s("physics.sample"),
        "physics.qber_skr.calls": (t["physics.qber"][0] + t["physics.skr"][0], "count"),
        "physics.sample.distinct_frac": (
            ratio(len(tracer.sample_inputs), t["physics.sample"][0]), "ratio"),
        "topology.load.s": total_s("topology.load"),
        "topology.resolve.calls": calls("topology.resolve"),
        "topology.resolve.self_s": self_s("topology.resolve"),
        "topology.resolve.per_commit": (
            ratio(t["topology.resolve"][0], c["switch.barrier.commits"]), "walks/commit"),
        "switch.query.calls": calls("switch.query"),
        "switch.query.self_s": self_s("switch.query"),
        "switch.flow_mod.calls": calls("switch.flow_mod"),
        "switch.flow_mod.self_s": self_s("switch.flow_mod"),
        "switch.flow_mod.rejected": (c["switch.flow_mod.rejected"], "count"),
        "switch.barrier.calls": calls("switch.barrier"),
        "switch.barrier.self_s": self_s("switch.barrier"),
        "controller.reconfigure.calls": calls("controller.reconfigure"),
        "controller.reconfigure.self_s": self_s("controller.reconfigure"),
        "controller.reconfigure.failed": (c["controller.reconfigure.failed"], "count"),
        "controller.msgs_per_reconfigure": (ratio(messages, reconfigures), "msgs/req"),
        "qkd_unit.tick.calls": calls("qkd_unit.tick"),
        "qkd_unit.tick.self_s": self_s("qkd_unit.tick"),
        "qkd_unit.read_monitor.calls": calls("qkd_unit.read_monitor"),
        "qkd_unit.key_blocks": (c["qkd_unit.key_blocks"], "count"),
        "qkd_unit.key_bits": (c["qkd_unit.key_bits"], "bit"),
        "qpm.poll.calls": calls("qpm.poll"),
        "qpm.poll.self_s": self_s("qpm.poll"),
        "qpm.detections": (c["qpm.detections"], "count"),
        "qpm.reconfig_requests": (c["qpm.reconfig_requests"], "count"),
        "clock.at.calls": calls("clock.at"),
        "clock.run_until.self_s": self_s("clock.run_until"),
        "scenario.sync.calls": calls("scenario.sync"),
        "scenario.current_circuit.calls": calls("scenario.current_circuit"),
        "scenario.current_circuit.self_s": self_s("scenario.current_circuit"),
        "scenario.execute.s": total_s("scenario.execute"),
        "scenario.artifacts.self_s": self_s("scenario.run"),
        "report.summary.s": total_s("report.summary"),
        "report.load_metrics.s": total_s("report.load_metrics"),
    }


def measure(workload, seconds: float, sizes) -> tuple[list, dict, list[str]]:
    """Untraced units for `seconds`, at least two to compare digests.

    Cold set-ups are spread evenly between the units, so that they see
    the same spells of host load as the units do; their own time does
    not count against `seconds`. Peak RSS is read after the second
    unit, so it covers fixed work and not the sample count that a
    faster program fits into `seconds`.
    """
    from tracer import Tracer

    tracer = Tracer()  # never installed: only its pause flag is touched
    units, setup_samples, factors = [], [], []
    peak_rss_mb = 0.0
    busy = 0.0
    before = reference_loop_s()
    while len(units) < 2 or busy < seconds:
        while len(setup_samples) < sizes.setup_repeats * min(1.0, busy / seconds):
            setup_samples.append(cold_setup_s(workload))
            before = reference_loop_s()
        start = perf_counter()
        units.append(workload.unit(tracer))
        busy += perf_counter() - start
        after = reference_loop_s()
        factors.append(host_factor(before, after))
        before = after
        if len(units) == 2:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_samples) < sizes.setup_repeats:
        setup_samples.append(cold_setup_s(workload))

    metrics = end_to_end(units, factors, setup_samples, peak_rss_mb)
    lines = [f"host_factor {median(factors)!r} (median over units; reference loop "
             f"{REFERENCE_S / median(factors) * 1e3:.2f} ms, nominal {REFERENCE_S * 1e3:g} ms)"]
    lines += operation_lines(workload, [s * f for u, f in zip(units, factors) for s in u.op_s],
                             metrics["ops_per_s"][0])
    return units, metrics, lines


def measure_traced(workload, seconds: float) -> tuple[list, dict, list[str]]:
    """Pairs of untraced and traced units; per-layer values are per unit."""
    from tracer import Tracer

    tracer = Tracer()
    units, traced_walls, untraced_walls, snapshots, factors = [], [], [], [], []
    deadline = perf_counter() + seconds
    while not snapshots or perf_counter() < deadline:
        plain = workload.unit(tracer)
        tracer.reset()
        tracer.install()
        before = reference_loop_s()
        try:
            traced = workload.unit(tracer)
        finally:
            tracer.uninstall()
        factors.append(host_factor(before, reference_loop_s()))
        units += [plain, traced]
        untraced_walls.append(sum(plain.op_s))
        traced_walls.append(sum(traced.op_s))
        snapshots.append(layer_metrics(tracer))

    metrics = {}
    for name, (value, unit) in snapshots[0].items():
        values = [snap[name][0] for snap in snapshots]
        if unit == "s":
            value = median(v * f for v, f in zip(values, factors))
        elif len(set(values)) > 1:
            traced.failures.append(f"{name} differs between traced units: {values}")
        metrics[name] = (value, unit)
    metrics["trace.overhead_frac"] = (
        median(t / u for t, u in zip(traced_walls, untraced_walls)) - 1.0, "ratio")

    trace_file = workload.work_dir / "trace.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "spans": [{"parent": parent, "name": name, "calls": calls,
                   "total_s": total, "self_s": own}
                  for (parent, name), (calls, total, own) in sorted(
                      tracer.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
        "counters": dict(tracer.counters),
    }, indent=1) + "\n", encoding="utf-8")
    return units, metrics, [f"spans of the last traced unit: {trace_file}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "qkdsim" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no qkdsim sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import qkdsim
    import workloads

    if not qkdsim.__file__.startswith(str(SRC)):
        print(f"error: qkdsim imported from {qkdsim.__file__}", file=sys.stderr)
        return 2

    sizes = workloads.TINY if args.tiny else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
    if args.trace:
        units, metrics, lines = measure_traced(workload, args.seconds)
    else:
        units, metrics, lines = measure(workload, args.seconds, sizes)

    attempted = sum(u.attempted for u in units)
    failed = count_failed(units)
    for problem in [p for u in units for p in u.failures][:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    if failed and not any(u.failures for u in units):
        print("check failed: artifact digest differs between units", file=sys.stderr)
    digests = sorted({u.digest for u in units})

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} units={len(units)}")
    print(f"machine nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    print(f"digest {workload.name} {' '.join(digests)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_frac {failed / attempted!r} ratio ({failed}/{attempted})")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

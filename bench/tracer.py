"""Per-layer spans, recorded from outside the simulator.

install() replaces each layer's public functions and methods, at the
attribute their callers look them up through, with wrappers that time
the call; uninstall() puts the originals back. A span has a name, a
start, an end and a parent. Spans are folded into per-(parent, name)
totals as they close, because one long run closes about 100k of them.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

from qkdsim import physics, qkd_unit, qpm, report, scenario, switch, topology
from qkdsim import clock, controller


def _count_keys(tracer, blocks, _args):
    tracer.counters["qkd_unit.key_blocks"] += len(blocks)
    tracer.counters["qkd_unit.key_bits"] += sum(b.size_bits for b in blocks)


def _count_rejected(tracer, ack, _args):
    if ack["status"] != switch.STATUS_STAGED:
        tracer.counters["switch.flow_mod.rejected"] += 1


def _count_commit(tracer, reply, _args):
    if reply["committed_xids"]:
        tracer.counters["switch.barrier.commits"] += 1


def _count_failed(tracer, report_, _args):
    if report_.outcome != controller.OUTCOME_SUCCESS:
        tracer.counters["controller.reconfigure.failed"] += 1


def _count_qpm_events(tracer, _result, args):
    kinds = Counter(event.kind for event in args[0].qpm.events)
    tracer.counters["qpm.detections"] += kinds[qpm.DETECTED]
    tracer.counters["qpm.reconfig_requests"] += kinds[qpm.RECONFIG_SENT]


def _note_sample_input(tracer, _sample, args):
    tracer.sample_inputs.add((args[0], args[1]))


# (span name, [(owner, attribute), ...], hook run after each call).
# One callable reached through several owners is wrapped once. Spans
# with no metric of their own (scenario.load, .init, .sample_metrics)
# keep their time out of their parent's self time.
SPANS = [
    ("physics.calibrate", [(topology, "calibrate")], None),
    ("physics.sample", [(physics, "sample")], _note_sample_input),
    ("physics.qber", [(physics, "qber")], None),
    ("physics.skr", [(physics, "skr")], None),
    ("topology.load", [(topology, "load_topology"), (scenario, "load_topology")], None),
    ("topology.resolve", [(scenario, "resolve_active_path")], None),
    ("switch.query", [(switch.OpticalSwitch, "query_entries")], None),
    ("switch.flow_mod", [(switch.OpticalSwitch, "handle_flow_mod")], _count_rejected),
    ("switch.barrier", [(switch.OpticalSwitch, "handle_barrier")], _count_commit),
    ("controller.reconfigure", [(controller.SdnController, "handle_reconfigure")],
     _count_failed),
    ("qkd_unit.tick", [(qkd_unit.QkdUnitPair, "tick")], _count_keys),
    ("qkd_unit.read_monitor", [(qkd_unit.QkdUnitPair, "read_monitor")], None),
    ("qpm.poll", [(qpm.Qpm, "poll")], None),
    ("clock.at", [(clock.Scheduler, "at")], None),
    ("clock.run_until", [(clock.Scheduler, "run_until")], None),
    ("scenario.load", [(scenario, "load_scenario")], None),
    ("scenario.init", [(scenario.ScenarioRun, "__init__")], None),
    ("scenario.sync", [(scenario.ScenarioRun, "sync_unit")], None),
    ("scenario.current_circuit", [(scenario.ScenarioRun, "current_circuit")], None),
    ("scenario.sample_metrics", [(scenario.ScenarioRun, "_sample_metrics")], None),
    ("scenario.execute", [(scenario.ScenarioRun, "execute")], _count_qpm_events),
    ("scenario.run", [(scenario, "run_scenario")], None),
    ("report.summary", [(report, "render_summary")], None),
    ("report.load_metrics", [(report, "load_metrics")], None),
]


class Tracer:
    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self.paused = False
        self.reset()

    def reset(self):
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.sample_inputs: set = set()
        self._stack: list[list] = []

    def install(self):
        for name, sites, hook in SPANS:
            owner, attr = sites[0]
            wrapper = self._wrap(getattr(owner, attr), name, hook)
            for owner, attr in sites:
                self._installed.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                edge = self.edges.get((parent, name))
                if edge is None:
                    edge = self.edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[1]
            if hook is not None:
                hook(self, result, args)
            return result
        return traced

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, total_s, self_s] over all parents."""
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name, _, _ in SPANS}
        for (_parent, name), (calls, total, self_s) in self.edges.items():
            acc = out[name]
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

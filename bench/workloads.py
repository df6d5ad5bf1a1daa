"""The three workloads: inputs from a seed, timed calls, correctness checks.

A workload is run in units. A unit is a fixed amount of work that its
seed decides completely: one long run (long-attack), one pass over the
batch's runs (failover-batch) or one round of requests on fresh switches
(reroute-storm). Every unit of a workload must produce the same artifact
digest, traced or not, so repeating units is the determinism check.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from qkdsim import report, scenario, topology

import setups

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_work"
THRESHOLDS = CONFIGS / "thresholds.json"
REFERENCE = CONFIGS / "reference_topology.json"

DIGEST_FILES = ("metrics.csv", "qpm_log.ndjson", "controller_log.ndjson", "timing.csv")
DAY_S = 86400.0


@dataclass(frozen=True)
class Sizes:
    long_attack_days: float
    batch_seeds_per_pair: int
    storm_requests: int
    setup_repeats: int


FULL = Sizes(long_attack_days=2.5, batch_seeds_per_pair=4, storm_requests=2000,
             setup_repeats=9)
TINY = Sizes(long_attack_days=0.25, batch_seeds_per_pair=1, storm_requests=40,
             setup_repeats=2)


@dataclass
class UnitResult:
    """One unit's timed operations; `sim_s` is simulated time they covered."""

    op_s: array = field(default_factory=lambda: array("d"))
    sim_s: float = 0.0
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.op_s)


@dataclass(frozen=True)
class Job:
    """One run_scenario call and the outcome it must have."""

    label: str
    topology: str
    scenario: str
    seed: int
    duration_s: float
    exit_code: int
    episodes: int
    final_path: str | None
    thresholds: bool


def _digest_run(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes() + b"\0")
    return h.hexdigest()


def _check_run(job: Job, code: int, out_dir: Path) -> str | None:
    info = json.loads((out_dir / "run_info.json").read_text(encoding="utf-8"))
    exhausted = job.exit_code == scenario.EXIT_EXHAUSTED
    if code != job.exit_code:
        return f"exit {code}, expected {job.exit_code}"
    if info["episodes"] != job.episodes:
        return f"{info['episodes']} episodes, expected {job.episodes}"
    if info["exhausted"] != exhausted:
        return f"exhausted={info['exhausted']}, expected {exhausted}"
    if not exhausted and info["final_active_path"] != job.final_path:
        return f"final path {info['final_active_path']}, expected {job.final_path}"
    if job.thresholds:
        _, all_pass = report.summarize(str(out_dir), thresholds_path=str(THRESHOLDS))
        if not all_pass:
            return "summary fails configs/thresholds.json"
    return None


class RunWorkload:
    """Back-to-back run_scenario calls over a fixed list of jobs."""

    def __init__(self, name: str, jobs: list[Job]):
        self.name = name
        self.jobs = jobs
        self.work_dir = WORK / name
        self.out_dir = self.work_dir / "run"
        self.setup_args = [jobs[0].topology, jobs[0].scenario, str(jobs[0].seed)]

    def unit(self, tracer) -> UnitResult:
        result = UnitResult()
        h = hashlib.sha256()
        for job in self.jobs:
            start = perf_counter()
            code = scenario.run_scenario(
                job.topology, job.scenario, job.seed, str(self.out_dir),
                deterministic=True)
            result.op_s.append(perf_counter() - start)
            result.sim_s += job.duration_s
            tracer.paused = True
            try:
                problem = _check_run(job, code, self.out_dir)
                h.update(_digest_run(self.out_dir).encode())
            finally:
                tracer.paused = False
            if problem is not None:
                result.failures.append(f"{job.label} seed={job.seed}: {problem}")
        result.digest = h.hexdigest()
        return result


class StormWorkload:
    """A closed loop of one client posting path moves to fresh switches."""

    def __init__(self, targets: list[str]):
        self.name = "reroute-storm"
        self.work_dir = WORK / self.name
        self.targets = targets
        self.setup_args = [str(REFERENCE)]

    def unit(self, tracer) -> UnitResult:
        result = UnitResult()
        fabric = setups.build_fabric(str(REFERENCE))
        client, clock = fabric.client, fabric.clock
        current = None
        last_xid = 0
        for index, target in enumerate(self.targets):
            body = {"request_id": f"storm-{index:06d}", "tear_down": current,
                    "set_up": target}
            sim_start = clock.now()
            start = perf_counter()
            status, reply = client.post_reconfigure(body)
            result.op_s.append(perf_counter() - start)
            result.sim_s += clock.now() - sim_start
            tracer.paused = True
            try:
                problem, last_xid = _check_reroute(fabric, target, status, reply, last_xid)
            finally:
                tracer.paused = False
            if problem is None:
                current = target
            else:
                result.failures.append(f"request {index} -> {target}: {problem}")
        result.digest = hashlib.sha256("".join(
            json.dumps(r, separators=(",", ":")) + "\n" for r in fabric.records
        ).encode()).hexdigest()
        return result


def _check_reroute(fabric, target, status, reply, last_xid) -> tuple[str | None, int]:
    if status != 200 or reply.get("outcome") != "SUCCESS":
        return f"status {status} outcome {reply.get('outcome')}", last_xid
    states = {sid: sw.query_entries() for sid, sw in fabric.switches.items()}
    lit = topology.resolve_active_path(fabric.topology, states)
    if lit != target:
        return f"fabric lights {lit}", last_xid
    pending = [sid for sid, sw in fabric.switches.items() if sw.pending_count]
    if pending:
        return f"pending mods on {pending}", last_xid
    record = fabric.records[-1]
    xids = [t["xid"] for t in record["transactions"]] + record["barrier_xids"]
    if any(b <= a for a, b in zip([last_xid] + xids, xids)):
        return f"xids not strictly ascending after {last_xid}: {xids}", last_xid
    return None, xids[-1]


# -- inputs from the seed -------------------------------------------------------


def _long_attack(seed: int, sizes: Sizes) -> RunWorkload:
    """link1 falls at t=600 s; link2 then drifts below its -17 dBm knee."""
    rng = random.Random(seed)
    duration = sizes.long_attack_days * DAY_S
    events = [{"t": 600, "link": "link1", "attack_power_dbm": -40}]
    events += [{"t": t, "link": "link2", "attack_power_dbm": round(rng.uniform(-45, -22), 1)}
               for t in range(3600, int(duration), 3600)]
    path = WORK / "long-attack" / "scenario.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"duration_s": duration, "events": events}, indent=1),
                    encoding="utf-8")
    job = Job("long-attack", str(REFERENCE), str(path), rng.randrange(2**31),
              duration, exit_code=0, episodes=1, final_path="link2", thresholds=False)
    return RunWorkload("long-attack", [job])


# (label, topology, scenario, exit code, episodes, final path, thresholds)
BATCH_PAIRS = [
    ("attack-link1", "reference_topology.json", "attack-link1.json", 0, 1, "link2", True),
    ("attack-link1-then-link2", "reference_topology.json",
     "attack-link1-then-link2.json", 0, 2, "link3", False),
    ("attack-all-links", "reference_topology.json", "attack-all-links.json",
     scenario.EXIT_EXHAUSTED, 2, None, False),
    ("steadystate-link2", "reference_topology_link2_first.json",
     "steadystate-link2.json", 0, 0, "link2", True),
]


def _failover_batch(seed: int, sizes: Sizes) -> RunWorkload:
    rng = random.Random(seed)
    jobs = []
    for _ in range(sizes.batch_seeds_per_pair):
        for label, topo, scen, code, episodes, final, thresholds in BATCH_PAIRS:
            duration = json.loads((CONFIGS / scen).read_text(encoding="utf-8"))["duration_s"]
            jobs.append(Job(label, str(CONFIGS / topo), str(CONFIGS / scen),
                            rng.randrange(2**31), float(duration), code, episodes,
                            final, thresholds))
    return RunWorkload("failover-batch", jobs)


def _reroute_storm(seed: int, sizes: Sizes) -> StormWorkload:
    rng = random.Random(seed)
    path_ids = topology.load_topology(str(REFERENCE)).path_ids()
    current = rng.choice(path_ids)
    targets = [current]
    for _ in range(sizes.storm_requests - 1):
        current = rng.choice([p for p in path_ids if p != current])
        targets.append(current)
    return StormWorkload(targets)


WORKLOADS = {
    "long-attack": _long_attack,
    "failover-batch": _failover_batch,
    "reroute-storm": _reroute_storm,
}

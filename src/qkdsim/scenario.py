"""Scenario runner: timed attack injection over the full simulated stack.

One run wires together the switches, controller, QKD unit pair, and
monitor under a single simulated clock, injects attacker-power changes
at scripted times, and records poll-cadence metrics plus the monitor and
controller event logs. Everything observable is written to plain files
with fixed formatting so identical inputs and seed reproduce identical
bytes.

The unit pair is advanced lazily: whenever any component needs current
state (a poll, an attack change, a metrics sample), the runner ticks the
units over the elapsed interval under the circuit and attack power that
held during it. Key-block boundaries therefore land at exact simulated
times and random draws occur in timeline order no matter which event
triggered the tick.

Metrics samples are chained the way the monitor chains its polls: the
sample at k * period schedules the one at (k + 1) * period, so the
event heap holds at most one metrics event at a time.

Most polls cannot act, and the runner advances over them in batches.
After every event the loop runs, it tries one batch over the polls and
samples before the next attack change. One rule decides it,
Qpm.could_act: the batch starts only from a unit read-out that the
monitor could not act on, and QkdUnitPair.tick_while stops it before
the tick that would change the unit's state (end the init, abort) or
distil a block whose read-out the monitor could act on. So every poll
the batch takes over reads a reading could_act rejects, and the poll
that could act runs on the event loop. The artifacts and random stream
come out as the event loop alone leaves them. The batch relies on
attack changes, polls and samples being the only scheduled events.
"""

from __future__ import annotations

import json
import math
import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import report
from .clock import Scheduler, SimClock
from .controller import (
    InProcessSwitchLink,
    LocalControllerClient,
    Northbound,
    SdnController,
)
from .physics import ATTACK_OFF, qber, skr
from .qkd_unit import QkdUnitPair
from .qpm import DETECTED, EXHAUSTED, RECONFIG_DONE, REINIT_DONE, Qpm, QpmConfig
from .switch import OpticalSwitch
from .topology import (NUMBER, Topology, checked, is_number, load_topology,
                       resolve_active_path)

PRIORITY_ATTACK = 0
PRIORITY_QPM = Qpm.PRIORITY
PRIORITY_METRICS = 3

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3

# The unit is ticked only over more than this much simulated time.
_SYNC_EPS = 1e-12
# Poll periods one batch spans at most, which bounds the memory it takes.
_BATCH_PERIODS = 1024

# A metrics.csv row: t, active_path, skr_bps, qber, the attack powers, qpm_state.
_metrics_row = "{:.1f},{},{:.6f},{:.6f},{},{}".format


class ScenarioError(ValueError):
    """Malformed scenario file or inconsistent run inputs."""


@dataclass(frozen=True)
class ScenarioEvent:
    t: float
    link_id: str
    attack_power_dbm: float  # ATTACK_OFF when the attacker turns off


@dataclass(frozen=True)
class Scenario:
    duration_s: float
    events: tuple[ScenarioEvent, ...]


def load_scenario(file_path: str) -> Scenario:
    with open(file_path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"cannot parse {file_path}: {exc}") from exc
    duration = checked(data, "duration_s", NUMBER, "scenario", ScenarioError)
    if duration <= 0:
        raise ScenarioError("duration_s must be a positive number")
    events = []
    seen: set[tuple[float, str]] = set()
    last_t = -1.0
    for index, entry in enumerate(checked(data, "events", list, "scenario",
                                          ScenarioError, default=[])):
        where = f"event {index}"
        t = checked(entry, "t", NUMBER, where, ScenarioError)
        link = checked(entry, "link", str, where, ScenarioError)
        power = entry.get("attack_power_dbm")
        if t < 0:
            raise ScenarioError(f"event time must be a non-negative number, got {t!r}")
        if power == "off":
            power_dbm = ATTACK_OFF
        elif is_number(power):
            power_dbm = float(power)
        else:
            raise ScenarioError(
                f"attack_power_dbm must be a number or \"off\", got {power!r}")
        if t < last_t:
            raise ScenarioError("events must be sorted by t")
        if (float(t), link) in seen:
            raise ScenarioError(f"duplicate event for link {link!r} at t={t}")
        seen.add((float(t), link))
        last_t = float(t)
        events.append(ScenarioEvent(t=float(t), link_id=link, attack_power_dbm=power_dbm))
    return Scenario(duration_s=float(duration), events=tuple(events))


class LocalQkdClient:
    """In-process monitor/session access for the QPM, kept time-consistent."""

    def __init__(self, run: "ScenarioRun"):
        self.run = run

    def read_monitor(self) -> dict:
        self.run.sync_unit()
        return self.run.unit.read_monitor(self.run.clock.now())

    def start_session(self):
        self.run.sync_unit()
        _, channel, _ = self.run.current_circuit()
        if channel is None:
            raise RuntimeError("start_session with no established circuit")
        self.run.unit.start_session(channel, self.run.clock.now())


class ScenarioRun:
    """State of one deterministic simulated run."""

    def __init__(self, topology: Topology, scenario: Scenario, seed: int,
                 qpm_config: Optional[QpmConfig] = None):
        known_links = {link.link_id for link in topology.links}
        for event in scenario.events:
            if event.link_id not in known_links:
                raise ScenarioError(f"scenario references unknown link '{event.link_id}'")
        self.topology = topology
        self.scenario = scenario
        self.seed = seed
        self.clock = SimClock()
        self.scheduler = Scheduler(self.clock)
        self.rng = np.random.default_rng(seed)
        self.unit = QkdUnitPair(self.rng)
        self.switches = {
            sid: OpticalSwitch(sid, ports) for sid, ports in topology.switches.items()
        }
        # The lit (path_id, link): empty tables light nothing, and only a
        # barrier commit changes any table.
        self._circuit = (None, None)
        for sw in self.switches.values():
            sw.on_commit = self._on_commit
        self.links = {
            sid: InProcessSwitchLink(sw, self.clock) for sid, sw in self.switches.items()
        }
        self.controller_records: list[dict] = []
        self.controller = SdnController(
            topology, self.links, self.clock, log=self.controller_records.append)
        self.northbound = Northbound(self.controller)
        self.controller_client = LocalControllerClient(self.northbound, self.clock)
        self.qpm = Qpm(qpm_config or QpmConfig(), topology,
                       self.controller_client, LocalQkdClient(self),
                       self.clock, self.scheduler)
        self.attack_powers = {link.link_id: ATTACK_OFF for link in topology.links}
        self._powers_csv = self._format_powers()
        self.metrics_rows: list[str] = []
        # The pending metrics sample: (k, scheduler entry), None past the end.
        self._next_metrics: Optional[tuple[int, list]] = None
        # Attack changes run in time order; the batch stops before the next.
        self._attack_times = sorted(event.t for event in scenario.events)
        self._attacks_applied = 0
        self._last_sync = 0.0

    # -- time-consistent unit state -------------------------------------------

    def _on_commit(self, _switch: OpticalSwitch):
        states = {sid: sw.query_entries() for sid, sw in self.switches.items()}
        path_id = resolve_active_path(self.topology, states)
        link = None if path_id is None else self.topology.link_for_path(path_id)
        self._circuit = (path_id, link)

    def current_circuit(self):
        path_id, link = self._circuit
        if link is None:
            return None, None, ATTACK_OFF
        return path_id, link.channel, self.attack_powers[link.link_id]

    def sync_unit(self):
        now = self.clock.now()
        dt = now - self._last_sync
        if dt > _SYNC_EPS:
            _, channel, power = self.current_circuit()
            self.unit.tick(dt, channel, power)
            self._last_sync = now

    # -- scheduled handlers -----------------------------------------------------

    def _format_powers(self) -> str:
        return ",".join(
            f"{self.attack_powers[link.link_id]:.2f}" for link in self.topology.links
        )

    def _apply_attack(self, event: ScenarioEvent):
        self.sync_unit()
        self.attack_powers[event.link_id] = event.attack_power_dbm
        self._powers_csv = self._format_powers()
        self._attacks_applied += 1

    def _sample_metrics(self, k: int):
        """Write the metrics row at k * period and schedule the next one."""
        self.sync_unit()
        t = k * self.qpm.config.poll_period_s
        path_id, _, _ = self.current_circuit()
        reading = self.unit.read_monitor(self.clock.now())
        self.metrics_rows.append(_metrics_row(
            t, path_id or "none", reading["skr_bps"], reading["qber"], self._powers_csv,
            self.qpm.mode))
        self._schedule_metrics(k + 1)

    def _schedule_metrics(self, k: int):
        # Rows run k = 0 .. duration // period, skipping any k * period
        # that rounds past the duration.
        period = self.qpm.config.poll_period_s
        duration = self.scenario.duration_s
        self._next_metrics = None
        if k <= duration // period and k * period <= duration:
            self._next_metrics = (k, self.scheduler.at(
                k * period, lambda: self._sample_metrics(k), priority=PRIORITY_METRICS))

    # -- quiet stretches ---------------------------------------------------------

    def _advance_quiet(self):
        """If the monitor could not act on the unit's read-out, run the polls
        and samples before the next attack change in one batch, up to the tick
        that would change the unit's state or give a read-out the monitor could
        act on (see the module docstring)."""
        qpm, unit = self.qpm, self.unit
        if self._circuit[1] is None:
            return
        current = unit.read_monitor(0.0)
        if qpm.could_act(current["qber"], current["last_key_size_bits"], current["state"]):
            return
        period = qpm.config.poll_period_s
        poll_period = qpm.poll_period()
        now, duration = self.clock.now(), self.scenario.duration_s
        if now > qpm.next_poll_t or (self._next_metrics is not None
                                     and now > self._next_metrics[0] * period):
            return  # an event runs late: leave it to the event loop
        end = min(duration, qpm.next_poll_t + _BATCH_PERIODS * min(period, poll_period),
                  self._last_sync + unit.init_left())  # ticks past it are never taken
        if self._attacks_applied < len(self._attack_times):
            # An attack change runs first at its time: stop strictly before.
            end = min(end, math.nextafter(self._attack_times[self._attacks_applied], -math.inf))
        # Polls (t, 0, 0) and samples (t, 1, k), sorted as they run: a poll
        # before a sample at the same time.
        events = []
        t = qpm.next_poll_t
        while t <= end:
            events.append((t, 0, 0))
            t = t + poll_period
        if self._next_metrics is not None:
            k = self._next_metrics[0]
            while k <= duration // period and k * period <= end:
                events.append((k * period, 1, k))
                k += 1
        if not events:
            return
        events.sort()

        last = self._last_sync
        dts, tick_t, ticks_at = [], [], []  # ticks_at: ticks up to each event
        for t, _, _ in events:
            if t - last > _SYNC_EPS:
                dts.append(t - last)
                tick_t.append(t)
                last = t
            ticks_at.append(len(dts))
        path_id, channel, power = self.current_circuit()
        ticks, block_ticks, readouts = unit.tick_while(dts, channel, power, qpm.could_act)
        cut = bisect_right(ticks_at, ticks)
        if not cut:
            return
        if ticks:
            self._last_sync = tick_t[ticks - 1]
        self.clock.advance_to(events[cut - 1][0])
        blocks = np.searchsorted(block_ticks, ticks_at[:cut]).tolist()

        polls = [i for i in range(cut) if not events[i][1]]
        if polls:
            def reading(j):
                q, s, bits = readouts[blocks[polls[j]]]
                return {"timestamp": round(events[polls[j]][0], 6), "skr_bps": s, "qber": q,
                        "last_key_size_bits": bits, "state": current["state"]}
            qpm.skip_polls([events[i][0] for i in polls], reading)

        powers, mode = self._powers_csv, qpm.mode
        rows = [_metrics_row(k * period, path_id, readouts[b][1], readouts[b][0], powers, mode)
                for (_, kind, k), b in zip(events[:cut], blocks) if kind]
        if rows:
            self.metrics_rows.extend(rows)
            self.scheduler.cancel(self._next_metrics[1])
            self._schedule_metrics(self._next_metrics[0] + len(rows))

    # -- execution ---------------------------------------------------------------

    def execute(self):
        for event in self.scenario.events:
            self.scheduler.at(event.t, lambda ev=event: self._apply_attack(ev),
                              priority=PRIORITY_ATTACK)
        self.scheduler.at(0.0, lambda: self.qpm.startup(0.0), priority=PRIORITY_QPM)
        self._schedule_metrics(0)
        self.scheduler.run_until(self.scenario.duration_s, after=self._advance_quiet)


def extract_episodes(events) -> tuple[Optional[float], list[dict]]:
    """Split the monitor event stream into first-init and mitigation episodes.

    Returns (first_init_s, episodes); first_init_s is the startup
    provisioning-to-keys duration, episodes are dicts with t_detected /
    t_reconfig_done / t_reinit_done for every completed mitigation.
    """
    first_reconfig_done = None
    first_init_s = None
    episodes: list[dict] = []
    current: Optional[dict] = None
    for event in events:
        if event.kind == DETECTED:
            current = {"t_detected": event.t, "path": None}
        elif event.kind == RECONFIG_DONE:
            if current is not None and "t_reconfig_done" not in current:
                current["t_reconfig_done"] = event.t
                current["path"] = event.path
            elif current is None and first_reconfig_done is None:
                first_reconfig_done = event.t
        elif event.kind == REINIT_DONE:
            if current is not None and "t_reconfig_done" in current:
                current["t_reinit_done"] = event.t
                episodes.append(current)
                current = None
            elif first_reconfig_done is not None and first_init_s is None:
                first_init_s = event.t - first_reconfig_done
    return first_init_s, episodes


def timing_rows(episodes: list[dict], scenario: Scenario) -> list[str]:
    """timing.csv rows: per-episode breakdown anchored at attack onset."""
    rows = []
    onsets = [ev.t for ev in scenario.events if ev.attack_power_dbm != ATTACK_OFF]
    for index, ep in enumerate(episodes, start=1):
        candidates = [t for t in onsets if t <= ep["t_detected"]]
        onset = max(candidates) if candidates else ep["t_detected"]
        detect_s = ep["t_detected"] - onset
        controller_s = ep["t_reconfig_done"] - ep["t_detected"]
        reinit_s = ep["t_reinit_done"] - ep["t_reconfig_done"]
        total_s = ep["t_reinit_done"] - onset
        rows.append(
            f"{index},{detect_s:.6f},{controller_s:.6f},{reinit_s:.6f},{total_s:.6f}"
        )
    return rows


def _write_lines(path: str, lines):
    """Write each of lines and a newline to path, in one call."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _ndjson(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def run_scenario(topology_file: str, scenario_file: str, seed: int, out_dir: str,
                 deterministic: bool = False, allow_exhaustion: bool = False,
                 qpm_log_path: Optional[str] = None,
                 qpm_config: Optional[QpmConfig] = None) -> int:
    """Run one scenario end to end and write all artifacts into out_dir."""
    topology = load_topology(topology_file)
    scenario = load_scenario(scenario_file)
    run = ScenarioRun(topology, scenario, seed, qpm_config=qpm_config)
    run.execute()

    os.makedirs(out_dir, exist_ok=True)
    qpm_log = qpm_log_path or os.path.join(out_dir, "qpm_log.ndjson")

    metrics_header = "t,active_path,skr_bps,qber," + ",".join(
        f"attack_{link.link_id}_dbm" for link in topology.links) + ",qpm_state"
    _write_lines(os.path.join(out_dir, "metrics.csv"), [metrics_header, *run.metrics_rows])
    events = [event.to_dict() for event in run.qpm.events]
    _write_lines(qpm_log, map(_ndjson, events))
    _write_lines(os.path.join(out_dir, "controller_log.ndjson"),
                 map(_ndjson, run.controller_records))

    first_init_s, episodes = extract_episodes(run.qpm.events)
    timing_header = "episode,detect_s,controller_s,reinit_s,total_s"
    timing = timing_rows(episodes, scenario)
    _write_lines(os.path.join(out_dir, "timing.csv"), [timing_header, *timing])

    exhausted = any(ev.kind == EXHAUSTED for ev in run.qpm.events)
    # Reference the log relative to out_dir when it lives inside, so the
    # recorded metadata does not depend on where the run directory sits.
    qpm_log_ref = qpm_log
    if os.path.dirname(os.path.abspath(qpm_log)) == os.path.abspath(out_dir):
        qpm_log_ref = os.path.basename(qpm_log)
    info = {
        "topology": topology_file,
        "scenario": scenario_file,
        "seed": seed,
        "duration_s": scenario.duration_s,
        "deterministic": deterministic,
        "qpm_log": qpm_log_ref,
        "poll_period_s": run.qpm.config.poll_period_s,
        "init_grace_s": run.qpm.config.init_grace_s,
        "first_init_s": round(first_init_s, 6) if first_init_s is not None else None,
        "episodes": len(episodes),
        "exhausted": exhausted,
        "final_active_path": run.qpm.active_path,
        "final_qpm_mode": run.qpm.mode,
    }
    if not deterministic:
        info["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    _write_lines(os.path.join(out_dir, "run_info.json"), [json.dumps(info, indent=2)])

    # The summary parses the rows as written, so it reads what summarize
    # would read back from the files.
    summary, _ = report.render_summary(
        info,
        report.parse_metrics(metrics_header, run.metrics_rows, "metrics.csv"),
        report.parse_timing(timing_header, timing, "timing.csv"),
        events,
        thresholds_path=None, include_timestamp=not deterministic)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8", newline="") as fh:
        fh.write(summary)

    if exhausted and not allow_exhaustion:
        return EXIT_EXHAUSTED
    return EXIT_OK


def sweep_attack_power(topology_file: str, link_id: str,
                       start_dbm: float, end_dbm: float, step_db: float,
                       out_dir: str) -> int:
    """Evaluate the calibrated model means over a power grid (no simulation)."""
    topology = load_topology(topology_file)
    try:
        link = topology.link(link_id)
    except KeyError:
        raise ScenarioError(f"unknown link '{link_id}'") from None
    if not all(map(math.isfinite, (start_dbm, end_dbm, step_db))):
        raise ScenarioError("start_dbm, end_dbm and step_db must be finite")
    if step_db <= 0:
        raise ScenarioError("step_db must be positive")
    if end_dbm < start_dbm:
        raise ScenarioError("end_dbm must be >= start_dbm")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("power_dbm,skr_bps,qber\n")
        k = 0
        while True:
            power = start_dbm + k * step_db
            if power > end_dbm + 1e-9:
                break
            fh.write(f"{power:.2f},{skr(link.channel, power):.6f},"
                     f"{qber(link.channel, power):.6f}\n")
            k += 1
    return EXIT_OK

"""Scenario runner: timed attack injection over the full simulated stack.

One run wires together the switches, controller, QKD unit pair, and
monitor under a single simulated clock, injects attacker-power changes
at scripted times, and records poll-cadence metrics plus the monitor and
controller event logs. Everything observable is written to plain files
with fixed formatting so identical inputs and seed reproduce identical
bytes. Every target is opened before the run starts, so one that cannot
be written fails before the simulation and leaves an earlier run's files
as they were. Each file is then overwritten in place and cut to length:
a rerun into a used directory leaves exactly the bytes of a run into a
fresh one, without the cost of truncating every file first. The monitor
log is recorded in run_info.json by name when it sits in the run
directory and by absolute path otherwise.

The unit pair is advanced lazily: whenever any component needs current
state (a poll, an attack change, a metrics sample) or a switch commit
may change the circuit, the runner ticks the units over the elapsed
interval under the circuit and attack power that held during it.
Key-block boundaries therefore land at exact simulated times and random
draws occur in timeline order no matter which event triggered the tick.
The unit keeps no clock: the end of its last tick, _last_sync, is the
only time it has. The run is also the monitor's in-process unit client:
its read_monitor and start_session sync the unit to the clock first.
realtime.over_sockets serves the same run, those two calls included,
over sockets, where a monitor exchange takes no simulated time either.

Metrics samples are chained the way the monitor chains its polls: the
sample at k * period schedules the one at (k + 1) * period, so the
event heap holds at most one metrics event at a time.

Most polls cannot act, and the runner advances over them in batches.
After every event the loop runs, it tries one batch over the attack
changes, polls and samples ahead, up to _BATCH_PERIODS poll periods.
One rule decides it, Qpm.could_act: the batch starts only from a unit
read-out that the monitor could not act on, and QkdUnitPair.tick_while
stops it after the tick that changes the unit's state (ends the init,
aborts) or distils a block whose read-out the monitor could act on. The
batch takes over only the events before that tick's end, so every poll
it takes over reads a reading could_act rejects; the events at its end
run on the event loop, on a unit already synced to them.

The batch relies on attack changes, polls and samples being the only
scheduled events, and on none of them taking simulated time. It lists
their times on numpy arrays and sorts them once: sync_unit ticks
whenever the clock has moved, so the ticks end at the distinct event
times, and the unit alone decides that a tick too short to count is no
time. Where events share a time, the event loop runs the attack changes
first, then the poll, then the sample, and one searchsorted side per
question settles each tie. One tick_while walks all the ticks, told the
stretches of constant attack power on the lit link, since a change there
changes the power its blocks are sampled at. It may end its walk early,
after the first block of a stretch whose model means the monitor could
act on; the batch then takes over only the events before that tick's
end, as at a stop. An attack change the batch takes over is applied as
_apply_attack applies it, so rows after it show the new powers. The
artifacts and random stream come out as the event loop alone leaves
them.
"""

from __future__ import annotations

import json
import math
import os
import stat
import time
from contextlib import contextmanager
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
                       read_json, resolve_active_path)

PRIORITY_ATTACK = 0
PRIORITY_QPM = Qpm.PRIORITY
PRIORITY_METRICS = 3

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3

# Poll periods one batch spans at most, which bounds the memory it takes.
_BATCH_PERIODS = 1024

# Rows a run's metrics.csv or a sweep.csv holds at most.
_ROWS_MAX = 10 ** 6

# No events or blocks in a batch.
_NO_EVENTS = np.empty(0)

# The decimals metrics.csv writes t with, and skr_bps and qber.
_T_DIGITS = 1
_VALUE_DIGITS = 6


def _row_template(path_id: str, powers_csv: str, mode: str) -> str:
    """A metrics.csv row (t, active_path, skr_bps, qber, the attack powers,
    qpm_state) as a %-template that t, skr_bps and qber fill in."""
    value = f"%.{_VALUE_DIGITS}f"
    return (f"%.{_T_DIGITS}f," + path_id.replace("%", "%%") + f",{value},{value},"
            + powers_csv + "," + mode)


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
    data = read_json(file_path, ScenarioError)
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
            raise ScenarioError(f"{where}: t must be a non-negative number, got {t!r}")
        if power == "off":
            power_dbm = ATTACK_OFF
        elif is_number(power):
            power_dbm = float(power)
        else:
            raise ScenarioError(
                f"{where}: attack_power_dbm must be a number or \"off\", got {power!r}")
        if t < last_t:
            raise ScenarioError(f"{where}: events must be sorted by t")
        if (float(t), link) in seen:
            raise ScenarioError(f"{where}: duplicate event for link {link!r} at t={t}")
        seen.add((float(t), link))
        last_t = float(t)
        events.append(ScenarioEvent(t=float(t), link_id=link, attack_power_dbm=power_dbm))
    return Scenario(duration_s=float(duration), events=tuple(events))


class ScenarioRun:
    """State of one deterministic simulated run."""

    def __init__(self, topology: Topology, scenario: Scenario, seed: int,
                 qpm_config: Optional[QpmConfig] = None):
        known_links = {link.link_id for link in topology.links}
        for event in scenario.events:
            if event.link_id not in known_links:
                raise ScenarioError(f"scenario references unknown link '{event.link_id}'")
        qpm_config = qpm_config or QpmConfig()
        for name in ("poll_period_s", "reinit_poll_period_s"):
            # A period of at most half an ulp of the duration leaves t + period
            # == t for some t before the end, so polls would never get there.
            if not math.ulp(scenario.duration_s) / 2 < getattr(qpm_config, name):
                raise ScenarioError(f"{name} must be large enough to advance the clock "
                                    f"over duration_s {scenario.duration_s!r}")
        if scenario.duration_s // qpm_config.poll_period_s + 1 > _ROWS_MAX:
            raise ScenarioError(f"duration_s {scenario.duration_s!r} at poll_period_s "
                                f"{qpm_config.poll_period_s!r} makes more than {_ROWS_MAX} "
                                "metrics rows")
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
        self.qpm = Qpm(qpm_config, topology, self.controller_client, self,
                       self.clock, self.scheduler)
        self.attack_powers = {link.link_id: ATTACK_OFF for link in topology.links}
        self._powers_csv = self._format_powers()
        # The metrics rows: their t, skr_bps and qber columns, and runs of
        # [row template, row count] that render them in order.
        self._metrics_columns: tuple[list, list, list] = ([], [], [])
        self._metrics_runs: list[list] = []
        # The pending metrics sample: (k, scheduler entry), None past the end.
        self._next_metrics: Optional[tuple[int, list]] = None
        # The attack changes with their scheduler entries, and their times, in
        # the order they run; the first _attacks_applied of them have run.
        self._attacks: list[tuple[ScenarioEvent, list]] = []
        self._attack_t = _NO_EVENTS
        self._attacks_applied = 0
        self._last_sync = 0.0

    # -- time-consistent unit state -------------------------------------------

    def _on_commit(self, _switch: OpticalSwitch):
        self.sync_unit()
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
        if dt > 0:
            _, channel, power = self.current_circuit()
            self.unit.tick(dt, channel, power)
            self._last_sync = now

    # -- the monitor's unit client -----------------------------------------------

    def read_monitor(self) -> dict:
        """The unit's read-out, synced to the clock."""
        self.sync_unit()
        return self.unit.read_monitor(self.clock.now())

    def start_session(self):
        """Start a session on the lit circuit, once the unit is synced."""
        self.sync_unit()
        _, channel, _ = self.current_circuit()
        if channel is None:
            raise RuntimeError("start_session with no established circuit")
        self.unit.start_session(channel)

    # -- scheduled handlers -----------------------------------------------------

    def _format_powers(self) -> str:
        return ",".join(
            f"{self.attack_powers[link.link_id]:.2f}" for link in self.topology.links
        )

    def _apply_attack(self, event: ScenarioEvent):
        self.sync_unit()
        self._set_attack(event)

    def _set_attack(self, event: ScenarioEvent):
        """The attack change itself, once the unit is synced to its time."""
        self.attack_powers[event.link_id] = event.attack_power_dbm
        self._powers_csv = self._format_powers()
        self._attacks_applied += 1

    def _sample_metrics(self, k: int):
        """Write the metrics row at k * period and schedule the next one."""
        reading = self.read_monitor()
        t = k * self.qpm.config.poll_period_s
        path_id, _, _ = self.current_circuit()
        self._add_rows(_row_template(path_id or "none", self._powers_csv, self.qpm.mode),
                       [t], [reading["skr_bps"]], [reading["qber"]])
        self._schedule_metrics(k + 1)

    def _add_rows(self, template: str, t: list, skr_bps: list, qber: list):
        """Rows that template renders from t, skr_bps and qber, after the others."""
        runs = self._metrics_runs
        if runs and runs[-1][0] == template:
            runs[-1][1] += len(t)
        else:
            runs.append([template, len(t)])
        for column, values in zip(self._metrics_columns, (t, skr_bps, qber)):
            column.extend(values)

    def metrics_text(self) -> str:
        """The metrics.csv rows, each line ended, with one % per run of rows
        that share a template."""
        t, skr_bps, qber = self._metrics_columns
        values = [0.0] * (3 * len(t))
        values[0::3], values[1::3], values[2::3] = t, skr_bps, qber
        parts, start = [], 0
        for template, n in self._metrics_runs:
            parts.append(((template + "\n") * n) % tuple(values[start:start + 3 * n]))
            start += 3 * n
        return "".join(parts)

    def metrics(self) -> report.Metrics:
        """The metrics columns as metrics_text reads back, with no text made or parsed."""
        t, skr_bps, qber = self._metrics_columns
        return report.Metrics(t=report.as_written(t, _T_DIGITS),
                              skr_bps=report.as_written(skr_bps, _VALUE_DIGITS),
                              qber=report.as_written(qber, _VALUE_DIGITS))

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
        """If the monitor could not act on the unit's read-out, run the attack
        changes, polls and samples ahead in one batch, up to the end of the
        tick that changes the unit's state or gives a read-out the monitor
        could act on (see the module docstring). Their times are sorted
        once: a tick ends at each distinct one, and each other question is
        a searchsorted on them. The polls it takes over leave only the next
        poll behind (Qpm.skip_polls), so only the samples need read-outs."""
        qpm, unit = self.qpm, self.unit
        path_id, link = self._circuit
        if link is None:
            return
        current = unit.read_monitor(0.0)
        if qpm.could_act(current["qber"], current["last_key_size_bits"], current["state"]):
            return
        period = qpm.config.poll_period_s
        poll_period = qpm.poll_period()
        now, duration, last = self.clock.now(), self.scenario.duration_s, self._last_sync
        applied = self._attacks_applied
        attack_t = self._attack_t[applied:]
        if (now > qpm.next_poll_t or (len(attack_t) and now > attack_t[0])
                or (self._next_metrics is not None and now > self._next_metrics[0] * period)):
            return  # an event runs late: leave it to the event loop
        end = min(duration, qpm.next_poll_t + _BATCH_PERIODS * min(period, poll_period),
                  last + unit.init_left())  # a batch stops at the init's end: list no further

        # Polls: the monitor's chain of t + poll_period, which add.accumulate
        # adds in the same sequence. A chain that falls short ends the batch.
        polls = np.full(max(int((end - qpm.next_poll_t) / poll_period) + 2, 1), poll_period)
        polls[0] = qpm.next_poll_t
        np.add.accumulate(polls, out=polls)
        end = min(end, float(polls[-1]))
        polls = polls[:polls.searchsorted(end, "right")]
        # Samples k * period; rows run up to k = duration // period.
        samples = _NO_EVENTS
        if self._next_metrics is not None:
            samples = np.arange(self._next_metrics[0],
                                int(min(duration // period, end // period + 1)) + 1) * period
            samples = samples[:samples.searchsorted(end, "right")]
        attack_t = attack_t[:attack_t.searchsorted(end, "right")]
        times = np.concatenate((polls, samples, attack_t))
        if not len(times):
            return

        # A tick ends at each distinct event time after the last tick's end.
        times.sort()
        gaps = np.diff(times, prepend=last)
        ticked = gaps > 0
        tick_end, dts = times[ticked], gaps[ticked]

        # One call over the ticks, in stretches of constant attack power on
        # the lit link: an attack change applies after the tick that ends at
        # its time. The events at the end of the last tick the call takes run
        # on the event loop, and their sync_unit finds nothing to tick; so do
        # the later ones, where the call stops or ends its walk early.
        _, channel, power = self.current_circuit()
        attacks = self._attacks[applied:applied + len(attack_t)]
        stretches, start = [], 0
        for bound, (event, _) in zip(tick_end.searchsorted(attack_t, "right").tolist(),
                                     attacks):
            if event.link_id == link.link_id:
                if bound > start:
                    stretches.append((bound, power))
                    start = bound
                power = event.attack_power_dbm
        stretches.append((len(dts), power))
        taken, stopped, block_ticks, q, s, _ = unit.tick_while(dts, channel, stretches,
                                                               qpm.could_act)
        # The event loop moves the clock to each event's time as it runs it.
        if taken:
            self._last_sync = float(tick_end[taken - 1])
        stop_t = self._last_sync if stopped or taken < len(dts) else math.inf
        polls_kept = int(polls.searchsorted(stop_t))
        if polls_kept:
            qpm.skip_polls(float(polls[polls_kept - 1]))

        # A sample reads the blocks of the ticks up to the one ending at its
        # time, after the current read-out.
        sample_t = samples[:samples.searchsorted(stop_t)]
        done = tick_end[block_ticks].searchsorted(sample_t, "right")
        qs, ss = (np.concatenate(((current[key],), values))[done].tolist()
                  for key, values in (("qber", q), ("skr_bps", s)))

        # Rows from one template per stretch; at one time an attack change
        # applies before the sample's row.
        splits = sample_t.searchsorted(attack_t[:attack_t.searchsorted(stop_t)]).tolist()
        sample_t, start = sample_t.tolist(), 0
        for index, stop in enumerate(splits + [len(sample_t)]):
            if stop > start:
                self._add_rows(_row_template(path_id, self._powers_csv, qpm.mode),
                               sample_t[start:stop], ss[start:stop], qs[start:stop])
                start = stop
            if index < len(splits):
                event, entry = attacks[index]
                self.scheduler.cancel(entry)
                self._set_attack(event)
        if sample_t:
            self.scheduler.cancel(self._next_metrics[1])
            self._schedule_metrics(self._next_metrics[0] + len(sample_t))

    # -- execution ---------------------------------------------------------------

    def execute(self):
        # In time order, and in file order at one time, as the event loop runs them.
        for event in sorted(self.scenario.events, key=lambda event: event.t):
            self._attacks.append((event, self.scheduler.at(
                event.t, lambda ev=event: self._apply_attack(ev), priority=PRIORITY_ATTACK)))
        self._attack_t = np.array([event.t for event, _ in self._attacks], dtype=float)
        self.scheduler.at(0.0, lambda: self.qpm.startup(0.0), priority=PRIORITY_QPM)
        self._schedule_metrics(0)
        self.scheduler.run_until(self.scenario.duration_s, after=self._advance_quiet)


def extract_episodes(events) -> tuple[Optional[float], list[dict]]:
    """Split the monitor event stream into first-init and mitigation episodes.

    Returns (first_init_s, episodes); first_init_s is the startup
    provisioning-to-keys duration, episodes are dicts with t_detected /
    t_reconfig_done / t_reinit_done for every completed mitigation, the
    failed path and the path it moved to.
    """
    first_reconfig_done = None
    first_init_s = None
    episodes: list[dict] = []
    current: Optional[dict] = None
    for event in events:
        if event.kind == DETECTED:
            current = {"t_detected": event.t, "failed_path": event.path, "path": None}
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


def timing_rows(episodes: list[dict], scenario: Scenario, topology: Topology) -> list[str]:
    """timing.csv rows: per-episode breakdown anchored at attack onset, the
    latest attack switched on at or before detection on the failed path's
    link, or at detection when there is none."""
    rows = []
    for index, ep in enumerate(episodes, start=1):
        link_id = topology.path(ep["failed_path"]).link_id
        candidates = [ev.t for ev in scenario.events
                      if ev.link_id == link_id and ev.attack_power_dbm != ATTACK_OFF
                      and ev.t <= ep["t_detected"]]
        onset = max(candidates) if candidates else ep["t_detected"]
        detect_s = ep["t_detected"] - onset
        controller_s = ep["t_reconfig_done"] - ep["t_detected"]
        reinit_s = ep["t_reinit_done"] - ep["t_reconfig_done"]
        total_s = ep["t_reinit_done"] - onset
        rows.append(
            f"{index},{detect_s:.6f},{controller_s:.6f},{reinit_s:.6f},{total_s:.6f}"
        )
    return rows


@contextmanager
def _opened(paths):
    """Open each of paths for writing without truncating it; close all on exit.

    Mode 0o666 less the umask, as open(path, "w") gives a new file. A
    target that cannot be opened raises before any file's content changes.
    """
    fds = []
    try:
        for path in paths:
            fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
        yield fds
    finally:
        for fd in fds:
            os.close(fd)


def _overwrite(fd: int, text: str) -> None:
    """Make text, in UTF-8, the whole content of the file fd opened.

    The bytes go over the old ones in place and a longer old file is cut
    to the new length; truncating to zero first costs several times more
    on some file systems. Only a regular file is cut, never a device or
    a FIFO.
    """
    data = memoryview(text.encode("utf-8"))
    size = len(data)
    while data:
        data = data[os.write(fd, data):]
    st = os.fstat(fd)
    if stat.S_ISREG(st.st_mode) and st.st_size > size:
        os.ftruncate(fd, size)


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one file, existing or not."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # either is missing
        return os.path.realpath(a) == os.path.realpath(b)


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _ndjson(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


# The files every run writes into out_dir, after the monitor log.
_RUN_FILES = ("metrics.csv", "controller_log.ndjson", "timing.csv", "run_info.json",
              "summary.txt")


def run_scenario(topology_file: str, scenario_file: str, seed: int, out_dir: str,
                 deterministic: bool = False, allow_exhaustion: bool = False,
                 qpm_log_path: Optional[str] = None,
                 qpm_config: Optional[QpmConfig] = None) -> int:
    """Run one scenario end to end and write all artifacts into out_dir.

    Every target is opened before the run starts, so one that cannot be
    written fails fast and leaves the files of an earlier run as they were.
    A monitor log that is one of the other targets is refused the same way.
    """
    topology = load_topology(topology_file)
    scenario = load_scenario(scenario_file)
    run = ScenarioRun(topology, scenario, seed, qpm_config=qpm_config)

    qpm_log = qpm_log_path or os.path.join(out_dir, "qpm_log.ndjson")
    targets = [os.path.join(out_dir, name) for name in _RUN_FILES]
    for target in targets:
        if _same_file(qpm_log, target):
            raise ScenarioError(f"monitor log {qpm_log} is the run's {os.path.basename(target)}")
    os.makedirs(out_dir, exist_ok=True)
    with _opened([qpm_log, *targets]) as fds:
        log_fd, metrics_fd, controller_fd, timing_fd, info_fd, summary_fd = fds
        run.execute()

        metrics_header = "t,active_path,skr_bps,qber," + ",".join(
            f"attack_{link.link_id}_dbm" for link in topology.links) + ",qpm_state"
        _overwrite(metrics_fd, metrics_header + "\n" + run.metrics_text())
        events = [event.to_dict() for event in run.qpm.events]
        _overwrite(log_fd, _lines(map(_ndjson, events)))
        _overwrite(controller_fd, _lines(map(_ndjson, run.controller_records)))

        first_init_s, episodes = extract_episodes(run.qpm.events)
        timing_header = "episode,detect_s,controller_s,reinit_s,total_s"
        timing = timing_rows(episodes, scenario, topology)
        _overwrite(timing_fd, _lines([timing_header, *timing]))

        exhausted = any(ev.kind == EXHAUSTED for ev in run.qpm.events)
        # Reference the log by name when it lives in out_dir, so the recorded
        # metadata does not depend on where the run directory sits, and by
        # absolute path otherwise, so summarize finds it from any directory.
        qpm_log_ref = os.path.abspath(qpm_log)
        if os.path.dirname(qpm_log_ref) == os.path.abspath(out_dir):
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
        _overwrite(info_fd, _lines([json.dumps(info, indent=2)]))

        # The summary reads what summarize would read back from the files: the
        # metrics as their text reads back, without the text, and the few
        # timing rows through their parser.
        summary, _ = report.render_summary(
            info, run.metrics(), report.parse_timing(timing_header, timing, "timing.csv"),
            events)
        _overwrite(summary_fd, summary)

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
    # The grid is start + k * step up to end (+ 1e-9), counted before it is built.
    spans = (end_dbm - start_dbm + 1e-9) / step_db
    if not spans < _ROWS_MAX:
        raise ScenarioError(f"step_db {step_db!r} makes more than {_ROWS_MAX} "
                            "sweep points")
    rows = ["power_dbm,skr_bps,qber"]
    for k in range(math.floor(spans) + 2):
        power = start_dbm + k * step_db
        if power > end_dbm + 1e-9:
            break
        rows.append(f"{power:.2f},{skr(link.channel, power):.6f},"
                    f"{qber(link.channel, power):.6f}")
    os.makedirs(out_dir, exist_ok=True)
    with _opened([os.path.join(out_dir, "sweep.csv")]) as (fd,):
        _overwrite(fd, _lines(rows))
    return EXIT_OK

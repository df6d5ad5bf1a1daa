"""Quantum Parameters Monitor: poll, detect failure, switch path, re-init.

The monitor polls the QKD units on a fixed cadence and declares the
active path failed when the error rate crosses its threshold or the
units stop producing keys for a debounced number of polls. It then
marks the path failed for the rest of the run, asks the controller to
tear it down and set up the first still-available path in list order,
restarts the key session, and waits (on a fast poll cadence) until the
units re-initialize. When no path remains it raises the alarm and keeps
polling without acting.

Detection is suppressed for a grace window after every path change so a
fresh session's empty readings are not mistaken for an attack.

Qpm.could_act is the one rule for which readings a poll can act on in
each mode. A poll on any other reading only ends a run of zero-key
polls, so a runner may take such polls over in a batch (Qpm.skip_polls).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .topology import is_number

AVAILABLE = "AVAILABLE"
FAILED = "FAILED"

MONITORING = "MONITORING"
AWAITING_REINIT = "AWAITING_REINIT"
ALARM = "ALARM"

DETECTED = "DETECTED"
RECONFIG_SENT = "RECONFIG_SENT"
RECONFIG_DONE = "RECONFIG_DONE"
REINIT_DONE = "REINIT_DONE"
EXHAUSTED = "EXHAUSTED"

_GENERATING_OR_ABORTED = ("Generating", "Aborted")


@dataclass(frozen=True)
class QpmConfig:
    poll_period_s: float = 60.0
    qber_threshold: float = 0.08
    zero_key_debounce: int = 2
    init_grace_s: float = 240.0
    # Fast cadence while waiting for re-initialization, so the measured
    # re-init duration is not quantized by the monitoring period.
    reinit_poll_period_s: float = 1.0

    def __post_init__(self):
        for name in ("poll_period_s", "qber_threshold", "init_grace_s",
                     "reinit_poll_period_s"):
            if not is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.poll_period_s <= 0 or self.reinit_poll_period_s <= 0:
            raise ValueError("poll periods must be positive")
        if not 0.0 < self.qber_threshold < 0.5:
            raise ValueError("qber_threshold must be in (0, 0.5)")
        if not is_number(self.zero_key_debounce, int) or self.zero_key_debounce < 1:
            raise ValueError("zero_key_debounce must be an int >= 1")
        if self.init_grace_s < 0:
            raise ValueError("init_grace_s must be >= 0")


@dataclass(frozen=True)
class MitigationEvent:
    t: float
    kind: str
    path: str
    detail: str
    xids: Optional[list[int]] = None

    def to_dict(self) -> dict:
        record = {"t": round(self.t, 6), "kind": self.kind, "path": self.path}
        if self.xids is not None:
            record["xids"] = list(self.xids)
        record["detail"] = self.detail
        return record


def detect_failure(reading: Mapping, zero_key_polls: int, config: QpmConfig,
                   since_path_change: float) -> bool:
    """Past the grace window: qber above the threshold, or zero_key_polls
    (polls in a row, the current one last, that read no key bits from
    Generating or Aborted units) at the debounce or above."""
    if since_path_change <= config.init_grace_s:
        return False
    return (reading["qber"] > config.qber_threshold
            or zero_key_polls >= config.zero_key_debounce)


def select_next_path(statuses: Mapping[str, str]) -> Optional[str]:
    """First path in list order whose state is AVAILABLE."""
    for path_id, state in statuses.items():
        if state == AVAILABLE:
            return path_id
    return None


class Qpm:
    """The mitigation loop, driven by scheduler callbacks."""

    PRIORITY = 2

    def __init__(self, config: QpmConfig, topology, controller_client, qkd_client,
                 clock, scheduler):
        self.config = config
        self.topology = topology
        self.controller_client = controller_client
        self.qkd_client = qkd_client
        self.clock = clock
        self.scheduler = scheduler
        # AVAILABLE or FAILED; active_path is the one record of the lit path.
        self.statuses: dict[str, str] = {p: AVAILABLE for p in topology.path_ids()}
        self.mode = MONITORING
        self.active_path: Optional[str] = None
        self.events: list[MitigationEvent] = []
        # Polls in a row since the last path change that could act and read
        # no key bits from Generating or Aborted units.
        self.zero_key_polls = 0
        self._t_path_change: Optional[float] = None
        self._request_seq = 0
        # The one pending poll: its time and scheduler entry.
        self.next_poll_t: Optional[float] = None
        self._next_poll: Optional[list] = None

    # -- loop entry points ---------------------------------------------------

    def startup(self, sched_t: float):
        """Establish the first available path and start the poll chain."""
        self._failover(tear_down=None, detail="initial provisioning", failed_path=None)
        self._schedule_next(sched_t)

    def poll(self, sched_t: float):
        reading = self.qkd_client.read_monitor()
        acts = self.could_act(reading["qber"], reading["last_key_size_bits"], reading["state"])
        zero_key = (acts and reading["last_key_size_bits"] == 0
                    and reading["state"] in _GENERATING_OR_ABORTED)
        self.zero_key_polls = self.zero_key_polls + 1 if zero_key else 0
        if acts:
            if self.mode == AWAITING_REINIT:
                self._emit(REINIT_DONE, path=self.active_path or "",
                           detail=f"state={reading['state']}")
                self.mode = MONITORING
            elif self.active_path is not None and detect_failure(
                    reading, self.zero_key_polls, self.config,
                    self.clock.now() - self._t_path_change):
                self._on_detect(reading)
        self._schedule_next(sched_t)

    def could_act(self, qber, key_bits, state):
        """Whether a poll reading qber, key_bits and state could make the
        monitor act in its current mode; elementwise over numpy arrays.

        MONITORING: qber above the threshold or no key bits (detect_failure
        fires on no other reading, whatever the zero-key count, grace or
        debounce). AWAITING_REINIT: the units are Generating or Aborted.
        ALARM: never.
        """
        if self.mode == MONITORING:
            return (qber > self.config.qber_threshold) | (key_bits == 0)
        return self.mode == AWAITING_REINIT and state in _GENERATING_OR_ABORTED

    def poll_period(self) -> float:
        """Time from one poll to the next in the current mode."""
        if self.mode == AWAITING_REINIT:
            return self.config.reinit_poll_period_s
        return self.config.poll_period_s

    def skip_polls(self, last_t: float):
        """Take over the polls up to the one at last_t, the pending one first,
        none of whose readings could_act accepts. Such a reading ends any run
        of zero-key polls, so the monitor stands as if it had polled: a zero
        count and the next poll after last_t."""
        self.zero_key_polls = 0
        self.scheduler.cancel(self._next_poll)
        self._schedule_next(last_t)

    # -- internals -------------------------------------------------------------

    def _on_detect(self, reading: Mapping):
        failed = self.active_path
        self.statuses[failed] = FAILED
        self.active_path = None
        self._emit(
            DETECTED, path=failed,
            detail=(f"qber={reading['qber']:.6f} "
                    f"last_key_size_bits={reading['last_key_size_bits']} "
                    f"state={reading['state']}"),
        )
        self._failover(tear_down=failed,
                       detail=f"fail over from {failed}", failed_path=failed)

    def _failover(self, tear_down: Optional[str], detail: str,
                  failed_path: Optional[str]) -> bool:
        """Try candidates in list order until one path provisions."""
        while True:
            target = select_next_path(self.statuses)
            if target is None:
                self._emit(EXHAUSTED, path=failed_path or "",
                           detail="no available paths")
                self.mode = ALARM
                return False
            self._emit(RECONFIG_SENT, path=target, detail=detail)
            self._request_seq += 1
            status, body = self.controller_client.post_reconfigure({
                "request_id": f"qpm-{self._request_seq:04d}",
                "tear_down": tear_down,
                "set_up": target,
            })
            if status == 200 and body.get("outcome") == "SUCCESS":
                self.active_path = target
                xids = [tx["xid"] for tx in body["transactions"]]
                self._emit(RECONFIG_DONE, path=target, detail=detail, xids=xids)
                self._t_path_change = self.clock.now()
                self.zero_key_polls = 0
                self.qkd_client.start_session()
                self.mode = AWAITING_REINIT
                return True
            self.statuses[target] = FAILED

    def _schedule_next(self, sched_t: float):
        next_t = sched_t + self.poll_period()
        self.next_poll_t = next_t
        self._next_poll = self.scheduler.at(next_t, lambda: self.poll(next_t),
                                            priority=self.PRIORITY)

    def _emit(self, kind: str, path: str, detail: str, xids=None):
        event = MitigationEvent(t=self.clock.now(), kind=kind, path=path,
                                detail=detail, xids=xids)
        self.events.append(event)

"""SDN controller: northbound reconfiguration API over southbound flow-mods.

A reconfiguration names an optional path to tear down and a path to set
up. The controller translates both into per-switch flow-mods under one
global ascending transaction-id sequence, stages everything, then
commits with one barrier per affected switch, leaving the switch nearest
the Alice QKD unit for last. Staging before any commit plus the
Alice-last order is what keeps the fabric from ever exposing two
complete paths (or a half-built one) to an observer. Every southbound
message goes through one of two steps: the flow-mod step `_flow_mod`
stages and records one mod, the barrier step `_barrier` commits one switch.

A failed request, at staging or at a barrier, is rolled back by one
rule: every mod a switch acked is reversed, newest first, whether its
switch has committed it or only staged it, and each switch that takes a
reversal gets one barrier. So the request leaves neither changed tables
nor staged residue on the switches it can reach, and active_path still
names the old path. A switch that cannot be reached keeps what it
staged until the next request's first flow-mod to it, which is marked
fresh: the switch drops its staged mods before it stages that one.

Each request is one record, a ReconfigReport: its to_dict() is both the
line the controller logs and the body the northbound replies with.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from .switch import (
    CMD_ADD,
    CMD_DELETE,
    OpticalSwitch,
    STATUS_STAGED,
)
from .topology import Topology

OUTCOME_SUCCESS = "SUCCESS"
OUTCOME_FAILED = "FAILED"

# Simulated time each direction of a control-plane message takes, in
# process or over a socket.
LATENCY_S = 0.002
# Reconfigurations that may wait behind the running one.
QUEUE_DEPTH = 16


class SwitchDisconnected(ConnectionError):
    """Southbound link to a switch is down."""


def timed_exchange(clock, exchange, *args):
    """exchange(*args) as one control-plane round trip in simulated time:
    the request and the reply each advance clock by LATENCY_S, which is
    how controller time becomes measurable (and small) in a run."""
    clock.advance(LATENCY_S)
    reply = exchange(*args)
    clock.advance(LATENCY_S)
    return reply


@dataclass
class ReconfigReport:
    """One request's record. Each transaction is the dict to_dict() holds:
    xid, switch, command, in_port, out_port, and a status of FAILED until
    the switch acks the mod, then ACKED."""
    request_id: str
    tear_down: Optional[str]
    set_up: str
    t_start: float
    t_end: float = 0.0
    error: Optional[str] = None
    barrier_xids: list[int] = field(default_factory=list)
    transactions: list[dict] = field(default_factory=list)

    @property
    def outcome(self) -> str:
        return OUTCOME_SUCCESS if self.error is None else OUTCOME_FAILED

    def to_dict(self) -> dict:
        return {
            "t_start": round(self.t_start, 6),
            "t_end": round(self.t_end, 6),
            "request_id": self.request_id,
            "tear_down": self.tear_down,
            "set_up": self.set_up,
            "outcome": self.outcome,
            "error": self.error,
            "barrier_xids": self.barrier_xids,
            "transactions": self.transactions,
        }


class InProcessSwitchLink:
    """Southbound transport to one in-process switch; each message is a
    timed_exchange."""

    def __init__(self, switch: OpticalSwitch, clock):
        self.switch = switch
        self.clock = clock

    def send(self, msg: dict) -> dict:
        return timed_exchange(self.clock, self.switch.handle_message, msg)


class SdnController:
    """Serialized reconfiguration engine over a set of switch links."""

    def __init__(self, topology: Topology, switch_links: dict, clock,
                 log: Optional[Callable[[dict], None]] = None):
        self.topology = topology
        self.switch_links = switch_links
        self.clock = clock
        self.log = log
        self.active_path: Optional[str] = None
        self._xid = 0
        self._xid_lock = threading.Lock()
        self._serial = threading.Lock()

    def next_xid(self) -> int:
        with self._xid_lock:
            self._xid += 1
            return self._xid

    def handle_reconfigure(self, request_id: str, tear_down: Optional[str],
                           set_up: str) -> ReconfigReport:
        with self._serial:
            report = self._execute(request_id, tear_down, set_up)
        if self.log is not None:
            self.log(report.to_dict())
        return report

    # -- internals ---------------------------------------------------------

    def _execute(self, request_id: str, tear_down: Optional[str], set_up: str) -> ReconfigReport:
        report = ReconfigReport(request_id, tear_down, set_up, self.clock.now())
        plan: list[tuple[str, str, int, int]] = []
        if tear_down is not None:
            for cc in self.topology.path(tear_down).cross_connects:
                plan.append((cc.switch, CMD_DELETE, cc.in_port, cc.out_port))
        for cc in self.topology.path(set_up).cross_connects:
            plan.append((cc.switch, CMD_ADD, cc.in_port, cc.out_port))

        # Each switch's acked xids, in first-touched order.
        acked: dict[str, list[int]] = {}
        for mod in plan:
            # A switch's first mod of a request drops what it still stages.
            reply, report.error = self._flow_mod(report, *mod, fresh=mod[0] not in acked)
            if report.error is not None:
                break
            acked.setdefault(mod[0], []).append(reply["xid"])

        if report.error is None:
            alice_switch = self.topology.alice_port[0]
            if alice_switch in acked:
                acked[alice_switch] = acked.pop(alice_switch)
            for switch_id, xids in acked.items():
                committed_xids = self._barrier(report, switch_id)
                if committed_xids is None:
                    report.error = f"switch {switch_id} disconnected at barrier"
                    break
                if committed_xids != xids:
                    report.error = f"barrier on {switch_id} committed unexpected xids"
                    break

        if report.error is None:
            self.active_path = set_up
        else:
            self._compensate(report)
        report.t_end = self.clock.now()
        return report

    def _compensate(self, report: ReconfigReport):
        """Reverse every acked mod, newest first, and commit the reversals
        with one barrier per switch they reach."""
        undo = [t for t in report.transactions if t["status"] == "ACKED"]
        reached: list[str] = []
        for t in reversed(undo):
            reverse = CMD_DELETE if t["command"] == CMD_ADD else CMD_ADD
            reply, _ = self._flow_mod(report, t["switch"], reverse, t["in_port"], t["out_port"])
            if reply is not None and t["switch"] not in reached:
                reached.append(t["switch"])
        for switch_id in reached:
            self._barrier(report, switch_id)

    def _flow_mod(self, report: ReconfigReport, switch_id: str, command: str,
                  in_port: int, out_port: int,
                  fresh: bool = False) -> tuple[Optional[dict], Optional[str]]:
        """Stage one mod and record it as ACKED or FAILED.

        Returns the switch's reply, None if the switch is unreachable, and
        why the mod failed: None if it was staged.
        """
        xid = self.next_xid()
        record = {"xid": xid, "switch": switch_id, "command": command,
                  "in_port": in_port, "out_port": out_port, "status": "FAILED"}
        report.transactions.append(record)
        try:
            reply = self.switch_links[switch_id].send({
                "type": "FLOW_MOD", "xid": xid, "command": command,
                "in_port": in_port, "out_port": out_port, "fresh": fresh,
            })
        except SwitchDisconnected:
            return None, f"switch {switch_id} disconnected"
        if reply.get("xid") != xid or reply.get("status") != STATUS_STAGED:
            return reply, f"xid {xid} on {switch_id}: {reply.get('status')}"
        record["status"] = "ACKED"
        return reply, None

    def _barrier(self, report: ReconfigReport, switch_id: str) -> Optional[list[int]]:
        """Commit one switch: the xids it committed, or None if it is unreachable."""
        xid = self.next_xid()
        try:
            reply = self.switch_links[switch_id].send({"type": "BARRIER_REQUEST", "xid": xid})
        except SwitchDisconnected:
            return None
        report.barrier_xids.append(xid)
        return reply.get("committed_xids") or []


class Northbound:
    """Request-level API: validation, admission control, serialization.

    Shared by the in-process client and the HTTP server so the same
    status codes and body schemas apply on both transports. At most one
    reconfiguration runs at a time; up to QUEUE_DEPTH more may wait.
    """

    def __init__(self, controller: SdnController):
        self.controller = controller
        self._admission = threading.Lock()
        self._in_system = 0

    def post_reconfigure(self, body: dict) -> tuple[int, dict]:
        error = self._validate(body)
        if error is not None:
            return 400, {"error": error}
        with self._admission:
            if self._in_system > QUEUE_DEPTH:
                return 409, {"error": "reconfiguration queue full"}
            self._in_system += 1
        try:
            report = self.controller.handle_reconfigure(
                body["request_id"], body.get("tear_down"), body["set_up"])
        finally:
            with self._admission:
                self._in_system -= 1
        return 200, report.to_dict()

    def get_paths(self) -> tuple[int, dict]:
        listing = []
        for path in self.controller.topology.paths:
            status = "ACTIVE" if path.path_id == self.controller.active_path else "INACTIVE"
            listing.append({"id": path.path_id, "link": path.link_id, "status": status})
        return 200, {"paths": listing}

    def _validate(self, body: dict) -> Optional[str]:
        if not isinstance(body, dict):
            return "body must be an object"
        request_id = body.get("request_id")
        if not isinstance(request_id, str) or not request_id:
            return "request_id must be a non-empty string"
        # A list, not a set: a JSON array or object is unhashable.
        known = self.controller.topology.path_ids()
        set_up = body.get("set_up")
        if set_up not in known:
            return f"set_up references unknown path {set_up!r}"
        tear_down = body.get("tear_down")
        if tear_down is not None and tear_down not in known:
            return f"tear_down references unknown path {tear_down!r}"
        return None


class LocalControllerClient:
    """In-process northbound client; each request is a timed_exchange."""

    def __init__(self, northbound: Northbound, clock):
        self.northbound = northbound
        self.clock = clock

    def post_reconfigure(self, body: dict) -> tuple[int, dict]:
        return timed_exchange(self.clock, self.northbound.post_reconfigure, body)

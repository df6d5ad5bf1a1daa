"""Emulated optical circuit switch with stage/barrier semantics.

Flow-mod messages stage cross-connect changes without optical effect;
a barrier commits everything staged since the last barrier in one
atomic step. Each flow-mod is validated against, and applied to, one
staged table (the committed table plus every accepted mod), so conflicts
are rejected up front and a barrier can never fail. The barrier swaps
the staged table in as a single reference assignment, which is what
makes concurrent table queries see all-or-nothing batches, and then
announces the commit once through on_commit. A flow-mod marked fresh,
the first of a controller request, first drops every mod staged since
the last barrier, as an OpenFlow 1.4 bundle open would.
"""

from __future__ import annotations

from typing import Callable, Optional

STATUS_STAGED = "STAGED"
STATUS_PORT_IN_USE = "PORT_IN_USE"
STATUS_NO_SUCH_ENTRY = "NO_SUCH_ENTRY"
STATUS_NO_SUCH_PORT = "NO_SUCH_PORT"

CMD_ADD = "ADD"
CMD_DELETE = "DELETE"


class ProtocolError(ValueError):
    """Message violates the wire protocol (not an ackable flow-mod error)."""


class OpticalSwitch:
    """One switch: a committed cross-connect table plus staged mods.

    on_commit, when set, is invoked as on_commit(switch) once per barrier,
    after the staged table has been swapped in.
    """

    def __init__(self, switch_id: str, port_count: int):
        if port_count < 1:
            raise ValueError("port_count must be positive")
        self.switch_id = switch_id
        self.port_count = port_count
        self._table: dict[int, int] = {}
        self._staged: dict[int, int] = {}
        self._pending: list[int] = []  # xids staged since the last barrier
        self.on_commit: Optional[Callable[["OpticalSwitch"], None]] = None

    # -- protocol handlers ------------------------------------------------

    def handle_message(self, msg: dict) -> dict:
        mtype = msg.get("type")
        if mtype == "FLOW_MOD":
            return self.handle_flow_mod(msg["xid"], msg["command"], msg["in_port"],
                                        msg["out_port"], msg.get("fresh", False))
        if mtype == "BARRIER_REQUEST":
            return self.handle_barrier(msg["xid"])
        raise ProtocolError(f"switch {self.switch_id}: unknown message type {mtype!r}")

    def handle_flow_mod(self, xid: int, command: str, in_port: int, out_port: int,
                        fresh: bool = False) -> dict:
        """Stage one change; the committed table is untouched until a barrier.
        A fresh mod first drops every mod staged since the last barrier."""
        if command not in (CMD_ADD, CMD_DELETE):
            raise ProtocolError(f"unknown flow-mod command {command!r}")
        if fresh and self._pending:
            self._staged = dict(self._table)
            self._pending = []
        status = self._stage_status(command, in_port, out_port)
        if status == STATUS_STAGED:
            self._pending.append(xid)
            if command == CMD_ADD:
                self._staged[in_port] = out_port
            else:
                del self._staged[in_port]
        return {"type": "FLOW_MOD_ACK", "xid": xid, "status": status}

    def handle_barrier(self, xid: int) -> dict:
        """Commit all staged mods atomically, then announce the commit."""
        self._check_exclusive(self._staged)
        committed_xids = self._pending
        self._pending = []
        self._table = self._staged  # the atomic step: one reference swap
        self._staged = dict(self._table)
        if self.on_commit is not None:
            self.on_commit(self)
        return {"type": "BARRIER_REPLY", "xid": xid, "committed_xids": committed_xids}

    def query_entries(self) -> set[tuple[int, int]]:
        """The committed (in_port, out_port) entries; staged mods are invisible."""
        return set(self._table.items())

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- internals ---------------------------------------------------------

    def _stage_status(self, command: str, in_port: int, out_port: int) -> str:
        for port in (in_port, out_port):
            # Refuses bools and floats, as topology.is_number(port, int) does.
            if type(port) is not int or not 0 <= port < self.port_count:
                return STATUS_NO_SUCH_PORT
        if command == CMD_ADD:
            if in_port == out_port:
                return STATUS_PORT_IN_USE
            used = set(self._staged) | set(self._staged.values())
            if in_port in used or out_port in used:
                return STATUS_PORT_IN_USE
        else:
            if self._staged.get(in_port) != out_port:
                return STATUS_NO_SUCH_ENTRY
        return STATUS_STAGED

    def _check_exclusive(self, table: dict[int, int]):
        ports = list(table.keys()) + list(table.values())
        if len(ports) != len(set(ports)):
            raise RuntimeError(
                f"switch {self.switch_id}: committed table reuses a port: {table}"
            )


"""Optical switch agent: staging, barrier commit, exclusivity."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdsim.switch import (
    CMD_ADD,
    CMD_DELETE,
    STATUS_NO_SUCH_ENTRY,
    STATUS_NO_SUCH_PORT,
    STATUS_PORT_IN_USE,
    STATUS_STAGED,
    OpticalSwitch,
    ProtocolError,
)


@pytest.fixture()
def sw() -> OpticalSwitch:
    return OpticalSwitch("sw", 8)


class TestStaging:
    def test_staged_mod_has_no_optical_effect(self, sw):
        ack = sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        assert ack == {"type": "FLOW_MOD_ACK", "xid": 1, "status": STATUS_STAGED}
        assert dict(sw.query_entries()) == {}
        assert sw.pending_count == 1

    def test_barrier_makes_all_staged_mods_visible(self, sw):
        sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        sw.handle_flow_mod(2, CMD_ADD, 2, 3)
        reply = sw.handle_barrier(3)
        assert reply == {"type": "BARRIER_REPLY", "xid": 3, "committed_xids": [1, 2]}
        assert dict(sw.query_entries()) == {0: 1, 2: 3}
        assert sw.pending_count == 0

    def test_empty_barrier(self, sw):
        assert sw.handle_barrier(9) == {
            "type": "BARRIER_REPLY", "xid": 9, "committed_xids": [],
        }

    def test_add_conflicts_with_committed_entry(self, sw):
        sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        sw.handle_barrier(2)
        for in_port, out_port in [(0, 2), (2, 0), (1, 2), (2, 1), (0, 1)]:
            ack = sw.handle_flow_mod(3, CMD_ADD, in_port, out_port)
            assert ack["status"] == STATUS_PORT_IN_USE
        assert sw.pending_count == 0

    def test_add_conflicts_with_pending_entry(self, sw):
        sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        ack = sw.handle_flow_mod(2, CMD_ADD, 1, 2)
        assert ack["status"] == STATUS_PORT_IN_USE

    def test_add_to_itself_is_rejected(self, sw):
        assert sw.handle_flow_mod(1, CMD_ADD, 3, 3)["status"] == STATUS_PORT_IN_USE

    def test_delete_requires_exact_entry(self, sw):
        sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        sw.handle_barrier(2)
        assert sw.handle_flow_mod(3, CMD_DELETE, 0, 2)["status"] == STATUS_NO_SUCH_ENTRY
        assert sw.handle_flow_mod(4, CMD_DELETE, 1, 0)["status"] == STATUS_NO_SUCH_ENTRY
        assert sw.handle_flow_mod(5, CMD_DELETE, 0, 1)["status"] == STATUS_STAGED

    def test_delete_then_add_same_port_in_one_batch(self, sw):
        # The projection lets a batch retarget a port it is freeing.
        sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        sw.handle_barrier(2)
        assert sw.handle_flow_mod(3, CMD_DELETE, 0, 1)["status"] == STATUS_STAGED
        assert sw.handle_flow_mod(4, CMD_ADD, 0, 2)["status"] == STATUS_STAGED
        sw.handle_barrier(5)
        assert dict(sw.query_entries()) == {0: 2}

    def test_delete_of_pending_add_in_same_batch(self, sw):
        sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        assert sw.handle_flow_mod(2, CMD_DELETE, 0, 1)["status"] == STATUS_STAGED
        sw.handle_barrier(3)
        assert dict(sw.query_entries()) == {}

    # A bool is not a port number, though True == 1 (JSON true on the wire).
    @pytest.mark.parametrize("in_port,out_port", [(-1, 2), (2, -1), (8, 2), (2, 8),
                                                  (True, 2), (2, True), (False, 2), (2, False),
                                                  (1.0, 2), (2, 1.0)])
    def test_out_of_range_ports(self, sw, in_port, out_port):
        ack = sw.handle_flow_mod(1, CMD_ADD, in_port, out_port)
        assert ack["status"] == STATUS_NO_SUCH_PORT
        assert sw.pending_count == 0

    def test_rejected_mods_are_not_staged(self, sw):
        sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        sw.handle_flow_mod(2, CMD_ADD, 1, 3)  # PORT_IN_USE
        sw.handle_barrier(3)
        assert dict(sw.query_entries()) == {0: 1}

    def test_every_mod_gets_exactly_one_ack_with_its_xid(self, sw):
        for xid, (cmd, i, o) in enumerate(
            [(CMD_ADD, 0, 1), (CMD_ADD, 0, 2), (CMD_DELETE, 5, 6), (CMD_ADD, 9, 1)]
        ):
            ack = sw.handle_flow_mod(xid, cmd, i, o)
            assert ack["type"] == "FLOW_MOD_ACK"
            assert ack["xid"] == xid

    def test_a_fresh_mod_drops_what_was_staged_since_the_barrier(self, sw):
        sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        sw.handle_barrier(2)
        sw.handle_flow_mod(3, CMD_DELETE, 0, 1)
        sw.handle_flow_mod(4, CMD_ADD, 0, 2)
        ack = sw.handle_message({"type": "FLOW_MOD", "xid": 5, "command": CMD_ADD,
                                 "in_port": 4, "out_port": 5, "fresh": True})
        assert ack["status"] == STATUS_STAGED
        assert sw.pending_count == 1
        assert sw.handle_barrier(6)["committed_xids"] == [5]
        assert dict(sw.query_entries()) == {0: 1, 4: 5}


class TestBarrierAtomicity:
    def test_commit_is_invisible_until_the_swap(self, sw):
        """Staged mods stay invisible; on_commit fires once per barrier, after the swap."""
        observed = []
        sw.on_commit = lambda s: observed.append((dict(s.query_entries()), s.pending_count))
        sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        sw.handle_barrier(2)
        sw.handle_flow_mod(3, CMD_DELETE, 0, 1)
        sw.handle_flow_mod(4, CMD_ADD, 0, 2)
        assert dict(sw.query_entries()) == {0: 1}
        assert observed == [({0: 1}, 0)]
        sw.handle_barrier(5)
        sw.handle_barrier(6)  # empty
        assert observed == [({0: 1}, 0), ({0: 2}, 0), ({0: 2}, 0)]

    def test_mods_commit_in_staged_order(self, sw):
        sw.handle_flow_mod(1, CMD_ADD, 0, 1)
        sw.handle_flow_mod(2, CMD_DELETE, 0, 1)
        sw.handle_flow_mod(3, CMD_ADD, 0, 3)
        sw.handle_barrier(4)
        assert dict(sw.query_entries()) == {0: 3}


class TestProtocolErrors:
    def test_unknown_message_type(self, sw):
        with pytest.raises(ProtocolError):
            sw.handle_message({"type": "PACKET_OUT", "xid": 1})

    def test_unknown_command(self, sw):
        with pytest.raises(ProtocolError):
            sw.handle_flow_mod(1, "MODIFY", 0, 1)

    def test_rejects_zero_ports(self):
        with pytest.raises(ValueError):
            OpticalSwitch("sw", 0)


commands = st.one_of(
    st.tuples(st.sampled_from(["MOD", "FRESH"]), st.sampled_from([CMD_ADD, CMD_DELETE]),
              st.integers(-1, 6), st.integers(-1, 6)),
    st.tuples(st.just("BARRIER"), st.none(), st.none(), st.none()),
)


class ReplayModel:
    """Reference staging: replay the pending mods over a copy of the table."""

    def __init__(self, port_count: int):
        self.port_count, self.table, self.pending = port_count, {}, []

    def projected(self) -> dict[int, int]:
        table = dict(self.table)
        for _, cmd, i, o in self.pending:
            if cmd == CMD_ADD:
                table[i] = o
            else:
                del table[i]
        return table

    def flow_mod(self, xid, cmd, i, o, fresh=False) -> str:
        if fresh:
            self.pending = []
        table = self.projected()
        if not all(0 <= p < self.port_count for p in (i, o)):
            status = STATUS_NO_SUCH_PORT
        elif cmd == CMD_ADD:
            used = set(table) | set(table.values())
            status = STATUS_PORT_IN_USE if i == o or i in used or o in used else STATUS_STAGED
        else:
            status = STATUS_STAGED if table.get(i) == o else STATUS_NO_SUCH_ENTRY
        if status == STATUS_STAGED:
            self.pending.append((xid, cmd, i, o))
        return status

    def barrier(self) -> list[int]:
        committed = [mod[0] for mod in self.pending]
        self.table, self.pending = self.projected(), []
        return committed


class TestExclusivityProperty:
    @given(st.lists(commands, max_size=60))
    def test_committed_table_never_reuses_a_port(self, ops):
        """Whatever a client sends, accepted batches keep ports exclusive,
        and every ack and commit matches the replay reference model."""
        sw = OpticalSwitch("fuzz", 6)
        model = ReplayModel(6)
        xid = 0
        for kind, cmd, in_port, out_port in ops:
            xid += 1
            if kind == "BARRIER":
                reply = sw.handle_barrier(xid)  # raises RuntimeError if staging let a conflict through
                assert reply["committed_xids"] == model.barrier()
                assert dict(sw.query_entries()) == model.table
            else:
                fresh = kind == "FRESH"
                ack = sw.handle_flow_mod(xid, cmd, in_port, out_port, fresh)
                assert ack["xid"] == xid
                assert ack["status"] == model.flow_mod(xid, cmd, in_port, out_port, fresh)
        assert sw.handle_barrier(xid + 1)["committed_xids"] == model.barrier()
        assert dict(sw.query_entries()) == model.table
        entries = sw.query_entries()
        ports = [port for entry in entries for port in entry]
        assert len(ports) == len(set(ports))
        for in_port, out_port in entries:
            assert 0 <= in_port < 6 and 0 <= out_port < 6 and in_port != out_port


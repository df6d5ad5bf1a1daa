"""Controller behaviour: planning, commit order, compensation, admission."""

from __future__ import annotations

import threading

import pytest

from conftest import LinkFaults
from qkdsim.clock import SimClock
from qkdsim.controller import (
    InProcessSwitchLink,
    LocalControllerClient,
    Northbound,
    OUTCOME_FAILED,
    OUTCOME_SUCCESS,
    QUEUE_DEPTH,
    SdnController,
)
from qkdsim.switch import OpticalSwitch
from qkdsim.topology import resolve_active_path


def build_fabric(topology) -> dict:
    """In-process switches and controller; "faults" injects southbound
    faults, and "journal" records every message the controller sends,
    lost ones included."""
    clock = SimClock()
    journal: list = []
    switches = {sw: OpticalSwitch(sw, ports) for sw, ports in topology.switches.items()}
    links = {sw: InProcessSwitchLink(switches[sw], clock) for sw in switches}
    faults = LinkFaults(links)
    for sw, link in links.items():
        def send(msg, sw=sw, forward=link.send):
            journal.append((sw, msg))
            return forward(msg)
        link.send = send
    records: list = []
    controller = SdnController(topology, links, clock, log=records.append)
    return {
        "topology": topology,
        "clock": clock,
        "switches": switches,
        "links": links,
        "faults": faults,
        "controller": controller,
        "journal": journal,
        "records": records,
    }


@pytest.fixture()
def fabric(reference_topology):
    return build_fabric(reference_topology)


def messages(journal) -> list:
    return [(sw, msg["type"], msg["xid"]) for sw, msg in journal]


def transactions(report) -> list:
    return [(t["xid"], t["switch"], t["command"], t["in_port"], t["out_port"], t["status"])
            for t in report.transactions]


def switch_states(switches) -> dict:
    return {sw: s.query_entries() for sw, s in switches.items()}


def establish(fabric, path_id, tear_down=None) -> object:
    return fabric["controller"].handle_reconfigure(f"req-{path_id}", tear_down, path_id)


class TestReconfigurePlans:
    def test_initial_provisioning(self, fabric):
        report = establish(fabric, "link1")
        assert report.outcome == OUTCOME_SUCCESS
        assert [t["command"] for t in report.transactions] == ["ADD", "ADD"]
        assert len(report.barrier_xids) == 2
        assert fabric["controller"].active_path == "link1"
        assert resolve_active_path(fabric["topology"], switch_states(fabric["switches"])) == "link1"

    def test_failover_tears_down_before_setting_up(self, fabric):
        establish(fabric, "link1")
        report = establish(fabric, "link2", tear_down="link1")
        commands = [t["command"] for t in report.transactions]
        assert commands == ["DELETE", "DELETE", "ADD", "ADD"]
        assert report.outcome == OUTCOME_SUCCESS
        assert resolve_active_path(fabric["topology"], switch_states(fabric["switches"])) == "link2"

    def test_multihop_path_touches_every_switch(self, fabric):
        establish(fabric, "link1")
        report = establish(fabric, "link3", tear_down="link1")
        adds = [t for t in report.transactions if t["command"] == "ADD"]
        assert [t["switch"] for t in adds] == ["alice", "int1", "int2", "bob"]
        assert len(report.barrier_xids) == 4
        assert resolve_active_path(fabric["topology"], switch_states(fabric["switches"])) == "link3"

    def test_alice_side_switch_commits_last(self, fabric):
        establish(fabric, "link1")
        fabric["journal"].clear()
        establish(fabric, "link3", tear_down="link1")
        barrier_switches = [sw for sw, msg in fabric["journal"]
                            if msg["type"] == "BARRIER_REQUEST"]
        assert barrier_switches[-1] == "alice"
        assert set(barrier_switches) == {"alice", "bob", "int1", "int2"}

    def test_all_mods_staged_before_any_barrier(self, fabric):
        establish(fabric, "link1")
        fabric["journal"].clear()
        establish(fabric, "link2", tear_down="link1")
        kinds = [msg["type"] for _, msg in fabric["journal"]]
        first_barrier = kinds.index("BARRIER_REQUEST")
        assert all(k == "FLOW_MOD" for k in kinds[:first_barrier])
        assert all(k == "BARRIER_REQUEST" for k in kinds[first_barrier:])

    def test_never_two_resolvable_paths_during_failover(self, fabric):
        """After every commit the fabric shows at most one complete path."""
        establish(fabric, "link1")
        seen = []

        def observe(_switch):
            states = switch_states(fabric["switches"])
            seen.append(resolve_active_path(fabric["topology"], states))

        for sw in fabric["switches"].values():
            sw.on_commit = observe
        establish(fabric, "link2", tear_down="link1")
        # The Alice switch commits last: until that commit the old circuit
        # is broken at most, never doubled.
        assert seen == [None, "link2"]


class TestXids:
    def test_first_xid_is_one_and_the_sequence_is_gapless(self, fabric):
        controller = fabric["controller"]
        assert controller.next_xid() == 1
        assert [controller.next_xid() for _ in range(5)] == [2, 3, 4, 5, 6]

    def test_xids_ascend_across_requests_and_message_kinds(self, fabric):
        establish(fabric, "link1")
        establish(fabric, "link2", tear_down="link1")
        xids = [msg["xid"] for _, msg in fabric["journal"]]
        assert xids == sorted(xids)
        assert len(set(xids)) == len(xids)

    def test_thread_unique(self, fabric):
        controller = fabric["controller"]
        drawn: list[int] = []
        lock = threading.Lock()

        def worker():
            got = [controller.next_xid() for _ in range(500)]
            with lock:
                drawn.extend(got)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(drawn)) == 4000


class TestFailureHandling:
    def test_staging_conflict_rolls_everything_back(self, fabric):
        establish(fabric, "link1")
        before = switch_states(fabric["switches"])
        # Occupy bob port 2 outside the controller's knowledge, so the
        # link2 ADD on bob will be refused at staging time.
        bob = fabric["switches"]["bob"]
        bob.handle_flow_mod(90001, "ADD", 2, 5)
        bob.handle_barrier(90002)

        report = establish(fabric, "link2", tear_down="link1")
        assert report.outcome == OUTCOME_FAILED
        assert any(t["status"] == "FAILED" for t in report.transactions)
        # Fabric unchanged apart from the foreign entry; old path still up.
        after = switch_states(fabric["switches"])
        assert after["alice"] == before["alice"]
        assert after["bob"] == before["bob"] | {(2, 5)}
        assert resolve_active_path(fabric["topology"], after) == "link1"
        assert fabric["controller"].active_path == "link1"
        assert all(s.pending_count == 0 for s in fabric["switches"].values())

    def test_compensation_reverses_in_lifo_order(self, fabric):
        establish(fabric, "link1")
        bob = fabric["switches"]["bob"]
        bob.handle_flow_mod(90001, "ADD", 2, 5)
        bob.handle_barrier(90002)
        report = establish(fabric, "link2", tear_down="link1")
        staged_ok = [t for t in report.transactions[:4] if t["status"] == "ACKED"]
        compensations = report.transactions[4:]
        # Each acked mod is reversed, most recent first.
        assert [(t["switch"], t["command"], t["in_port"], t["out_port"])
                for t in compensations] == [
            (t["switch"], "DELETE" if t["command"] == "ADD" else "ADD",
             t["in_port"], t["out_port"])
            for t in reversed(staged_ok)
        ]

    def test_disconnected_switch_fails_the_request(self, fabric):
        establish(fabric, "link1")
        fabric["faults"].down_after("bob", 0)
        report = establish(fabric, "link2", tear_down="link1")
        assert report.outcome == OUTCOME_FAILED
        assert "disconnected" in report.error
        assert fabric["switches"]["alice"].pending_count == 0
        assert fabric["controller"].active_path == "link1"
        # Reconnect: the fabric is still consistent and usable.
        fabric["faults"].restore("bob")
        report = establish(fabric, "link2", tear_down="link1")
        assert report.outcome == OUTCOME_SUCCESS

    def test_alice_lost_at_her_barrier_after_bob_committed(self, fabric):
        establish(fabric, "link1")
        fabric["journal"].clear()
        fabric["faults"].down_after("alice", 2)
        report = establish(fabric, "link2", tear_down="link1")
        assert report.outcome == OUTCOME_FAILED
        assert report.error == "switch alice disconnected at barrier"
        # Bob's committed mods are reversed too, newest first, and he gets a
        # barrier; alice's reversals cannot reach her, so she gets none.
        assert messages(fabric["journal"]) == [
            ("alice", "FLOW_MOD", 5), ("bob", "FLOW_MOD", 6),
            ("alice", "FLOW_MOD", 7), ("bob", "FLOW_MOD", 8),
            ("bob", "BARRIER_REQUEST", 9), ("alice", "BARRIER_REQUEST", 10),
            ("bob", "FLOW_MOD", 11), ("alice", "FLOW_MOD", 12),
            ("bob", "FLOW_MOD", 13), ("alice", "FLOW_MOD", 14),
            ("bob", "BARRIER_REQUEST", 15),
        ]
        assert transactions(report) == [
            (5, "alice", "DELETE", 0, 1, "ACKED"),
            (6, "bob", "DELETE", 1, 0, "ACKED"),
            (7, "alice", "ADD", 0, 2, "ACKED"),
            (8, "bob", "ADD", 2, 0, "ACKED"),
            (11, "bob", "DELETE", 2, 0, "ACKED"),
            (12, "alice", "DELETE", 0, 2, "FAILED"),
            (13, "bob", "ADD", 1, 0, "ACKED"),
            (14, "alice", "ADD", 0, 1, "FAILED"),
        ]
        assert report.barrier_xids == [9, 15]
        bob, alice = fabric["switches"]["bob"], fabric["switches"]["alice"]
        assert bob.query_entries() == {(1, 0)}
        assert bob.pending_count == 0
        # Alice, lost for good, keeps what she staged.
        assert alice.query_entries() == {(0, 1)}
        assert alice.pending_count == 2
        assert fabric["controller"].active_path == "link1"

    def test_a_foreign_staged_mod_fails_a_barrier(self, fabric):
        establish(fabric, "link1")
        fabric["journal"].clear()
        # Staged on bob outside the controller once he acks his first mod:
        # bob's barrier commits it too.
        bob = fabric["switches"]["bob"]
        fabric["faults"].after("bob", 0, lambda: bob.handle_flow_mod(90001, "ADD", 5, 6))
        report = establish(fabric, "link2", tear_down="link1")
        assert report.outcome == OUTCOME_FAILED
        assert report.error == "barrier on bob committed unexpected xids"
        # Bob is not counted as committed, so every staged mod is reversed,
        # newest first, and each switch gets one barrier.
        assert messages(fabric["journal"]) == [
            ("alice", "FLOW_MOD", 5), ("bob", "FLOW_MOD", 6),
            ("alice", "FLOW_MOD", 7), ("bob", "FLOW_MOD", 8),
            ("bob", "BARRIER_REQUEST", 9),
            ("bob", "FLOW_MOD", 10), ("alice", "FLOW_MOD", 11),
            ("bob", "FLOW_MOD", 12), ("alice", "FLOW_MOD", 13),
            ("bob", "BARRIER_REQUEST", 14), ("alice", "BARRIER_REQUEST", 15),
        ]
        assert transactions(report) == [
            (5, "alice", "DELETE", 0, 1, "ACKED"),
            (6, "bob", "DELETE", 1, 0, "ACKED"),
            (7, "alice", "ADD", 0, 2, "ACKED"),
            (8, "bob", "ADD", 2, 0, "ACKED"),
            (10, "bob", "DELETE", 2, 0, "ACKED"),
            (11, "alice", "DELETE", 0, 2, "ACKED"),
            (12, "bob", "ADD", 1, 0, "ACKED"),
            (13, "alice", "ADD", 0, 1, "ACKED"),
        ]
        assert report.barrier_xids == [9, 14, 15]
        assert switch_states(fabric["switches"]) == {
            "alice": {(0, 1)}, "bob": {(1, 0), (5, 6)}, "int1": set(), "int2": set()}
        assert all(s.pending_count == 0 for s in fabric["switches"].values())

    def test_a_foreign_mod_staged_before_a_request_is_dropped(self, fabric):
        """The request's first mod to bob is fresh: bob drops what he staged
        since his last barrier, so his barrier commits the request's mods only."""
        establish(fabric, "link1")
        fabric["switches"]["bob"].handle_flow_mod(90001, "ADD", 5, 6)
        report = establish(fabric, "link2", tear_down="link1")
        assert report.outcome == OUTCOME_SUCCESS
        assert switch_states(fabric["switches"]) == {
            "alice": {(0, 2)}, "bob": {(2, 0)}, "int1": set(), "int2": set()}
        assert all(s.pending_count == 0 for s in fabric["switches"].values())

    @pytest.mark.parametrize("target", ["link1", "link2", "link3"])
    def test_a_switch_back_after_a_lost_barrier_takes_the_next_request(self, fabric,
                                                                      target):
        """Alice, lost at her barrier, keeps 2 staged mods; once she is back,
        the next request's first mod to her drops them, so any move from the
        lit path succeeds and lights its target."""
        establish(fabric, "link1")
        fabric["faults"].down_after("alice", 2)
        assert establish(fabric, "link2", tear_down="link1").outcome == OUTCOME_FAILED
        assert fabric["switches"]["alice"].pending_count == 2
        fabric["faults"].restore("alice")
        report = establish(fabric, target, tear_down="link1")
        assert report.outcome == OUTCOME_SUCCESS, report.error
        assert resolve_active_path(fabric["topology"], switch_states(fabric["switches"])) \
            == fabric["controller"].active_path == target
        assert all(s.pending_count == 0 for s in fabric["switches"].values())

    @pytest.mark.parametrize("start,target", [
        (None, "link1"), (None, "link2"), (None, "link3"),
        ("link1", "link2"), ("link1", "link3"), ("link2", "link1"),
        ("link2", "link3"), ("link3", "link1"), ("link3", "link2"),
    ])
    def test_one_dropped_message_leaves_the_fabric_as_it_was(self, reference_topology,
                                                             start, target):
        """Whichever message of the request is dropped, flow-mod or barrier,
        the request fails and leaves the tables as they were, no staged
        mod, an active_path that names the lit path, and a fabric on which
        the same request then succeeds."""
        clean = build_fabric(reference_topology)
        if start is not None:
            establish(clean, start)
        clean["journal"].clear()
        establish(clean, target, tear_down=start)
        sent = [sw for sw, _ in clean["journal"]]
        for index, switch_id in enumerate(sent):
            fabric = build_fabric(reference_topology)
            if start is not None:
                establish(fabric, start)
            before = switch_states(fabric["switches"])
            fabric["faults"].drop(switch_id, sent[:index].count(switch_id))
            report = establish(fabric, target, tear_down=start)
            assert report.outcome == OUTCOME_FAILED, index
            after = switch_states(fabric["switches"])
            assert after == before, index
            assert all(s.pending_count == 0 for s in fabric["switches"].values()), index
            assert fabric["controller"].active_path == resolve_active_path(
                fabric["topology"], after) == start, index
            assert establish(fabric, target, tear_down=start).outcome == OUTCOME_SUCCESS



class TestNorthbound:
    def test_success_body_schema(self, fabric):
        """The reply is the record the controller logged."""
        northbound = Northbound(fabric["controller"])
        status, body = northbound.post_reconfigure(
            {"request_id": "r1", "tear_down": None, "set_up": "link1"})
        assert status == 200
        assert body == fabric["records"][-1]
        assert body["request_id"] == "r1"
        assert body["outcome"] == OUTCOME_SUCCESS
        assert body["error"] is None
        assert body["t_end"] > body["t_start"]

    def test_failed_body_says_why(self, fabric):
        fabric["faults"].down_after("alice", 0)
        northbound = Northbound(fabric["controller"])
        status, body = northbound.post_reconfigure(
            {"request_id": "r1", "tear_down": None, "set_up": "link1"})
        assert status == 200
        assert body == fabric["records"][-1]
        assert body["outcome"] == OUTCOME_FAILED
        assert "alice" in body["error"]
        assert "disconnected" in body["error"]

    @pytest.mark.parametrize("body", [
        {"request_id": "r", "set_up": "ghost"},
        {"request_id": "r", "set_up": "link1", "tear_down": "ghost"},
        {"request_id": "", "set_up": "link1"},
        {"set_up": "link1"},
        {"request_id": "r"},
        # JSON arrays and objects where a path id belongs: unhashable.
        {"request_id": "a", "set_up": []},
        {"request_id": "a", "set_up": {"id": "link1"}},
        {"request_id": "a", "set_up": "link1", "tear_down": []},
        {"request_id": "a", "set_up": "link1", "tear_down": {}},
        [],
    ])
    def test_invalid_requests_get_400_and_touch_nothing(self, fabric, body):
        northbound = Northbound(fabric["controller"])
        status, resp = northbound.post_reconfigure(body)
        assert status == 400
        assert list(resp) == ["error"]
        assert fabric["journal"] == []

    def test_queue_overflow_gets_409(self, fabric):
        northbound = Northbound(fabric["controller"])
        northbound._in_system = QUEUE_DEPTH + 1  # one running, a full queue waiting
        status, resp = northbound.post_reconfigure(
            {"request_id": "r", "set_up": "link1"})
        assert status == 409
        assert resp == {"error": "reconfiguration queue full"}

    def test_concurrent_requests_serialize(self, fabric):
        northbound = Northbound(fabric["controller"])
        results: list = []
        lock = threading.Lock()

        def post(i):
            status, body = northbound.post_reconfigure(
                {"request_id": f"r{i}", "set_up": "link1"})
            with lock:
                results.append((status, body["outcome"]))

        threads = [threading.Thread(target=post, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one wins; the rest fail cleanly at staging (port in use).
        assert sorted(o for _, o in results).count(OUTCOME_SUCCESS) == 1
        assert all(status == 200 for status, _ in results)
        assert resolve_active_path(fabric["topology"], switch_states(fabric["switches"])) == "link1"
        assert all(s.pending_count == 0 for s in fabric["switches"].values())

    def test_get_paths_marks_the_active_one(self, fabric):
        northbound = Northbound(fabric["controller"])
        client = LocalControllerClient(northbound, fabric["clock"])
        client.post_reconfigure({"request_id": "r", "set_up": "link2"})
        status, listing = northbound.get_paths()
        assert status == 200
        assert listing == {"paths": [
            {"id": "link1", "link": "link1", "status": "INACTIVE"},
            {"id": "link2", "link": "link2", "status": "ACTIVE"},
            {"id": "link3", "link": "link3", "status": "INACTIVE"},
        ]}


class TestLogging:
    def test_log_records_capture_the_full_exchange(self, fabric):
        establish(fabric, "link1")
        establish(fabric, "link2", tear_down="link1")
        records = fabric["records"]
        assert len(records) == 2
        assert records[1]["tear_down"] == "link1"
        assert records[1]["set_up"] == "link2"
        assert records[1]["outcome"] == OUTCOME_SUCCESS
        assert records[1]["error"] is None
        assert [t["status"] for t in records[1]["transactions"]] == ["ACKED"] * 4
        assert records[1]["t_end"] >= records[1]["t_start"]

    def test_controller_time_is_message_latency(self, fabric):
        report = establish(fabric, "link1")
        # 2 flow-mods + 2 barriers, 2 ms each way.
        assert (report.t_end - report.t_start) * 1000 == pytest.approx(16.0, abs=1e-6)

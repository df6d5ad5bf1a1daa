"""Controller behaviour: planning, commit order, compensation, admission."""

from __future__ import annotations

import threading

import pytest

from qkdsim.clock import SimClock
from qkdsim.controller import (
    InProcessSwitchLink,
    LocalControllerClient,
    Northbound,
    OUTCOME_FAILED,
    OUTCOME_SUCCESS,
    ReconfigRequest,
    SdnController,
    SwitchDisconnected,
)
from qkdsim.switch import OpticalSwitch
from qkdsim.topology import resolve_active_path


class RecordingLink(InProcessSwitchLink):
    """Southbound link that appends every message to a shared journal."""

    def __init__(self, switch, clock, journal, latency_s=0.002):
        super().__init__(switch, clock, latency_s)
        self.journal = journal

    def send(self, msg: dict) -> dict:
        self.journal.append((self.switch.switch_id, msg))
        return super().send(msg)


@pytest.fixture()
def fabric(reference_topology):
    clock = SimClock()
    journal: list = []
    switches = {sw: OpticalSwitch(sw, ports)
                for sw, ports in reference_topology.switches.items()}
    links = {sw: RecordingLink(switches[sw], clock, journal) for sw in switches}
    records: list = []
    controller = SdnController(reference_topology, links, clock, log=records.append)
    return {
        "topology": reference_topology,
        "clock": clock,
        "switches": switches,
        "links": links,
        "controller": controller,
        "journal": journal,
        "records": records,
    }


def switch_states(switches) -> dict:
    return {sw: s.query_entries() for sw, s in switches.items()}


def establish(fabric, path_id, tear_down=None) -> object:
    request = ReconfigRequest(f"req-{path_id}", tear_down, path_id)
    return fabric["controller"].handle_reconfigure(request)


class TestReconfigurePlans:
    def test_initial_provisioning(self, fabric):
        report = establish(fabric, "link1")
        assert report.outcome == OUTCOME_SUCCESS
        assert [t.command for t in report.transactions] == ["ADD", "ADD"]
        assert len(report.barrier_xids) == 2
        assert fabric["controller"].active_path == "link1"
        assert resolve_active_path(fabric["topology"], switch_states(fabric["switches"])) == "link1"

    def test_failover_tears_down_before_setting_up(self, fabric):
        establish(fabric, "link1")
        report = establish(fabric, "link2", tear_down="link1")
        commands = [t.command for t in report.transactions]
        assert commands == ["DELETE", "DELETE", "ADD", "ADD"]
        assert report.outcome == OUTCOME_SUCCESS
        assert resolve_active_path(fabric["topology"], switch_states(fabric["switches"])) == "link2"

    def test_multihop_path_touches_every_switch(self, fabric):
        establish(fabric, "link1")
        report = establish(fabric, "link3", tear_down="link1")
        adds = [t for t in report.transactions if t.command == "ADD"]
        assert [t.switch for t in adds] == ["alice", "int1", "int2", "bob"]
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
        assert any(t.status == "FAILED" for t in report.transactions)
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
        staged_ok = [t for t in report.transactions[:4] if t.status == "ACKED"]
        compensations = report.transactions[4:]
        # Each acked mod is reversed, most recent first.
        assert [(t.switch, t.command, t.in_port, t.out_port) for t in compensations] == [
            (t.switch, "DELETE" if t.command == "ADD" else "ADD", t.in_port, t.out_port)
            for t in reversed(staged_ok)
        ]

    def test_disconnected_switch_fails_the_request(self, fabric):
        establish(fabric, "link1")
        fabric["links"]["bob"].connected = False
        report = establish(fabric, "link2", tear_down="link1")
        assert report.outcome == OUTCOME_FAILED
        assert "disconnected" in report.error
        assert fabric["switches"]["alice"].pending_count == 0
        assert fabric["controller"].active_path == "link1"
        # Reconnect: the fabric is still consistent and usable.
        fabric["links"]["bob"].connected = True
        report = establish(fabric, "link2", tear_down="link1")
        assert report.outcome == OUTCOME_SUCCESS

    def test_missing_link_treated_as_disconnected(self, fabric):
        del fabric["links"]["int1"]
        report = establish(fabric, "link3")
        assert report.outcome == OUTCOME_FAILED

    def test_send_raises_for_down_link(self, fabric):
        fabric["links"]["alice"].connected = False
        with pytest.raises(SwitchDisconnected):
            fabric["links"]["alice"].send({"type": "BARRIER_REQUEST", "xid": 1})


class TestNorthbound:
    def test_success_body_schema(self, fabric):
        northbound = Northbound(fabric["controller"])
        status, body = northbound.post_reconfigure(
            {"request_id": "r1", "tear_down": None, "set_up": "link1"})
        assert status == 200
        assert set(body) == {"request_id", "outcome", "transactions", "duration_ms"}
        assert body["request_id"] == "r1"
        assert body["outcome"] == OUTCOME_SUCCESS
        assert all(set(t) == {"xid", "switch", "status"} for t in body["transactions"])
        assert body["duration_ms"] > 0.0

    @pytest.mark.parametrize("body", [
        {"request_id": "r", "set_up": "ghost"},
        {"request_id": "r", "set_up": "link1", "tear_down": "ghost"},
        {"request_id": "", "set_up": "link1"},
        {"set_up": "link1"},
        {"request_id": "r"},
    ])
    def test_invalid_requests_get_400_and_touch_nothing(self, fabric, body):
        northbound = Northbound(fabric["controller"])
        status, resp = northbound.post_reconfigure(body)
        assert status == 400
        assert "error" in resp
        assert fabric["journal"] == []

    def test_queue_overflow_gets_409(self, fabric):
        northbound = Northbound(fabric["controller"], queue_depth=16)
        northbound._in_system = 17  # one running, sixteen already waiting
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
        status, listing = client.get_paths()
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
        assert report.duration_ms == pytest.approx(16.0, abs=1e-6)

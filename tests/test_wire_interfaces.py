"""Wire formats over real sockets match the in-process schemas byte for byte."""

from __future__ import annotations

import http.client
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from qkdsim.clock import SimClock
from qkdsim.controller import LATENCY_S, Northbound, SdnController, SwitchDisconnected
from qkdsim.realtime import (
    MAX_REQUEST_BYTES,
    HttpControllerClient,
    MonitorSocketClient,
    SocketSwitchLink,
    _monitor,
    over_sockets,
    serve_agent,
    serve_northbound,
)
from qkdsim.scenario import Scenario, ScenarioRun, extract_episodes, load_scenario, timing_rows
from qkdsim.switch import CMD_ADD, STATUS_PORT_IN_USE, STATUS_STAGED, OpticalSwitch
from qkdsim.topology import load_topology, resolve_active_path

SRC = Path(__file__).resolve().parent.parent / "src"


def serve_switch(switch):
    """switch served as over_sockets serves it."""
    return serve_agent(switch.handle_message, {"type": "HELLO", "switch": switch.switch_id})


def http_get(url: str) -> tuple[int, dict]:
    """GET url: the reply's status and JSON body, an error status included."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def raw_connection(server):
    sock = socket.create_connection(server.server_address, timeout=5.0)
    return sock, sock.makefile("rb")


@pytest.fixture()
def switch_server():
    switch = OpticalSwitch("alice", 8)
    server = serve_switch(switch)
    yield switch, server
    server.shutdown()
    server.server_close()


class TestSwitchSocket:
    def test_greeting_and_ack_bytes(self, switch_server):
        _, server = switch_server
        sock, reader = raw_connection(server)
        try:
            assert reader.readline() == b'{"type":"HELLO","switch":"alice"}\n'
            sock.sendall(b'{"type":"FLOW_MOD","xid":7,"command":"ADD","in_port":0,"out_port":1}\n')
            assert reader.readline() == b'{"type":"FLOW_MOD_ACK","xid":7,"status":"STAGED"}\n'
            sock.sendall(b'{"type":"BARRIER_REQUEST","xid":8}\n')
            assert reader.readline() == b'{"type":"BARRIER_REPLY","xid":8,"committed_xids":[7]}\n'
        finally:
            sock.close()

    def test_two_messages_in_one_segment_get_two_replies(self, switch_server):
        _, server = switch_server
        sock, reader = raw_connection(server)
        try:
            reader.readline()  # greeting
            sock.sendall(
                b'{"type":"FLOW_MOD","xid":1,"command":"ADD","in_port":2,"out_port":3}\n'
                b'{"type":"FLOW_MOD","xid":2,"command":"ADD","in_port":4,"out_port":5}\n')
            assert json.loads(reader.readline())["xid"] == 1
            assert json.loads(reader.readline())["xid"] == 2
        finally:
            sock.close()

    @pytest.mark.parametrize("line", [b'{"type":"REBOOT","xid":1}\n', b"not json\n"],
                             ids=["unknown-type", "not-json"])
    def test_protocol_violation_drops_the_connection(self, switch_server, line):
        _, server = switch_server
        sock, reader = raw_connection(server)
        try:
            reader.readline()
            sock.sendall(line)
            assert reader.readline() == b""  # server closed on us
        finally:
            sock.close()

    def test_switch_link_speaks_to_a_live_switch(self, switch_server):
        switch, server = switch_server
        host, port = server.server_address
        clock = SimClock()
        link = SocketSwitchLink(host, port, clock)
        try:
            assert link.switch_id == "alice"
            ack = link.send({"type": "FLOW_MOD", "xid": 3, "command": "ADD",
                             "in_port": 0, "out_port": 1})
            assert ack == {"type": "FLOW_MOD_ACK", "xid": 3, "status": "STAGED"}
            reply = link.send({"type": "BARRIER_REQUEST", "xid": 4})
            assert reply["committed_xids"] == [3]
            assert dict(switch.query_entries()) == {0: 1}
            assert clock.now() == 4 * LATENCY_S  # two round trips
        finally:
            link.close()

    def test_closed_link_raises_switch_disconnected(self, switch_server):
        _, server = switch_server
        host, port = server.server_address
        link = SocketSwitchLink(host, port, SimClock())
        link.close()
        with pytest.raises(SwitchDisconnected):
            link.send({"type": "BARRIER_REQUEST", "xid": 1})

    def test_an_overlong_line_drops_the_connection(self, switch_server, capfd):
        """A request line past MAX_REQUEST_BYTES is not read to its end: the
        server drops that connection and still serves the next one."""
        switch, server = switch_server
        sock, reader = raw_connection(server)
        try:
            reader.readline()  # greeting
            sock.sendall(b" " * MAX_REQUEST_BYTES
                         + b'{"type":"FLOW_MOD","xid":7,"command":"ADD","in_port":0,"out_port":1}\n')
            assert reader.readline() == b""
        finally:
            sock.close()
        link = SocketSwitchLink(*server.server_address, SimClock())
        try:
            reply = link.send({"type": "BARRIER_REQUEST", "xid": 8})
        finally:
            link.close()
        assert reply["committed_xids"] == []
        assert not switch.query_entries()
        assert capfd.readouterr().err == ""

    def test_a_reset_connection_drops_silently(self, capfd):
        """Peers that reset their connection (SO_LINGER 0) are dropped with
        no traceback, and the server still serves the next connection."""
        server = serve_switch(OpticalSwitch("alice", 8))
        try:
            for _ in range(5):
                sock = socket.create_connection(server.server_address, timeout=5.0)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.close()
            link = SocketSwitchLink(*server.server_address, SimClock())
            try:
                assert link.send({"type": "BARRIER_REQUEST", "xid": 1})["committed_xids"] == []
            finally:
                link.close()
        finally:
            server.shutdown()
            server.server_close()  # joins every connection's thread
        assert capfd.readouterr().err == ""

    def test_concurrent_connections_cannot_stage_a_conflict(self, switch_server,
                                                            monkeypatch):
        """Two links race conflicting ADDs on one served switch: exactly one
        is staged, and the barrier commits it alone."""
        switch, server = switch_server
        check = switch._stage_status

        def slow_check(*args):
            status = check(*args)
            time.sleep(0.05)  # widen the gap between the check and the write
            return status

        monkeypatch.setattr(switch, "_stage_status", slow_check)
        links = [SocketSwitchLink(*server.server_address, SimClock()) for _ in range(2)]
        start = threading.Barrier(len(links))
        acks = []

        def send(link, xid, in_port):
            start.wait(timeout=5)
            acks.append(link.send({"type": "FLOW_MOD", "xid": xid, "command": CMD_ADD,
                                   "in_port": in_port, "out_port": 1})["status"])

        threads = [threading.Thread(target=send, args=(link, xid, in_port))
                   for link, xid, in_port in zip(links, (1, 2), (0, 2))]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()
            assert sorted(acks) == [STATUS_PORT_IN_USE, STATUS_STAGED]
            barrier = links[0].send({"type": "BARRIER_REQUEST", "xid": 3})
            assert len(barrier["committed_xids"]) == 1
        finally:
            for link in links:
                link.close()
        assert len(switch.query_entries()) == 1

    @pytest.mark.parametrize("reply", [b"\xff\n", b"[1,2]\n", b"[" * 60000 + b"\n"],
                             ids=["non-utf8", "non-object", "nested-too-deeply"])
    def test_a_malformed_reply_disconnects_the_link(self, reply):
        """A stub switch greets, then answers a request with a line that is
        not UTF-8, not a JSON object or nested too deeply to parse: the link
        marks itself disconnected."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                conn.sendall(b'{"switch":"stub"}\n')
                rfile.readline()
                conn.sendall(reply)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        link = SocketSwitchLink(*listener.getsockname(), SimClock())
        try:
            with pytest.raises(SwitchDisconnected):
                link.send({"type": "BARRIER_REQUEST", "xid": 1})
            assert not link.connected
        finally:
            link.close()
            server.join(timeout=5)
            listener.close()

    def test_a_non_object_hello_raises_connection_error(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.sendall(b"[]\n")

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            with pytest.raises(ConnectionError):
                SocketSwitchLink(*listener.getsockname(), SimClock())
        finally:
            server.join(timeout=5)
            listener.close()


@pytest.fixture()
def monitor_server(lit_run):
    server = serve_agent(_monitor(lit_run))
    yield lit_run, server
    server.shutdown()
    server.server_close()


class TestMonitorSocket:
    def test_socket_reading_equals_direct_reading(self, monitor_server):
        lit_run, server = monitor_server
        client = MonitorSocketClient(*server.server_address)
        try:
            client.start_session()
            lit_run.clock.advance_to(321.5)
            over_socket = client.read_monitor()
        finally:
            client.close()
        assert over_socket == lit_run.read_monitor()
        assert over_socket["timestamp"] == 321.5
        assert over_socket["state"] == "Generating"
        assert over_socket["skr_bps"] > 0

    def test_request_and_reply_bytes(self, monitor_server):
        lit_run, server = monitor_server
        sock, reader = raw_connection(server)
        try:
            sock.sendall(b'{"op":"start_session"}\n')
            assert reader.readline() == b"{}\n"
            lit_run.clock.advance_to(200.0)
            sock.sendall(b'{"op":"read_monitor"}\n')
            line = reader.readline()
        finally:
            sock.close()
        reading = lit_run.read_monitor()
        assert reading["state"] == "Generating"
        assert line == json.dumps(reading, separators=(",", ":")).encode("utf-8") + b"\n"

    @pytest.mark.parametrize("line", [b'{"op":"reboot"}\n', b"\xff\n"],
                             ids=["unknown-op", "non-utf8"])
    def test_a_bad_request_drops_the_connection_silently(self, monitor_server, line, capfd):
        lit_run, server = monitor_server
        sock, reader = raw_connection(server)
        try:
            sock.sendall(line)
            assert reader.readline() == b""  # server closed on us
        finally:
            sock.close()
        assert lit_run.unit.state == "Idle"
        assert capfd.readouterr().err == ""

    def test_start_session_on_an_unlit_run_raises_connection_error(self, reference_topology):
        """The run refuses a session with no circuit lit: the server drops
        the connection, and the client reports a lost monitor."""
        run = ScenarioRun(reference_topology, Scenario(600.0, ()), seed=0)
        server = serve_agent(_monitor(run))
        client = MonitorSocketClient(*server.server_address)
        try:
            with pytest.raises(ConnectionError):
                client.start_session()
        finally:
            client.close()
            server.shutdown()
            server.server_close()
        assert run.unit.state == "Idle"

    def test_a_dropped_connection_raises_connection_error(self):
        def broken(msg):
            raise RuntimeError("handler fault")

        server = serve_agent(broken)
        try:
            client = MonitorSocketClient(*server.server_address)
            with pytest.raises(ConnectionError):
                client.read_monitor()
            client.close()
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("reply", [b"\xff\n", b"not json\n", b"[1,2]\n",
                                       b"[" * 60000 + b"\n"],
                             ids=["non-utf8", "non-json", "non-object", "nested-too-deeply"])
    def test_a_malformed_reply_raises_connection_error(self, reply):
        """A stub monitor answers a read with a line that is not UTF-8, not
        JSON, not an object or nested too deeply to parse: the client reports
        a lost monitor, as for a dropped connection."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                rfile.readline()
                conn.sendall(reply)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        client = MonitorSocketClient(*listener.getsockname())
        try:
            with pytest.raises(ConnectionError):
                client.read_monitor()
        finally:
            client.close()
            server.join(timeout=5)
            listener.close()


@pytest.fixture()
def http_northbound(reference_topology):
    clock = SimClock()
    switches = {sw: OpticalSwitch(sw, n) for sw, n in reference_topology.switches.items()}

    class DirectLink:
        def __init__(self, switch):
            self.switch = switch

        def send(self, msg):
            return self.switch.handle_message(msg)

    records: list = []
    controller = SdnController(reference_topology,
                               {sw: DirectLink(s) for sw, s in switches.items()}, clock,
                               log=records.append)
    server = serve_northbound(Northbound(controller))
    host, port = server.server_address
    client = HttpControllerClient(f"http://{host}:{port}", clock)
    yield client, switches, reference_topology, records
    server.shutdown()
    server.server_close()


class TestHttpNorthbound:
    def test_reconfigure_round_trip(self, http_northbound):
        """The reply is the record the controller logged, on success and on
        failure: a second set-up of link1 finds its ports in use."""
        client, switches, topology, records = http_northbound
        for outcome in ("SUCCESS", "FAILED"):
            status, body = client.post_reconfigure(
                {"request_id": "r1", "tear_down": None, "set_up": "link1"})
            assert status == 200
            assert body["outcome"] == outcome
            assert body == json.loads(json.dumps(records[-1]))
        states = {sw: s.query_entries() for sw, s in switches.items()}
        assert resolve_active_path(topology, states) == "link1"

    def test_validation_errors_surface_as_400(self, http_northbound):
        client, _, _, _ = http_northbound
        status, body = client.post_reconfigure({"request_id": "r", "set_up": "ghost"})
        assert status == 400
        assert "unknown path" in body["error"]

    @pytest.mark.parametrize("body, length", [
        pytest.param(b'{"request_id": "a", "set_up": []}', None, id="set_up-array"),
        pytest.param(b'{"request_id": "a", "set_up": {"id": "link1"}}', None, id="set_up-object"),
        pytest.param(b'{"request_id": "a", "set_up": "link1", "tear_down": []}', None,
                     id="tear_down-array"),
        pytest.param(b'{"request_id": "a", "set_up": "link1"}', "abc", id="length-not-a-number"),
        pytest.param(b'{"request_id": "a", "set_up": "link1"}', "-1", id="length-negative"),
        pytest.param(b'{"request_id": "\x80"}', None, id="body-not-utf8"),
        pytest.param(b"{}", "0" * 5000 + "2", id="length-zero-padded"),
        pytest.param(b"[" * 60000, None, id="body-nested-too-deeply"),
        pytest.param(b"[1]", None, id="body-not-an-object"),
    ])
    def test_malformed_requests_get_one_400(self, http_northbound, body, length):
        client, switches, _, _ = http_northbound
        host, port = client.base_url.rsplit("/", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
        try:
            conn.putrequest("POST", "/reconfigure")
            conn.putheader("Content-Length", length or str(len(body)))
            conn.endheaders(body)
            response = conn.getresponse()
            assert response.status == 400
            assert list(json.loads(response.read())) == ["error"]
        finally:
            conn.close()
        assert all(not s.query_entries() for s in switches.values())

    def test_an_oversized_length_gets_413_without_reading_the_body(self, http_northbound,
                                                                    capfd):
        client, switches, _, _ = http_northbound
        host, port = client.base_url.rsplit("/", 1)[1].split(":")
        for length in (MAX_REQUEST_BYTES + 1, 99999999999999, "1" * 5000):
            conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
            try:
                conn.putrequest("POST", "/reconfigure")
                conn.putheader("Content-Length", str(length))
                conn.endheaders(b'{"request_id": "a", "set_up": "link1"}')
                response = conn.getresponse()
                assert response.status == 413
                assert list(json.loads(response.read())) == ["error"]
            finally:
                conn.close()
        assert all(not s.query_entries() for s in switches.values())
        assert http_get(client.base_url + "/paths")[0] == 200
        assert capfd.readouterr().err == ""

    def test_get_paths(self, http_northbound):
        client, _, _, _ = http_northbound
        client.post_reconfigure({"request_id": "r", "set_up": "link2"})
        status, body = http_get(client.base_url + "/paths")
        assert status == 200
        assert [p["status"] for p in body["paths"]] == ["INACTIVE", "ACTIVE", "INACTIVE"]

    def test_concurrent_conflicting_reconfigures_leave_one_winner(self, http_northbound):
        """Six clients set up link1, link2 and link3 at once on an empty
        fabric: one succeeds, the fabric and GET /paths agree on it, and no
        switch is left holding staged mods."""
        client, switches, topology, _ = http_northbound
        targets = ["link1", "link2", "link3"] * 2
        start = threading.Barrier(len(targets))
        replies = [None] * len(targets)

        def post(index):
            start.wait(timeout=10)
            replies[index] = client.post_reconfigure(
                {"request_id": f"c{index}", "set_up": targets[index]})

        threads = [threading.Thread(target=post, args=(i,)) for i in range(len(targets))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        winners = [targets[i] for i, (status, body) in enumerate(replies)
                   if status == 200 and body["outcome"] == "SUCCESS"]
        assert len(winners) == 1
        states = {sw: s.query_entries() for sw, s in switches.items()}
        assert resolve_active_path(topology, states) == winners[0]
        status, body = http_get(client.base_url + "/paths")
        assert status == 200
        assert [p["id"] for p in body["paths"] if p["status"] == "ACTIVE"] == winners
        assert all(s.pending_count == 0 for s in switches.values())

    def test_unknown_routes_are_404(self, http_northbound):
        client, _, _, _ = http_northbound
        status, _ = http_get(client.base_url + "/nowhere/paths")
        assert status == 404

    def test_a_post_to_an_unknown_path_is_404(self, http_northbound):
        client, switches, _, _ = http_northbound
        nowhere = HttpControllerClient(client.base_url + "/nowhere", SimClock())
        status, body = nowhere.post_reconfigure({"request_id": "r", "set_up": "link1"})
        assert (status, body) == (404, {"error": "unknown path"})
        assert all(not s.query_entries() for s in switches.values())


class TestHttpControllerClient:
    @pytest.mark.parametrize("status, reply, expected", [
        (200, b"\xff", ConnectionError),
        (200, b"not json", ConnectionError),
        (200, b"[1]", ConnectionError),
        (409, b"\xff", (409, {"error": "\ufffd"})),
        (409, b"[1]", (409, {"error": "[1]"})),
        (200, b"[" * 60000, ConnectionError),
    ], ids=["2xx-non-utf8", "2xx-non-json", "2xx-non-object", "4xx-non-utf8",
            "4xx-non-object", "2xx-nested-too-deeply"])
    def test_a_malformed_reply(self, status, reply, expected):
        """A stub northbound answers with a body that is not UTF-8, not JSON,
        not an object or nested too deeply to parse: a 2xx reply raises ConnectionError, as a malformed
        line reply does; an error reply keeps its status and carries the text."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                length = 0
                while (line := rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                rfile.read(length)
                conn.sendall(b"HTTP/1.0 %d X\r\nContent-Length: %d\r\n\r\n%s"
                             % (status, len(reply), reply))

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        host, port = listener.getsockname()
        client = HttpControllerClient(f"http://{host}:{port}", SimClock())
        try:
            body = {"request_id": "r", "set_up": "link1"}
            if expected is ConnectionError:
                with pytest.raises(ConnectionError):
                    client.post_reconfigure(body)
            else:
                assert client.post_reconfigure(body) == expected
        finally:
            server.join(timeout=5)
            assert not server.is_alive()
            listener.close()


def _artifacts(run) -> tuple:
    """The run's metrics.csv body, monitor and controller log lines, and
    timing.csv rows, as run_scenario writes them."""
    events = run.qpm.events
    return (run.metrics_text(),
            [json.dumps(event.to_dict(), separators=(",", ":")) for event in events],
            [json.dumps(record, separators=(",", ":")) for record in run.controller_records],
            timing_rows(extract_episodes(events)[1], run.scenario, run.topology))


class TestScenarioOverSockets:
    @pytest.mark.parametrize("topology, scenario, seed", [
        ("reference_topology.json", "attack-link1.json", 42),
        ("reference_topology.json", "attack-link1-then-link2.json", 7),
        ("reference_topology.json", "attack-all-links.json", 11),
        ("reference_topology_link2_first.json", "steadystate-link2.json", 42),
    ])
    def test_the_run_over_sockets_is_the_in_process_run(self, configs, topology, scenario,
                                                        seed):
        """The reference runs wired over 127.0.0.1 write the in-process
        run's artifacts byte for byte, and leave no server, socket or
        thread behind."""
        def build():
            return ScenarioRun(load_topology(str(configs / topology)),
                               load_scenario(str(configs / scenario)), seed)

        in_process = build()
        in_process.execute()
        run = build()
        threads = set(threading.enumerate())
        with over_sockets(run) as addresses:
            assert len(addresses) == len(run.switches) + 2
            assert all(host == "127.0.0.1" and port for host, port in addresses.values())
            run.execute()
        started = set(threading.enumerate()) - threads
        for thread in started:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in started)
        assert _artifacts(run) == _artifacts(in_process)
        assert run.controller.switch_links is run.links
        assert run.qpm.controller_client is run.controller_client
        assert run.qpm.qkd_client is run


def test_the_run_never_imports_the_socket_wiring():
    """The CLI and the runner import neither realtime nor the stdlib
    servers and clients it is built on."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    modules = ("qkdsim.realtime", "http.server", "socketserver", "urllib.request")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, qkdsim.cli, qkdsim.scenario; "
         f"print([m for m in {modules!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"

"""Wire formats over real sockets match the in-process schemas byte for byte."""

from __future__ import annotations

import http.client
import json
import socket

import numpy as np
import pytest

from qkdsim.clock import WallClock
from qkdsim.controller import Northbound, SdnController, SwitchDisconnected
from qkdsim.physics import ATTACK_OFF, CalibrationAnchors, calibrate
from qkdsim.qkd_unit import MonitorAgent, QkdUnitPair
from qkdsim.realtime import (
    HttpControllerClient,
    MonitorSocketClient,
    SocketSwitchLink,
    serve_agent,
    serve_northbound,
)
from qkdsim.switch import OpticalSwitch, SwitchAgent
from qkdsim.topology import resolve_active_path


class FrozenClock:
    def __init__(self, t=0.0):
        self._t = t

    def now(self):
        return self._t

    def advance(self, dt):
        pass


@pytest.fixture()
def switch_server():
    switch = OpticalSwitch("alice", 8)
    server = serve_agent(SwitchAgent(switch))
    yield switch, server
    server.shutdown()
    server.server_close()


class TestSwitchSocket:
    def raw_connection(self, server):
        host, port = server.server_address
        sock = socket.create_connection((host, port), timeout=5.0)
        return sock, sock.makefile("rb")

    def test_greeting_and_ack_bytes(self, switch_server):
        _, server = switch_server
        sock, reader = self.raw_connection(server)
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
        sock, reader = self.raw_connection(server)
        try:
            reader.readline()  # greeting
            sock.sendall(
                b'{"type":"FLOW_MOD","xid":1,"command":"ADD","in_port":2,"out_port":3}\n'
                b'{"type":"FLOW_MOD","xid":2,"command":"ADD","in_port":4,"out_port":5}\n')
            assert json.loads(reader.readline())["xid"] == 1
            assert json.loads(reader.readline())["xid"] == 2
        finally:
            sock.close()

    def test_protocol_violation_drops_the_connection(self, switch_server):
        _, server = switch_server
        sock, reader = self.raw_connection(server)
        try:
            reader.readline()
            sock.sendall(b'{"type":"REBOOT","xid":1}\n')
            assert reader.readline() == b""  # server closed on us
        finally:
            sock.close()

    def test_switch_link_speaks_to_a_live_switch(self, switch_server):
        switch, server = switch_server
        host, port = server.server_address
        link = SocketSwitchLink(host, port)
        try:
            assert link.switch_id == "alice"
            ack = link.send({"type": "FLOW_MOD", "xid": 3, "command": "ADD",
                             "in_port": 0, "out_port": 1})
            assert ack == {"type": "FLOW_MOD_ACK", "xid": 3, "status": "STAGED"}
            reply = link.send({"type": "BARRIER_REQUEST", "xid": 4})
            assert reply["committed_xids"] == [3]
            assert dict(switch.query_entries()) == {0: 1}
        finally:
            link.close()

    def test_closed_link_raises_switch_disconnected(self, switch_server):
        _, server = switch_server
        host, port = server.server_address
        link = SocketSwitchLink(host, port)
        link.close()
        with pytest.raises(SwitchDisconnected):
            link.send({"type": "BARRIER_REQUEST", "xid": 1})


class TestMonitorSocket:
    def test_socket_reading_equals_direct_reading(self):
        clock = FrozenClock(321.5)
        unit = QkdUnitPair(np.random.default_rng(0))
        channel = calibrate(CalibrationAnchors(950.0, 0.02, -17.0, -9.0, 45.0))
        unit.start_session(channel, now=0.0)
        unit.tick(321.5, channel, ATTACK_OFF)
        server = serve_agent(MonitorAgent(unit, clock))
        try:
            host, port = server.server_address
            client = MonitorSocketClient(host, port)
            over_socket = client.read_monitor()
            client.close()
            assert over_socket == unit.read_monitor(321.5)
            assert over_socket["state"] == "Generating"
            assert over_socket["skr_bps"] > 0
        finally:
            server.shutdown()
            server.server_close()

    def test_a_non_utf8_line_drops_the_connection_silently(self, capfd):
        unit = QkdUnitPair(np.random.default_rng(0))
        server = serve_agent(MonitorAgent(unit, FrozenClock()), "127.0.0.1", 0)
        try:
            with socket.create_connection(server.server_address, timeout=5.0) as sock:
                sock.sendall(b"\xff\n")
                assert sock.makefile("rb").readline() == b""  # server closed on us
        finally:
            server.shutdown()
            server.server_close()
        assert capfd.readouterr().err == ""

    def test_a_dropped_connection_raises_connection_error(self):
        class BrokenAgent:
            def process_line(self, line):
                raise RuntimeError("agent fault")

        server = serve_agent(BrokenAgent())
        try:
            client = MonitorSocketClient(*server.server_address)
            with pytest.raises(ConnectionError):
                client.read_monitor()
            client.close()
        finally:
            server.shutdown()
            server.server_close()


@pytest.fixture()
def http_northbound(reference_topology):
    clock = WallClock()
    switches = {sw: OpticalSwitch(sw, n) for sw, n in reference_topology.switches.items()}

    class DirectLink:
        def __init__(self, switch):
            self.switch = switch

        def send(self, msg):
            return self.switch.handle_message(msg)

    controller = SdnController(reference_topology,
                               {sw: DirectLink(s) for sw, s in switches.items()}, clock)
    server = serve_northbound(Northbound(controller))
    host, port = server.server_address
    client = HttpControllerClient(f"http://{host}:{port}")
    yield client, switches, reference_topology
    server.shutdown()
    server.server_close()


class TestHttpNorthbound:
    def test_reconfigure_round_trip(self, http_northbound):
        client, switches, topology = http_northbound
        status, body = client.post_reconfigure(
            {"request_id": "r1", "tear_down": None, "set_up": "link1"})
        assert status == 200
        assert body["outcome"] == "SUCCESS"
        assert set(body) == {"request_id", "outcome", "transactions", "duration_ms"}
        states = {sw: s.query_entries() for sw, s in switches.items()}
        assert resolve_active_path(topology, states) == "link1"

    def test_validation_errors_surface_as_400(self, http_northbound):
        client, _, _ = http_northbound
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
    ])
    def test_malformed_requests_get_one_400(self, http_northbound, body, length):
        client, switches, _ = http_northbound
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

    def test_get_paths(self, http_northbound):
        client, _, _ = http_northbound
        client.post_reconfigure({"request_id": "r", "set_up": "link2"})
        status, body = client.get_paths()
        assert status == 200
        assert [p["status"] for p in body["paths"]] == ["INACTIVE", "ACTIVE", "INACTIVE"]

    def test_unknown_routes_are_404(self, http_northbound):
        client, _, _ = http_northbound
        status, _ = HttpControllerClient(client.base_url + "/nowhere").get_paths()
        assert status == 404

"""Socket transports for running components as real networked services.

The deterministic runner wires components together in one process; this
module provides the alternative wiring where switch agents and the
monitor serve newline-delimited JSON over TCP and the controller's
northbound is plain HTTP. Wire schemas are produced by the same agent
classes as the in-process mode, so the bytes on the socket match the
in-process dictionaries exactly. Real-time runs are inherently
non-deterministic and excluded from byte-exact output contracts.
"""

from __future__ import annotations

import http.server
import json
import socket
import socketserver
import threading
import urllib.error
import urllib.request

from .controller import Northbound, SwitchDisconnected


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self):
        agent = self.server.agent  # type: ignore[attr-defined]
        greeting = getattr(agent, "greeting_line", None)
        if greeting is not None:
            self.wfile.write(greeting().encode("utf-8"))
        for raw in self.rfile:
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                reply = agent.process_line(line)
            except Exception:
                break  # protocol violation: drop the connection
            self.wfile.write(reply.encode("utf-8"))


class LineServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def serve_agent(agent, host: str = "127.0.0.1", port: int = 0) -> LineServer:
    """Serve one line-protocol agent on a TCP socket in a daemon thread."""
    server = LineServer((host, port), _LineHandler)
    server.agent = agent  # type: ignore[attr-defined]
    threading.Thread(target=lambda: server.serve_forever(poll_interval=0.05),
                     daemon=True).start()
    return server


class _LineClient:
    """One TCP connection exchanging newline-delimited JSON lines."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("r", encoding="utf-8")
        self._wfile = self._sock.makefile("w", encoding="utf-8")

    def _read(self) -> dict:
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("peer closed the connection")
        return json.loads(line)

    def _exchange(self, msg: dict) -> dict:
        self._wfile.write(json.dumps(msg, separators=(",", ":")) + "\n")
        self._wfile.flush()
        return self._read()

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class SocketSwitchLink(_LineClient):
    """Controller-side southbound transport over a real socket."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        super().__init__(host, port, timeout)
        self.hello = self._read()
        self.switch_id = self.hello.get("switch", "?")
        self.connected = True

    def send(self, msg: dict) -> dict:
        if not self.connected:
            raise SwitchDisconnected(self.switch_id)
        try:
            return self._exchange(msg)
        except (OSError, json.JSONDecodeError) as exc:  # OSError covers ConnectionError
            self.connected = False
            raise SwitchDisconnected(self.switch_id) from exc

    def close(self):
        self.connected = False
        super().close()


class MonitorSocketClient(_LineClient):
    """QPM-side monitor reader over a real socket."""

    def read_monitor(self) -> dict:
        return self._exchange({"op": "read_monitor"})


class _NorthboundHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        if self.path != "/reconfigure":
            self._respond(404, {"error": "unknown path"})
            return
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):
            self._respond(400, {"error": "Content-Length must be a non-negative integer"})
            return
        raw = self.rfile.read(int(length)) if int(length) else b"{}"
        try:
            body = json.loads(raw)
        except ValueError:  # not JSON, or not UTF-8
            self._respond(400, {"error": "body is not valid JSON"})
            return
        status, resp = self.server.northbound.post_reconfigure(body)  # type: ignore[attr-defined]
        self._respond(status, resp)

    def do_GET(self):
        if self.path != "/paths":
            self._respond(404, {"error": "unknown path"})
            return
        status, resp = self.server.northbound.get_paths()  # type: ignore[attr-defined]
        self._respond(status, resp)

    def log_message(self, fmt, *args):
        pass  # quiet; diagnostics belong to the caller

    def _respond(self, status: int, obj: dict):
        data = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def serve_northbound(northbound: Northbound, host: str = "127.0.0.1",
                     port: int = 0) -> http.server.ThreadingHTTPServer:
    server = http.server.ThreadingHTTPServer((host, port), _NorthboundHandler)
    server.northbound = northbound  # type: ignore[attr-defined]
    threading.Thread(target=lambda: server.serve_forever(poll_interval=0.05),
                     daemon=True).start()
    return server


class HttpControllerClient:
    """QPM-side northbound client over real HTTP."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def post_reconfigure(self, body: dict) -> tuple[int, dict]:
        request = urllib.request.Request(
            self.base_url + "/reconfigure",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._exchange(request)

    def get_paths(self) -> tuple[int, dict]:
        request = urllib.request.Request(self.base_url + "/paths", method="GET")
        return self._exchange(request)

    def _exchange(self, request) -> tuple[int, dict]:
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                return exc.code, json.loads(raw)
            except json.JSONDecodeError:
                return exc.code, {"error": raw.decode("utf-8", "replace")}

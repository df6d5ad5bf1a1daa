"""Socket transports: the simulator's control loop over TCP and HTTP.

The deterministic runner wires components together in one process; this
module provides the alternative wiring where switches and the monitor
serve newline-delimited JSON over TCP and the controller's northbound
is plain HTTP. Each server answers through the same entry point that
the in-process wiring calls, so the bytes on the socket match the
in-process dictionaries exactly. over_sockets runs a ScenarioRun in
this wiring under the run's own simulated clock: a southbound or
northbound exchange takes the same modelled latency as in process
(controller.timed_exchange) and a monitor exchange takes none, so the
run's artifacts are the in-process run's, byte for byte.
"""

from __future__ import annotations

import http.server
import json
import socket
import socketserver
import threading
import urllib.error
import urllib.request
from contextlib import ExitStack, contextmanager
from typing import Callable

from .controller import Northbound, SwitchDisconnected, timed_exchange

# The longest request line or northbound body a server reads, in bytes; a
# peer's length or line past it is refused before it is read into memory.
MAX_REQUEST_BYTES = 64 * 1024


def _json_object(raw) -> dict:
    """raw parsed as JSON; ValueError unless it is UTF-8 JSON of an object."""
    try:
        obj = json.loads(raw)
    except RecursionError as exc:  # nested too deeply
        raise ValueError(str(exc)) from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _line(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self):
        server: LineServer = self.server  # type: ignore[assignment]
        try:
            if server.greeting is not None:
                self.wfile.write(_line(server.greeting))
            while True:
                raw = self.rfile.readline(MAX_REQUEST_BYTES + 1)
                if not raw or len(raw) > MAX_REQUEST_BYTES:
                    break  # closed, or a line too long: drop the connection
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    msg = json.loads(line)
                    with server.lock:
                        reply = _line(server.reply_to(msg))
                except Exception:
                    break  # protocol violation: drop the connection
                self.wfile.write(reply)
        except OSError:
            pass  # reset or broken by the peer: drop the connection


class LineServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    reply_to: Callable[[dict], dict]
    greeting: dict | None
    lock: threading.Lock


def serve_agent(handle: Callable[[dict], dict], greeting: dict | None = None,
                host: str = "127.0.0.1", port: int = 0) -> LineServer:
    """Serve handle, one request dict in and one reply dict out, as
    newline-delimited JSON on a TCP socket in a daemon thread. greeting,
    if given, is the first line of every connection. A request that is
    not JSON, or that handle raises on, drops its connection."""
    server = LineServer((host, port), _LineHandler)
    server.reply_to, server.greeting = handle, greeting
    # Each connection has its own thread, but requests run one at a time:
    # staging is check-then-write on one switch's table, and a monitor
    # request may tick the run's unit.
    server.lock = threading.Lock()
    threading.Thread(target=lambda: server.serve_forever(poll_interval=0.05),
                     daemon=True).start()
    return server


def _monitor(run):
    """The monitor's entry point over run, its unit client: read_monitor
    replies with the run's read-out, and start_session replies {} once the
    session has started. Any other op raises."""
    def handle(msg: dict) -> dict:
        op = msg.get("op")
        if op == "read_monitor":
            return run.read_monitor()
        if op == "start_session":
            run.start_session()
            return {}
        raise ValueError(f"unknown monitor op {op!r}")
    return handle


class _LineClient:
    """One TCP connection exchanging newline-delimited JSON lines."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("r", encoding="utf-8")
        self._wfile = self._sock.makefile("w", encoding="utf-8")

    def _read(self) -> dict:
        """The next reply; ConnectionError when the peer closed the connection
        or sent a line that is not UTF-8 JSON of an object."""
        try:
            line = self._rfile.readline()
            if line:
                return _json_object(line)
        except ValueError as exc:
            raise ConnectionError(f"malformed reply: {exc}") from exc
        raise ConnectionError("peer closed the connection")

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
    """Controller-side southbound transport over a real socket; each
    message is a timed_exchange on clock."""

    def __init__(self, host: str, port: int, clock, timeout: float = 5.0):
        super().__init__(host, port, timeout)
        self.clock = clock
        try:
            self.hello = self._read()
        except OSError:  # closed, timed out or malformed: release the socket
            super().close()
            raise
        self.switch_id = self.hello.get("switch", "?")
        self.connected = True

    def send(self, msg: dict) -> dict:
        if not self.connected:
            raise SwitchDisconnected(self.switch_id)
        try:
            return timed_exchange(self.clock, self._exchange, msg)
        except OSError as exc:  # ConnectionError included: a lost or malformed reply
            self.connected = False
            raise SwitchDisconnected(self.switch_id) from exc

    def close(self):
        self.connected = False
        super().close()


class MonitorSocketClient(_LineClient):
    """QPM-side unit client over a real socket; it takes no simulated time."""

    def read_monitor(self) -> dict:
        return self._exchange({"op": "read_monitor"})

    def start_session(self) -> None:
        self._exchange({"op": "start_session"})


class _NorthboundHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        if self.path != "/reconfigure":
            self._respond(404, {"error": "unknown path"})
            return
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):
            self._respond(400, {"error": "Content-Length must be a non-negative integer"})
            return
        # Compared by digit count first: int() refuses a string of over 4300 digits.
        digits = length.lstrip("0") or "0"
        if len(digits) > len(str(MAX_REQUEST_BYTES)) or int(digits) > MAX_REQUEST_BYTES:
            self._respond(413, {"error": f"body longer than {MAX_REQUEST_BYTES} bytes"})
            return
        size = int(digits)
        raw = self.rfile.read(size) if size else b"{}"
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError):  # not JSON, not UTF-8, or nested too deeply
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
    """QPM-side northbound client over real HTTP; each request is a
    timed_exchange on clock."""

    def __init__(self, base_url: str, clock, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.clock = clock
        self.timeout = timeout

    def post_reconfigure(self, body: dict) -> tuple[int, dict]:
        request = urllib.request.Request(
            self.base_url + "/reconfigure",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return timed_exchange(self.clock, self._exchange, request)

    def _exchange(self, request) -> tuple[int, dict]:
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                return exc.code, _json_object(raw)
            except ValueError:  # not UTF-8 JSON of an object
                return exc.code, {"error": raw.decode("utf-8", "replace")}
        try:
            return status, _json_object(raw)
        except ValueError as exc:  # not UTF-8 JSON of an object
            raise ConnectionError(f"malformed reply: {exc}") from exc


def _stop(servers):
    """Shut servers down together, since each waits out its poll interval,
    then close them, which joins their handler threads."""
    stopping = [threading.Thread(target=server.shutdown) for server in servers]
    for thread in stopping:
        thread.start()
    for thread in stopping:
        thread.join()
    for server in servers:
        server.server_close()


@contextmanager
def over_sockets(run):
    """The control loop of run, a ScenarioRun, over sockets in the block.

    Serves each of run's switches through OpticalSwitch.handle_message,
    the entry point InProcessSwitchLink calls, after a HELLO greeting; its
    Northbound over HTTP; and run itself as the monitor's unit client, on
    127.0.0.1 ephemeral ports. Points its controller and monitor at them
    through SocketSwitchLink, HttpControllerClient and MonitorSocketClient
    under run's clock. Yields each server's (host, port) by name. On exit
    every client and server is closed and the in-process wiring is put back.
    """
    controller, qpm = run.controller, run.qpm
    in_process = controller.switch_links, qpm.controller_client, qpm.qkd_client
    try:
        with ExitStack() as stack:
            servers: list = []
            stack.callback(_stop, servers)

            def serve(server):
                servers.append(server)
                return server.server_address

            def connect(client):
                stack.callback(client.close)
                return client

            addresses = {f"switch {sid}": serve(serve_agent(
                switch.handle_message, {"type": "HELLO", "switch": switch.switch_id}))
                for sid, switch in run.switches.items()}
            addresses["monitor"] = serve(serve_agent(_monitor(run)))
            addresses["northbound"] = serve(serve_northbound(run.northbound))
            controller.switch_links = {
                sid: connect(SocketSwitchLink(*addresses[f"switch {sid}"], run.clock))
                for sid in run.switches}
            qpm.controller_client = HttpControllerClient(
                "http://%s:%d" % addresses["northbound"], run.clock)
            qpm.qkd_client = connect(MonitorSocketClient(*addresses["monitor"]))
            yield addresses
    finally:
        controller.switch_links, qpm.controller_client, qpm.qkd_client = in_process

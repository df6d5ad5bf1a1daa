#!/usr/bin/env python3
"""Networked demo: every control-plane exchange over real sockets.

Starts one TCP server per optical switch, a TCP monitor server for the
QKD units, and the controller's northbound HTTP API, then performs a
provisioning and a failover through real connections and prints each
step. This exercises the same wire schemas as the in-process simulator,
just over OS sockets and wall-clock time.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from qkdsim.clock import WallClock
from qkdsim.controller import Northbound, SdnController
from qkdsim.physics import ATTACK_OFF
from qkdsim.qkd_unit import MonitorAgent, QkdUnitPair
from qkdsim.realtime import (
    HttpControllerClient,
    MonitorSocketClient,
    SocketSwitchLink,
    serve_agent,
    serve_northbound,
)
from qkdsim.switch import OpticalSwitch, SwitchAgent
from qkdsim.topology import load_topology, resolve_active_path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    topology = load_topology(str(CONFIGS / "reference_topology.json"))
    clock = WallClock()

    switches = {sid: OpticalSwitch(sid, ports)
                for sid, ports in topology.switches.items()}
    switch_servers = {sid: serve_agent(SwitchAgent(sw))
                      for sid, sw in switches.items()}
    links = {}
    for sid, server in switch_servers.items():
        host, port = server.server_address
        links[sid] = SocketSwitchLink(host, port)
        print(f"switch {sid}: serving on {host}:{port}, "
              f"HELLO={links[sid].hello}")

    unit = QkdUnitPair(np.random.default_rng(0), init_time_s=0.5,
                       key_interval_s=0.5)
    monitor_server = serve_agent(MonitorAgent(unit, clock))
    host, port = monitor_server.server_address
    monitor = MonitorSocketClient(host, port)
    print(f"monitor: serving on {host}:{port}")

    controller = SdnController(topology, links, clock)
    nb_server = serve_northbound(Northbound(controller))
    host, port = nb_server.server_address
    client = HttpControllerClient(f"http://{host}:{port}")
    print(f"northbound: http://{host}:{port}")

    status, body = client.post_reconfigure(
        {"request_id": "demo-1", "tear_down": None, "set_up": "link1"})
    print(f"\nPOST /reconfigure link1 -> {status} outcome={body['outcome']} "
          f"xids={[t['xid'] for t in body['transactions']]} "
          f"duration_ms={body['duration_ms']:.2f}")

    states = {sid: sw.query_entries() for sid, sw in switches.items()}
    active = resolve_active_path(topology, states)
    print(f"fabric resolves to: {active}")
    unit.start_session(topology.link_for_path(active).channel)
    unit.tick(1.5, topology.link_for_path(active).channel, ATTACK_OFF)
    print(f"monitor reading over socket: {monitor.read_monitor()}")

    status, body = client.post_reconfigure(
        {"request_id": "demo-2", "tear_down": "link1", "set_up": "link3"})
    print(f"\nPOST /reconfigure link1->link3 -> {status} outcome={body['outcome']} "
          f"xids={[t['xid'] for t in body['transactions']]}")
    states = {sid: sw.query_entries() for sid, sw in switches.items()}
    print(f"fabric resolves to: {resolve_active_path(topology, states)}")

    status, body = client.get_paths()
    print(f"\nGET /paths -> {status}")
    for entry in body["paths"]:
        print(f"  {entry['id']}: {entry['status']}")

    status, body = client.post_reconfigure({"request_id": "demo-3", "set_up": "nope"})
    print(f"\nPOST /reconfigure with unknown path -> {status} ({body['error']})")

    monitor.close()
    for link in links.values():
        link.close()
    for server in (*switch_servers.values(), monitor_server, nb_server):
        server.shutdown()
        server.server_close()
    print("\ndemo complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Networked demo: the simulator's control loop over real sockets.

Runs the reference link1 attack (seed 42) with every control-plane
exchange on 127.0.0.1: one TCP server per optical switch, a TCP monitor
server for the QKD units, and the controller's northbound HTTP API. It
is the run `qkdsim run` makes, under the same simulated clock, so the
monitor events it prints (detection, failover, re-init) are that run's.
"""

from __future__ import annotations

import sys
from pathlib import Path

from qkdsim.realtime import over_sockets
from qkdsim.scenario import ScenarioRun, load_scenario
from qkdsim.topology import load_topology

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    run = ScenarioRun(load_topology(str(CONFIGS / "reference_topology.json")),
                      load_scenario(str(CONFIGS / "attack-link1.json")), seed=42)
    with over_sockets(run) as addresses:
        for name, (host, port) in addresses.items():
            print(f"{name}: serving on {host}:{port}")
        run.execute()
    print()
    for event in run.qpm.events:
        print(f"t={event.t:.3f} {event.kind} {event.path} {event.detail}")
    print("\ndemo complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up steps that setup_s times cold, in a fresh interpreter.

This module imports nothing but qkdsim, so importing it costs what
importing the simulator costs. It is also what the workloads use to
build their fabric, so the cold and the timed paths share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import qkdsim.cli  # noqa: F401  -- every `qkdsim run` pays the CLI import
from qkdsim import controller, scenario, switch, topology
from qkdsim.clock import SimClock


@dataclass
class Fabric:
    """In-process switches under one controller, driven northbound."""

    topology: topology.Topology
    clock: SimClock
    switches: dict
    records: list
    client: controller.LocalControllerClient


def build_run(topology_file: str, scenario_file: str, seed: int) -> scenario.ScenarioRun:
    """What `qkdsim run` does before its first simulated event."""
    topo = scenario.load_topology(topology_file)
    return scenario.ScenarioRun(topo, scenario.load_scenario(scenario_file), seed)


def build_fabric(topology_file: str) -> Fabric:
    topo = topology.load_topology(topology_file)
    clock = SimClock()
    switches = {sid: switch.OpticalSwitch(sid, ports)
                for sid, ports in topo.switches.items()}
    links = {sid: controller.InProcessSwitchLink(sw, clock)
             for sid, sw in switches.items()}
    records: list[dict] = []
    sdn = controller.SdnController(topo, links, clock, log=records.append)
    client = controller.LocalControllerClient(controller.Northbound(sdn), clock)
    return Fabric(topo, clock, switches, records, client)

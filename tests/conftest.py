"""Shared fixtures: bundled configs and session-scoped scenario runs, and
LinkFaults, the one way a test injects a southbound fault."""

from __future__ import annotations

import functools
import itertools
import time
from pathlib import Path

import pytest

from qkdsim.controller import SwitchDisconnected
from qkdsim.scenario import Scenario, ScenarioRun, run_scenario
from qkdsim.topology import load_topology

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# One line per acceptance criterion, echoed after the test summary so a
# plain pytest run doubles as the acceptance report.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(ACCEPTANCE_LINES)):
            terminalreporter.write_line(line)


class LinkFaults:
    """Faults on a dict of switch links, injected by wrapping each link's send.

    Each switch's messages are counted from the call that sets its fault:
    drop(sid, n) loses its n-th message (0 is the next one); down_after(sid, n)
    lets n through and loses every later one until restore(sid); after(sid, n,
    action) loses none and calls action once the n-th is answered. A lost
    message never reaches its switch and takes no time: send raises
    SwitchDisconnected, as SocketSwitchLink does on a socket error.
    """

    def __init__(self, links: dict):
        self._faults: dict = {}  # switch id -> (message counter, lose(i), then(i))
        for sid, link in links.items():
            link.send = functools.partial(self._send, sid, link.send)

    def drop(self, switch_id: str, n: int):
        self._set(switch_id, lambda i: i == n)

    def down_after(self, switch_id: str, n: int):
        self._set(switch_id, lambda i: i >= n)

    def after(self, switch_id: str, n: int, action):
        self._set(switch_id, lambda i: False, lambda i: i == n and action())

    def restore(self, switch_id: str):
        self._faults.pop(switch_id, None)

    def _set(self, switch_id, lose, then=lambda i: None):
        self._faults[switch_id] = (itertools.count(), lose, then)

    def _send(self, switch_id, forward, msg):
        if switch_id not in self._faults:
            return forward(msg)
        counter, lose, then = self._faults[switch_id]
        index = next(counter)
        if lose(index):
            raise SwitchDisconnected(switch_id)
        reply = forward(msg)
        then(index)
        return reply


@pytest.fixture(scope="session")
def configs() -> Path:
    return CONFIGS


@pytest.fixture(scope="session")
def reference_topology():
    return load_topology(str(CONFIGS / "reference_topology.json"))


@pytest.fixture()
def lit_run(reference_topology):
    """A run with link1 lit and no session started."""
    run = ScenarioRun(reference_topology, Scenario(600.0, ()), seed=0)
    run.controller_client.post_reconfigure({"request_id": "r", "set_up": "link1"})
    return run


def _run(tmp_path_factory, label: str, topology: str, scenario: str, seed: int,
         allow_exhaustion: bool = False) -> dict:
    out = tmp_path_factory.mktemp(label)
    t0 = time.perf_counter()
    code = run_scenario(
        str(CONFIGS / topology), str(CONFIGS / scenario), seed=seed,
        out_dir=str(out), deterministic=True, allow_exhaustion=allow_exhaustion,
    )
    wall_s = time.perf_counter() - t0
    return {"out": out, "code": code, "wall_s": wall_s}


@pytest.fixture(scope="session")
def run_link1(tmp_path_factory) -> dict:
    """Single-episode mitigation: attack on link1, fail over to link2."""
    return _run(tmp_path_factory, "run_link1",
                "reference_topology.json", "attack-link1.json", seed=42)


@pytest.fixture(scope="session")
def run_two_episodes(tmp_path_factory) -> dict:
    """Two-episode mitigation: link1 then link2 attacked, ending on link3."""
    return _run(tmp_path_factory, "run_two",
                "reference_topology.json", "attack-link1-then-link2.json", seed=7)


@pytest.fixture(scope="session")
def run_all_links(tmp_path_factory) -> dict:
    """Every link attacked: the run ends exhausted, in alarm state."""
    return _run(tmp_path_factory, "run_all",
                "reference_topology.json", "attack-all-links.json", seed=11)


@pytest.fixture(scope="session")
def run_steady_link2(tmp_path_factory) -> dict:
    """Reference run with link2 active from the start and no attacks."""
    return _run(tmp_path_factory, "run_steady",
                "reference_topology_link2_first.json", "steadystate-link2.json", seed=42)

"""Helper scripts under scripts/: smoke runs on the bundled configs."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_reference_scenarios_writes_every_run_and_sweep(tmp_path, capsys):
    script = load_script("run_reference_scenarios")
    assert (len(script.SCENARIOS), len(script.SWEEPS)) == (4, 2)
    assert script.main(["--out", str(tmp_path)]) == 0
    for name, *_ in script.SCENARIOS:
        assert (tmp_path / name / "metrics.csv").is_file()
        assert (tmp_path / name / "summary.txt").is_file()
    for name, *_ in script.SWEEPS:
        assert (tmp_path / name / "sweep.csv").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [name for name, *_ in script.SCENARIOS] + [name for name, *_ in script.SWEEPS])
    assert "all scenarios completed and passed their checks" in capsys.readouterr().out


def test_rerunning_reference_scenarios_rewrites_the_same_tree(tmp_path, capsys):
    """A rerun into a used --out leaves exactly the bytes of the first run."""
    script = load_script("run_reference_scenarios")

    def snapshot():
        return {str(p.relative_to(tmp_path)): p.read_bytes()
                for p in sorted(tmp_path.rglob("*")) if p.is_file()}

    assert script.main(["--out", str(tmp_path)]) == 0
    first = snapshot()
    assert script.main(["--out", str(tmp_path), "--seed", "7"]) == 0
    assert snapshot() != first
    assert script.main(["--out", str(tmp_path)]) == 0
    assert snapshot() == first
    assert sum(name.endswith("sweep.csv") for name in first) == len(script.SWEEPS)
    capsys.readouterr()


def test_realtime_demo_reroutes_over_sockets():
    """The demo serves every agent on 127.0.0.1 ephemeral ports and closes
    the loop over them: detection, failover and re-init."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, str(SCRIPTS / "realtime_demo.py")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # Four switches, the monitor and the northbound.
    assert sum(": serving on 127.0.0.1:" in line for line in lines) == 6
    events = [line.split()[1:3] for line in lines if line.startswith("t=")]
    assert events[events.index(["DETECTED", "link1"]):] == [
        ["DETECTED", "link1"], ["RECONFIG_SENT", "link2"], ["RECONFIG_DONE", "link2"],
        ["REINIT_DONE", "link2"]]
    assert lines[-1] == "demo complete"

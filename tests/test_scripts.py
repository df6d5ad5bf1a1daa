"""Helper scripts under scripts/: smoke runs on the bundled configs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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

"""Smoke test of the benchmark at tiny sizes; it never checks speed.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload):
    digests = set()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in SPEC[kind]}
        digests |= {line for line in lines if line.startswith("digest ")}
    assert len(digests) == 1, digests


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "long-attack", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""

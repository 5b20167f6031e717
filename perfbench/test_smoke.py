"""Smoke test of the benchmark itself: every workload, both modes, tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Checks the result line's schema, that its metrics are exactly the ones
BENCHMARK.json names, and that the correctness gate holds (no failed
scenario, behaviour digest matches). It runs the benchmark as the command
line would, from the repository root.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_share 0 ") for line in lines)
    assert any(line.startswith("digest ok ") for line in lines)

    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        assert result["metrics"]["components.dispatch_row.calls_per_node_tick"]["value"] == 2
        assert result["metrics"]["sim.row3_count"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path: Path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "digests.json").write_text((ROOT / "perfbench" / "digests.json").read_text())
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "wide_bus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

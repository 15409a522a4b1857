"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench -q

Each workload runs at one tile for one second, with tracing off and on; the
last output line must parse and carry every named metric with its unit.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from layers import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, check_afm, setup  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiles", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == {m.name for m in specs}
    for m in specs:
        entry = result["metrics"][m.name]
        assert entry["unit"] == m.unit
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    details = json.loads(proc.stdout.strip().splitlines()[-2])
    assert details["files_sha256"] and details["error_rate"] == 0.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sparse-clean", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_afm_check_catches_a_wrong_field(tmp_path):
    from polyform.cli import main

    workload = WORKLOADS["sparse-clean"]
    setup(workload, 5, 1, tmp_path)
    assert main(["encode", str(tmp_path / "gt.geojson"), str(tmp_path / "rasters")]) == 0
    assert check_afm(tmp_path, 5) == []
    afm = next((tmp_path / "rasters").glob("*.afm.rgf"))
    data = bytearray(afm.read_bytes())
    payload = memoryview(data)[20:].cast("f")
    for i in range(len(payload)):
        payload[i] *= 1.01
    afm.write_bytes(bytes(data))
    assert check_afm(tmp_path, 5)

"""Smoke test of the benchmark itself: each workload at a tiny length.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that an untraced run prints every end-to-end metric of BENCHMARK.json
with its unit, plus the named report metrics of its workload; that a traced
run prints every per-layer metric; and that the benchmark refuses to run
without the program next to it.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "1",
          "delta_size.arm": "channels", "delta_size.balloon": "channels",
          "ill_posed_l6.balloon": "count", "unit_min_ms": "ms", "unit_ms": "ms",
          "ref_ms": "ms"}
REPORTED = {
    "build": {f"{k}_s.{m}": "s" for k in ("equilibrium", "linearize")
              for m in ("arm", "balloon")},
    "sweep": {"sample_point_ms.arm": "ms"},
    "validate": {"validate_point_ms.arm": "ms", "max_rel_err.arm": "1"},
}


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def last_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {n: v["unit"] for n, v in result["metrics"].items()}
    assert got == want
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    report, result = last_lines(run(ROOT, workload, 0))
    check_result(result, SPEC["end_to_end"])
    for name, v in result["metrics"].items():
        assert v["value"] > 0, name
    named = {n: v["unit"] for n, v in report["report"].items()}
    assert named == {**COMMON, **REPORTED[workload]}
    assert report["env"]["threads"]["OPENBLAS_NUM_THREADS"] == str(report["env"]["nproc"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    _, result = last_lines(run(ROOT, workload, 1))
    check_result(result, SPEC["per_layer"])
    spans = ROOT / ".perfbench_out" / f"spans-{workload}-seed3.jsonl"
    assert spans.stat().st_size > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

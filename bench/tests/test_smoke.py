"""Smoke run of the benchmark at its smallest size, on every workload.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402

WORKLOADS = ("chain", "block", "certified_check", "cli")


def bench(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def printed(stdout: str) -> dict[str, str]:
    """Metric lines ``name value unit ...`` by name, mapped to their unit."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            out[parts[0]] = parts[2]
    return out


def test_benchmark_json_lists_the_same_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        e for e in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _value, _moves in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout + proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        expected = {name: unit for name, unit, _b, _v, _m in metrics.PER_LAYER}
    else:
        expected = {name: unit for name, unit, _b in metrics.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = printed(proc.stdout)
    for name, unit in expected.items():
        assert lines.get(name) == unit, f"{name} not printed with unit {unit}"
    assert lines.get("error_rate") == "ratio"
    assert float(next(l for l in proc.stdout.splitlines() if l.startswith("error_rate ")).split()[1]) == 0


def test_refuses_to_run_without_sources():
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        cmd = [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "1", "--seconds", "1"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Smoke test of the benchmark itself, at its smallest size.

Run from the repository root with ``python3 -m pytest -q bench/test_smoke.py``.
Every workload runs once untraced and twice traced with ``--seconds 1``; the
test checks the result line against ``BENCHMARK.json``, that the traced
passes reproduce the untraced output digest, and that the exact counters
repeat between the two traced runs of one seed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Per-layer metrics that are exact counts (or ratios of counts).
COUNT_UNITS = ("count/op", "count/alloc", "ratio")


def bench(cwd: Path, workload: str, trace: int, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess, metrics: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$", proc.stdout, re.M)
    return result


def digest(proc: subprocess.CompletedProcess, kind: str) -> str:
    return re.search(rf"^# digest {kind} ([0-9a-f]+)", proc.stdout, re.M).group(1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_repeats(workload):
    plain = bench(ROOT, workload, 0)
    result_of(plain, SPEC["end_to_end"])
    first, second = bench(ROOT, workload, 1), bench(ROOT, workload, 1)
    r1 = result_of(first, SPEC["per_layer"])
    r2 = result_of(second, SPEC["per_layer"])
    # Tracing changes no result: both traced runs reproduce the untraced digest.
    assert digest(first, "traced") == digest(first, "untraced") == digest(plain, "untraced")
    assert digest(second, "traced") == digest(plain, "untraced")
    for m in SPEC["per_layer"]:
        if m["unit"] in COUNT_UNITS and m["name"] != "trace.overhead_ratio":
            assert r1["metrics"][m["name"]] == r2["metrics"][m["name"]], m["name"]


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)

#!/usr/bin/env python3
"""Record a parent revision and this checkout side by side in one JSON file.

    python3 scripts/bench_record.py --parent HEAD~1 record.json

The parent revision is exported with ``bench_pairs.export``.  For each side
the script records:

* the tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
  with ``src`` on ``PYTHONPATH``): its wall time and its passed and failed
  counts;
* kernel timings from one ``scripts/kernel_timings.py`` process on that
  side's ``src`` (BLAS pinned to one thread): best-of-5 microseconds per call
  of each kernel at n = 4 and n = 32, and of one ``scalar_allocate`` sweep;
* each experiment of ``scripts/run_experiments.py`` at its default
  parameters, one process per experiment (import included): its wall time,
  and whether its CSV and JSON are byte-identical between the two sides;
* one ``bench/run.py --seed 3 --trace 1`` run per workload of
  ``BENCHMARK.json``, for its run length: the result JSON it prints last and
  its untraced and traced output digests.

The two sides alternate within each step, so slow phases of a shared host
fall on both.  Timings are single runs on the recording host, which the file
names; they show that nothing regressed, not a speedup (``bench_pairs.py``
gives those verdicts).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from covrate.simkit import EXPERIMENTS  # noqa: E402

#: Seed of the traced benchmark runs.
BENCH_SEED = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def parse_pytest_counts(text: str) -> dict[str, int]:
    """``passed``/``failed``/``errors`` counts from pytest's last summary line."""
    counts = {"passed": 0, "failed": 0, "errors": 0}
    summaries = [ln for ln in text.splitlines() if re.search(r"\d+ \w+.* in [\d.]+s", ln)]
    if summaries:
        for num, word in re.findall(r"(\d+) (passed|failed|errors?)\b", summaries[-1]):
            counts["errors" if word.startswith("error") else word] = int(num)
    return counts


def parse_bench_output(stdout: str) -> dict:
    """Result JSON (the last line) and the digests of one ``bench/run.py`` run."""
    untraced = re.search(r"^# digest untraced ([0-9a-f]+)", stdout, re.M)
    traced = re.search(r"^# digest traced ([0-9a-f]+)", stdout, re.M)
    return {
        "result": json.loads(stdout.strip().splitlines()[-1]),
        "digest_untraced": untraced.group(1) if untraced else None,
        "digest_traced": traced.group(1) if traced else None,
    }


def build_record(meta: dict, sides: dict[str, dict]) -> dict:
    """The recorded document from both sides' raw measurements.

    ``sides`` maps ``"parent"`` and ``"change"`` to ``{"tier1": {...},
    "kernels": {name: microseconds}, "experiments": {name: {"seconds", "csv",
    "json"}}, "bench": {workload: parse_bench_output(...)}}``, where
    ``csv``/``json`` are the file bytes.  A kernel only one side times gets
    ``None`` on the other.
    """
    parent, change = sides["parent"], sides["change"]
    p_kern, c_kern = parent["kernels"], change["kernels"]
    kernels = {
        name: {"parent_us": p_kern.get(name), "change_us": c_kern.get(name)}
        for name in sorted(p_kern.keys() | c_kern.keys())
    }
    experiments = {}
    for name in parent["experiments"]:
        p, c = parent["experiments"][name], change["experiments"][name]
        experiments[name] = {
            "parent_s": round(p["seconds"], 3),
            "change_s": round(c["seconds"], 3),
            "csv_identical": p["csv"] == c["csv"],
            "json_identical": p["json"] == c["json"],
        }
    bench = {}
    for workload in parent["bench"]:
        p, c = parent["bench"][workload], change["bench"][workload]
        digests = {p["digest_untraced"], p["digest_traced"], c["digest_untraced"], c["digest_traced"]}
        bench[workload] = {
            "parent": p,
            "change": c,
            "digests_equal": len(digests) == 1 and None not in digests,
            "correct": p["result"]["correct"] and c["result"]["correct"],
        }
    return {
        **meta,
        "tier1": {name: sides[name]["tier1"] for name in ("parent", "change")},
        "kernels": kernels,
        "experiments": experiments,
        "bench": bench,
    }


def _timed(cmd: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    env = {**os.environ, "PYTHONPATH": str(cwd / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    return time.perf_counter() - t0, proc


def _tier1(side: Path) -> dict:
    seconds, proc = _timed(TIER1, side)
    return {"seconds": round(seconds, 1), **parse_pytest_counts(proc.stdout)}


def _kernels(side: Path) -> dict[str, float]:
    _, proc = _timed([sys.executable, str(ROOT / "scripts" / "kernel_timings.py")], side)
    if proc.returncode != 0:
        raise SystemExit(f"error: kernel timings failed in {side}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _experiment(side: Path, name: str, out: Path) -> dict:
    cmd = [sys.executable, "scripts/run_experiments.py", "--only", name, "--outdir", str(out)]
    seconds, proc = _timed(cmd, side)
    if proc.returncode != 0:
        raise SystemExit(f"error: experiment {name} failed in {side}:\n{proc.stderr}")
    return {
        "seconds": seconds,
        "csv": (out / name / f"{name}.csv").read_bytes(),
        "json": (out / name / f"{name}.json").read_bytes(),
    }


def _bench(side: Path, workload: str, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(BENCH_SEED),
           "--seconds", str(seconds), "--trace", "1"]
    _, proc = _timed(cmd, side)
    if proc.returncode != 0:
        raise SystemExit(f"error: bench/run.py failed in {side}:\n{proc.stderr}")
    return parse_bench_output(proc.stdout)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("output", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy
    import scipy

    meta = {
        "parent": _git("rev-parse", args.parent),
        "change": {
            "head": _git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        },
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "bench_seed": BENCH_SEED,
        "bench_seconds": spec["run_seconds"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dirs = {"parent": tmp / "parent", "change": ROOT}
        dirs["parent"].mkdir()
        export(args.parent, dirs["parent"])
        sides: dict[str, dict] = {name: {"experiments": {}, "bench": {}} for name in dirs}
        order = ("parent", "change")
        for name in order:
            print(f"# tier-1 {name}", flush=True)
            sides[name]["tier1"] = _tier1(dirs[name])
        for name in order[::-1]:
            print(f"# kernels {name}", flush=True)
            sides[name]["kernels"] = _kernels(dirs[name])
        for k, exp in enumerate(EXPERIMENTS):
            for name in order if k % 2 == 0 else order[::-1]:
                print(f"# experiment {exp} {name}", flush=True)
                sides[name]["experiments"][exp] = _experiment(dirs[name], exp, tmp / f"out-{name}")
        for k, w in enumerate(spec["workloads"]):
            for name in order if k % 2 == 0 else order[::-1]:
                print(f"# bench {w['name']} {name}", flush=True)
                sides[name]["bench"][w["name"]] = _bench(dirs[name], w["name"], spec["run_seconds"])
    record = build_record(meta, sides)
    args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"tier1": record["tier1"], "kernels": record["kernels"],
                      "experiments": record["experiments"],
                      "digests_equal": {w: b["digests_equal"] for w, b in record["bench"].items()}},
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check one benchmark workload over a range of seeds, for a parent revision
and for this checkout, without timing anything.

    python3 scripts/seed_scan.py --parent HEAD~1 --workload rdf-solve --seeds 0-199

The parent revision is exported with ``bench_pairs.export``.  Each side runs
in its own process (both at once, BLAS at one thread) with that side's
``src`` and ``bench``: per seed, one checked pass (``measure.Pass``) over
``--ops`` operations.  The default is one cycle of the workload's request
pool (``POOL``), since ops past it repeat its requests; a workload without a
pool gets the op count of one benchmark run.  With ``--ops`` set to the
``ops_per_pass`` that ``bench/run.py`` prints, each digest is that run's
``digest untraced``.

The script prints one line per seed (ok, failed and wrong ops and the digest
on each side), then the seeds with wrong ops and with failed ops on each
side, the seeds where the checkout fails more ops, and the seeds whose
digests differ.  It exits 0 whatever it finds.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from bench_pairs import export  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def worker(side: Path, workload_name: str, seeds: list[int], ops: int | None) -> None:
    """Print one JSON record per seed for the program and benchmark in ``side``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(side / "src"), str(side / "bench")]
    import measure
    import workloads

    spec = json.loads((side / "BENCHMARK.json").read_text())
    w = workloads.WORKLOADS[workload_name]
    n_ops = ops or getattr(w, "POOL", None) or measure.op_count(w, spec["run_seconds"])
    for seed in seeds:
        p = measure.Pass(w, seed, n_ops).run(math.inf, check=True)
        record = {
            "seed": seed,
            "ops": p.done,
            "ok": p.status["ok"],
            "failed": p.status["unmet"],
            "wrong": p.status["wrong"],
            "digest": p.digest.hexdigest(),
        }
        print(json.dumps(record), flush=True)


def compare(parent: dict[int, dict], change: dict[int, dict]) -> list[str]:
    """Report lines for per-seed records of both sides (keyed by seed)."""
    seeds = sorted(parent)
    lines = [f"{'seed':>6}  {'parent ok/failed/wrong digest':<48}  change ok/failed/wrong digest"]
    for s in seeds:
        p, c = parent[s], change[s]
        lines.append(
            f"{s:>6}  {p['ok']}/{p['failed']}/{p['wrong']} {p['digest']:<38}"
            f"  {c['ok']}/{c['failed']}/{c['wrong']} {c['digest']}"
            + ("" if p["digest"] == c["digest"] else "  differs")
        )
    sides = {"parent": parent, "change": change}
    wrong = {name: [s for s in seeds if recs[s]["wrong"]] for name, recs in sides.items()}
    for name, recs in sides.items():
        lines.append(f"{name} seeds with wrong ops: {wrong[name]}")
        lines.append(f"{name} seeds with failed ops: {[s for s in seeds if recs[s]['failed']]}")
    more = [s for s in seeds if change[s]["failed"] > parent[s]["failed"]]
    lines.append(f"same seeds with wrong ops: {wrong['parent'] == wrong['change']}")
    lines.append(f"seeds where the change fails more ops: {more}")
    differ = [s for s in seeds if parent[s]["digest"] != change[s]["digest"]]
    lines.append(f"seeds whose digests differ: {differ}")
    return lines


def scan(side: Path, args) -> subprocess.Popen:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(side),
           "--workload", args.workload, "--seeds", args.seeds]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen, side: str) -> dict[int, dict]:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"error: the {side} scan failed")
    return {r["seed"]: r for r in map(json.loads, out.splitlines())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-199 or 3,11,47")
    parser.add_argument("--ops", type=int, help="ops per seed (default: one request pool)")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload, parse_seeds(args.seeds), args.ops)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory() as tmp:
        export(args.parent, Path(tmp))
        procs = {"parent": scan(Path(tmp), args), "change": scan(ROOT, args)}
        records = {side: collect(proc, side) for side, proc in procs.items()}
    any_rec = next(iter(records["change"].values()))
    print(f"# seed-scan workload={args.workload} seeds={args.seeds} "
          f"ops={any_rec['ops']} parent={args.parent}")
    for line in compare(records["parent"], records["change"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

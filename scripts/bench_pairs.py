#!/usr/bin/env python3
"""Compare a parent revision with this checkout on one benchmark workload.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload population --seed 3

The parent revision is exported with ``git archive`` into a temporary
directory.  ``bench/run.py`` then runs with identical arguments (the run
length of ``BENCHMARK.json`` and ``--trace 0``) on both sides, in
:data:`PAIRS` alternating pairs: the parent runs first in even pairs and the
checkout first in odd ones (ABBA).  Every run is printed.  Then, for each end-to-end metric of ``BENCHMARK.json``, the
script prints both medians, the parent's quartiles, how many pairs the
checkout won (ties count for neither side) and a verdict from
:func:`verdict`.  Last, it says whether every run reported ``correct`` and
whether all runs on both sides printed the same output digest.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Pairs of runs per comparison; no verdict rests on fewer.
PAIRS = 10
#: Share of all pairs the checkout must win before a gain is claimed.
WIN_SHARE = 0.9


def paired_summary(parent: list[float], change: list[float], better: str) -> dict:
    """Parent quartiles, change median and the change's wins over paired runs."""
    if len(parent) != len(change) or len(parent) < PAIRS:
        raise ValueError(f"need at least {PAIRS} pairs of runs")
    sign = 1.0 if better == "higher" else -1.0
    q1, p_med, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return {
        "sign": sign,
        "q1": q1,
        "p_med": p_med,
        "q3": q3,
        "c_med": statistics.median(change),
        "wins": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
    }


def metric_values(runs: list[dict], name: str) -> list[float]:
    """The value of end-to-end metric ``name`` in each run record."""
    return [r["metrics"][name]["value"] for r in runs]


def verdict(metric: dict, parent_runs: list[dict], change_runs: list[dict]) -> str:
    """Verdict on one metric from paired run records (``parent_runs[i]`` with
    ``change_runs[i]``).

    ``metric`` is an ``end_to_end`` entry of ``BENCHMARK.json`` (``name``,
    ``better`` as ``"higher"`` or ``"lower"``, and ``bound``); each run record
    is the JSON object ``bench/run.py`` prints (``correct``, ``failed`` and
    ``metrics``).

    * ``gain``: the change wins at least ``WIN_SHARE`` of the pairs, its
      median beats the parent's by more than the parent's interquartile range,
      and every run of the change is correct and fails no more operations than
      the parent's median run.
    * ``worse``: the change's median is worse than the parent's by more than
      ``bound`` times the parent's median.
    * ``unresolved``: neither, and the parent's runs spread wider than the
      bound (``max - min`` over ``bound`` times their median), unless every
      run of the change is better than every run of the parent.
    * ``within bound``: otherwise.
    """
    parent = metric_values(parent_runs, metric["name"])
    change = metric_values(change_runs, metric["name"])
    bound = metric["bound"]
    s = paired_summary(parent, change, metric["better"])
    sign, p_med, c_med = s["sign"], s["p_med"], s["c_med"]
    no_more_failures = all(r["correct"] for r in change_runs) and max(
        r["failed"] for r in change_runs
    ) <= statistics.median([r["failed"] for r in parent_runs])
    if (
        no_more_failures
        and s["wins"] >= WIN_SHARE * len(parent)
        and sign * (c_med - p_med) > s["q3"] - s["q1"]
    ):
        return "gain"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(parent) - min(parent) > bound * abs(p_med) and not every_run_better:
        return "unresolved"
    return "within bound"


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` with ``git archive | tar -x``."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")


def bench(side: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``bench/run.py`` run in ``side``: its result line plus its digest."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: bench/run.py failed in {side}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["digest"] = re.search(r"^# digest untraced ([0-9a-f]+)", proc.stdout, re.M).group(1)
    return result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp), "change": ROOT}
        export(args.parent, sides["parent"])
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                run = bench(sides[name], args.workload, args.seed, spec["run_seconds"])
                runs[name].append(run)
                values = " ".join(
                    f"{m}={v['value']:.4g}" for m, v in run["metrics"].items()
                )
                print(f"# pair {i + 1} {name}: correct={run['correct']} "
                      f"failed={run['failed']}/{run['attempted']} {values}", flush=True)

    print(f"{'metric':<12} {'unit':<6} {'parent median [Q1, Q3]':>30} "
          f"{'change':>10} {'ratio':>7} {'wins':>6}  verdict")
    for m in spec["end_to_end"]:
        parent = metric_values(runs["parent"], m["name"])
        change = metric_values(runs["change"], m["name"])
        s = paired_summary(parent, change, m["better"])
        ratio = s["c_med"] / s["p_med"] if s["p_med"] else float("nan")
        print(f"{m['name']:<12} {m['unit']:<6} {s['p_med']:>12.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
              f" {s['c_med']:>10.4g} {ratio:>7.3f} {s['wins']:>3}/{PAIRS}  "
              f"{verdict(m, runs['parent'], runs['change'])}")
    every = runs["parent"] + runs["change"]
    print(f"correct in every run: {all(r['correct'] for r in every)}")
    print(f"failed ops: parent {sorted({r['failed'] for r in runs['parent']})}, "
          f"change {sorted({r['failed'] for r in runs['change']})}")
    print(f"same digest in every run: {len({r['digest'] for r in every}) == 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the packaged experiments and collect their outputs under one directory.

Each experiment writes a CSV of raw rows plus a JSON document with its
summary; the catalogue is ``covrate.simkit.EXPERIMENTS``.  By default all six
experiments run with their default parameters:

    python3 scripts/run_experiments.py --outdir results

Select a subset with ``--only`` (repeatable), override single parameters
with ``--param key=value`` (applied to every selected experiment that
accepts the key), and change the master seed with ``--seed``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from covrate.simkit import EXPERIMENTS, ExperimentSpec, run_experiment


def _parse_param(text: str) -> tuple[str, float | int]:
    key, _, raw = text.partition("=")
    if not key or not raw:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{key} must be finite, got {raw!r}")
    return key, int(value) if value == int(value) else value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(EXPERIMENTS),
        help="run only this experiment (repeatable; default: all)",
    )
    parser.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        default=[],
        metavar="KEY=VALUE",
        help="override a default parameter where the experiment accepts it",
    )
    args = parser.parse_args(argv)

    names = args.only or sorted(EXPERIMENTS)
    out_root = Path(args.outdir)
    out_root.mkdir(parents=True, exist_ok=True)

    for name in names:
        defaults, _ = EXPERIMENTS[name]
        params = {k: v for k, v in args.param if k in defaults}
        spec = ExperimentSpec(name=name, seed=args.seed, params=params)
        t0 = time.perf_counter()
        doc = run_experiment(spec, out_root / name)
        elapsed = time.perf_counter() - t0
        print(f"[{name}] done in {elapsed:.1f}s")
        print(json.dumps(doc["summary"], indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())

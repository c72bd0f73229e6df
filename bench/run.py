#!/usr/bin/env python3
"""covrate benchmark: one closed-loop caller, one process, fixed work per run.

Usage (from the repository root)::

    python3 bench/run.py --workload population --seed 1 --seconds 30 --trace 0

Workloads (see ``bench/workloads.py``): ``population``, ``rdf-solve`` and
``allocate``.  The seed makes the inputs, and ``--seconds`` sets the amount
of work: a fixed op count per pass, sized so that the run's passes take about
that long at the reference commit, so every commit does the same work for a
seed.  Each op's output is checked outside its timed region.  Set-up (build
plus warm-up) is timed three times and reported as the median, plus import.

``--trace 0`` prints the end-to-end metrics (see ``bench/measure.py`` for how
passes are combined).  ``--trace 1`` then runs one more pass over the same
ops with covrate's layers wrapped by ``bench/tracer.py``, prints the
per-layer metrics, requires the traced pass to give the untraced output
digest, and writes the spans under ``.bench_out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS is pinned to one thread before numpy loads, so that the two cores of a
# small machine measure the program rather than the thread scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def import_program():
    """Import covrate from this checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "covrate" / "__init__.py").is_file():
        print(f"error: no covrate sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import covrate

    if Path(covrate.__file__).resolve().parent != SRC / "covrate":
        print(f"error: covrate imported from {covrate.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import json
    import math
    import statistics

    import measure
    import workloads

    import_s = time.perf_counter() - _T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1 or not 0 <= args.seed < 2**63:
        print("error: --seconds must be >= 1 and --seed in [0, 2^63)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = workloads.WORKLOADS[args.workload]
    n_ops = measure.op_count(workload, args.seconds)
    for line in measure.run_record(args, n_ops):
        print(line)

    setup_s = import_s + statistics.median(
        measure.setup_once(workload, args.seed, n_ops) for _ in range(measure.SETUP_REPEATS)
    )
    # Deadlines keep a run inside 180 s even if the program gets much slower.
    plain = measure.Measurement(workload, args.seed, n_ops, _T_START + (110 if args.trace else 150))
    e2e = plain.end_to_end(setup_s)
    for line in plain.report(e2e):
        print(line)
    correct = plain.wrong == 0 and plain.deterministic

    if not args.trace:
        metrics = {m["name"]: (e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        attempted, failed = plain.done, plain.failed
    else:
        from tracer import Tracer

        traced = measure.Pass(workload, args.seed, plain.done)
        with Tracer() as tracer:
            traced.run(_T_START + 160, check=True, tracer=tracer)
        same = traced.digest.hexdigest() == plain.digest
        print(f"# digest traced {traced.digest.hexdigest()} equal_to_untraced={same}")
        summary = tracer.summarize([workload.op_class(i) for i in range(traced.done)])
        for line in measure.layer_table(tracer, summary, traced):
            print(line)
        layer = measure.per_layer(tracer, summary, traced, plain)
        spans = ROOT / ".bench_out" / f"spans-{args.workload}.npz"
        tracer.dump(spans)
        print(f"# spans {len(tracer.starts)} written to {spans.relative_to(ROOT)}")
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
        correct = correct and same and traced.status["wrong"] == 0
        attempted, failed = traced.done, traced.status["unmet"]

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

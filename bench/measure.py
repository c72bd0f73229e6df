"""Timed passes, metrics and the run record of the covrate benchmark.

A run makes the workload's ``PASSES`` untraced passes over the same fixed
ops, each on freshly built inputs, so every pass does identical work and must
give the same output digest.  An op's latency is the fastest of its passes:
on a shared two-core host the speed changes by tens of percent for seconds at
a time, and the fastest pass of each op separates the program's cost from its
neighbours' load (as ``timeit`` takes the best of its repeats).  Outputs are
checked in the first pass.  Workloads whose inputs vary a lot between seeds
(``population``) use fewer passes, so that a run sees more distinct ops.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from tracer import LAYERS, Tracer
from workloads import OP_ERRORS

#: Set-up (build plus warm-up) is repeated this often; its median is reported.
SETUP_REPEATS = 3
#: Tail percentiles tried from the highest down; the first with at least
#: ``TAIL_MIN_BEYOND`` samples beyond it is reported.
TAIL_LADDER = (99.99, 99.95, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
#: Op classes whose per-layer timings are also reported on their own.
SPLIT_CLASSES = ("small", "n32")


def op_count(workload, seconds: int) -> int:
    """Ops in one pass: whole rounds of the workload's op pattern, so that
    the workload's passes take about ``seconds`` at its nominal rate."""
    rounds = max(1, round(seconds * workload.RATE / (workload.PASSES * workload.ROUND)))
    return rounds * workload.ROUND


# --------------------------------------------------------------------------
# run record
# --------------------------------------------------------------------------


def _blas_runtime() -> tuple[str, str]:
    """(core name, thread count) reported by the OpenBLAS that numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                core = getattr(handle, f"{prefix}get_corename{suffix}", None)
                if threads is not None and core is not None:
                    core.restype = ctypes.c_char_p
                    return core().decode(), str(threads())
    return "unknown", "unknown"


def run_record(args, n_ops: int) -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core, threads = _blas_runtime()
    return [
        f"# run workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} ops_per_pass={n_ops}",
        f"# env python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} blas={blas.get('name')}-{blas.get('version')} "
        f"blas_core={core} blas_threads={threads} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} machine={platform.machine()}",
    ]


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------


def setup_once(workload, seed: int, n_ops: int) -> float:
    """Seconds to build the inputs and run one round of warm-up ops on them."""
    t0 = time.perf_counter()
    inputs = workload.build(seed, n_ops)
    for i in range(workload.ROUND):
        try:
            workload.run(inputs, i)
        except OP_ERRORS:
            pass
    return time.perf_counter() - t0


class Pass:
    """One timed pass over the ops ``0 .. n_ops - 1`` of a seed."""

    def __init__(self, workload, seed: int, n_ops: int):
        self.workload = workload
        self.seed = seed
        self.n_ops = n_ops
        self.latencies: list[float] = []
        self.status: Counter = Counter()
        self.reasons: Counter = Counter()
        self.digest = hashlib.blake2b(digest_size=16)
        self.truncated = False

    @property
    def done(self) -> int:
        return len(self.latencies)

    def run(self, t_end: float, check: bool, tracer: Tracer | None = None) -> "Pass":
        """Time every op on fresh inputs; check outputs when ``check``; stop
        early (``truncated``) once the clock passes ``t_end``."""
        w = self.workload
        inputs = w.build(self.seed, self.n_ops)
        gc.collect()
        clock = time.perf_counter
        for i in range(self.n_ops):
            if clock() > t_end:
                self.truncated = True
                break
            error = None
            if tracer is not None:
                tracer.op = i
                tracer.active = True
            t0 = clock()
            try:
                result = w.run(inputs, i)
            except OP_ERRORS as exc:
                error = exc
            finally:
                t1 = clock()
                if tracer is not None:
                    tracer.active = False
            self.latencies.append(t1 - t0)
            if error is not None:
                # A refusal counts as a failed op; it is never dropped.
                status, reason = "unmet", f"raised {type(error).__name__}"
                fingerprint = f"{type(error).__name__}: {error}".encode()
            else:
                status, reason = w.check(inputs, i, result) if check else ("unchecked", "")
                fingerprint = w.fingerprint(result)
            self.status[status] += 1
            if reason:
                self.reasons[reason] += 1
            self.digest.update(f"{i}:".encode() + fingerprint)
        return self

    def ops_per_s(self) -> float:
        return self.done / math.fsum(self.latencies)


class Measurement:
    """The untraced passes of a run and the metrics derived from them."""

    def __init__(self, workload, seed: int, n_ops: int, t_end: float):
        self.passes = [Pass(workload, seed, n_ops).run(t_end, check=True)]
        while len(self.passes) < workload.PASSES and not self.passes[-1].truncated:
            self.passes.append(Pass(workload, seed, n_ops).run(t_end, check=False))
        first = self.passes[0]
        self.done = first.done
        self.failed = first.status["unmet"]
        self.wrong = first.status["wrong"]
        self.digest = first.digest.hexdigest()
        complete = [p for p in self.passes if p.done == first.done]
        self.deterministic = all(p.digest.hexdigest() == self.digest for p in complete)
        per_op = [[] for _ in range(first.done)]
        for p in self.passes:
            for i, t in enumerate(p.latencies):
                per_op[i].append(t)
        self.latencies = [min(ts) for ts in per_op]

    def ops_per_s(self) -> float:
        return self.done / math.fsum(self.latencies)

    def tail(self) -> tuple[float, float, int]:
        """(percentile, latency in s, samples beyond it) by nearest rank."""
        lat = sorted(self.latencies)
        n = len(lat)
        for p in TAIL_LADDER:
            k = max(1, math.ceil(n * p / 100.0))
            if n - k >= TAIL_MIN_BEYOND or p == TAIL_LADDER[-1]:
                return p, lat[k - 1], n - k
        raise AssertionError("unreachable")

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        _, tail_s, _ = self.tail()
        return {
            "ops_per_s": self.ops_per_s(),
            "op_p50_ms": 1e3 * statistics.median(self.latencies),
            "op_tail_ms": 1e3 * tail_s,
            "setup_s": setup_s,
            "ok_share": self.passes[0].status["ok"] / self.done,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def report(self, e2e: dict[str, float]) -> list[str]:
        p, _, beyond = self.tail()
        first = self.passes[0]
        lines = [
            f"# untraced ops={self.done} ok={first.status['ok']} failed={self.failed} "
            f"wrong={self.wrong} passes={len(self.passes)} "
            f"truncated={any(q.truncated for q in self.passes)}",
            "# pass ops_per_s " + " ".join(f"{q.ops_per_s():.4g}" for q in self.passes),
            f"# op_tail_ms is p{p:g} of {self.done} ops ({beyond} samples beyond it)",
            f"# digest untraced {self.digest} same_in_every_pass={self.deterministic}",
        ]
        for reason, count in first.reasons.most_common(5):
            lines.append(f"# not ok x{count}: {reason}")
        lines += [f"# e2e {name} = {value!r}" for name, value in e2e.items()]
        return lines


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------


def per_layer(
    tracer: Tracer, summary: dict, traced: Pass, plain: Measurement
) -> dict[str, float]:
    """Every per-layer metric the traced pass can give, by name.

    ``*.self_us`` is the mean self time per call in microseconds (0 when the
    function was not called); ``*_per_op``, ``draws_per_alloc`` and the
    ratios are exact counts divided by exact counts.
    """
    ops = traced.done
    out: dict[str, float] = {}
    for name in tracer.wrapped:
        for suffix, key in [("", name)] + [(f".{c}", f"{name}@{c}") for c in SPLIT_CLASSES]:
            row = summary.get(key)
            out[f"{name}.self_us{suffix}"] = 1e6 * row["self_s"] / row["calls"] if row else 0.0

    def calls(name: str) -> int:
        return summary[name]["calls"] if name in summary else 0

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = tracer.counts
    out["spd.psd_leq.calls_per_op"] = calls("spd.psd_leq") / ops
    out["spd.psd_leq.true_ratio"] = share(counts["spd.psd_leq.true"], calls("spd.psd_leq"))
    out["special.rootfind_evals_per_op"] = counts["special.rootfind_evals"] / ops
    out["fusion.highrate.rootfind_evals_per_op"] = counts["fusion.highrate.rootfind_evals"] / ops
    out["fusion.highrate.valid_ratio"] = share(
        counts["fusion.highrate_allocate.true"], calls("fusion.highrate_allocate")
    )
    # One allocation per call (L = 1): PSD-tested candidate draws per allocation.
    out["fusion.draws_per_alloc"] = share(
        tracer.child_calls("spd.psd_leq", "fusion.random_valid_allocations"),
        calls("fusion.random_valid_allocations"),
    )
    for layer in LAYERS:
        out[f"{layer}.eig_calls_per_op"] = counts[f"{layer}.eig_calls"] / ops
        out[f"{layer}.factor_calls_per_op"] = counts[f"{layer}.factor_calls"] / ops
    # Same ops, same inputs: traced pass time over the median untraced pass.
    out["trace.overhead_ratio"] = statistics.median(
        q.ops_per_s() for q in plain.passes
    ) / traced.ops_per_s()
    return out


def layer_table(tracer: Tracer, summary: dict, traced: Pass) -> list[str]:
    """Readable per-layer table: every traced name (and name@op-class), by
    total self time."""
    ops = traced.done
    total = math.fsum(traced.latencies)
    lines = [
        f"# traced ops={ops} ops_per_s={traced.ops_per_s()!r} ok={traced.status['ok']} "
        f"failed={traced.status['unmet']} wrong={traced.status['wrong']}",
        "# layer-table name calls_per_op self_us_per_call incl_us_per_call self_share",
    ]
    for key, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"# layer-table {key} {row['calls'] / ops:.4f} {1e6 * row['self_s'] / row['calls']:.2f} "
            f"{1e6 * row['incl_s'] / row['calls']:.2f} {row['self_s'] / total:.4f}"
        )
    for name, value in sorted(tracer.counts.items()):
        lines.append(f"# counter {name} = {value} ({value / ops!r} per op)")
    return lines

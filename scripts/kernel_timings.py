#!/usr/bin/env python3
"""Best-of-5 timings of covrate's kernels, printed as one JSON object.

    PYTHONPATH=src python3 scripts/kernel_timings.py

Times the ``covrate`` found on the import path, with BLAS pinned to one
thread: ``psd_leq``, ``joint_diagonalize``, ``analyze``, ``rate_distortion``,
``test_channel``, the water-fillings ``mse_rdf`` and ``relay_solve``,
validated ``output_snr``, ``highrate_allocate``, the ``highrate_pipeline``
of one allocate op and one population draw
(``random_valid_allocations`` with ``L = 1``, perturbed around the uniform
allocation), each at n = 4 and n = 32 (keys ``"<kernel>.n4"`` and
``"<kernel>.n32"``), and one 1000-point ``scalar_allocate`` sweep on the
worked example at R = 2 (``"scalar_allocate.sweep"``).  Every value is
microseconds per call, the fastest of :data:`REPEATS` loops.  Inputs come
from fixed seeds and only public functions are called, so two checkouts time
the same calls.

Networks and conditional statistics are built once, outside the timed loops,
so what they cache is warm: the ``rate_distortion``, ``test_channel``,
``mse_rdf`` and ``relay_solve`` rows reuse one ``ConditionalStats``, whose
regularity report and spectra are computed once per object, and so flatter
those kernels against a checkout without the caches.  The ``rdf_pipeline``
row times ``analyze``, ``rate_distortion`` and ``test_channel`` together on
a fresh ``ConditionalStats`` per call, which is what a request pays.  The
``output_snr`` row validates a fresh ``Allocation`` per call (its
constructor included), so no spectrum an allocation caches is reused.  The
``highrate_pipeline`` row is one ``allocate`` benchmark op on a cold
network: fresh nodes and network, ``highrate_allocate``, validated
``output_snr``, ``highrate_state`` and ``kkt_residuals``.
"""
from __future__ import annotations

import json
import os
import time

# Pinned before numpy loads, as in bench/run.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from covrate import fusion, model, rdf, simkit, spd, special  # noqa: E402

#: Timed loops per kernel; the fastest is kept.
REPEATS = 5
#: Shortest duration of one timed loop, in seconds.
MIN_LOOP_S = 0.02
SIZES = (4, 32)


def best_us(fn) -> float:
    """Microseconds per call of ``fn()``: the fastest of :data:`REPEATS` loops,
    each long enough to last at least :data:`MIN_LOOP_S`."""
    fn()
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= MIN_LOOP_S:
            break
        calls *= 2
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e6


def kernels(n: int) -> dict:
    """The size-``n`` kernels as zero-argument callables."""
    rng = np.random.default_rng(n)
    B = simkit.random_spd(n, rng)
    S1, S2 = simkit.random_spd(n, rng), simkit.random_spd(n, rng)
    m = simkit.random_model(n, n, n, rng)
    stats = model.analyze(m)
    D = spd.sym_part(stats.Sigma_x_given_yz + 0.5 * simkit.random_spd(n, rng, jitter=0.3))
    lam_sum = float(np.trace(stats.Sigma_x_given_z - stats.Sigma_x_given_yz))
    D_scalar = float(np.trace(stats.Sigma_x_given_yz) + 0.5 * lam_sum) / n
    R_I = 0.5 * special.relay_supremum(stats)
    b = simkit.TWO_NODE_VARIANTS["b"]
    net = simkit.two_node_network(n, 80.0, **b)
    alloc = simkit.uniform_allocation(net)
    r_min = fusion.highrate_rmin(net)
    hr_net = simkit.two_node_network(n, max(r_min, 0.0) + n, **b)
    draw_rng = np.random.default_rng(n)

    def rdf_pipeline():
        fresh = model.analyze(m)
        rdf.rate_distortion(fresh, D)
        rdf.test_channel(fresh, D)

    def highrate_pipeline():
        nodes = tuple(
            fusion.SensorNode(W=node.W, Sigma_n=node.Sigma_n, alpha=node.alpha)
            for node in hr_net.nodes
        )
        fresh = fusion.FusionNetwork(Sigma_xd=hr_net.Sigma_xd, nodes=nodes, R=hr_net.R)
        res = fusion.highrate_allocate(fresh)
        fusion.output_snr(fresh, res.allocation)
        state = fusion.highrate_state(fresh, res)
        log_beta = fresh.log_beta + 2.0 * (fresh.R - res.achieved_rate)
        fusion.kkt_residuals(fresh, state, log_beta=log_beta)

    return {
        "psd_leq": lambda: spd.psd_leq(0.5 * B, B),
        "joint_diagonalize": lambda: spd.joint_diagonalize(S1, S2),
        "analyze": lambda: model.analyze(m),
        "rate_distortion": lambda: rdf.rate_distortion(stats, D),
        "test_channel": lambda: rdf.test_channel(stats, D),
        "rdf_pipeline": rdf_pipeline,
        "mse_rdf": lambda: special.mse_rdf(stats, D_scalar),
        "relay_solve": lambda: special.relay_solve(stats, R_I),
        "output_snr": lambda: fusion.output_snr(net, fusion.Allocation(D=alloc.D)),
        "highrate_allocate": lambda: fusion.highrate_allocate(hr_net),
        "highrate_pipeline": highrate_pipeline,
        "random_valid_allocations": lambda: fusion.random_valid_allocations(
            net, alloc, 0.999, 0.001, 1, draw_rng
        ),
    }


def main() -> int:
    out = {}
    for n in SIZES:
        for name, fn in kernels(n).items():
            out[f"{name}.n{n}"] = round(best_us(fn), 1)
    example = simkit.scalar_example_network(2.0)
    out["scalar_allocate.sweep"] = round(best_us(lambda: fusion.scalar_allocate(example)), 1)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

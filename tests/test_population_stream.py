"""The population generator against its per-draw reference loop.

``reference_random_valid_allocations`` below is the generator as it was
before draws were screened and drawn in blocks: one candidate per
``rng.uniform`` call, each tested with ``psd_leq``.  The production
generator must return bit-identical allocations, raise the same stall at the
same point, and leave every generator in the same state.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest

from covrate.errors import GenerationStalled, InvalidAllocation, InvalidParam
from covrate.fusion import (
    ALLOC_TOL,
    Allocation,
    FusionNetwork,
    highrate_allocate,
    random_valid_allocations,
)
from covrate.simkit import (
    TWO_NODE_VARIANTS,
    RngStream,
    four_node_network,
    two_node_network,
    uniform_allocation,
)
from covrate.spd import _eig_desc, psd_leq, sym_part


def reference_random_valid_allocations(
    network: FusionNetwork,
    base: Allocation,
    beta_w: float | Sequence[float],
    eta_w: float | Sequence[float],
    L: int,
    rng: np.random.Generator,
    max_consecutive_failures: int = 10**6,
) -> list[Allocation]:
    """Generate ``L`` budget-exact allocations around (or away from) ``base``.

    Each node's draw keeps the base eigenvectors and perturbs the spectrum:
    ``D_i = U_i^T (beta_w_i L_i + eta_w_i Theta_i) U_i`` with ``Theta_i``
    diagonal uniform on ``[0, 5 iota_i]`` (``iota_i`` = largest base
    eigenvalue).  Nodes before the last are redrawn until valid; the last
    node's draw is rescaled in closed form so the weighted sum-rate equals the
    network budget exactly, and redrawn (alone) if the rescaled matrix is
    invalid.  If the last node keeps failing — the leading draws can strand
    the budget when there are many nodes — the whole allocation is restarted.
    Raises :class:`GenerationStalled` after ``max_consecutive_failures``
    rejections in a row.
    """
    if L < 1:
        raise InvalidParam("L must be >= 1")
    if len(base.D) != network.n_nodes:
        raise InvalidAllocation("base allocation does not match the network")
    n, N = network.n, network.n_nodes
    betas = np.broadcast_to(np.asarray(beta_w, dtype=float), (N,))
    etas = np.broadcast_to(np.asarray(eta_w, dtype=float), (N,))
    if np.any(betas < 0) or np.any(etas < 0):
        raise InvalidParam("perturbation weights must be nonnegative")

    eigs = [_eig_desc(Di) for Di in base.D]
    iotas = [ev[1][0] for ev in eigs]
    alphas = network.alphas
    log_beta = network.log_beta

    out: list[Allocation] = []
    failures = 0  # consecutive rejections since the last emitted allocation

    def draw(i: int) -> np.ndarray:
        theta = rng.uniform(0.0, 5.0 * iotas[i], size=n)
        return betas[i] * eigs[i][1] + etas[i] * theta

    def stalled() -> None:
        nonlocal failures
        failures += 1
        if failures > max_consecutive_failures:
            raise GenerationStalled(
                f"{failures} consecutive invalid draws; "
                "perturbation weights are incompatible with the constraints"
            )

    while len(out) < L:
        Ds: list[np.ndarray] = []
        lead_logdet = 0.0
        for i in range(N - 1):
            while True:
                d = draw(i)
                if np.all(d > 0.0):
                    U = eigs[i][0]
                    Di = sym_part(U.T @ (d[:, None] * U))
                    if psd_leq(Di, network.sigma_y[i], tol=ALLOC_TOL):
                        Ds.append(Di)
                        lead_logdet += alphas[i] * float(np.log(d).sum())
                        break
                stalled()
        for _ in range(1000):  # then restart the leading draws
            d = draw(N - 1)
            if np.all(d > 0.0):
                log_c = (
                    log_beta - lead_logdet - alphas[-1] * float(np.log(d).sum())
                ) / (n * alphas[-1])
                d_scaled = np.exp(log_c) * d
                U = eigs[N - 1][0]
                Dn = sym_part(U.T @ (d_scaled[:, None] * U))
                if psd_leq(Dn, network.sigma_y[N - 1], tol=ALLOC_TOL):
                    out.append(Allocation(D=tuple(Ds + [Dn])))
                    failures = 0
                    break
            stalled()
    return out


GENERATORS = {
    "philox": lambda: RngStream(seed=3, stream=1).generator(),
    "pcg64": lambda: np.random.default_rng(7),
}


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


def _outcome(generate, args, make_rng, **kwargs):
    rng = make_rng()
    try:
        result = generate(*args, rng, **kwargs)
    except GenerationStalled as exc:
        result = str(exc)
    return result, rng.bit_generator.state


def assert_same_stream(args, make_rng, **kwargs):
    """Both generators give the same allocations (or stall message) and
    leave the generator in the same state; returns the reference result."""
    want, want_state = _outcome(reference_random_valid_allocations, args, make_rng, **kwargs)
    got, got_state = _outcome(random_valid_allocations, args, make_rng, **kwargs)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, list) and len(got) == len(want)
        for a_got, a_want in zip(got, want):
            for D_got, D_want in zip(a_got.D, a_want.D):
                assert D_got.tobytes() == D_want.tobytes()
    assert _same_state(got_state, want_state)
    return want


def _population_case(n: int, key: str):
    net = two_node_network(n=n, R=80.0 * n / 32, **TWO_NODE_VARIANTS[key])
    res = highrate_allocate(net)
    pop_net = replace(net, R=res.achieved_rate) if res.valid else net
    return pop_net, res.allocation


@pytest.mark.parametrize("gen", sorted(GENERATORS))
@pytest.mark.parametrize("n", [32, 8])
@pytest.mark.parametrize(
    "key, beta_w, eta_w",
    [("a", 0.0, 1.0), ("b", 0.0, 1.0), ("b", 0.999, 0.001), ("c", 0.0, 1.0), ("d", 0.0, 1.0)],
)
def test_population_matches_reference(key, beta_w, eta_w, n, gen):
    pop_net, base = _population_case(n, key)
    L = 3 if (key, n) == ("c", 32) else 20  # c rejects ~99.8% of draws at n = 32
    out = assert_same_stream((pop_net, base, beta_w, eta_w, L), GENERATORS[gen])
    assert len(out) == L


@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_four_node_population_matches_reference(gen):
    net = four_node_network(8, 20.0, (0.9, 0.3), (0.01, 0.02))
    base = highrate_allocate(net).allocation
    out = assert_same_stream((net, base, 0.0, 1.0, 10), GENERATORS[gen])
    assert len(out) == 10


@pytest.mark.parametrize("gen", sorted(GENERATORS))
@pytest.mark.parametrize(
    "n, key, beta_w, eta_w, limit",
    [
        (32, "c", 0.999, 0.001, 2000),  # near-copies of an indefinite base
        (8, "b", 0.0, 0.0, 50),  # zero spectra are never positive
    ],
)
def test_leading_node_stall_matches_reference(n, key, beta_w, eta_w, limit, gen):
    pop_net, base = _population_case(n, key)
    msg = assert_same_stream(
        (pop_net, base, beta_w, eta_w, 3), GENERATORS[gen], max_consecutive_failures=limit
    )
    assert msg.startswith(f"{limit + 1} consecutive invalid draws")


@pytest.mark.parametrize("gen", sorted(GENERATORS))
@pytest.mark.parametrize("limit", [50, 999, 1000, 1001, 2500])
def test_last_node_stall_matches_reference(limit, gen):
    """At a zero budget the last node can never be rescaled under its
    observation covariance: it stalls before, at and after the restart of
    the leading draws (every 1000 tries)."""
    net = two_node_network(n=8, R=0.0, **TWO_NODE_VARIANTS["b"])
    base = uniform_allocation(replace(net, R=5.0))
    msg = assert_same_stream((net, base, 0.0, 1.0, 2), GENERATORS[gen], max_consecutive_failures=limit)
    assert msg.startswith(f"{limit + 1} consecutive invalid draws")


@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_stall_after_rejected_leading_draws_matches_reference(gen):
    """Variant c's first node rejects hundreds of draws before each accepted
    one; those rejections count towards the stall the last node then hits."""
    net = two_node_network(n=32, R=80.0, **TWO_NODE_VARIANTS["c"])
    base = highrate_allocate(net).allocation
    msg = assert_same_stream(
        (replace(net, R=0.0), base, 0.0, 1.0, 1), GENERATORS[gen], max_consecutive_failures=2500
    )
    assert msg.startswith("2501 consecutive invalid draws")


def test_four_node_stall_matches_reference():
    net = four_node_network(32, 80.0, (0.9, 0.3), (0.01, 0.02))
    base = highrate_allocate(net).allocation
    msg = assert_same_stream(
        (net, base, 0.0, 1.0, 1), GENERATORS["pcg64"], max_consecutive_failures=3000
    )
    assert msg.startswith("3001 consecutive invalid draws")

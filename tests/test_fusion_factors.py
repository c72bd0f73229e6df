"""Cached per-network factors and the screened allocation check, against
the expressions they replace.

``reference_check_allocation``, ``reference_equivalent_noise_inv`` and
``reference_output_snr`` below are verbatim copies of those functions as they
were before the inverses of ``Sigma_n`` and ``Sigma_y`` and the noise gram
were cached and before ``check_allocation`` decided nodes by Weyl's
inequality: every ``Sigma`` inverted on every call, and every node tested with
``psd_leq``.  ``reference_highrate_rmin`` is ``highrate_rmin`` as it was
before each node's log-determinants of ``Sigma_n`` and ``W`` were cached.
The production functions must give equal floats, the same verdict and the
same error message on every input.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covrate.errors import InvalidAllocation, SingularGram
from covrate.fusion import (
    ALLOC_TOL,
    Allocation,
    FusionNetwork,
    SensorNode,
    Snr,
    check_allocation,
    equivalent_noise_inv,
    highrate_allocate,
    highrate_rmin,
    highrate_state,
    kkt_terms,
    output_snr,
    random_valid_allocations,
)
from covrate.simkit import (
    TWO_NODE_VARIANTS,
    four_node_network,
    random_spd,
    two_node_network,
    uniform_allocation,
)
from covrate.spd import psd_leq, sym_part
from conftest import random_two_node_net
from test_spd import _spd_with_cond


def reference_check_allocation(network: FusionNetwork, alloc: Allocation) -> None:
    """Raise :class:`InvalidAllocation` unless every ``D_i`` is SPD and
    ``D_i <= Sigma_y_i`` within ``ALLOC_TOL``."""
    if len(alloc.D) != network.n_nodes:
        raise InvalidAllocation(
            f"allocation has {len(alloc.D)} matrices for {network.n_nodes} nodes"
        )
    for i, (Di, Syi) in enumerate(zip(alloc.D, network.sigma_y)):
        if Di.shape != Syi.shape:
            raise InvalidAllocation(f"D[{i}] has shape {Di.shape}, expected {Syi.shape}")
        if np.linalg.eigvalsh(Di)[0] <= 0.0:
            raise InvalidAllocation(f"D[{i}] is not positive definite")
        if not psd_leq(Di, Syi, tol=ALLOC_TOL):
            raise InvalidAllocation(f"D[{i}] exceeds the observation covariance")


def reference_equivalent_noise_inv(
    node: SensorNode, sigma_y: np.ndarray, D: np.ndarray
) -> np.ndarray:
    """Inverse of the node's decoder-equivalent noise covariance."""
    Sn_inv = np.linalg.inv(node.Sigma_n)
    Q = sym_part(np.linalg.inv(D) - np.linalg.inv(sigma_y))
    inner = np.linalg.solve(sym_part(Q + Sn_inv), Sn_inv)
    return sym_part(Sn_inv - Sn_inv @ inner)


def reference_output_snr(
    network: FusionNetwork, alloc: Allocation, validate: bool = True
) -> Snr:
    """Fused output SNR ``tr(Sigma_xd) / tr{[sum_i W_i Sigma_v_i^{-1} W_i^T]^{-1}}``."""
    if validate:
        reference_check_allocation(network, alloc)
    gram = np.zeros((network.n, network.n))
    for node, Syi, Di in zip(network.nodes, network.sigma_y, alloc.D):
        Svi_inv = reference_equivalent_noise_inv(node, Syi, Di)
        gram += node.W @ Svi_inv @ node.W.T
    gram = sym_part(gram)
    try:
        noise_cov = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("zero-information allocation: fused noise is unbounded") from exc
    linear = float(np.trace(network.Sigma_xd) / np.trace(noise_cov))
    if linear <= 0.0:
        raise SingularGram("fused noise power is not positive")
    return Snr(linear=linear, db=10.0 * np.log10(linear))


def reference_noise_gram(network: FusionNetwork) -> np.ndarray:
    """``S = sum_i W_i Sigma_n_i^{-1} W_i^T`` — the analog (infinite-rate) gram."""
    S = np.zeros((network.n, network.n))
    for node in network.nodes:
        S += node.W @ np.linalg.solve(node.Sigma_n, node.W.T)
    return sym_part(S)


def reference_highrate_rmin(network: FusionNetwork) -> float:
    """Feasibility threshold of the high-rate allocator (nats)."""
    _, ld_S = np.linalg.slogdet(network.noise_gram)
    n = network.n
    acc = 0.0
    for node, Syi in zip(network.nodes, network.sigma_y):
        _, ld_y = np.linalg.slogdet(Syi)
        _, ld_n = np.linalg.slogdet(node.Sigma_n)
        ld_w = np.linalg.slogdet(node.W)[1]
        acc += node.alpha * (ld_y - n * np.log(node.alpha) - 2.0 * ld_n + 2.0 * ld_w)
    return 0.5 * float(acc - ld_S)


def outcome(fn, *args, **kwargs):
    """``("ok", value)`` or the exception's type name and message."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the comparison is of whatever is raised
        return type(exc).__name__, str(exc)


def mixed_network(n: int = 6, seed: int = 5) -> FusionNetwork:
    """Two nodes with random, non-identity mixing matrices."""
    rng = np.random.default_rng(seed)
    nodes = tuple(
        SensorNode(
            W=np.eye(n) + 0.3 * rng.standard_normal((n, n)),
            Sigma_n=0.2 * random_spd(n, rng),
            alpha=a,
        )
        for a in (0.4, 0.6)
    )
    return FusionNetwork(Sigma_xd=random_spd(n, rng), nodes=nodes, R=6.0)


def networks() -> dict[str, FusionNetwork]:
    nets = {
        key: two_node_network(n=32, R=80.0, **variant)
        for key, variant in TWO_NODE_VARIANTS.items()
    }
    a = TWO_NODE_VARIANTS["a"]
    nets["four"] = four_node_network(n=32, R=80.0, rhos=a["rhos"], nus=a["nus"])
    nets["random"] = random_two_node_net(np.random.default_rng(71))
    nets["mixed"] = mixed_network()
    return nets


NETWORKS = networks()


def assert_same_as_reference(network: FusionNetwork, alloc: Allocation) -> None:
    """Equal verdict, message and SNR bits, validated and not."""
    assert outcome(check_allocation, network, alloc) == outcome(
        reference_check_allocation, network, alloc
    )
    for validate in (True, False):
        assert outcome(output_snr, network, alloc, validate=validate) == outcome(
            reference_output_snr, network, alloc, validate=validate
        )


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_cached_factors_equal_fresh_expressions(key):
    net = NETWORKS[key]
    for node, Syi, Sy_inv in zip(net.nodes, net.sigma_y, net.sigma_y_inv):
        assert np.array_equal(node.Sigma_n_inv, np.linalg.inv(node.Sigma_n))
        assert np.array_equal(Sy_inv, np.linalg.inv(Syi))
    assert np.array_equal(net.noise_gram, reference_noise_gram(net))
    for i, (node, Syi) in enumerate(zip(net.nodes, net.sigma_y)):
        D = sym_part(0.5 * Syi)
        assert np.array_equal(
            equivalent_noise_inv(net, i, D), reference_equivalent_noise_inv(node, Syi, D)
        )


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_cached_log_determinants_and_kkt_ceiling_equal_fresh_expressions(key):
    net = NETWORKS[key]
    for node, Syi, C in zip(net.nodes, net.sigma_y, net.kkt_ceiling):
        assert np.array_equal(node.logdet_Sigma_n, np.linalg.slogdet(node.Sigma_n)[1])
        assert np.array_equal(node.logdet_W, np.linalg.slogdet(node.W)[1])
        assert np.array_equal(C, kkt_terms(node, Syi, Syi)[1])
    assert highrate_rmin(net) == reference_highrate_rmin(net)
    state = highrate_state(net, highrate_allocate(net))
    assert len(state.C) == net.n_nodes
    for node, Syi, C in zip(net.nodes, net.sigma_y, state.C):
        assert np.array_equal(C, kkt_terms(node, Syi, Syi)[1])


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_boundary_and_invalid_allocations_match_reference(key):
    net = NETWORKS[key]
    Sy = net.sigma_y
    cases = [
        Allocation(D=tuple(Sy)),                                  # D = Sigma_y
        Allocation(D=tuple((1.0 + 5e-10) * S for S in Sy)),       # inside the slack
        Allocation(D=tuple((1.0 + 2e-9) * S for S in Sy)),        # just above it
        Allocation(D=tuple((1.0 - 1e-12) * S for S in Sy)),
        Allocation(D=(Sy[0],) + tuple((1.0 + 1e-6) * S for S in Sy[1:])),
        uniform_allocation(net),
        Allocation(D=tuple(Sy[:-1])),                             # one matrix short
        Allocation(D=(np.eye(net.n + 1),) + tuple(Sy[1:])),       # wrong shape
    ]
    if net.n > 1:  # D just above Sigma_y along one direction only
        w, Q = np.linalg.eigh(Sy[0])
        bump = (1.0 + 2e-9) * w[0] - w[0]
        cases.append(Allocation(D=(sym_part(Sy[0] + bump * np.outer(Q[:, 0], Q[:, 0])),)
                                + tuple(Sy[1:])))
    for alloc in cases:
        assert_same_as_reference(net, alloc)


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_non_positive_definite_allocation_matches_reference(key):
    net = NETWORKS[key]
    w, Q = np.linalg.eigh(net.sigma_y[-1])
    w = 0.5 * w
    w[0] = -1e-3 * w[-1]
    bad = sym_part(Q @ (w[:, None] * Q.T))
    alloc = Allocation(D=tuple(0.5 * S for S in net.sigma_y[:-1]) + (bad,))
    assert outcome(check_allocation, net, alloc)[0] == "InvalidAllocation"
    assert_same_as_reference(net, alloc)


@pytest.mark.parametrize("key", ["a", "b", "c", "d"])
def test_highrate_allocations_match_reference(key):
    net = NETWORKS[key]
    res = highrate_allocate(net)
    assert res.valid == (key == "b")  # a, c and d are invalid at 80 nats
    assert_same_as_reference(net, res.allocation)


@pytest.mark.parametrize("key", ["a", "b", "c", "d", "b-perturbed", "four"])
def test_population_draws_match_reference(key):
    if key == "four":  # at n = 32 and 80 nats the four-node population stalls
        net = four_node_network(8, 20.0, (0.9, 0.3), (0.01, 0.02))
    else:
        net = NETWORKS[key.split("-")[0]]
    res = highrate_allocate(net)
    if key == "b-perturbed":
        base, pop_net, weights = res.allocation, replace(net, R=res.achieved_rate), (0.999, 0.001)
    else:
        pop_net = replace(net, R=res.achieved_rate) if res.valid else net
        base, weights = res.allocation, (0.0, 1.0)
    rng = np.random.default_rng(17)
    pop = random_valid_allocations(pop_net, base, *weights, 25, rng)
    for alloc in pop:
        assert_same_as_reference(net, alloc)
        assert_same_as_reference(pop_net, alloc)


def test_validated_arrays_and_cached_factors_are_read_only():
    net = mixed_network()
    node = net.nodes[0]
    alloc = uniform_allocation(net)
    arrays = [
        net.Sigma_xd, node.W, node.Sigma_n, node.Sigma_n_inv, net.noise_gram,
        *net.kkt_ceiling, *net.sigma_y, *net.sigma_y_inv, *net.sigma_y_eigvals, *alloc.D,
        *(a for pair in alloc.eig_desc for a in pair),
    ]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        net.sigma_y[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        node.Sigma_n[0, 0] += 1.0
    with pytest.raises(ValueError):
        alloc.D[0][...] = 0.0
    with pytest.raises(ValueError):
        net.kkt_ceiling[1][0, 0] = 0.0
    # the caller's arrays are copied, not frozen
    W = np.eye(2)
    SensorNode(W=W, Sigma_n=np.eye(2), alpha=1.0)
    W[0, 0] = 2.0


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4, 32]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log10_cond=st.floats(min_value=0.0, max_value=8.0),
    aligned=st.booleans(),
    log10_offset=st.floats(min_value=-16.0, max_value=-8.0),
    side=st.sampled_from([-1.0, 1.0]),
)
def test_screened_check_allocation_agrees_at_the_weyl_bound(
    n, seed, log10_cond, aligned, log10_offset, side
):
    """``check_allocation`` gives the reference verdict when ``lambda_max(D)``
    sits within 1e-16 to 1e-8 (relative) of the Weyl bound
    ``lambda_min(Sigma_y) + ALLOC_TOL ||Sigma_y||``, on either side, for
    ``cond(Sigma_y)`` up to 1e8.  With ``D``'s top eigenvector on
    ``Sigma_y``'s bottom one the bound is tight, so only the rounding margin
    keeps the screen from accepting what ``psd_leq`` rejects."""
    rng = np.random.default_rng(seed)
    half = 0.5 * _spd_with_cond(n, 10.0**log10_cond, rng)
    node = SensorNode(W=np.eye(n), Sigma_n=half, alpha=1.0)
    net = FusionNetwork(Sigma_xd=half, nodes=(node,), R=1.0)
    ev = net.sigma_y_eigvals[0]
    if aligned:
        _, U = np.linalg.eigh(net.sigma_y[0])      # columns, ascending
        top = 0                                    # on lambda_min(Sigma_y)
    else:
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        top = int(rng.integers(n))
    d_max = (ev[0] + ALLOC_TOL * ev[-1]) * (1.0 + side * 10.0**log10_offset)
    d = d_max * rng.uniform(0.01, 1.0, size=n)
    d[top] = d_max
    D = sym_part(U @ (d[:, None] * U.T))
    alloc = Allocation(D=(D,))
    assert outcome(check_allocation, net, alloc) == outcome(
        reference_check_allocation, net, alloc
    )

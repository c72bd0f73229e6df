"""Cached per-network factors and the screened allocation check, against
the expressions they replace.

``reference_check_allocation``, ``reference_equivalent_noise_inv`` and
``reference_output_snr`` below are verbatim copies of those functions as they
were before the inverses of ``Sigma_n`` and ``Sigma_y`` and the noise gram
were cached and before ``check_allocation`` decided nodes by Weyl's
inequality: every ``Sigma`` inverted on every call, and every node tested with
``psd_leq``.  ``reference_highrate_rmin`` is ``highrate_rmin`` as it was
before each node's log-determinants of ``Sigma_n`` and ``W`` were cached.
``reference_highrate_allocate``, ``reference_kkt_state`` (with
``reference_kkt_terms``) and ``reference_per_node_rate`` are those functions
as they were before the ``D <= Sigma_y`` tests read ``||Sigma_y||`` from
``sigma_y_eigvals``, before the achieved rate reused the allocator's own
verdicts and the cached ``logdet Sigma_y``, and before ``kkt_state`` read the
cached inverses and ceilings.  The production functions must give equal
floats, the same verdict and the same error message on every input.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from covrate.errors import InfeasibleBudget, InvalidAllocation, SingularGram
from covrate.fusion import (
    ALLOC_TOL,
    Allocation,
    FusionNetwork,
    HighRateResult,
    KktState,
    SensorNode,
    Snr,
    _dominated,
    _psd_repair_screened,
    check_allocation,
    equivalent_noise_inv,
    highrate_allocate,
    highrate_rmin,
    highrate_state,
    kkt_state,
    kkt_terms,
    output_snr,
    per_node_rate,
    random_valid_allocations,
    weighted_sum_rate,
)
from covrate.model import _psd_repair, psd_repair
from covrate.simkit import (
    TWO_NODE_VARIANTS,
    four_node_network,
    random_spd,
    two_node_network,
    uniform_allocation,
)
from covrate.spd import _eig_desc, check_spd, psd_leq, sym_part
from conftest import random_two_node_net
from test_rdf_validate_once import same, workloads
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


def reference_per_node_rate(sigma_y: np.ndarray, D: np.ndarray) -> float:
    """Coding rate ``1/2 log(|Sigma_y| / |D|)`` in nats for one node."""
    if not psd_leq(D, sigma_y, tol=ALLOC_TOL):
        raise InvalidAllocation("D exceeds the observation covariance")
    sign, ld_d = np.linalg.slogdet(D)
    if sign <= 0:
        raise InvalidAllocation("D is not positive definite")
    _, ld_y = np.linalg.slogdet(sigma_y)
    return max(0.5 * (ld_y - ld_d), 0.0)


def reference_weighted_sum_rate(network: FusionNetwork, alloc: Allocation) -> float:
    """``sum_i alpha_i R(D_i)`` in nats."""
    return float(
        sum(
            node.alpha * reference_per_node_rate(Syi, Di)
            for node, Syi, Di in zip(network.nodes, network.sigma_y, alloc.D)
        )
    )


def reference_log_beta(network: FusionNetwork) -> float:
    """Log of the determinant budget: ``sum_i alpha_i logdet Sigma_y_i - 2R``."""
    lds = [np.linalg.slogdet(S)[1] for S in network.sigma_y]
    return float(np.dot(network.alphas, lds) - 2.0 * network.R)


def reference_highrate_allocate(network: FusionNetwork) -> HighRateResult:
    """Distortion allocation from the high-rate stationarity approximation."""
    r_min = reference_highrate_rmin(network)
    if network.R < r_min:
        raise InfeasibleBudget(
            f"budget R = {network.R:.6g} nats is below the high-rate "
            f"feasibility threshold {r_min:.6g}"
        )
    n = network.n
    S = network.noise_gram
    U_s, s = _eig_desc(S)
    log_gamma = reference_log_beta(network)
    for node in network.nodes:
        log_gamma -= node.alpha * (
            n * np.log(node.alpha) + 2.0 * node.logdet_Sigma_n - 2.0 * node.logdet_W
        )

    def g(t):
        lam = np.exp(t)
        x = 4.0 * lam * s
        logf = float(
            np.sum(2.0 * np.log(x) - 2.0 * np.log(np.sqrt(1.0 + x) + 1.0))
            - n * (np.log(4.0) + t)
        )
        return logf - log_gamma

    t_lo = np.log(1e-18)
    for _ in range(600):
        if g(t_lo) < 0.0:
            break
        t_lo -= np.log(4.0)
    else:
        raise InfeasibleBudget("multiplier bracketing failed from below")
    t_hi = max(t_lo + np.log(4.0), 0.0)
    for _ in range(600):
        if g(t_hi) > 0.0:
            break
        t_hi += np.log(2.0)
    else:
        raise InfeasibleBudget(
            "budget is too close to the feasibility threshold: "
            "the multiplier equation has no reachable root"
        )
    t = bisect(g, t_lo, t_hi, xtol=1e-12, maxiter=200)
    lam = float(np.exp(t))

    a = 2.0 * s / (np.sqrt(1.0 + 4.0 * lam * s) + 1.0)  # root of lam*a^2 + a = s
    A = sym_part(U_s.T @ (a[:, None] * U_s))
    a2 = a**2

    Ds, node_valid = [], []
    for node, Syi, Sy_inv in zip(network.nodes, network.sigma_y, network.sigma_y_inv):
        Z_inv = U_s.T @ (U_s / (node.alpha * lam * a2[:, None]))
        Sn_inv = node.Sigma_n_inv
        WSn = Sn_inv @ node.W.T
        D_inv = sym_part(WSn @ Z_inv @ WSn.T - Sn_inv + Sy_inv)
        ok = bool(np.linalg.eigvalsh(D_inv)[0] > 0.0)
        Di = sym_part(np.linalg.inv(D_inv))
        ok = ok and psd_leq(Di, Syi, tol=ALLOC_TOL)
        Ds.append(psd_repair(Di) if ok else Di)
        node_valid.append(ok)

    alloc = Allocation(D=tuple(Ds))
    valid = all(node_valid)
    if valid:
        achieved = reference_weighted_sum_rate(network, alloc)
    else:
        achieved = float("nan")
    return HighRateResult(
        allocation=alloc,
        achieved_rate=achieved,
        budget=network.R,
        lambda_mult=lam,
        A_mat=A,
        S=S,
        r_min=r_min,
        node_valid=tuple(node_valid),
        valid=valid,
    )


def reference_kkt_terms(
    node: SensorNode, sigma_y: np.ndarray, D: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(Z, C)`` entering the stationarity conditions."""
    Sn_inv = node.Sigma_n_inv
    Sy_inv = np.linalg.inv(sigma_y)
    WSn = node.W @ Sn_inv
    mid_z = np.linalg.inv(sym_part(Sn_inv + np.linalg.inv(D) - Sy_inv))
    Z = sym_part(WSn @ mid_z @ WSn.T)
    mid_c = np.linalg.inv(sym_part(Sn_inv - Sy_inv))
    return Z, sym_part(WSn @ mid_c @ WSn.T)


def reference_kkt_state(
    network: FusionNetwork, alloc: Allocation, lambda_mult: float | None = None
) -> KktState:
    """Evaluate ``(Z_i, C_i, A)`` at an allocation."""
    Zs, Cs = [], []
    for node, Syi, Di in zip(network.nodes, network.sigma_y, alloc.D):
        Z, C = reference_kkt_terms(node, Syi, Di)
        Zs.append(Z)
        Cs.append(C)
    A = sym_part(network.noise_gram - sum(Zs))
    if lambda_mult is None:
        A2 = A @ A
        num, den = 0.0, 0.0
        for node, Z, C in zip(network.nodes, Zs, Cs):
            M = Z - Z @ np.linalg.solve(C, Z)
            num += node.alpha * float(np.tensordot(A2, M))
            den += node.alpha**2 * float(np.tensordot(A2, A2))
        lambda_mult = num / den if den > 0 else 0.0
    return KktState(Z=tuple(Zs), C=tuple(Cs), A_mat=A, lambda_mult=float(lambda_mult))


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
    """Equal verdict, message and SNR bits, validated and not; equal rates."""
    assert outcome(check_allocation, network, alloc) == outcome(
        reference_check_allocation, network, alloc
    )
    assert same(outcome(weighted_sum_rate, network, alloc),
                outcome(reference_weighted_sum_rate, network, alloc))
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


def _allocate_pool_networks(seed: int, count: int) -> list[FusionNetwork]:
    """The first ``count`` vector requests of the ``allocate`` workload's
    pool: fresh n = 32 networks with budgets from their high-rate threshold
    up to 160 nats, where the construction is often invalid."""
    nets = []
    for req in workloads.Allocate().build(seed, workloads.Allocate.POOL):
        if req.scalar:
            continue
        nodes = tuple(
            SensorNode(W=req.W, Sigma_n=Sn, alpha=a) for Sn, a in zip(req.Sigma_n, req.alphas)
        )
        nets.append(FusionNetwork(Sigma_xd=req.Sigma_xd, nodes=nodes, R=req.R))
        if len(nets) == count:
            break
    return nets


HIGHRATE_CASES = {
    **{key: net for key, net in NETWORKS.items()},
    **{f"allocate-{j}": net for j, net in enumerate(_allocate_pool_networks(3, 24))},
    "below-threshold": replace(NETWORKS["b"], R=0.5 * highrate_rmin(NETWORKS["b"])),
}


@pytest.mark.parametrize("key", sorted(HIGHRATE_CASES))
def test_highrate_allocate_and_kkt_state_match_reference(key):
    """Every field of the high-rate result (the achieved rate reuses the
    allocator's ``psd_leq`` verdicts and the cached ``logdet Sigma_y``), and
    the KKT state and residuals at the allocation."""
    net = HIGHRATE_CASES[key]
    got, want = outcome(highrate_allocate, net), outcome(reference_highrate_allocate, net)
    assert same(got, want)
    if got[0] != "ok":
        assert got[0] == "InfeasibleBudget"
        return
    res = got[1]
    assert same(outcome(kkt_state, net, res.allocation),
                outcome(reference_kkt_state, net, res.allocation))
    assert same(outcome(kkt_state, net, res.allocation, 0.7),
                outcome(reference_kkt_state, net, res.allocation, 0.7))


def test_allocate_pool_covers_valid_and_invalid_constructions():
    valid = [highrate_allocate(net).valid for key, net in HIGHRATE_CASES.items()
             if key.startswith("allocate-")]
    assert any(valid) and not all(valid)


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_kkt_state_at_other_allocations_matches_reference(key):
    net = NETWORKS[key]
    allocs = [uniform_allocation(net), Allocation(D=tuple(0.5 * S for S in net.sigma_y))]
    for alloc in allocs:
        assert same(outcome(kkt_state, net, alloc), outcome(reference_kkt_state, net, alloc))
    state = kkt_state(net, allocs[0])
    assert state.C is net.kkt_ceiling


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_cached_logdet_sigma_y_and_budget_equal_fresh_expressions(key):
    net = NETWORKS[key]
    for ld, Syi in zip(net.logdet_sigma_y, net.sigma_y):
        assert same(ld, np.linalg.slogdet(Syi)[1])
    assert same(net.log_beta, reference_log_beta(net))
    for Syi in net.sigma_y:
        for D in (0.5 * Syi, Syi, 1.1 * Syi):
            assert same(outcome(per_node_rate, Syi, D), outcome(reference_per_node_rate, Syi, D))


def test_psd_repair_reports_whether_it_clipped():
    A = np.diag([2.0, 1e-3])
    out, clipped = _psd_repair(A)
    assert not clipped and same(out, sym_part(A)) and same(out, psd_repair(A))
    B = np.diag([1.0, -1e-14])
    out, clipped = _psd_repair(B)
    assert clipped and same(out, psd_repair(B))
    assert np.linalg.eigvalsh(out)[0] >= 0.0


def test_overflowing_allocation_raises_as_reference():
    """An allocation whose entries overflow when symmetrized is refused when
    it is built, naming the matrix; the screened path's ``D <= Sigma_y``
    test raises on such a matrix as ``psd_leq`` does."""
    net = NETWORKS["mixed"]
    big = np.diag([1.5e308] + [1.0] * (net.n - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(Allocation, D=(big, net.sigma_y[1]))
        assert got == ("InvalidParam", "D[0] overflows when symmetrized")
        got = outcome(_dominated, net, 0, big)
        assert got == outcome(psd_leq, big, net.sigma_y[0], ALLOC_TOL)
        assert got == ("InvalidParam", "A overflows when symmetrized")


@pytest.mark.parametrize("key", sorted(NETWORKS))
def test_sigma_y_eigvals_are_fresh_eigvalsh(key):
    """The spectra the SPD tests of ``Sigma_y`` took serve as ``sigma_y_eigvals``."""
    net = replace(NETWORKS[key])                 # nothing cached yet
    for Syi, ev in zip(net.sigma_y, net.sigma_y_eigvals):
        assert same(ev, np.linalg.eigvalsh(Syi))
        assert not ev.flags.writeable


def test_non_spd_sigma_y_raises_check_spds_message():
    """``W = diag(1e6, 1, 1)`` makes ``Sigma_y[1]``'s condition number about
    1e12, past ``check_spd``'s 1e10; both cached views raise its message."""
    n = 3
    good = SensorNode(W=np.eye(n), Sigma_n=0.1 * np.eye(n), alpha=0.5)
    bad = SensorNode(W=np.diag([1e6, 1.0, 1.0]), Sigma_n=1e-3 * np.eye(n), alpha=0.5)
    net = FusionNetwork(Sigma_xd=np.eye(n), nodes=(good, bad), R=1.0)
    S = sym_part(bad.W.T @ net.Sigma_xd @ bad.W + bad.Sigma_n)
    want = outcome(check_spd, S, name="Sigma_y[1]")
    assert want[0] == "NotSpd" and want[1].startswith("Sigma_y[1] is not SPD")
    assert outcome(getattr, net, "sigma_y") == want
    assert outcome(getattr, net, "sigma_y_eigvals") == want


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4, 32]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log10_scale=st.floats(min_value=-6.0, max_value=6.0),
    log10_small=st.floats(min_value=-18.0, max_value=0.0),
    side=st.sampled_from([-1.0, 1.0]),
)
def test_screened_repair_matches_psd_repair(n, seed, log10_scale, log10_small, side):
    """From well-conditioned to slightly indefinite ``D`` (smallest eigenvalue
    ``+-10^log10_small`` relative, across the screen's margin ``100 n eps``
    and ``_psd_repair``'s floor 1e-10), the screened repair returns
    ``_psd_repair``'s bits, clipped flag or error."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.01, 1.0, size=n)
    d[0] = 1.0
    d[-1] = side * 10.0**log10_small
    D = sym_part(U @ ((10.0**log10_scale * d)[:, None] * U.T))
    got = outcome(_psd_repair_screened, D, np.linalg.eigvalsh(D))
    assert same(got, outcome(_psd_repair, D))


def _recording(monkeypatch, name: str) -> list[np.ndarray]:
    """Replace ``numpy.linalg.<name>`` with a wrapper that keeps a copy of
    each argument; return the list of copies."""
    calls, fn = [], getattr(np.linalg, name)

    def wrapper(a, *args, **kwargs):
        calls.append(np.array(a, copy=True))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


@pytest.mark.parametrize("valid", [True, False])
def test_allocate_op_takes_each_distortion_spectrum_once(monkeypatch, valid):
    """One ``allocate`` op on a cold pool network (``highrate_allocate`` and a
    validated ``output_snr``) takes one ``eigh``, the noise gram's, and at
    most one ``eigvalsh`` of each returned ``D_i``; exactly one when the
    allocation is valid."""
    key = next(
        k for k in sorted(HIGHRATE_CASES)
        if k.startswith("allocate-") and highrate_allocate(HIGHRATE_CASES[k]).valid == valid
    )
    net = replace(HIGHRATE_CASES[key])           # nothing cached yet
    eigh = _recording(monkeypatch, "eigh")
    eigvalsh = _recording(monkeypatch, "eigvalsh")
    res = highrate_allocate(net)
    snr = outcome(output_snr, net, res.allocation)
    assert res.valid == valid and (snr[0] == "ok") == valid
    assert len(eigh) == 1 and same(eigh[0], net.noise_gram)
    for Di in res.allocation.D:
        taken = sum(same(A, Di) for A in eigvalsh)
        assert taken == 1 if valid else taken <= 1


@pytest.mark.parametrize("key", sorted(HIGHRATE_CASES))
def test_allocation_spectra_are_fresh_eigvalsh(key):
    """The spectra a high-rate allocation carries, and those ``Allocation``
    takes itself, are ``np.linalg.eigvalsh`` of its matrices, read-only."""
    got = outcome(highrate_allocate, replace(HIGHRATE_CASES[key]))
    if got[0] != "ok":
        return
    alloc = got[1].allocation
    for i, Di in enumerate(alloc.D):
        w = alloc.eigvalsh(i)
        assert same(w, np.linalg.eigvalsh(Di)) and not w.flags.writeable
        assert alloc.eigvalsh(i) is w

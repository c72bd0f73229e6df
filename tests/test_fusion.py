"""Sensor fusion: filter, SNR, KKT system, and the two allocators."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from covrate.errors import (
    AssumptionViolated,
    GenerationStalled,
    InfeasibleBudget,
    InvalidAllocation,
    InvalidParam,
)
from covrate.fusion import (
    Allocation,
    FusionNetwork,
    SensorNode,
    allocation_valid,
    coding_noise_cov,
    equivalent_noise_inv,
    highrate_allocate,
    highrate_rmin,
    highrate_state,
    kkt_residuals,
    kkt_state,
    kkt_terms,
    nld_filter,
    output_snr,
    per_node_rate,
    random_valid_allocations,
    scalar_allocate,
    weighted_sum_rate,
    REGIME_BOUNDARY,
    REGIME_MAXIMIZER,
    REGIME_MINIMIZER,
)
from covrate.model import JointGaussianModel, analyze
from covrate.rdf import rate_distortion
from covrate.simkit import scalar_example_network, two_node_network
from covrate.spd import psd_leq, sym_part
from conftest import random_spd, random_two_node_net, rel_fro


def _snr_of_analog_array(network) -> float:
    """Infinite-rate SNR: signal trace over fused analog-noise trace."""
    S = network.noise_gram
    return float(np.trace(network.Sigma_xd) / np.trace(np.linalg.inv(S)))


# ---------------------------------------------------------------- filter ---


def test_nld_filter_single_identity_node():
    rng = np.random.default_rng(61)
    net = FusionNetwork(
        Sigma_xd=random_spd(3, rng),
        nodes=(SensorNode(W=np.eye(3), Sigma_n=random_spd(3, rng), alpha=1.0),),
        R=1.0,
    )
    H = nld_filter(net, [random_spd(3, rng)])
    assert np.allclose(H, np.eye(3), atol=1e-10)


def test_nld_filter_symmetric_two_node_average():
    rng = np.random.default_rng(62)
    net = FusionNetwork(
        Sigma_xd=random_spd(2, rng),
        nodes=(
            SensorNode(W=np.eye(2), Sigma_n=0.1 * np.eye(2), alpha=0.5),
            SensorNode(W=np.eye(2), Sigma_n=0.1 * np.eye(2), alpha=0.5),
        ),
        R=1.0,
    )
    s2 = 0.3
    H = nld_filter(net, [s2 * np.eye(2), s2 * np.eye(2)])
    assert np.allclose(H, np.hstack([0.5 * np.eye(2), 0.5 * np.eye(2)]), atol=1e-10)


def test_nld_filter_distortionless_and_noise_trace():
    rng = np.random.default_rng(63)
    net = random_two_node_net(rng)
    sigma_v = [node.Sigma_n for node in net.nodes]
    H = nld_filter(net, sigma_v)
    Wstack = np.hstack([node.W for node in net.nodes])
    assert np.allclose(H @ Wstack.T, np.eye(net.n), atol=1e-9)
    Sv = np.zeros((2 * net.n, 2 * net.n))
    Sv[: net.n, : net.n] = sigma_v[0]
    Sv[net.n :, net.n :] = sigma_v[1]
    out_noise = H @ Sv @ H.T
    assert abs(np.trace(out_noise) - np.trace(np.linalg.inv(net.noise_gram))) < 1e-9


# ------------------------------------------------------------------- SNR ---


def test_output_snr_infinite_rate_limit():
    rng = np.random.default_rng(64)
    net = random_two_node_net(rng)
    alloc = Allocation(D=tuple(1e-6 * Syi for Syi in net.sigma_y))
    snr = output_snr(net, alloc)
    assert abs(snr.linear - _snr_of_analog_array(net)) / _snr_of_analog_array(net) < 1e-3
    assert snr.db == pytest.approx(10 * np.log10(snr.linear))


def test_output_snr_zero_rate_floor_monotone():
    rng = np.random.default_rng(65)
    net = random_two_node_net(rng)
    snrs = []
    for eps in (1e-2, 1e-4, 1e-6):
        alloc = Allocation(D=tuple((1.0 - eps) * Syi for Syi in net.sigma_y))
        snrs.append(output_snr(net, alloc).linear)
    assert snrs[0] > snrs[1] > snrs[2]
    # the no-transmission floor is zero: coding noise diverges with the rate
    assert snrs[2] < 1e-4 * _snr_of_analog_array(net)


def test_output_snr_rejects_invalid_allocation():
    net = scalar_example_network(1.0)
    bad = Allocation(D=(1.5 * net.sigma_y[0], 0.5 * net.sigma_y[1]))
    with pytest.raises(InvalidAllocation):
        output_snr(net, bad)
    assert not allocation_valid(net, bad)


def test_output_snr_maximal_at_stationary_point_high_rate():
    res = scalar_allocate(scalar_example_network(2.0))
    assert res.regime == REGIME_MAXIMIZER
    assert res.stationary_snr_db >= res.best_snr_db - 1e-6


# -------------------------------------------------------------- per node ---


def test_per_node_rate_examples():
    rng = np.random.default_rng(66)
    Sy = random_spd(3, rng)
    assert per_node_rate(Sy, Sy.copy()) == pytest.approx(0.0, abs=1e-12)
    s = random_spd(1, rng)
    assert per_node_rate(s, float(np.exp(-2.0)) * s) == pytest.approx(1.0, abs=1e-12)


def test_per_node_rate_matches_direct_observation_rdf():
    rng = np.random.default_rng(67)
    Sy = random_spd(3, rng)
    m = JointGaussianModel(
        Sigma_x=Sy, Sigma_y=Sy, Sigma_z=np.zeros((0, 0)),
        Sigma_xy=Sy, Sigma_xz=np.zeros((3, 0)), Sigma_yz=np.zeros((3, 0)),
    )
    st = analyze(m)
    half = sym_part(0.5 * Sy + 0.1 * random_spd(3, rng, jitter=0.05))
    # force D strictly inside (0, Sigma_y)
    D = sym_part(0.4 * Sy)
    assert abs(per_node_rate(Sy, D) - rate_distortion(st, D).rate) < 1e-9
    assert per_node_rate(Sy, half) >= 0.0
    with pytest.raises(InvalidAllocation):
        per_node_rate(Sy, 1.5 * Sy)


# ------------------------------------------------------------------- KKT ---


def test_kkt_terms_limits_and_order():
    rng = np.random.default_rng(68)
    net = random_two_node_net(rng)
    node, Sy = net.nodes[0], net.sigma_y[0]
    Z0, C0 = kkt_terms(node, Sy, 1e-9 * Sy)
    assert np.linalg.norm(Z0) < 1e-6 * np.linalg.norm(C0)
    Zy, Cy = kkt_terms(node, Sy, Sy.copy())
    # at the zero-rate boundary the first term collapses to the analog gram
    assert rel_fro(Zy, node.W @ np.linalg.inv(node.Sigma_n) @ node.W.T) < 1e-9
    assert psd_leq(Zy, Cy, tol=1e-9)


def test_kkt_terms_roundtrip():
    rng = np.random.default_rng(69)
    net = random_two_node_net(rng)
    node, Sy = net.nodes[0], net.sigma_y[0]
    D = sym_part(0.5 * Sy)
    Z, C = kkt_terms(node, Sy, D)
    assert psd_leq(Z, C, tol=1e-9)
    Sn_inv = np.linalg.inv(node.Sigma_n)
    # invert the Z definition for D and re-evaluate
    M = sym_part(
        Sn_inv @ node.W.T @ np.linalg.inv(Z) @ node.W @ Sn_inv
        - Sn_inv
        + np.linalg.inv(Sy)
    )
    D_back = np.linalg.inv(M)
    Z2, _ = kkt_terms(node, Sy, sym_part(D_back))
    assert rel_fro(Z2, Z) < 1e-9


def test_kkt_residuals_scalar_closed_form():
    net = scalar_example_network(2.0)
    res = scalar_allocate(net)
    alloc = Allocation(D=(np.array([[res.D1]]), np.array([[res.D2]])))
    state = kkt_state(net, alloc)
    r = kkt_residuals(net, state)
    assert r.stationarity <= 1e-9
    assert r.multiplier <= 1e-9
    assert r.budget <= 1e-9


def test_kkt_residuals_random_allocation_is_nonstationary():
    net = scalar_example_network(2.0)
    rng = np.random.default_rng(70)
    base = highrate_allocate(net).allocation
    alloc = random_valid_allocations(net, base, 0.0, 1.0, 1, rng)[0]
    r = kkt_residuals(net, kkt_state(net, alloc))
    assert r.stationarity > 1e-3


def test_kkt_residuals_high_rate_solution():
    net = two_node_network(8, 40.0, (0.0, 0.0), (0.01, 0.02))
    result = highrate_allocate(net)
    assert result.valid
    state = highrate_state(net, result)
    # evaluate against the budget the construction actually hit
    log_beta = net.log_beta + 2.0 * (net.R - result.achieved_rate)
    r = kkt_residuals(net, state, log_beta=log_beta)
    assert r.multiplier <= 1e-9
    assert r.budget <= 1e-9
    assert r.stationarity < 1e-2  # high-rate approximation error, small


# ------------------------------------------------------------- high rate ---


def test_highrate_infeasible_budget():
    net = scalar_example_network(2.0)
    r_min = highrate_rmin(net)
    with pytest.raises(InfeasibleBudget):
        highrate_allocate(replace(net, R=0.99 * r_min))
    res = highrate_allocate(replace(net, R=1.01 * r_min))
    assert res.r_min == pytest.approx(r_min)


def test_highrate_valid_solution_properties():
    net = two_node_network(8, 40.0, (0.0, 0.0), (0.01, 0.02))
    res = highrate_allocate(net)
    assert res.valid and all(res.node_valid)
    assert allocation_valid(net, res.allocation)
    assert abs(weighted_sum_rate(net, res.allocation) - res.achieved_rate) < 1e-9
    assert abs(res.achieved_rate - net.R) < 0.5  # deviation reported, small here
    assert res.budget == pytest.approx(net.R)
    assert res.lambda_mult > 0.0


def test_highrate_reports_invalid_when_assumption_breaks():
    # strongly correlated noise at a mid-range budget: the stationary
    # construction leaves the feasible set and the result says so
    net = two_node_network(32, 80.0, (0.9, 0.3), (0.01, 0.02))
    res = highrate_allocate(net)
    assert not res.valid
    assert not all(res.node_valid)
    assert np.isnan(res.achieved_rate)


def test_highrate_scalar_consistency():
    sc0 = scalar_allocate(scalar_example_network(2.0))
    R = sc0.r_max + 3.0
    net = scalar_example_network(R)
    sc = scalar_allocate(net)
    res = highrate_allocate(net)
    d1, d2 = (float(D[0, 0]) for D in res.allocation.D)
    assert abs(d1 - sc.D1) / sc.D1 < 0.01
    assert abs(d2 - sc.D2) / sc.D2 < 0.01


def test_highrate_snr_stationarity_along_constraint_tangents():
    rng = np.random.default_rng(71)
    net = two_node_network(8, 54.0, (0.0, 0.0), (0.01, 0.02))
    res = highrate_allocate(net)
    assert res.valid
    star = res.allocation

    def proj_grad(alloc, k=20):
        g = [(-node.alpha / 2) * np.linalg.inv(D) for node, D in zip(net.nodes, alloc.D)]
        gnorm2 = sum(float(np.sum(x * x)) for x in g)
        scale = 1e-5 * np.sqrt(sum(float(np.sum(D * D)) for D in alloc.D))
        worst = 0.0
        for _ in range(k):
            d = [sym_part(rng.standard_normal(D.shape)) for D in alloc.D]
            ip = sum(float(np.sum(a * b)) for a, b in zip(g, d))
            d = [a - (ip / gnorm2) * b for a, b in zip(d, g)]
            nrm = np.sqrt(sum(float(np.sum(a * a)) for a in d))
            d = [a / nrm for a in d]
            ap = Allocation(D=tuple(sym_part(D + scale * x) for D, x in zip(alloc.D, d)))
            am = Allocation(D=tuple(sym_part(D - scale * x) for D, x in zip(alloc.D, d)))
            deriv = (
                output_snr(net, ap, validate=False).linear
                - output_snr(net, am, validate=False).linear
            ) / (2 * scale)
            worst = max(worst, abs(deriv))
        return worst

    g_star = proj_grad(star)
    rand = random_valid_allocations(
        replace(net, R=res.achieved_rate), star, 0.0, 1.0, 1, rng
    )[0]
    g_rand = proj_grad(rand)
    assert g_star <= 1e-3 * g_rand


# ---------------------------------------------------------------- scalar ---


def test_scalar_allocate_thresholds_and_regimes():
    res = scalar_allocate(scalar_example_network(2.0))
    assert abs(res.r_max - 1.13) <= 0.005
    assert abs(res.r_min - 0.83) <= 0.005
    assert res.regime == REGIME_MAXIMIZER
    assert scalar_allocate(scalar_example_network(0.5)).regime == REGIME_MINIMIZER
    mid = scalar_allocate(scalar_example_network(1.0))
    assert mid.regime == REGIME_BOUNDARY
    assert not mid.stationary_feasible


def test_scalar_allocate_minimizer_sweep_beats_stationary_point():
    res = scalar_allocate(scalar_example_network(0.5))
    assert res.stationary_feasible
    assert res.best_snr_db > res.stationary_snr_db
    # best boundary point pushes nearly the whole budget to the better node
    assert res.best_d2 < res.D2


def test_scalar_allocate_rate_closure():
    for R in (0.5, 1.0, 2.0):
        res = scalar_allocate(scalar_example_network(R))
        net = scalar_example_network(R)
        if res.stationary_feasible:
            alloc = Allocation(D=(np.array([[res.D1]]), np.array([[res.D2]])))
            assert abs(weighted_sum_rate(net, alloc) - R) < 1e-9
        alloc_b = Allocation(D=(np.array([[res.best_d1]]), np.array([[res.best_d2]])))
        assert abs(weighted_sum_rate(net, alloc_b) - R) < 1e-9


def test_scalar_allocate_rejects_asymmetric_assumptions():
    rng = np.random.default_rng(72)
    net = FusionNetwork(
        Sigma_xd=np.eye(1),
        nodes=(
            SensorNode(W=np.eye(1), Sigma_n=0.2 * np.eye(1), alpha=0.7),
            SensorNode(W=np.eye(1), Sigma_n=0.1 * np.eye(1), alpha=0.3),
        ),
        R=2.0,
    )
    with pytest.raises(AssumptionViolated):
        scalar_allocate(net)
    net_vec = random_two_node_net(rng)
    if net_vec.n > 1:
        with pytest.raises(AssumptionViolated):
            scalar_allocate(net_vec)


# ------------------------------------------------------------ generation ---


def test_random_valid_allocations_identity_weights_return_base():
    rng = np.random.default_rng(73)
    net = two_node_network(4, 10.0, (0.0, 0.0), (0.1, 0.2))
    base = highrate_allocate(net).allocation
    pop_net = replace(net, R=weighted_sum_rate(net, base))
    out = random_valid_allocations(pop_net, base, 1.0, 0.0, 3, rng)
    assert len(out) == 3
    for alloc in out:
        for D, D0 in zip(alloc.D, base.D):
            assert rel_fro(D, D0) < 1e-9


def test_random_valid_allocations_perturbed_stay_near_and_close_rate():
    rng = np.random.default_rng(74)
    net = two_node_network(4, 10.0, (0.0, 0.0), (0.1, 0.2))
    base = highrate_allocate(net).allocation
    pop_net = replace(net, R=weighted_sum_rate(net, base))
    out = random_valid_allocations(pop_net, base, 0.999, 0.001, 20, rng)
    for alloc in out:
        assert allocation_valid(pop_net, alloc)
        assert abs(weighted_sum_rate(pop_net, alloc) - pop_net.R) < 1e-9
        for D, D0 in zip(alloc.D, base.D):
            assert rel_fro(D, D0) < 0.05


def test_random_valid_allocations_fully_random_population():
    rng = np.random.default_rng(75)
    net = two_node_network(4, 10.0, (0.0, 0.0), (0.1, 0.2))
    base = highrate_allocate(net).allocation
    pop_net = replace(net, R=weighted_sum_rate(net, base))
    out = random_valid_allocations(pop_net, base, 0.0, 1.0, 50, rng)
    assert len(out) == 50
    for alloc in out:
        assert allocation_valid(pop_net, alloc)
        assert abs(weighted_sum_rate(pop_net, alloc) - pop_net.R) < 1e-9


def test_random_valid_allocations_stall_raises():
    rng = np.random.default_rng(76)
    net = two_node_network(4, 10.0, (0.0, 0.0), (0.1, 0.2))
    base = highrate_allocate(net).allocation
    with pytest.raises(GenerationStalled):
        # zero weights draw the zero matrix forever; nothing is ever valid
        random_valid_allocations(
            net, base, 0.0, 0.0, 1, rng, max_consecutive_failures=50
        )


# ------------------------------------------------------------ invariants ---


def test_network_validates_weights():
    with pytest.raises(InvalidParam):
        FusionNetwork(
            Sigma_xd=np.eye(1),
            nodes=(
                SensorNode(W=np.eye(1), Sigma_n=0.2 * np.eye(1), alpha=0.6),
                SensorNode(W=np.eye(1), Sigma_n=0.1 * np.eye(1), alpha=0.6),
            ),
            R=1.0,
        )


def test_coding_noise_matches_equivalent_noise():
    rng = np.random.default_rng(77)
    net = random_two_node_net(rng)
    node, Sy = net.nodes[0], net.sigma_y[0]
    D = sym_part(0.5 * Sy)
    Sv = node.Sigma_n + coding_noise_cov(Sy, D)
    assert rel_fro(np.linalg.inv(Sv), equivalent_noise_inv(net, 0, D)) < 1e-9
    with pytest.raises(InvalidAllocation):
        coding_noise_cov(Sy, Sy.copy())

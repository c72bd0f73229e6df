"""Trace-constrained water-filling and the relay rate-information reduction."""
from __future__ import annotations

import numpy as np
import pytest

from covrate.errors import InfeasibleDistortion, InfiniteRate, OutOfRange
from covrate.model import analyze
from covrate.rdf import rate_distortion
from covrate.special import mse_rdf, relay_solve, relay_supremum
from covrate.spd import sym_eig_desc
from conftest import random_spd
from test_model import _random_model

HALF_LN3 = 0.5 * np.log(3.0)


def test_mse_scalar_worked_example(scalar_stats):
    res = mse_rdf(scalar_stats, 0.5)
    assert abs(res.water_level - 0.25) < 1e-12
    assert abs(res.rate - HALF_LN3) < 1e-12
    assert abs(res.d_star[0, 0] - 0.5) < 1e-12
    assert res.residual <= 1e-9


def test_mse_zero_rate_for_large_distortion(scalar_stats):
    res = mse_rdf(scalar_stats, 1.5)
    assert res.rate == pytest.approx(0.0, abs=1e-12)
    assert res.water_level >= 0.75


def test_mse_infeasible_distortion(scalar_stats):
    with pytest.raises(InfeasibleDistortion):
        mse_rdf(scalar_stats, 0.2)


def test_mse_water_equation_and_rdf_identity():
    rng = np.random.default_rng(51)
    m = _random_model(rng, n_x=4, n_y=5, n_z=2)
    st = analyze(m)
    lam = sym_eig_desc(st.Sigma_x_given_z - st.Sigma_x_given_yz)[1]
    d_lo = float(np.trace(st.Sigma_x_given_yz)) / 4
    D_scalar = d_lo + 0.3 * float(lam.sum()) / 4
    res = mse_rdf(st, D_scalar)
    water_lhs = float(np.minimum(res.water_level, lam).sum())
    water_rhs = 4 * D_scalar - float(np.trace(st.Sigma_x_given_yz))
    assert abs(water_lhs - water_rhs) < 1e-9
    # the optimal matrix-distortion choice reproduces the scalar rate
    assert abs(rate_distortion(st, res.d_star).rate - res.rate) < 1e-9
    assert abs(float(np.trace(res.d_star)) - 4 * D_scalar) < 1e-9


def test_mse_rate_nonincreasing_and_convex():
    rng = np.random.default_rng(52)
    m = _random_model(rng, n_x=3, n_y=4, n_z=1)
    st = analyze(m)
    d_lo = float(np.trace(st.Sigma_x_given_yz)) / 3
    d_hi = float(np.trace(st.Sigma_x_given_z)) / 3
    grid = np.linspace(d_lo * 1.05, d_hi, 25)
    rates = np.array([mse_rdf(st, float(d)).rate for d in grid])
    assert np.all(np.diff(rates) <= 1e-10)
    second = rates[:-2] - 2 * rates[1:-1] + rates[2:]
    assert np.all(second >= -1e-8)


def test_relay_mu_no_extra_information():
    rng = np.random.default_rng(53)
    from test_model import _duplicate_side_info_model

    st = analyze(_duplicate_side_info_model(rng))
    assert np.allclose(relay_solve(st, 0.0).mu, 0.0, atol=1e-9)


def test_relay_mu_scalar(scalar_stats):
    mu = relay_solve(scalar_stats, 0.0).mu
    assert mu.shape == (1,)
    assert abs(mu[0] - 0.75) < 1e-12


def test_relay_mu_product_identity():
    rng = np.random.default_rng(54)
    m = _random_model(rng, n_x=4, n_y=4, n_z=2)
    st = analyze(m)
    mu = relay_solve(st, 0.0).mu
    assert np.all(mu >= 0.0) and np.all(mu < 1.0)
    assert np.all(np.diff(mu) <= 1e-12)
    lhs = float(np.sum(-0.5 * np.log1p(-mu)))
    rhs = 0.5 * (
        np.linalg.slogdet(st.Sigma_x_given_z)[1]
        - np.linalg.slogdet(st.Sigma_x_given_yz)[1]
    )
    assert abs(lhs - rhs) < 1e-9


def test_relay_zero_information(scalar_stats):
    res = relay_solve(scalar_stats, 0.0)
    assert res.rate == pytest.approx(0.0, abs=1e-12)
    assert abs(res.gamma - 0.75) < 1e-12  # canonical root at mu_max


def test_relay_scalar_worked_example(scalar_stats):
    res = relay_solve(scalar_stats, 0.5 * np.log(2.0))
    assert abs(res.gamma - 0.5) < 1e-12
    assert abs(res.rate - HALF_LN3) < 1e-12
    assert abs(res.d_star[0, 0] - 0.5) < 1e-12
    assert res.residual <= 1e-9


def test_relay_supremum_and_range(scalar_stats):
    sup = relay_supremum(scalar_stats)
    assert abs(sup - np.log(2.0)) < 1e-12
    with pytest.raises(OutOfRange):
        relay_solve(scalar_stats, -1e-6)
    with pytest.raises(OutOfRange):
        relay_solve(scalar_stats, sup + 1e-6)
    with pytest.raises(InfiniteRate):
        relay_solve(scalar_stats, sup)


def test_relay_rdf_identity_at_half_supremum():
    rng = np.random.default_rng(55)
    m = _random_model(rng, n_x=3, n_y=5, n_z=2)
    st = analyze(m)
    res = relay_solve(st, 0.5 * relay_supremum(st))
    assert abs(rate_distortion(st, res.d_star).rate - res.rate) < 1e-9
    assert res.residual <= 1e-9


def test_relay_rate_nondecreasing_in_information():
    rng = np.random.default_rng(56)
    m = _random_model(rng, n_x=3, n_y=4, n_z=1)
    st = analyze(m)
    sup = relay_supremum(st)
    grid = np.linspace(0.0, 0.95 * sup, 20)
    rates = [relay_solve(st, float(r)).rate for r in grid]
    assert np.all(np.diff(rates) >= -1e-10)


def test_relay_gamma_bracket():
    rng = np.random.default_rng(57)
    m = _random_model(rng, n_x=4, n_y=4, n_z=0)
    st = analyze(m)
    mu = relay_solve(st, 0.0).mu
    for frac in (0.1, 0.5, 0.9):
        res = relay_solve(st, frac * relay_supremum(st))
        assert 0.0 <= res.gamma <= mu[0] + 1e-12

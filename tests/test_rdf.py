"""Closed-form rate-distortion function, test channel, and MMSE decoder."""
from __future__ import annotations

import numpy as np
import pytest

from covrate.errors import InvalidDistortion, NotNested, RankDeficient
from covrate.model import JointGaussianModel, analyze, conditional_cov
from covrate.rdf import (
    channel_rate,
    check_distortion,
    cond_mutual_info_gaussian,
    mmse_decoder,
    rate_distortion,
)
from covrate.rdf import test_channel as make_channel
from covrate.spd import matrix_min, psd_leq
from conftest import random_spd, rel_fro
from test_model import _duplicate_side_info_model, _random_model


HALF_LN3 = 0.5 * np.log(3.0)


def _extended_joint(m, channel):
    """Joint covariance of (x, z, u) for u = E y + nu."""
    E = channel.encoder_map
    k = E.shape[0]
    Jxyz = np.block([
        [m.Sigma_x, m.Sigma_xy, m.Sigma_xz],
        [m.Sigma_xy.T, m.Sigma_y, m.Sigma_yz],
        [m.Sigma_xz.T, m.Sigma_yz.T, m.Sigma_z],
    ])
    lift = np.zeros((k, m.n_x + m.n_y + m.n_z))
    lift[:, m.n_x:m.n_x + m.n_y] = E
    Su = lift @ Jxyz @ lift.T + channel.noise_cov
    return np.block([
        [Jxyz, Jxyz @ lift.T],
        [lift @ Jxyz, Su],
    ])


def test_rate_scalar_worked_example(scalar_stats):
    res = rate_distortion(scalar_stats, np.array([[0.5]]))
    assert abs(res.rate - HALF_LN3) < 1e-12
    assert abs(res.min_matrix[0, 0] - 0.25) < 1e-12
    assert abs(res.error_cov[0, 0] - 0.5) < 1e-12


def test_rate_zero_when_side_info_suffices(scalar_stats):
    res = rate_distortion(scalar_stats, np.array([[1.5]]))
    assert res.rate == pytest.approx(0.0, abs=1e-12)
    assert abs(res.error_cov[0, 0] - 1.0) < 1e-12


def test_rate_rejects_boundary_distortion(scalar_stats):
    with pytest.raises(InvalidDistortion):
        rate_distortion(scalar_stats, np.array([[0.25]]))
    with pytest.raises(InvalidDistortion):
        check_distortion(scalar_stats, np.array([[0.2]]))


def test_near_singular_gap_is_invalid_distortion_everywhere():
    """A gap ``D - Sigma_x_given_yz`` that the joint diagonalizer's SPD test
    refuses is refused by ``check_distortion`` too, so the rate and the test
    channel raise InvalidDistortion rather than NotSpd; a gap that passes it
    computes."""
    st = analyze(JointGaussianModel.without_z(np.eye(2), 2.0 * np.eye(2), np.eye(2)))
    for tiny in (1e-11, 1e-13):
        D = st.Sigma_x_given_yz + np.diag([1.0, tiny])
        for entry in (check_distortion, rate_distortion, make_channel):
            with pytest.raises(InvalidDistortion):
                entry(st, D)
    D = st.Sigma_x_given_yz + np.diag([1.0, 1e-9])
    assert rate_distortion(st, D).rate > 0.0
    assert make_channel(st, D).n_active == 1


def test_rate_rejects_rank_deficient_stats():
    rng = np.random.default_rng(41)
    st = analyze(_duplicate_side_info_model(rng))
    with pytest.raises(RankDeficient):
        rate_distortion(st, st.Sigma_x_given_yz + 0.5 * np.eye(2))


def test_rate_matches_constrained_det_oracle():
    from covrate.spd import constrained_det_oracle

    rng = np.random.default_rng(42)
    m = _random_model(rng, n_x=2, n_y=3, n_z=1)
    st = analyze(m)
    D = st.Sigma_x_given_yz + 0.6 * random_spd(2, rng, jitter=0.2)
    res = rate_distortion(st, D)
    S1 = D - st.Sigma_x_given_yz
    S2 = st.Sigma_x_given_z - st.Sigma_x_given_yz
    a_star = constrained_det_oracle(S1, S2, trials=50_000, seed=7)
    oracle_rate = 0.5 * np.log(np.linalg.det(S2) / a_star)
    assert res.rate >= oracle_rate - 1e-9
    assert res.rate <= oracle_rate - 0.5 * np.log(0.99) + 1e-9


def test_rate_monotone_in_distortion():
    rng = np.random.default_rng(43)
    m = _random_model(rng, n_x=3, n_y=4, n_z=2)
    st = analyze(m)
    D1 = st.Sigma_x_given_yz + 0.3 * random_spd(3, rng, jitter=0.2)
    D2 = D1 + 0.2 * random_spd(3, rng, jitter=0.2)
    assert rate_distortion(st, D1).rate >= rate_distortion(st, D2).rate - 1e-12


def test_channel_scalar_noise_variance(scalar_stats):
    ch = make_channel(scalar_stats, np.array([[0.5]]))
    assert ch.n_active == 1
    assert abs(ch.noise_cov[0, 0] - 0.375) < 1e-12


def test_channel_zero_rate_is_empty(scalar_stats):
    ch = make_channel(scalar_stats, np.array([[1.5]]))
    assert ch.n_active == 0
    assert channel_rate(scalar_stats, ch) == pytest.approx(0.0, abs=1e-12)


def test_channel_mutual_info_matches_rate():
    rng = np.random.default_rng(44)
    for _ in range(5):
        m = _random_model(rng, n_x=3, n_y=4, n_z=2)
        st = analyze(m)
        D = st.Sigma_x_given_yz + 0.4 * random_spd(3, rng, jitter=0.2)
        res = rate_distortion(st, D)
        ch = make_channel(st, D)
        assert abs(channel_rate(st, ch) - res.rate) < 1e-9
        if ch.n_active == 0:
            continue
        # independent mutual-information computation on the extended joint
        J = _extended_joint(m, ch)
        nxyz = m.n_x + m.n_y + m.n_z
        iu = list(range(nxyz, nxyz + ch.n_active))
        iy = list(range(m.n_x, m.n_x + m.n_y))
        iz = list(range(m.n_x + m.n_y, nxyz))
        Su_z = conditional_cov(J, iu, iz)
        Su_yz = conditional_cov(J, iu, iy + iz)
        mi = cond_mutual_info_gaussian(Su_z, Su_yz)
        assert abs(mi - res.rate) < 1e-9


def test_reconstruction_error_zero_rate_returns_side_info_error(scalar_stats):
    out = rate_distortion(scalar_stats, np.array([[2.0]])).error_cov
    assert abs(out[0, 0] - 1.0) < 1e-12


def test_reconstruction_error_near_lower_boundary():
    rng = np.random.default_rng(45)
    m = _random_model(rng, n_x=2, n_y=3, n_z=1)
    st = analyze(m)
    eps = 1e-3
    D = st.Sigma_x_given_yz + eps * np.eye(2)
    out = rate_distortion(st, D).error_cov
    assert psd_leq(out - st.Sigma_x_given_yz, eps * np.eye(2), tol=1e-9)


def test_reconstruction_error_matches_conditional_cov():
    rng = np.random.default_rng(46)
    m = _random_model(rng, n_x=3, n_y=3, n_z=2)
    st = analyze(m)
    D = st.Sigma_x_given_yz + 0.5 * random_spd(3, rng, jitter=0.2)
    out = rate_distortion(st, D).error_cov
    ch = make_channel(st, D)
    J = _extended_joint(m, ch)
    nxyz = m.n_x + m.n_y + m.n_z
    ix = list(range(m.n_x))
    iz = list(range(m.n_x + m.n_y, nxyz))
    iu = list(range(nxyz, nxyz + ch.n_active))
    ref = conditional_cov(J, ix, iu + iz)
    assert rel_fro(out, ref) < 1e-9
    # separation identity: error minus the irreducible part is the min matrix
    res = rate_distortion(st, D)
    assert rel_fro(out - st.Sigma_x_given_yz, res.min_matrix) < 1e-9


def test_mmse_decoder_scalar(scalar_stats):
    ch = make_channel(scalar_stats, np.array([[0.5]]))
    C, G = mmse_decoder(scalar_stats, ch)
    # u = E y + nu; the diagonalizing basis normalizes var(E y) to 0.75, so
    # var(u) = 0.75 + 0.375 = 1.125 and cov(x, u) = E * cov(x, y) = E
    E = float(ch.encoder_map[0, 0])
    Su = E * E * 4.0 / 3.0 + 0.375
    assert abs(Su - 1.125) < 1e-12
    assert abs(C[0, 0] - E / 1.125) < 1e-12
    assert G.shape == (1, 0)


def test_mmse_decoder_empty_channel(scalar_stats):
    ch = make_channel(scalar_stats, np.array([[1.5]]))
    C, G = mmse_decoder(scalar_stats, ch)
    assert C.shape == (1, 0)
    assert G.shape == (1, 0)


def test_mmse_decoder_residual_equals_reconstruction_error():
    rng = np.random.default_rng(47)
    m = _random_model(rng, n_x=2, n_y=4, n_z=2)
    st = analyze(m)
    D = st.Sigma_x_given_yz + 0.4 * random_spd(2, rng, jitter=0.2)
    ch = make_channel(st, D)
    C, G = mmse_decoder(st, ch)
    J = _extended_joint(m, ch)
    nxyz = m.n_x + m.n_y + m.n_z
    ix = list(range(m.n_x))
    iz = list(range(m.n_x + m.n_y, nxyz))
    iu = list(range(nxyz, nxyz + ch.n_active))
    K = J[np.ix_(iu + iz, iu + iz)]
    cross = J[np.ix_(ix, iu + iz)]
    resid = J[np.ix_(ix, ix)] - cross @ np.linalg.solve(K, cross.T)
    assert rel_fro(resid, rate_distortion(st, D).error_cov) < 1e-9
    # and the decoder matrices are the MMSE coefficients
    coef = np.linalg.solve(K, cross.T).T
    assert np.allclose(np.hstack([C, G]), coef, atol=1e-9)


def test_cond_mutual_info_trivial_values():
    assert cond_mutual_info_gaussian(np.array([[1.0]]), np.array([[1.0]])) == pytest.approx(0.0)
    assert cond_mutual_info_gaussian(np.array([[2.0]]), np.array([[1.0]])) == pytest.approx(
        0.5 * np.log(2.0)
    )
    with pytest.raises(NotNested):
        cond_mutual_info_gaussian(np.array([[1.0]]), np.array([[2.0]]))


def test_min_matrix_consistency(scalar_stats):
    res = rate_distortion(scalar_stats, np.array([[0.5]]))
    expected = matrix_min(np.array([[0.25]]), np.array([[0.75]]))
    assert rel_fro(res.min_matrix, expected) < 1e-12

"""Joint diagonalization, the matrix minimum, and the PSD order."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covrate.errors import DimensionMismatch, NotSpd
from covrate.spd import (
    SCREEN_ACCEPT,
    SCREEN_REJECT,
    SCREEN_UNDECIDED,
    _eig_desc,
    _psd_leq_screen,
    _rotated_diag,
    constrained_det_oracle,
    joint_diagonalize,
    matrix_min,
    psd_leq,
    sym_eig_desc,
    sym_part,
)
from conftest import random_spd, random_spd_pair, rel_fro


def test_joint_diagonalize_identity_pair():
    jd = joint_diagonalize(np.eye(2), np.eye(2))
    assert np.allclose(jd.lam, [1.0, 1.0])
    assert np.allclose(jd.lam_prime, [1.0, 1.0])
    assert abs(abs(np.linalg.det(jd.V)) - 1.0) < 1e-12


def test_joint_diagonalize_commuting_diagonals():
    S1 = np.diag([2.0, 1.0])
    S2 = np.diag([1.0, 2.0])
    jd = joint_diagonalize(S1, S2)
    assert np.allclose(jd.lam, [2.0, 1.0], atol=1e-12)
    assert np.allclose(jd.lam_prime, [4.0, 0.5], atol=1e-12)
    # defining products: V S1 V^T = diag(lam), V S2 V^T = diag(lam')
    assert np.allclose(jd.V @ S1 @ jd.V.T, np.diag(jd.lam), atol=1e-10)
    assert np.allclose(jd.V @ S2 @ jd.V.T, np.diag(jd.lam_prime), atol=1e-10)


def test_joint_diagonalize_random_pair_properties():
    rng = np.random.default_rng(11)
    S1, S2 = random_spd_pair(5, rng)
    jd = joint_diagonalize(S1, S2)
    assert np.allclose(jd.V @ S1 @ jd.V.T, np.diag(jd.lam), atol=1e-9)
    assert np.allclose(jd.V @ S2 @ jd.V.T, np.diag(jd.lam_prime), atol=1e-9)
    assert abs(abs(np.linalg.det(jd.V)) - 1.0) < 1e-9
    assert np.all(np.diff(jd.lam_prime) <= 1e-12)  # descending


def test_joint_diagonalize_scale_consistency():
    rng = np.random.default_rng(12)
    S1, S2 = random_spd_pair(4, rng)
    jd1 = joint_diagonalize(S1, S2)
    c = 3.7
    jd2 = joint_diagonalize(c * S1, c * S2)
    assert np.allclose(jd2.lam, c * jd1.lam, rtol=1e-9)
    assert np.allclose(jd2.lam_prime, c * jd1.lam_prime, rtol=1e-9)
    assert np.array_equal(jd1.lam <= jd1.lam_prime, jd2.lam <= jd2.lam_prime)


def test_joint_diagonalize_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        joint_diagonalize(np.eye(2), np.eye(3))
    with pytest.raises(NotSpd):
        joint_diagonalize(np.diag([1.0, 0.0]), np.eye(2))
    with pytest.raises(NotSpd):
        joint_diagonalize(np.eye(2), np.diag([1.0, -0.5]))


def test_matrix_min_of_equal_pair_is_identity_map():
    rng = np.random.default_rng(13)
    S = random_spd(3, rng)
    assert rel_fro(matrix_min(S, S), S) < 1e-10


def test_matrix_min_commuting_diagonals():
    M = matrix_min(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
    assert np.allclose(M, np.eye(2), atol=1e-10)


def test_matrix_min_of_ordered_pair_returns_smaller():
    rng = np.random.default_rng(14)
    A = random_spd(4, rng)
    B = A + random_spd(4, rng, jitter=0.05)
    assert rel_fro(matrix_min(A, B), A) < 1e-9
    assert rel_fro(matrix_min(B, A), A) < 1e-9


def test_matrix_min_dominated_by_both():
    rng = np.random.default_rng(15)
    S1, S2 = random_spd_pair(6, rng)
    M = matrix_min(S1, S2)
    assert psd_leq(M, S1, tol=1e-9)
    assert psd_leq(M, S2, tol=1e-9)


def test_psd_leq_trivial_order():
    assert psd_leq(np.eye(3), 2 * np.eye(3), tol=1e-12)
    assert not psd_leq(2 * np.eye(3), np.eye(3), tol=1e-12)
    with pytest.raises(DimensionMismatch):
        psd_leq(np.eye(2), np.eye(3))


def test_constrained_det_oracle_identity():
    val = constrained_det_oracle(np.eye(2), np.eye(2), trials=2000, seed=0)
    assert val <= 1.0 + 1e-9
    assert val > 0.999


def test_constrained_det_oracle_commuting_diagonals():
    val = constrained_det_oracle(
        np.diag([2.0, 1.0]), np.diag([1.0, 2.0]), trials=2000, seed=1
    )
    assert val <= 1.0 + 1e-9
    assert val > 0.99


def test_constrained_det_oracle_matches_matrix_min():
    rng = np.random.default_rng(16)
    S1, S2 = random_spd_pair(2, rng)
    target = float(np.linalg.det(matrix_min(S1, S2)))
    val = constrained_det_oracle(S1, S2, trials=20_000, seed=2)
    assert val <= target + 1e-9
    assert val >= 0.99 * target


def test_sym_eig_desc_reconstructs():
    rng = np.random.default_rng(17)
    A = random_spd(5, rng)
    U, lam = sym_eig_desc(A)
    assert np.all(np.diff(lam) <= 1e-12)
    assert np.allclose(U.T @ np.diag(lam) @ U, A, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_matrix_min_hypothesis_invariants(n, seed):
    """For arbitrary SPD pairs the minimum commutes with the diagonalizer and
    is dominated by both arguments."""
    rng = np.random.default_rng(seed)
    S1, S2 = random_spd_pair(n, rng)
    jd = joint_diagonalize(S1, S2)
    M = matrix_min(S1, S2)
    Vinv = np.linalg.inv(jd.V)
    expected = Vinv @ np.diag(np.minimum(jd.lam, jd.lam_prime)) @ Vinv.T
    assert rel_fro(M, sym_part(expected)) < 1e-8
    assert psd_leq(M, S1, tol=1e-8)
    assert psd_leq(M, S2, tol=1e-8)


def _spd_with_cond(n: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Random SPD matrix with eigenvalues spread log-uniformly over [1, cond]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    w[0], w[-1] = 1.0, cond
    return sym_part(Q @ (w[:, None] * Q.T))


def test_psd_leq_screen_decides_clear_cases():
    rng = np.random.default_rng(19)
    B = _spd_with_cond(6, 1e3, rng)
    U, _ = _eig_desc(random_spd(6, rng))
    c = _rotated_diag(U, B)
    w = np.linalg.eigvalsh(B)
    far_above = c + 0.1 * w[-1]
    far_below = np.full(6, 0.5 * w[0])
    mixed = np.minimum(c, 2.0 * w[0])  # below every quotient, above lambda_min
    verdicts = _psd_leq_screen(np.stack([far_above, far_below]), c, w[0], w[-1], 1e-9)
    assert verdicts.tolist() == [SCREEN_REJECT, SCREEN_ACCEPT]
    assert _psd_leq_screen(mixed, c, w[0], w[-1], 1e-9) == SCREEN_UNDECIDED


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4, 32, 64]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log10_cond=st.floats(min_value=0.0, max_value=8.0),
    aligned=st.booleans(),
    place=st.sampled_from(["reject", "accept", "free"]),
    log10_offset=st.floats(min_value=-16.0, max_value=-8.0),
    side=st.sampled_from([-1.0, 1.0]),
    tol=st.sampled_from([0.0, 1e-12, 1e-9]),
)
def test_psd_leq_screen_never_contradicts_psd_leq(
    n, seed, log10_cond, aligned, place, log10_offset, side, tol
):
    """Reject implies ``psd_leq`` is False and accept implies it is True, for
    SPD ``B`` up to condition number 1e8 and spectra placed within 1e-16 to
    1e-8 (relative) of either bound, on either side.  In ``B``'s own
    eigenbasis both bounds are tight, so only the rounding margin separates
    the verdicts from ``psd_leq``'s."""
    rng = np.random.default_rng(seed)
    B = _spd_with_cond(n, 10.0**log10_cond, rng)
    U, _ = _eig_desc(B if aligned else random_spd(n, rng))
    c = _rotated_diag(U, B)
    w = np.linalg.eigvalsh(B)
    nudge = 1.0 + side * 10.0**log10_offset
    if place == "reject":  # one entry at the Rayleigh-Ritz bound, the rest below it
        d = c * rng.uniform(0.0, 1.0, size=n)
        j = int(rng.integers(n))
        d[j] = (c[j] + tol * w[-1]) * nudge
    elif place == "accept":  # largest entry at the Weyl bound
        d = (w[0] + tol * w[-1]) * rng.uniform(0.0, 1.0, size=n)
        d[int(rng.integers(n))] = (w[0] + tol * w[-1]) * nudge
    else:
        d = rng.uniform(0.0, 2.0 * w[-1], size=n)
    verdict = _psd_leq_screen(d, c, w[0], w[-1], tol)
    if verdict != SCREEN_UNDECIDED:
        D = sym_part(U.T @ (d[:, None] * U))
        assert psd_leq(D, B, tol=tol) == (verdict == SCREEN_ACCEPT)

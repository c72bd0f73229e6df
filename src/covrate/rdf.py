"""Closed-form rate-distortion function under a covariance distortion constraint.

Given the conditional statistics of a remote source ``x`` observed through
``y`` with decoder side information ``z``, the minimum achievable coding rate
subject to the reconstruction-error covariance being dominated by a target
matrix ``D`` is

    rate = 1/2 log( |S1| / |min(D - Sxyz, S1)| ),   S1 = Sxz - Sxyz,

where ``Sxz = Sigma_x_given_z``, ``Sxyz = Sigma_x_given_yz`` and ``min`` is
the matrix minimum of :mod:`covrate.spd`.  This module also synthesizes the
achieving Gaussian test channel, the error covariance at the optimal decoder,
and the decoder itself.

The test channel is represented in the joint-diagonal coordinates: with ``V``
the joint diagonalizer of ``(S1, D - Sxyz)``, the encoder forms
``u = (V A) y + nu`` with *diagonal* coding-noise covariance and keeps only
the active components (those that carry rate).  This is an invertible linear
re-coordinatization of the usual ``U A y + nu`` form; it is preferred here
because inactive components have unbounded noise and must be dropped, which
is only information-preserving in coordinates where the noise is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidDistortion, NotNested, RankDeficient
from .model import ConditionalStats, check_regularity, psd_repair
from .spd import (
    EPS_PSD,
    _joint_diagonalize,
    _min_from_joint,
    _norm_from_eigvals,
    _psd_leq,
    _require_finite,
    _require_spd,
    check_spd,
    check_symmetric,
    sym_part,
)

#: Components with lam <= lam' * (1 + ACTIVE_RTOL) are classified inactive.
ACTIVE_RTOL = 1e-12


def require_regular(stats: ConditionalStats) -> None:
    """Raise :class:`RankDeficient` unless the full-rank precondition holds."""
    report = check_regularity(stats)
    if not report.full_rank:
        raise RankDeficient(
            f"observation informativeness matrix has rank {report.rank} < {report.n_x}; "
            "reduce the source space to the informative subspace first"
        )


def check_distortion(stats: ConditionalStats, D) -> np.ndarray:
    """Validate ``D`` strictly dominates the irreducible error ``Sigma_x_given_yz``.

    The gap ``D - Sigma_x_given_yz`` must pass :func:`covrate.spd.check_spd`'s
    test (smallest eigenvalue above ``EPS_PSD`` times the largest), because
    the rate and the test channel hand it to the joint diagonalizer, which
    needs that of it too.
    """
    return _checked_gap(stats, D)[0]


def _checked_gap(stats: ConditionalStats, D) -> tuple[np.ndarray, np.ndarray]:
    """:func:`check_distortion`'s ``D`` and the gap ``sym_part(D - Sigma_x_given_yz)``."""
    D = check_symmetric(D, name="D")
    if D.shape != stats.Sigma_x_given_yz.shape:
        raise InvalidDistortion(
            f"D has shape {D.shape}, expected {stats.Sigma_x_given_yz.shape}"
        )
    S2 = sym_part(D - stats.Sigma_x_given_yz)
    w = np.linalg.eigvalsh(S2)
    if w[-1] <= 0 or w[0] <= EPS_PSD * w[-1]:
        raise InvalidDistortion(
            "D must strictly dominate Sigma_x_given_yz (the rate would be infinite)"
        )
    return D, S2


def _diagonalizer_pair(
    stats: ConditionalStats, D, gap_first: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``(stats, D)`` once for the joint diagonalizer's kernel.

    Returns ``(S1, S2)`` (``gap_first``, the test channel's order) or
    ``(S2, S1)`` (the rate's ``matrix_min(S2, S1)``), with
    ``S1 = stats.gap = sym_part(Sxz - Sxyz)`` and ``S2 = sym_part(D - Sxyz)``.
    The pair passes every check of :func:`covrate.spd.joint_diagonalize`:

    * Both are exactly symmetric, so ``check_spd`` would return their bits
      once they pass ``_require_finite``, which is kept, with the names that
      ``joint_diagonalize`` gives its arguments.
    * ``S1``'s full-rank regularity report means every ``eigvalsh`` entry
      exceeds ``1e-10 * scale >= 1e-10 * w[-1]``, which passes
      ``check_spd``'s test on the same ``eigvalsh`` input.
    * ``check_distortion`` has applied ``check_spd``'s test to ``S2``'s
      ``eigvalsh``, and has checked its shape.
    """
    require_regular(stats)
    _, S2 = _checked_gap(stats, D)
    pair = (stats.gap, S2) if gap_first else (S2, stats.gap)
    for name, S in zip(("S1", "S2"), pair):
        _require_finite(S, name)
    return pair


@dataclass(frozen=True, eq=False)
class RdfResult:
    """Rate (nats per source vector) with the optimizing matrices.

    ``error_cov`` is the reconstruction-error covariance at the optimal
    decoder: ``Sigma_x_given_yz + min_matrix``.  It satisfies
    ``Sigma_x_given_yz <= error_cov <= D`` in the PSD order.
    """

    rate: float
    min_matrix: np.ndarray
    error_cov: np.ndarray


@dataclass(frozen=True, eq=False)
class TestChannel:
    """The achieving Gaussian test channel in joint-diagonal coordinates.

    ``u = encoder_map @ y + nu`` with ``nu ~ N(0, noise_cov)``;
    ``encoder_map`` keeps only the active rows of ``V @ A`` and ``noise_cov``
    is diagonal.  ``U`` (eigenvector rows of ``Sigma_x_given_z -
    Sigma_x_given_yz``) and ``V`` (the joint diagonalizer) are retained for
    decoding and for mapping back to source coordinates.
    """

    encoder_map: np.ndarray
    noise_cov: np.ndarray
    active: np.ndarray
    U: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    lam: np.ndarray
    lam_prime: np.ndarray

    @property
    def n_active(self) -> int:
        return self.encoder_map.shape[0]


def rate_distortion(stats: ConditionalStats, D) -> RdfResult:
    """Rate-distortion function at covariance distortion target ``D``.

    Raises
    ------
    RankDeficient
        If the observation is uninformative on part of the source space.
    InvalidDistortion
        If ``D`` does not strictly dominate ``Sigma_x_given_yz``.
    """
    S2, S1 = _diagonalizer_pair(stats, D, gap_first=False)
    min_matrix = _min_from_joint(_joint_diagonalize(S2, S1))
    _, ld1 = np.linalg.slogdet(S1)
    _, ld_min = np.linalg.slogdet(min_matrix)
    rate = max(0.5 * (ld1 - ld_min), 0.0)
    error_cov = psd_repair(stats.Sigma_x_given_yz + min_matrix)
    return RdfResult(rate=rate, min_matrix=min_matrix, error_cov=error_cov)


def test_channel(stats: ConditionalStats, D) -> TestChannel:
    """Construct the Gaussian test channel achieving the rate-distortion function.

    Active components are those with ``lam' < lam``; each gets coding-noise
    variance ``lam * lam' / (lam - lam')``.  Components with ``lam' >= lam``
    need no coding (they would require infinite noise) and are excluded.
    """
    S1, S2 = _diagonalizer_pair(stats, D, gap_first=True)
    jd = _joint_diagonalize(S1, S2, eig1=stats.gap_eig)
    lam, lam_prime = jd.lam, jd.lam_prime
    active = np.flatnonzero(lam > lam_prime * (1.0 + ACTIVE_RTOL))
    g = lam[active] * lam_prime[active] / (lam[active] - lam_prime[active])
    encoder_map = (jd.V @ stats.A)[active]
    return TestChannel(
        encoder_map=encoder_map,
        noise_cov=np.diag(g),
        active=active,
        U=jd.U,
        V=jd.V,
        lam=lam,
        lam_prime=lam_prime,
    )


def cond_mutual_info_gaussian(cov_given_outer, cov_given_inner) -> float:
    """Conditional mutual information from nested Gaussian covariances (nats).

    ``I = 1/2 (logdet(outer) - logdet(inner))`` where ``outer`` conditions on
    less.  Raises :class:`NotNested` if ``inner`` is not dominated by
    ``outer`` within tolerance.
    """
    outer = check_symmetric(cov_given_outer, name="outer covariance")
    # One eigvalsh of ``outer`` serves check_spd's test and psd_leq's norm.
    w_outer = np.linalg.eigvalsh(outer) if outer.size else np.zeros(0)
    if outer.size:
        _require_spd(w_outer, "outer covariance")
    inner = check_spd(cov_given_inner, name="inner covariance")
    # psd_leq(inner, outer)'s checks: each is exactly symmetric, so only
    # the value tests and the shapes can fail.
    _require_finite(inner, "A")
    _require_finite(outer, "B")
    if inner.shape != outer.shape:
        raise DimensionMismatch(f"shape mismatch: {inner.shape} vs {outer.shape}")
    if outer.size == 0:
        return 0.0
    if not _psd_leq(inner, outer, _norm_from_eigvals(w_outer), 1e-9):
        raise NotNested("inner covariance is not dominated by the outer covariance")
    _, ld_o = np.linalg.slogdet(outer)
    _, ld_i = np.linalg.slogdet(inner)
    return max(0.5 * (ld_o - ld_i), 0.0)


def channel_rate(stats: ConditionalStats, channel: TestChannel) -> float:
    """Analytic ``I(y; u | z)`` of a constructed test channel (nats)."""
    if channel.n_active == 0:
        return 0.0
    E = channel.encoder_map
    Sigma_u_given_z = sym_part(E @ stats.Sigma_y_given_z @ E.T) + channel.noise_cov
    return cond_mutual_info_gaussian(Sigma_u_given_z, channel.noise_cov)


def mmse_decoder(stats: ConditionalStats, channel: TestChannel) -> tuple[np.ndarray, np.ndarray]:
    """MMSE decoder matrices ``(C, G)`` with ``x_hat = C u + G z``.

    With an empty channel (no active components) ``C`` is ``n_x x 0`` and the
    estimate falls back to the side-information-only regression
    ``Sigma_xz Sigma_z^{-1} z``.  The residual covariance of the estimate
    equals the rate-distortion error covariance.
    """
    m = stats.model
    n_x, n_z = m.n_x, m.n_z
    E = channel.encoder_map
    k = E.shape[0]
    if k > 0:
        Sigma_u_given_z = sym_part(E @ stats.Sigma_y_given_z @ E.T) + channel.noise_cov
        Sigma_xu_given_z = stats.A @ stats.Sigma_y_given_z @ E.T
        C = np.linalg.solve(Sigma_u_given_z, Sigma_xu_given_z.T).T
    else:
        C = np.zeros((n_x, 0))
    if n_z > 0:
        Sigma_uz = E @ m.Sigma_yz
        G = np.linalg.solve(m.Sigma_z, (m.Sigma_xz - C @ Sigma_uz).T).T
    else:
        G = np.zeros((n_x, 0))
    return C, G

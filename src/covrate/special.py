"""Trace (MSE) and rate-information specializations of the covariance RDF.

Both reduce to scalar water-filling problems: over the eigenvalues of the
informativeness gap ``Sigma_x_given_z - Sigma_x_given_yz`` (MSE case), or of
``I - Sxz^{-1/2} Sxyz Sxz^{-1/2}`` (rate-information case).  Each solver also
produces the covariance distortion target ``d_star`` whose matrix RDF equals
the specialized rate, which is how the test suite closes the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect  # noqa: F401  (unused; bench/tracer.py wraps it)

from .errors import InfeasibleDistortion, InfiniteRate, InvalidParam, OutOfRange
from .model import ConditionalStats, psd_repair
from .rdf import require_regular
from .spd import (
    _eig_desc,
    _inv_sqrt_from_eig,
    _require_spd,
    _sqrt_from_eig,
    check_spd,
    check_symmetric,
    sym_part,
)

@dataclass(frozen=True, eq=False)
class WaterfillResult:
    """MSE water-filling solution.

    ``residual`` is the water-equation residual
    ``|sum_i min(water_level, lam_i) - (n_x D - tr(Sigma_x_given_yz))|``; it is
    at round-off level in the solvable regime and equals the saturation slack
    when ``D`` is large enough that the rate is zero.
    """

    rate: float
    water_level: float
    d_star: np.ndarray
    residual: float


def mse_rdf(stats: ConditionalStats, D_scalar: float) -> WaterfillResult:
    """Rate-distortion function under the trace constraint ``tr(error) <= n_x D``.

    Water-filling over the eigenvalues ``lam_i`` of
    ``Sigma_x_given_z - Sigma_x_given_yz``: the water level ``x`` satisfies
    ``sum_i min(x, lam_i) = n_x D - tr(Sigma_x_given_yz)`` and
    ``rate = 1/2 sum_i log(max(lam_i / x, 1))``.  ``d_star`` is the covariance
    distortion target achieving the same rate.

    Raises
    ------
    InvalidParam
        If ``D_scalar`` is not finite.
    InfeasibleDistortion
        If ``n_x D <= tr(Sigma_x_given_yz)`` (below the error floor).
    RankDeficient
        Propagated from the regularity check.
    """
    require_regular(stats)
    D_scalar = float(D_scalar)
    if not np.isfinite(D_scalar):
        raise InvalidParam(f"distortion D = {D_scalar} must be finite")
    n_x = stats.n_x
    floor = float(np.trace(stats.Sigma_x_given_yz))
    budget = n_x * D_scalar - floor
    if budget <= 0.0:
        raise InfeasibleDistortion(
            f"n_x * D = {n_x * D_scalar:.6g} does not exceed "
            f"tr(Sigma_x_given_yz) = {floor:.6g}"
        )
    U, lam = stats.gap_eig
    if budget >= lam.sum():
        # Saturated: side information alone meets the constraint; rate 0 with
        # the full conditional covariance as the distortion target.
        d_star = psd_repair(stats.Sigma_x_given_yz + U.T @ (lam[:, None] * U))
        return WaterfillResult(
            rate=0.0,
            water_level=float(lam[0]),
            d_star=d_star,
            residual=float(budget - lam.sum()),
        )
    k = _water_active(lam, float(lam.sum()) - budget)
    level = (budget - float(lam[k:].sum())) / k
    rate = 0.5 * float(np.log(np.maximum(lam / level, 1.0)).sum())
    filled = np.minimum(level, lam)
    d_star = psd_repair(stats.Sigma_x_given_yz + U.T @ (filled[:, None] * U))
    residual = float(abs(filled.sum() - budget))
    return WaterfillResult(rate=rate, water_level=level, d_star=d_star, residual=residual)


def _water_active(levels: np.ndarray, target: float) -> int:
    """Active count ``k`` of the water-fill ``sum_i max(levels_i - t, 0) = target``.

    ``levels`` is descending and ``0 < target < levels.sum()``.  The left
    side is non-increasing and piecewise linear in ``t``; at ``t = levels_i``
    it is ``sum_{j<i} levels_j - i levels_i``, non-decreasing in ``i`` from 0,
    so the root lies below ``levels_i`` exactly for the first ``k`` levels,
    where that value is below ``target``.  There the equation is linear,
    ``sum(levels[:k]) - k t = target``, and each caller solves it in closed
    form (Palomar & Fonollosa, IEEE TSP 2005)."""
    fk = target - (np.cumsum(levels) - np.arange(1, levels.size + 1) * levels)
    return int(np.count_nonzero(fk > 0))


@dataclass(frozen=True, eq=False)
class RelayResult:
    """Rate-information solution.

    ``gamma`` is the water level in ``[0, mu_max]``; ``mu`` the descending
    informativeness eigenvalues in ``[0, 1)``; ``residual`` the water-equation
    residual ``|-1/2 sum_i log(min(1, (1 - mu_i)/(1 - gamma))) - R_I|``.
    """

    rate: float
    gamma: float
    mu: np.ndarray
    d_star: np.ndarray
    residual: float


def relay_supremum(stats: ConditionalStats) -> float:
    """Supremum of admissible mutual-information targets (nats)."""
    _, ld_z = np.linalg.slogdet(stats.Sigma_x_given_z)
    _, ld_yz = np.linalg.slogdet(stats.Sigma_x_given_yz)
    return max(0.5 * (ld_z - ld_yz), 0.0)


def relay_solve(stats: ConditionalStats, R_I: float) -> RelayResult:
    """Minimum coding rate to deliver mutual information ``R_I`` about the source.

    The water equation ``-1/2 sum_i log(min(1, (1 - mu_i)/(1 - gamma))) = R_I``
    is solved for ``gamma`` on ``[0, mu_max]``.  In the variable
    ``s = -log(1 - gamma)`` it becomes the piecewise-linear water-filling
    problem ``1/2 sum_i max(0, s_i - s) = R_I`` with ``s_i = -log(1 - mu_i)``,
    which is solved exactly on its active set (:func:`_water_active`).  The
    coding rate is
    ``1/2 sum_i log(max(1, mu_i (1 - gamma) / ((1 - mu_i) gamma)))`` and
    ``d_star`` is the covariance distortion target whose matrix RDF equals
    that rate.

    Raises
    ------
    InvalidParam
        If ``R_I`` is not finite.
    OutOfRange
        If ``R_I`` is negative or exceeds the supremum.
    InfiniteRate
        If ``R_I`` equals the supremum (that point needs unbounded rate).
    """
    R_I = float(R_I)
    if not np.isfinite(R_I):
        raise InvalidParam(f"R_I = {R_I} must be finite")
    W, mu, Sxz_eig = _informativeness_eig(stats)
    R_sup = relay_supremum(stats)
    if R_I < 0.0 or R_I > R_sup * (1.0 + 1e-12):
        raise OutOfRange(f"R_I = {R_I:.6g} outside [0, {R_sup:.6g}]")

    s_levels = -np.log1p(-mu)          # descending, positive

    if R_I == 0.0:
        gamma = float(mu[0])           # canonical root of the flat region
    else:
        # The float spectrum can sum to less than 2 R_sup (a separate
        # log-determinant); a target at or past its sum has no positive root.
        if abs(R_I - R_sup) <= 1e-12 * max(R_sup, 1.0) or 2.0 * R_I >= s_levels.sum():
            raise InfiniteRate("R_I at the supremum requires unbounded rate")

        k = _water_active(s_levels, 2.0 * R_I)
        s = (float(s_levels[:k].sum()) - 2.0 * R_I) / k
        gamma = float(-np.expm1(-s))

    # Active components (mu_i > gamma) each cost
    # 1/2 log(mu_i (1 - gamma) / ((1 - mu_i) gamma)); the rest are free.
    active = mu > gamma
    if active.any():
        ratio = mu[active] * (1.0 - gamma) / ((1.0 - mu[active]) * gamma)
        rate = 0.5 * float(np.log(np.maximum(ratio, 1.0)).sum())
    else:
        rate = 0.0

    shrink = np.minimum(1.0, (1.0 - mu) / (1.0 - gamma))
    half = _sqrt_from_eig(*Sxz_eig)
    d_star = psd_repair(half @ (W.T @ (shrink[:, None] * W)) @ half)
    residual = float(abs(-0.5 * float(np.log(shrink).sum()) - R_I))
    return RelayResult(rate=rate, gamma=gamma, mu=mu, d_star=d_star, residual=residual)


def _informativeness_eig(
    stats: ConditionalStats,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Eigen-rows ``W`` and descending eigenvalues ``mu`` of the whitened gap,
    plus the ``(U, lam)`` eigendecomposition of ``Sigma_x_given_z``.

    Unlike the matrix-distortion pipeline this does not require the whitened
    gap to be full rank: zero eigenvalues are legitimate (components where the
    observation adds nothing) and simply carry no rate.
    """
    # check_spd(Sigma_x_given_z), whose eigvalsh input has the bits of the
    # one behind the cached spectrum.
    Sxz = check_symmetric(stats.Sigma_x_given_z, name="Sigma_x_given_z")
    if Sxz.size:
        _require_spd(stats.Sigma_x_given_z_eigvals, "Sigma_x_given_z")
    check_spd(stats.Sigma_x_given_yz, name="Sigma_x_given_yz")
    Sxz_eig = _eig_desc(Sxz)
    isqrt = _inv_sqrt_from_eig(*Sxz_eig)
    M = sym_part(np.eye(stats.n_x) - isqrt @ stats.Sigma_x_given_yz @ isqrt)
    W, mu = _eig_desc(M)
    mu = np.clip(mu, 0.0, None)
    if mu[0] >= 1.0:
        raise OutOfRange("informativeness eigenvalue reached 1 (Sigma_x_given_yz singular)")
    return W, mu, Sxz_eig

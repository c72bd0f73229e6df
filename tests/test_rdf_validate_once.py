"""The rate-distortion pipeline's validate-once kernels against the checked
functions they replace.

Every function named ``reference_*`` below is a verbatim copy of the library
function of that name as it was when each entry point validated its operands
again: ``analyze`` ran three ``conditional_cov`` calls (each checking the
joint and its conditioning block) and ``estimator_matrices`` checked the
stacked (y, z) covariance once more; ``check_regularity`` took its
eigenvalues and the norm of ``Sigma_x_given_z`` on every call;
``rate_distortion`` and ``test_channel`` handed the validated gaps to the
checked ``matrix_min``/``joint_diagonalize``; ``cond_mutual_info_gaussian``
called ``check_spd`` and then ``psd_leq``; ``mse_rdf`` and ``relay_solve``
re-took the spectra of ``Sigma_x_given_z`` and of the gap, and solved their
water-fillings by bisection with an exact refinement (``_waterfill_level``
and the relay's inline copy, with their ``WATER_*`` constants).
``ReferenceStats`` is ``ConditionalStats`` as it was, without caches.  The
production functions must give the same bits in every field, and raise the
same error with the same message wherever the reference raises.
"""
from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from covrate import jsonio
from covrate.errors import (
    CovrateError,
    DimensionMismatch,
    InfeasibleDistortion,
    InfiniteRate,
    InvalidDistortion,
    InvalidParam,
    NotNested,
    NotSpd,
    OutOfRange,
    RankDeficient,
    SingularConditioningBlock,
    SingularObservationCovariance,
)
from covrate.model import (
    PSD_REPAIR_FLOOR,
    REGULARITY_RTOL,
    ConditionalStats,
    JointGaussianModel,
    RegularityReport,
    analyze,
    check_regularity,
    conditional_cov,
    estimator_matrices,
)
from covrate.rdf import (
    ACTIVE_RTOL,
    RdfResult,
    TestChannel as Channel,
    channel_rate,
    check_distortion,
    cond_mutual_info_gaussian,
    mmse_decoder,
    rate_distortion,
    test_channel as make_channel,
)
from covrate.simkit import random_model, random_spd
from covrate.spd import (
    EPS_PSD,
    JointDiag,
    _eig_desc,
    _inv_sqrt_from_eig,
    _sqrt_from_eig,
    check_symmetric,
    psd_leq,
    sym_part,
)
from covrate.special import (
    RelayResult,
    WaterfillResult,
    mse_rdf,
    relay_solve,
    relay_supremum,
)

_SPEC = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads    # its dataclasses look their module up
_SPEC.loader.exec_module(workloads)


# --------------------------------------------------------------------------
# Verbatim references
# --------------------------------------------------------------------------


def reference_check_spd(A, name: str = "matrix") -> np.ndarray:
    """Validate symmetric positive definiteness; return the symmetrized copy."""
    A = check_symmetric(A, name=name)
    if A.size == 0:
        return A
    w = np.linalg.eigvalsh(A)
    if w[-1] <= 0 or w[0] <= EPS_PSD * w[-1]:
        raise NotSpd(
            f"{name} is not SPD: eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    return A


def reference_spectral_norm_sym(A: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix (largest |eigenvalue|)."""
    if A.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(sym_part(A))
    return float(max(abs(w[0]), abs(w[-1])))


def reference_psd_repair(A: np.ndarray, scale_hint: float = 0.0) -> np.ndarray:
    """Symmetrize and clip tiny negative eigenvalues (floating-point residue) to 0."""
    A = sym_part(np.asarray(A, dtype=float))
    if A.size == 0:
        return A
    w, Q = np.linalg.eigh(A)
    scale = max(abs(w[0]), abs(w[-1]), scale_hint, np.finfo(float).tiny)
    if w[0] < -PSD_REPAIR_FLOOR * scale:
        raise NotSpd(f"matrix is not PSD: eigenvalue {w[0]:.3e} at scale {scale:.3e}")
    if w[0] >= 0:
        return A
    w = np.clip(w, 0.0, None)
    return sym_part((Q * w) @ Q.T)


def reference_joint_diagonalize(S1, S2) -> JointDiag:
    """Joint diagonalizer ``V`` of the ordered SPD pair ``(S1, S2)``."""
    S1 = reference_check_spd(S1, name="S1")
    S2 = reference_check_spd(S2, name="S2")
    if S1.shape != S2.shape:
        raise DimensionMismatch(f"shape mismatch: {S1.shape} vs {S2.shape}")

    U1, lam = _eig_desc(S1)
    S1_isqrt = _inv_sqrt_from_eig(U1, lam)
    M = sym_part(S1_isqrt @ S2 @ S1_isqrt)
    W, gamma = _eig_desc(M)

    sqrt_lam = np.sqrt(lam)
    V = sqrt_lam[:, None] * (W @ S1_isqrt)
    if np.linalg.det(V) < 0:
        W = W.copy()
        W[-1] = -W[-1]
        V = sqrt_lam[:, None] * (W @ S1_isqrt)

    # V^{-1} = S1^{1/2} W^T diag(lam^{-1/2}), assembled from the same factors.
    S1_sqrt = U1.T @ (sqrt_lam[:, None] * U1)
    V_inv = (S1_sqrt @ W.T) / sqrt_lam[None, :]

    lam_prime = lam * gamma
    return JointDiag(V=V, lam=lam, lam_prime=lam_prime, V_inv=V_inv, U=U1)


def reference_matrix_min(S1, S2) -> np.ndarray:
    """Matrix minimum of an SPD pair: ``V^{-1} diag(min(lam, lam')) V^{-T}``."""
    jd = reference_joint_diagonalize(S1, S2)
    m = np.minimum(jd.lam, jd.lam_prime)
    return sym_part(jd.V_inv @ (m[:, None] * jd.V_inv.T))


def reference_psd_leq(A, B, tol: float = 1e-9) -> bool:
    """True iff ``A`` is dominated by ``B`` in the PSD order, within ``tol``."""
    A = check_symmetric(A, name="A")
    B = check_symmetric(B, name="B")
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch: {A.shape} vs {B.shape}")
    if A.size == 0:
        return True
    smallest = np.linalg.eigvalsh(B - A)[0]
    return bool(smallest >= -tol * max(reference_spectral_norm_sym(B), np.finfo(float).tiny))


def reference_conditional_cov(joint, target, cond) -> np.ndarray:
    """Schur-complement conditional covariance of jointly Gaussian coordinates."""
    joint = check_symmetric(joint, name="joint covariance")
    target = list(target)
    cond = list(cond)
    S_tt = joint[np.ix_(target, target)]
    if not cond:
        return reference_psd_repair(S_tt)
    S_cc = joint[np.ix_(cond, cond)]
    S_tc = joint[np.ix_(target, cond)]
    schur = S_tt - S_tc @ reference_psd_solve(S_cc, S_tc.T, "conditioning block")
    return reference_psd_repair(schur, scale_hint=reference_spectral_norm_sym(S_tt))


def reference_psd_solve(S: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """``S^{-1} rhs`` for a PSD matrix ``S``, via pseudo-inverse when singular."""
    try:
        reference_check_spd(S, name=name)
    except NotSpd as exc:
        w = np.linalg.eigvalsh(sym_part(S))
        if w[0] < -1e-10 * max(w[-1], 1e-300):
            raise SingularConditioningBlock(str(exc)) from exc
        return np.linalg.pinv(sym_part(S), hermitian=True, rcond=1e-12) @ rhs
    return np.linalg.solve(S, rhs)


def reference_estimator_matrices(model: JointGaussianModel) -> tuple[np.ndarray, np.ndarray]:
    """Linear MMSE estimator matrices of ``x`` from ``(y, z)``."""
    n_y, n_z = model.n_y, model.n_z
    obs = np.block([[model.Sigma_y, model.Sigma_yz], [model.Sigma_yz.T, model.Sigma_z]])
    cross = np.hstack([model.Sigma_xy, model.Sigma_xz])
    try:
        AB = reference_psd_solve(obs, cross.T, "stacked (y, z) covariance").T
    except SingularConditioningBlock as exc:
        raise SingularObservationCovariance(str(exc)) from exc
    return AB[:, :n_y], AB[:, n_y:n_y + n_z]


@dataclass(frozen=True, eq=False)
class ReferenceStats:
    """Conditional statistics of a joint Gaussian model."""

    model: JointGaussianModel = field(repr=False)
    Sigma_x_given_z: np.ndarray
    Sigma_x_given_yz: np.ndarray
    Sigma_y_given_z: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Sigma_yprime_given_z: np.ndarray

    def __post_init__(self):
        lhs = self.Sigma_x_given_z
        rhs = self.Sigma_yprime_given_z + self.Sigma_x_given_yz
        scale = max(reference_spectral_norm_sym(lhs), np.finfo(float).tiny)
        if reference_spectral_norm_sym(lhs - rhs) > 1e-9 * scale:
            raise NotSpd(
                "conditional decomposition identity violated beyond 1e-9; "
                "the model is too ill-conditioned for double precision"
            )

    @property
    def n_x(self) -> int:
        return self.Sigma_x_given_z.shape[0]


def reference_analyze(model: JointGaussianModel) -> ReferenceStats:
    """All conditional statistics needed by the rate-distortion machinery."""
    J = model.joint()
    ix, iy, iz = model.index_sets()
    Sigma_x_given_z = reference_conditional_cov(J, ix, iz)
    Sigma_x_given_yz = reference_conditional_cov(J, ix, iy + iz)
    Sigma_y_given_z = reference_conditional_cov(J, iy, iz)
    A, B = reference_estimator_matrices(model)
    Sigma_yprime_given_z = reference_psd_repair(A @ Sigma_y_given_z @ A.T)
    return ReferenceStats(
        model=model,
        Sigma_x_given_z=Sigma_x_given_z,
        Sigma_x_given_yz=Sigma_x_given_yz,
        Sigma_y_given_z=Sigma_y_given_z,
        A=A,
        B=B,
        Sigma_yprime_given_z=Sigma_yprime_given_z,
    )


def reference_check_regularity(stats) -> RegularityReport:
    """Diagnose whether the downstream pipeline's full-rank requirement holds."""
    delta = sym_part(stats.Sigma_x_given_z - stats.Sigma_x_given_yz)
    w = np.linalg.eigvalsh(delta)[::-1]
    # The difference is formed by cancellation, so judge it against the
    # magnitude of the operands, not of a possibly-near-zero result.
    scale = max(
        float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0,
        reference_spectral_norm_sym(stats.Sigma_x_given_z),
        np.finfo(float).tiny,
    )
    threshold = REGULARITY_RTOL * scale
    rank = int(np.sum(w > threshold))
    return RegularityReport(
        full_rank=(rank == stats.n_x),
        rank=rank,
        n_x=stats.n_x,
        eigenvalues=w,
        threshold=threshold,
    )


def reference_require_regular(stats) -> None:
    """Raise :class:`RankDeficient` unless the full-rank precondition holds."""
    report = reference_check_regularity(stats)
    if not report.full_rank:
        raise RankDeficient(
            f"observation informativeness matrix has rank {report.rank} < {report.n_x}; "
            "reduce the source space to the informative subspace first"
        )


def reference_check_distortion(stats, D) -> np.ndarray:
    """Validate ``D`` strictly dominates the irreducible error ``Sigma_x_given_yz``."""
    D = check_symmetric(D, name="D")
    if D.shape != stats.Sigma_x_given_yz.shape:
        raise InvalidDistortion(
            f"D has shape {D.shape}, expected {stats.Sigma_x_given_yz.shape}"
        )
    w = np.linalg.eigvalsh(sym_part(D - stats.Sigma_x_given_yz))
    if w[-1] <= 0 or w[0] <= EPS_PSD * w[-1]:
        raise InvalidDistortion(
            "D must strictly dominate Sigma_x_given_yz (the rate would be infinite)"
        )
    return D


def reference_gap_pair(stats, D) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``(stats, D)`` once; return ``S1 = Sxz - Sxyz`` and ``S2 = D - Sxyz``."""
    reference_require_regular(stats)
    D = reference_check_distortion(stats, D)
    S1 = sym_part(stats.Sigma_x_given_z - stats.Sigma_x_given_yz)
    S2 = sym_part(D - stats.Sigma_x_given_yz)
    return S1, S2


def reference_rate_distortion(stats, D) -> RdfResult:
    """Rate-distortion function at covariance distortion target ``D``."""
    S1, S2 = reference_gap_pair(stats, D)
    min_matrix = reference_matrix_min(S2, S1)
    _, ld1 = np.linalg.slogdet(S1)
    _, ld_min = np.linalg.slogdet(min_matrix)
    rate = max(0.5 * (ld1 - ld_min), 0.0)
    error_cov = reference_psd_repair(stats.Sigma_x_given_yz + min_matrix)
    return RdfResult(rate=rate, min_matrix=min_matrix, error_cov=error_cov)


def reference_test_channel(stats, D) -> Channel:
    """Construct the Gaussian test channel achieving the rate-distortion function."""
    jd = reference_joint_diagonalize(*reference_gap_pair(stats, D))
    lam, lam_prime = jd.lam, jd.lam_prime
    active = np.flatnonzero(lam > lam_prime * (1.0 + ACTIVE_RTOL))
    g = lam[active] * lam_prime[active] / (lam[active] - lam_prime[active])
    encoder_map = (jd.V @ stats.A)[active]
    return Channel(
        encoder_map=encoder_map,
        noise_cov=np.diag(g),
        active=active,
        U=jd.U,
        V=jd.V,
        lam=lam,
        lam_prime=lam_prime,
    )


def reference_cond_mutual_info_gaussian(cov_given_outer, cov_given_inner) -> float:
    """Conditional mutual information from nested Gaussian covariances (nats)."""
    outer = reference_check_spd(cov_given_outer, name="outer covariance")
    inner = reference_check_spd(cov_given_inner, name="inner covariance")
    if not reference_psd_leq(inner, outer):
        raise NotNested("inner covariance is not dominated by the outer covariance")
    if outer.size == 0:
        return 0.0
    _, ld_o = np.linalg.slogdet(outer)
    _, ld_i = np.linalg.slogdet(inner)
    return max(0.5 * (ld_o - ld_i), 0.0)


def reference_channel_rate(stats, channel: Channel) -> float:
    """Analytic ``I(y; u | z)`` of a constructed test channel (nats)."""
    if channel.n_active == 0:
        return 0.0
    E = channel.encoder_map
    Sigma_u_given_z = sym_part(E @ stats.Sigma_y_given_z @ E.T) + channel.noise_cov
    return reference_cond_mutual_info_gaussian(Sigma_u_given_z, channel.noise_cov)


#: Absolute bisection tolerance on the water variable.
WATER_XTOL = 1e-12
#: Bisection iteration cap (bracketing is asserted before iterating).
WATER_MAXITER = 200


def _waterfill_level(levels: np.ndarray, budget: float) -> float:
    """Solve ``sum_i min(x, levels_i) = budget`` for ``x`` in ``(0, max(levels))``.

    The left side is continuous, piecewise linear and strictly increasing on
    ``[0, max(levels)]``, so the root is unique.  Bisection (at the documented
    tolerance) locates the active set; an exact linear solve on that set then
    removes the bisection error.
    """
    def f(x):
        return float(np.minimum(x, levels).sum() - budget)

    hi = float(levels[0])
    assert f(0.0) < 0.0 <= f(hi), "water equation is not bracketed"
    x = bisect(f, 0.0, hi, xtol=WATER_XTOL, maxiter=WATER_MAXITER)
    above = levels > x
    k = int(above.sum())
    if k > 0:
        x_exact = (budget - float(levels[~above].sum())) / k
        if abs(f(x_exact)) <= abs(f(x)):
            x = x_exact
    return float(x)


def reference_mse_rdf(stats, D_scalar: float) -> WaterfillResult:
    """Rate-distortion function under the trace constraint ``tr(error) <= n_x D``."""
    reference_require_regular(stats)
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
    U, lam = _eig_desc(sym_part(stats.Sigma_x_given_z - stats.Sigma_x_given_yz))
    if budget >= lam.sum():
        # Saturated: side information alone meets the constraint; rate 0 with
        # the full conditional covariance as the distortion target.
        d_star = reference_psd_repair(stats.Sigma_x_given_yz + U.T @ (lam[:, None] * U))
        return WaterfillResult(
            rate=0.0,
            water_level=float(lam[0]),
            d_star=d_star,
            residual=float(budget - lam.sum()),
        )
    level = _waterfill_level(lam, budget)
    rate = 0.5 * float(np.log(np.maximum(lam / level, 1.0)).sum())
    filled = np.minimum(level, lam)
    d_star = reference_psd_repair(stats.Sigma_x_given_yz + U.T @ (filled[:, None] * U))
    residual = float(abs(filled.sum() - budget))
    return WaterfillResult(rate=rate, water_level=level, d_star=d_star, residual=residual)


def reference_relay_solve(stats, R_I: float) -> RelayResult:
    """Minimum coding rate to deliver mutual information ``R_I`` about the source."""
    R_I = float(R_I)
    if not np.isfinite(R_I):
        raise InvalidParam(f"R_I = {R_I} must be finite")
    W, mu, Sxz_eig = reference_informativeness_eig(stats)
    R_sup = relay_supremum(stats)
    if R_I < 0.0 or R_I > R_sup * (1.0 + 1e-12):
        raise OutOfRange(f"R_I = {R_I:.6g} outside [0, {R_sup:.6g}]")

    s_levels = -np.log1p(-mu)          # descending, positive

    if R_I == 0.0:
        gamma = float(mu[0])           # canonical root of the flat region
    else:
        if abs(R_I - R_sup) <= 1e-12 * max(R_sup, 1.0):
            raise InfiniteRate("R_I at the supremum requires unbounded rate")

        def f(s):
            return 0.5 * float(np.maximum(s_levels - s, 0.0).sum()) - R_I

        # f decreases from R_sup - R_I > 0 at s = 0 to -R_I < 0 at s = max s_i.
        s_hi = float(s_levels[0])
        assert f(0.0) > 0.0 > f(s_hi), "water equation is not bracketed"
        s = bisect(f, 0.0, s_hi, xtol=WATER_XTOL, maxiter=WATER_MAXITER)
        above = s_levels > s
        k = int(above.sum())
        if k > 0:
            s_exact = (float(s_levels[above].sum()) - 2.0 * R_I) / k
            if abs(f(s_exact)) <= abs(f(s)):
                s = s_exact
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
    d_star = reference_psd_repair(half @ (W.T @ (shrink[:, None] * W)) @ half)
    residual = float(abs(-0.5 * float(np.log(shrink).sum()) - R_I))
    return RelayResult(rate=rate, gamma=gamma, mu=mu, d_star=d_star, residual=residual)


def reference_informativeness_eig(stats):
    """Eigen-rows ``W`` and descending eigenvalues ``mu`` of the whitened gap,
    plus the ``(U, lam)`` eigendecomposition of ``Sigma_x_given_z``."""
    Sxz = reference_check_spd(stats.Sigma_x_given_z, name="Sigma_x_given_z")
    reference_check_spd(stats.Sigma_x_given_yz, name="Sigma_x_given_yz")
    Sxz_eig = _eig_desc(Sxz)
    isqrt = _inv_sqrt_from_eig(*Sxz_eig)
    M = sym_part(np.eye(stats.n_x) - isqrt @ stats.Sigma_x_given_yz @ isqrt)
    W, mu = _eig_desc(M)
    mu = np.clip(mu, 0.0, None)
    if mu[0] >= 1.0:
        raise OutOfRange("informativeness eigenvalue reached 1 (Sigma_x_given_yz singular)")
    return W, mu, Sxz_eig


# --------------------------------------------------------------------------
# Comparison helpers
# --------------------------------------------------------------------------


def same(a, b) -> bool:
    """Bit equality of two values: arrays (dtype, shape and bytes), floats,
    ints, bools, tuples and the library's result records, field by field."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            same(getattr(a, k), getattr(b, k)) for k in a.__dataclass_fields__ if k != "model"
        )
    if isinstance(a, float):
        return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def outcome(fn, *args):
    """``("ok", value)`` or the exception's type name and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison is of whatever is raised
        return type(exc).__name__, str(exc)


def assert_same_outcome(fn, ref, *args):
    got, want = outcome(fn, *args), outcome(ref, *args)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert same(got[1], want[1])
    else:
        assert got[1] == want[1]
    return got


STATS_FIELDS = (
    "Sigma_x_given_z", "Sigma_x_given_yz", "Sigma_y_given_z", "A", "B", "Sigma_yprime_given_z",
)
MODEL_BLOCKS = ("Sigma_x", "Sigma_y", "Sigma_z", "Sigma_xy", "Sigma_xz", "Sigma_yz")


def assert_same_analysis(model: JointGaussianModel):
    """``analyze`` against the reference; returns ``(stats, ref_stats)`` or
    ``None`` when both raise the same error."""
    got, want = outcome(analyze, model), outcome(reference_analyze, model)
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got[1] == want[1]
        return None
    stats, ref = got[1], want[1]
    for name in STATS_FIELDS:
        assert same(getattr(stats, name), getattr(ref, name)), name
    return stats, ref


def assert_same_pipeline(model, D, D_scalar, R_I):
    """Every stage of one ``rdf-solve`` request, and the checks the benchmark
    runs on it, against the references."""
    pair = assert_same_analysis(model)
    if pair is None:
        return
    stats, ref = pair
    assert same(check_regularity(stats), reference_check_regularity(ref))
    assert same(check_regularity(stats), reference_check_regularity(ref))  # cached
    assert_same_outcome(estimator_matrices, reference_estimator_matrices, model)
    assert_pair(rate_distortion, reference_rate_distortion, stats, ref, D)
    status, chan = assert_pair(make_channel, reference_test_channel, stats, ref, D)
    if status == "ok":
        assert_pair(channel_rate, reference_channel_rate, stats, ref, chan)
        assert same(mmse_decoder(stats, chan), mmse_decoder(ref, chan))
    assert_pair(mse_rdf, reference_mse_rdf, stats, ref, D_scalar)
    assert_pair(relay_solve, reference_relay_solve, stats, ref, R_I)
    for status, res in (outcome(mse_rdf, stats, D_scalar), outcome(relay_solve, stats, R_I)):
        if status == "ok":  # criterion 3 (c), (d): the round trip through R(D)
            assert_pair(rate_distortion, reference_rate_distortion, stats, ref, res.d_star)
    rr = outcome(rate_distortion, stats, D)
    if rr[0] == "ok":
        assert same(psd_leq(rr[1].error_cov, D), reference_psd_leq(rr[1].error_cov, D))


def assert_pair(fn, ref_fn, stats, ref_stats, *args):
    """``fn(stats, *args)`` against ``ref_fn(ref_stats, *args)``."""
    got, want = outcome(fn, stats, *args), outcome(ref_fn, ref_stats, *args)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert same(got[1], want[1])
    else:
        assert got[1] == want[1]
    return got


# --------------------------------------------------------------------------
# The benchmark's request pools
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11, 47])
def test_rdf_solve_pool_matches_reference(seed):
    """Every request of the ``rdf-solve`` pool (seed 47 holds the
    ill-conditioned request whose channel rate misses its rate by 3e-9)."""
    pool = workloads.RdfSolve().build(seed, workloads.RdfSolve.POOL)
    for req in pool:
        model = jsonio.model_from_json(req.model_doc)
        D = jsonio.matrix_from_json(req.D_doc)
        assert_same_pipeline(model, D, req.D_scalar, req.R_I)


def test_extended_joint_mutual_information_matches_reference():
    """The benchmark's criterion-3 (b) check: ``cond_mutual_info_gaussian``
    on conditional covariances of the extended joint, where the inner
    covariance is only PSD-dominated within the tolerance."""
    pool = workloads.RdfSolve().build(3, 16)
    for req in pool:
        stats = analyze(jsonio.model_from_json(req.model_doc))
        chan = make_channel(stats, jsonio.matrix_from_json(req.D_doc))
        if not chan.n_active:
            continue
        m = stats.model
        J = workloads._extended_joint(m, chan)
        nxyz = m.n_x + m.n_y + m.n_z
        iu = list(range(nxyz, nxyz + chan.n_active))
        iy = list(range(m.n_x, m.n_x + m.n_y))
        iz = list(range(m.n_x + m.n_y, nxyz))
        outer = conditional_cov(J, iu, iz)
        inner = conditional_cov(J, iu, iy + iz)
        assert same(outer, reference_conditional_cov(J, iu, iz))
        assert same(inner, reference_conditional_cov(J, iu, iy + iz))
        assert_same_outcome(cond_mutual_info_gaussian, reference_cond_mutual_info_gaussian,
                            outer, inner)


# --------------------------------------------------------------------------
# Shapes and error paths
# --------------------------------------------------------------------------


def _request(model: JointGaussianModel, rng: np.random.Generator):
    """A distortion, a scalar distortion and a relay target for ``model``,
    drawn as the benchmark draws them (from the reference statistics)."""
    n_x = model.n_x
    try:
        ref = reference_analyze(model)
    except CovrateError:  # an unanalyzable model still gets compared
        return np.eye(n_x), 1.0, 0.1
    D = sym_part(ref.Sigma_x_given_yz + 0.5 * random_spd(n_x, rng, jitter=0.3))
    lam_sum = float(np.trace(ref.Sigma_x_given_z - ref.Sigma_x_given_yz))
    d_lo = float(np.trace(ref.Sigma_x_given_yz)) / n_x
    D_scalar = d_lo + float(rng.uniform(0.05, 0.9)) * lam_sum / n_x
    R_I = float(rng.uniform(0.1, 0.9)) * relay_supremum(ref)
    return D, D_scalar, R_I


@pytest.mark.parametrize(
    "n_x, n_y, n_z",
    [(1, 1, 0), (3, 3, 0), (4, 2, 0), (2, 5, 0), (2, 5, 1), (3, 6, 2), (1, 4, 2), (32, 33, 2)],
)
def test_model_shapes_match_reference(n_x, n_y, n_z):
    """``n_z = 0`` and ``n_y > n_x`` (and fewer observations than sources)."""
    rng = np.random.default_rng(100 * n_x + 10 * n_y + n_z)
    for _ in range(3):
        model = random_model(n_x, n_y, n_z, rng)
        assert_same_pipeline(model, *_request(model, rng))


def _duplicate_side_info_model(rng: np.random.Generator) -> JointGaussianModel:
    """Side information is an exact copy of the observation: the (y, z)
    block is singular (pseudo-inverse path) and the gap is zero."""
    G = rng.standard_normal((4, 4))
    J = G @ G.T / 4 + 0.3 * np.eye(4)
    Sx, Sxy, Sy = J[:2, :2], J[:2, 2:], J[2:, 2:]
    return JointGaussianModel(
        Sigma_x=Sx, Sigma_y=Sy, Sigma_z=Sy, Sigma_xy=Sxy, Sigma_xz=Sxy, Sigma_yz=Sy,
    )


def _partial_duplicate_model(rng: np.random.Generator) -> JointGaussianModel:
    """One observation coordinate repeats the side information: a singular
    (y, z) block with a full-rank gap."""
    m = random_model(2, 2, 1, rng)
    J = m.joint()
    n = J.shape[0]
    L = np.eye(n)
    L[2 + 1] = 0.0
    L[2 + 1, 4] = 1.0                  # y_2 := z
    Jd = L @ J @ L.T
    return JointGaussianModel(
        Sigma_x=Jd[:2, :2], Sigma_y=Jd[2:4, 2:4], Sigma_z=Jd[4:, 4:],
        Sigma_xy=Jd[:2, 2:4], Sigma_xz=Jd[:2, 4:], Sigma_yz=Jd[2:4, 4:],
    )


def test_singular_observation_block_takes_the_pseudo_inverse_path():
    rng = np.random.default_rng(7)
    m = _duplicate_side_info_model(rng)
    pair = assert_same_analysis(m)
    assert pair is not None                          # pinv path, no error
    stats, ref = pair
    assert not check_regularity(stats).full_rank
    D = stats.Sigma_x_given_yz + np.eye(2)
    for fn, ref_fn in ((rate_distortion, reference_rate_distortion),
                       (make_channel, reference_test_channel)):
        assert assert_pair(fn, ref_fn, stats, ref, D)[0] == "RankDeficient"
    assert assert_pair(mse_rdf, reference_mse_rdf, stats, ref, 10.0)[0] == "RankDeficient"
    assert_pair(relay_solve, reference_relay_solve, stats, ref, 0.0)
    assert_same_pipeline(m, D, 10.0, 0.0)


def test_partially_singular_observation_block_matches_reference():
    rng = np.random.default_rng(8)
    for _ in range(5):
        m = _partial_duplicate_model(rng)
        assert_same_pipeline(m, *_request(m, rng))


def test_indefinite_observation_block_raises_as_reference():
    """A (y, z) block slightly indefinite at its own scale but within the
    joint's PSD tolerance: ``analyze`` raises ``SingularConditioningBlock``
    and ``estimator_matrices`` ``SingularObservationCovariance``."""
    delta = 1e-6
    m = JointGaussianModel(
        Sigma_x=np.array([[1e6]]),
        Sigma_y=np.array([[1.0]]),
        Sigma_z=np.array([[1.0]]),
        Sigma_xy=np.zeros((1, 1)),
        Sigma_xz=np.zeros((1, 1)),
        Sigma_yz=np.array([[1.0 + delta]]),
    )
    got = assert_same_outcome(analyze, reference_analyze, m)
    assert got[0] == SingularConditioningBlock.__name__
    got = assert_same_outcome(estimator_matrices, reference_estimator_matrices, m)
    assert got[0] == SingularObservationCovariance.__name__


def test_asymmetric_source_block_raises_nonsymmetric_as_reference():
    """The model constructor tests only the symmetrized joint, so an
    asymmetric ``Sigma_x`` reaches ``analyze``, whose one check of the joint
    raises ``NonSymmetric``."""
    Sx = np.array([[2.0, 0.1], [0.1 + 1e-6, 2.0]])
    m = JointGaussianModel.without_z(Sx, np.eye(2), 0.5 * np.eye(2))
    got = assert_same_outcome(analyze, reference_analyze, m)
    assert got[0] == "NonSymmetric"


def test_rank_deficient_and_invalid_distortion_match_reference():
    m = JointGaussianModel(
        Sigma_x=np.array([[1.0, 1.0], [1.0, 1.0]]),
        Sigma_y=np.array([[1.25]]),
        Sigma_z=np.zeros((0, 0)),
        Sigma_xy=np.array([[1.0], [1.0]]),
        Sigma_xz=np.zeros((2, 0)),
        Sigma_yz=np.zeros((1, 0)),
    )
    stats, ref = assert_same_analysis(m)
    D = stats.Sigma_x_given_yz + np.eye(2)
    assert assert_pair(rate_distortion, reference_rate_distortion, stats, ref, D)[0] == (
        RankDeficient.__name__
    )
    stats, ref = assert_same_analysis(JointGaussianModel.without_z(np.eye(2), 2 * np.eye(2), np.eye(2)))
    for D in (
        stats.Sigma_x_given_yz,                                   # zero gap
        stats.Sigma_x_given_yz + np.diag([1.0, 1e-11]),           # near-singular gap
        stats.Sigma_x_given_yz - 0.1 * np.eye(2),                 # negative gap
        np.eye(3),                                                # wrong shape
        np.array([[1.0, 0.0], [0.5, 1.0]]),                       # asymmetric
        np.array([[np.nan, 0.0], [0.0, 1.0]]),                    # non-finite
    ):
        for fn, ref_fn in ((rate_distortion, reference_rate_distortion),
                           (make_channel, reference_test_channel)):
            status = assert_pair(fn, ref_fn, stats, ref, D)[0]
            assert status in ("InvalidDistortion", "NonSymmetric", "InvalidParam")
    for D_scalar in (0.0, 0.5, np.inf):
        assert_pair(mse_rdf, reference_mse_rdf, stats, ref, D_scalar)
    for R_I in (-1.0, 0.0, relay_supremum(ref), 2 * relay_supremum(ref), np.nan):
        assert_pair(relay_solve, reference_relay_solve, stats, ref, R_I)


def test_overflowing_operands_raise_as_reference():
    """Finite entries whose symmetrization overflows: ``check_symmetric``
    raises ``InvalidParam`` naming the matrix it was given, so the errors
    name the distortion and the covariances, not a derived gap."""
    stats, ref = assert_same_analysis(
        JointGaussianModel.without_z(np.eye(2), 2 * np.eye(2), np.eye(2))
    )
    huge = (np.diag([1.5e308, 1.0]), np.diag([1.5e308, 1.5e308]),
            np.array([[1.0, 1.2e308], [1.2e308, 1.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        for D in huge:
            for fn, ref_fn in ((rate_distortion, reference_rate_distortion),
                               (make_channel, reference_test_channel),
                               (check_distortion, reference_check_distortion)):
                got = assert_pair(fn, ref_fn, stats, ref, D)
                assert got == ("InvalidParam", "D overflows when symmetrized")
        for outer, inner, name in ((huge[0], np.eye(2), "outer"), (np.eye(2), huge[0], "inner"),
                                   (huge[1], huge[0], "outer")):
            got = assert_same_outcome(cond_mutual_info_gaussian,
                                      reference_cond_mutual_info_gaussian, outer, inner)
            assert got == ("InvalidParam", f"{name} covariance overflows when symmetrized")
    # Below half the largest float nothing overflows, and the entries pass.
    edge = np.diag([0.5 * np.finfo(float).max, 1.0])
    assert same(check_symmetric(edge), edge)
    with pytest.raises(InvalidParam, match="^M overflows when symmetrized$"):
        check_symmetric(np.diag([np.nextafter(edge[0, 0], np.inf), 1.0]), name="M")


def test_model_blocks_are_read_only_copies_with_their_spectra():
    """The model keeps read-only copies of its blocks, so the spectra its
    SPD tests took (which ``analyze`` reuses) stay those of its blocks."""
    rng = np.random.default_rng(14)
    for n_z in (0, 2):
        source = random_model(3, 4, n_z, rng)
        blocks = {name: np.array(getattr(source, name)) for name in MODEL_BLOCKS}
        m = JointGaussianModel(**blocks)
        for name in MODEL_BLOCKS:
            block = getattr(m, name)
            assert not block.flags.writeable and block is not blocks[name]
            if block.size:
                with pytest.raises(ValueError):
                    block[0, 0] = 1.0
        blocks["Sigma_y"][0, 0] += 1.0          # the caller's array stays writable
        assert m.Sigma_y[0, 0] != blocks["Sigma_y"][0, 0]
        assert same(m.Sigma_y_eigvals, np.linalg.eigvalsh(sym_part(m.Sigma_y)))
        assert not m.Sigma_y_eigvals.flags.writeable
        if n_z:
            assert same(m.Sigma_z_eigvals, np.linalg.eigvalsh(sym_part(m.Sigma_z)))
        else:
            assert m.Sigma_z_eigvals is None
        assert_same_analysis(m)


@pytest.mark.parametrize("n", [2, 5, 32])
def test_distortion_gap_at_the_spd_boundary_matches_reference(n):
    """A gap ``D - Sigma_x_given_yz`` whose eigenvalue ratio sits at
    ``EPS_PSD`` within 1e-5 relative, on either side: the verdict and, where
    it passes, every output bit agree with the reference."""
    rng = np.random.default_rng(n)
    model = random_model(n, n + 1, 1, rng)
    stats, ref = assert_same_analysis(model)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    statuses = set()
    for k in range(-4, 5):
        g = np.geomspace(1.0, 0.5, n)
        g[-1] = EPS_PSD * (1.0 + k * 1e-5)
        D = sym_part(stats.Sigma_x_given_yz + Q @ (g[:, None] * Q.T))
        for fn, ref_fn in ((rate_distortion, reference_rate_distortion),
                           (make_channel, reference_test_channel)):
            statuses.add(assert_pair(fn, ref_fn, stats, ref, D)[0])
    assert statuses == {"ok", "InvalidDistortion"}


def test_cond_mutual_info_error_paths_match_reference():
    A = random_spd(3, np.random.default_rng(1))
    cases = [
        (A, 0.5 * A),
        (A, A),
        (A, (1.0 + 1e-10) * A),        # dominated within the tolerance
        (A, 1.1 * A),                  # not nested
        (A, np.eye(2)),                # shape mismatch
        (np.zeros((0, 0)), np.zeros((0, 0))),
        (np.zeros((0, 0)), np.eye(1)),
        (A - 2.0 * np.eye(3) * np.linalg.eigvalsh(A)[-1], A),      # outer not SPD
        (A, -A),                       # inner not SPD
        (np.array([[1.0, 0.2], [0.0, 1.0]]), np.eye(2)),           # asymmetric
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2)),        # non-finite
    ]
    for outer, inner in cases:
        assert_same_outcome(cond_mutual_info_gaussian, reference_cond_mutual_info_gaussian,
                            outer, inner)


def test_psd_leq_matches_reference():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 32):
        B = random_spd(n, rng)
        for A in (0.5 * B, B, (1.0 + 5e-10) * B, (1.0 + 2e-9) * B, np.zeros((n, n))):
            for tol in (1e-9, 0.0):
                assert_same_outcome(psd_leq, reference_psd_leq, A, B, tol)
    for A, B in ((np.zeros((0, 0)), np.zeros((0, 0))), (np.eye(2), np.eye(3)),
                 (np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2)),
                 (np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]]))):
        assert_same_outcome(psd_leq, reference_psd_leq, A, B)


# --------------------------------------------------------------------------
# Caches
# --------------------------------------------------------------------------


def test_cached_spectra_equal_fresh_expressions():
    stats = analyze(random_model(4, 5, 2, np.random.default_rng(12)))
    gap = sym_part(stats.Sigma_x_given_z - stats.Sigma_x_given_yz)
    assert same(stats.gap, gap)
    assert same(stats.gap_eig, _eig_desc(gap))
    assert same(stats.Sigma_x_given_z_eigvals,
                np.linalg.eigvalsh(sym_part(stats.Sigma_x_given_z)))
    assert check_regularity(stats) is check_regularity(stats)


def test_stats_arrays_and_caches_are_read_only():
    stats = analyze(random_model(3, 4, 1, np.random.default_rng(13)))
    check_regularity(stats)
    arrays = [getattr(stats, name) for name in STATS_FIELDS] + [
        stats.gap, *stats.gap_eig, stats.Sigma_x_given_z_eigvals,
        check_regularity(stats).eigenvalues,
    ]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        stats.Sigma_x_given_z[0, 0] = 1.0
    with pytest.raises(ValueError):
        stats.gap_eig[1][0] = 0.0
    with pytest.raises(ValueError):
        check_regularity(stats).eigenvalues[0] = 0.0
    # a caller's arrays are copied, not frozen
    fields = {name: np.array(getattr(stats, name)) for name in STATS_FIELDS}
    again = ConditionalStats(model=stats.model, **fields)
    fields["A"][0, 0] = 0.0
    assert same(again.gap, stats.gap)


# --------------------------------------------------------------------------
# Property
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n_x=st.integers(min_value=1, max_value=4),
    extra_y=st.integers(min_value=-1, max_value=2),
    n_z=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_requests_match_reference(n_x, extra_y, n_z, seed):
    rng = np.random.default_rng(seed)
    model = random_model(n_x, max(1, n_x + extra_y), n_z, rng)
    assert_same_pipeline(model, *_request(model, rng))

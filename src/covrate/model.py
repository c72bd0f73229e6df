"""Joint Gaussian source model and conditional-covariance machinery.

A :class:`JointGaussianModel` holds the block covariance of a zero-mean
Gaussian triple ``(x, y, z)`` where ``x`` is the hidden source, ``y`` the
noisy observation available to the encoder and ``z`` side information at the
decoder.  ``n_z = 0`` (no side information) is a first-class case.

:func:`analyze` produces the conditional statistics that drive the
rate-distortion machinery: the Schur-complement covariances, the linear
estimator matrices ``A``, ``B`` of the decomposition ``x = A y + B z + n``
(``n`` uncorrelated with ``(y, z)``), and the covariance of the sufficient
statistic ``y' = A y`` given ``z``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParam,
    NotSpd,
    SingularConditioningBlock,
    SingularObservationCovariance,
)
from .spd import EPS_PSD, check_spd, check_symmetric, spectral_norm_sym, sym_part

#: Relative floor below which negative Schur-complement eigenvalues are an error.
PSD_REPAIR_FLOOR = 1e-10
#: Gap eigenvalues at or below this fraction of the operands' scale count as zero.
REGULARITY_RTOL = 1e-10


def psd_repair(A: np.ndarray, scale_hint: float = 0.0) -> np.ndarray:
    """Symmetrize and clip tiny negative eigenvalues (floating-point residue) to 0.

    Eigenvalues below ``-PSD_REPAIR_FLOOR`` times the spectral norm are treated
    as a real PSD violation and raise :class:`NotSpd`.  ``scale_hint`` lets
    callers that form ``A`` by cancellation (Schur complements) judge the
    residue against the magnitude of the inputs rather than of the near-zero
    result.
    """
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


@dataclass(frozen=True, eq=False)
class JointGaussianModel:
    """Zero-mean jointly Gaussian (x, y, z) given by covariance blocks.

    Validated eagerly: every block must be finite, the assembled joint
    covariance symmetric PSD (smallest eigenvalue >= -1e-10 times the largest)
    and the ``y`` and ``z`` blocks SPD (they get inverted).  ``n_z = 0``
    encodes "no side information".
    """

    Sigma_x: np.ndarray
    Sigma_y: np.ndarray
    Sigma_z: np.ndarray
    Sigma_xy: np.ndarray
    Sigma_xz: np.ndarray
    Sigma_yz: np.ndarray

    def __post_init__(self):
        for name in ("Sigma_x", "Sigma_y", "Sigma_z", "Sigma_xy", "Sigma_xz", "Sigma_yz"):
            block = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if not np.isfinite(block).all():
                raise InvalidParam(f"{name} has non-finite entries")
            object.__setattr__(self, name, block)
        n_x, n_y, n_z = self.n_x, self.n_y, self.n_z
        shapes = {
            "Sigma_x": (n_x, n_x), "Sigma_y": (n_y, n_y), "Sigma_z": (n_z, n_z),
            "Sigma_xy": (n_x, n_y), "Sigma_xz": (n_x, n_z), "Sigma_yz": (n_y, n_z),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise DimensionMismatch(f"{name} has shape {got}, expected {want}")
        check_spd(self.Sigma_y, name="Sigma_y")
        if n_z > 0:
            check_spd(self.Sigma_z, name="Sigma_z")
        J = self.joint()
        w = np.linalg.eigvalsh(sym_part(J))
        if w[0] < -EPS_PSD * max(w[-1], np.finfo(float).tiny):
            raise NotSpd(f"joint covariance is not PSD: smallest eigenvalue {w[0]:.3e}")

    @property
    def n_x(self) -> int:
        return self.Sigma_x.shape[0]

    @property
    def n_y(self) -> int:
        return self.Sigma_y.shape[0]

    @property
    def n_z(self) -> int:
        # Sigma_z is (0, 0) when there is no side information.
        return self.Sigma_z.shape[0]

    def joint(self) -> np.ndarray:
        """Assembled (n_x + n_y + n_z)^2 covariance, block order (x, y, z)."""
        top = np.hstack([self.Sigma_x, self.Sigma_xy, self.Sigma_xz])
        mid = np.hstack([self.Sigma_xy.T, self.Sigma_y, self.Sigma_yz])
        bot = np.hstack([self.Sigma_xz.T, self.Sigma_yz.T, self.Sigma_z])
        return np.vstack([top, mid, bot])

    def index_sets(self) -> tuple[list[int], list[int], list[int]]:
        """Index lists of the x, y and z coordinates inside :meth:`joint`."""
        n_x, n_y, n_z = self.n_x, self.n_y, self.n_z
        ix = list(range(n_x))
        iy = list(range(n_x, n_x + n_y))
        iz = list(range(n_x + n_y, n_x + n_y + n_z))
        return ix, iy, iz

    @classmethod
    def without_z(cls, Sigma_x, Sigma_y, Sigma_xy) -> "JointGaussianModel":
        """Convenience constructor for the no-side-information case."""
        Sigma_x = np.atleast_2d(np.asarray(Sigma_x, dtype=float))
        Sigma_y = np.atleast_2d(np.asarray(Sigma_y, dtype=float))
        n_x, n_y = Sigma_x.shape[0], Sigma_y.shape[0]
        return cls(
            Sigma_x=Sigma_x,
            Sigma_y=Sigma_y,
            Sigma_z=np.zeros((0, 0)),
            Sigma_xy=np.atleast_2d(np.asarray(Sigma_xy, dtype=float)),
            Sigma_xz=np.zeros((n_x, 0)),
            Sigma_yz=np.zeros((n_y, 0)),
        )


def conditional_cov(joint, target, cond) -> np.ndarray:
    """Schur-complement conditional covariance of jointly Gaussian coordinates.

    Parameters
    ----------
    joint : array_like
        Full joint covariance matrix.
    target, cond : sequence of int
        Index sets.  An empty conditioning set returns the unconditional
        target block.

    Returns
    -------
    ndarray
        ``S_tt - S_tc S_cc^{-1} S_ct``, symmetrized with tiny negative
        eigenvalues clipped to zero.
    """
    joint = check_symmetric(joint, name="joint covariance")
    target = list(target)
    cond = list(cond)
    S_tt = joint[np.ix_(target, target)]
    if not cond:
        return psd_repair(S_tt)
    S_cc = joint[np.ix_(cond, cond)]
    S_tc = joint[np.ix_(target, cond)]
    schur = S_tt - S_tc @ _psd_solve(S_cc, S_tc.T, "conditioning block")
    return psd_repair(schur, scale_hint=spectral_norm_sym(S_tt))


def _psd_solve(S: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """``S^{-1} rhs`` for a PSD matrix ``S``, via pseudo-inverse when singular.

    Gaussian conditioning is well defined for any PSD conditioning block
    (degenerate directions carry no randomness); eigenvalues below
    ``1e-12 * max`` are treated as exact zeros.  A block with genuinely
    negative eigenvalues is not a covariance and is rejected.
    """
    try:
        check_spd(S, name=name)
    except NotSpd as exc:
        w = np.linalg.eigvalsh(sym_part(S))
        if w[0] < -1e-10 * max(w[-1], 1e-300):
            raise SingularConditioningBlock(str(exc)) from exc
        return np.linalg.pinv(sym_part(S), hermitian=True, rcond=1e-12) @ rhs
    return np.linalg.solve(S, rhs)


def estimator_matrices(model: JointGaussianModel) -> tuple[np.ndarray, np.ndarray]:
    """Linear MMSE estimator matrices of ``x`` from ``(y, z)``.

    Returns ``(A, B)`` with ``x = A y + B z + n`` and ``n`` uncorrelated with
    ``(y, z)``; equivalently ``[A B] = [Sigma_xy Sigma_xz] @ Sigma_(y,z)^{-1}``.
    ``B`` is an ``n_x x 0`` matrix when there is no side information.
    """
    n_y, n_z = model.n_y, model.n_z
    obs = np.block([[model.Sigma_y, model.Sigma_yz], [model.Sigma_yz.T, model.Sigma_z]])
    cross = np.hstack([model.Sigma_xy, model.Sigma_xz])
    try:
        AB = _psd_solve(obs, cross.T, "stacked (y, z) covariance").T
    except SingularConditioningBlock as exc:
        raise SingularObservationCovariance(str(exc)) from exc
    return AB[:, :n_y], AB[:, n_y:n_y + n_z]


@dataclass(frozen=True, eq=False)
class ConditionalStats:
    """Conditional statistics of a joint Gaussian model.

    ``Sigma_x_given_z = Sigma_yprime_given_z + Sigma_x_given_yz`` holds within
    1e-9 relative (checked at construction), and ``Sigma_x_given_yz`` is
    dominated by ``Sigma_x_given_z`` in the PSD order.
    """

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
        scale = max(spectral_norm_sym(lhs), np.finfo(float).tiny)
        if spectral_norm_sym(lhs - rhs) > 1e-9 * scale:
            raise NotSpd(
                "conditional decomposition identity violated beyond 1e-9; "
                "the model is too ill-conditioned for double precision"
            )

    @property
    def n_x(self) -> int:
        return self.Sigma_x_given_z.shape[0]


def analyze(model: JointGaussianModel) -> ConditionalStats:
    """All conditional statistics needed by the rate-distortion machinery."""
    J = model.joint()
    ix, iy, iz = model.index_sets()
    Sigma_x_given_z = conditional_cov(J, ix, iz)
    Sigma_x_given_yz = conditional_cov(J, ix, iy + iz)
    Sigma_y_given_z = conditional_cov(J, iy, iz)
    A, B = estimator_matrices(model)
    Sigma_yprime_given_z = psd_repair(A @ Sigma_y_given_z @ A.T)
    return ConditionalStats(
        model=model,
        Sigma_x_given_z=Sigma_x_given_z,
        Sigma_x_given_yz=Sigma_x_given_yz,
        Sigma_y_given_z=Sigma_y_given_z,
        A=A,
        B=B,
        Sigma_yprime_given_z=Sigma_yprime_given_z,
    )


@dataclass(frozen=True)
class RegularityReport:
    """Rank diagnosis of ``Sigma_x_given_z - Sigma_x_given_yz``.

    The closed-form rate-distortion machinery requires this difference (the
    observation's usable information about the source beyond the side
    information) to be full rank.
    """

    full_rank: bool
    rank: int
    n_x: int
    eigenvalues: np.ndarray
    threshold: float


def check_regularity(stats: ConditionalStats) -> RegularityReport:
    """Diagnose whether the downstream pipeline's full-rank requirement holds."""
    delta = sym_part(stats.Sigma_x_given_z - stats.Sigma_x_given_yz)
    w = np.linalg.eigvalsh(delta)[::-1]
    # The difference is formed by cancellation, so judge it against the
    # magnitude of the operands, not of a possibly-near-zero result.
    scale = max(
        float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0,
        spectral_norm_sym(stats.Sigma_x_given_z),
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

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
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParam,
    NotSpd,
    SingularConditioningBlock,
    SingularObservationCovariance,
)
from .spd import (
    EPS_PSD,
    _eig_desc,
    _norm_from_eigvals,
    _read_only,
    _require_spd,
    check_symmetric,
    spectral_norm_sym,
    sym_part,
)

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
    return _psd_repair(A, scale_hint)[0]


def _psd_repair(A: np.ndarray, scale_hint: float = 0.0) -> tuple[np.ndarray, bool]:
    """:func:`psd_repair`, and whether it clipped: when it did not, the
    result is ``sym_part(A)``, which has the bits of an exactly symmetric
    finite ``A``."""
    A = sym_part(np.asarray(A, dtype=float))
    if A.size == 0:
        return A, False
    w, Q = np.linalg.eigh(A)
    scale = max(abs(w[0]), abs(w[-1]), scale_hint, np.finfo(float).tiny)
    if w[0] < -PSD_REPAIR_FLOOR * scale:
        raise NotSpd(f"matrix is not PSD: eigenvalue {w[0]:.3e} at scale {scale:.3e}")
    if w[0] >= 0:
        return A, False
    w = np.clip(w, 0.0, None)
    return sym_part((Q * w) @ Q.T), True


@dataclass(frozen=True, eq=False)
class JointGaussianModel:
    """Zero-mean jointly Gaussian (x, y, z) given by covariance blocks.

    Validated eagerly: every block must be finite, the assembled joint
    covariance symmetric PSD (smallest eigenvalue >= -1e-10 times the largest)
    and the ``y`` and ``z`` blocks SPD (they get inverted).  ``n_z = 0``
    encodes "no side information".

    The blocks are read-only copies, so the spectra the SPD tests took,
    ``Sigma_y_eigvals`` and ``Sigma_z_eigvals`` (``None`` if ``n_z = 0``;
    ``eigvalsh(sym_part(.))``), stay valid for :func:`analyze` to reuse.
    """

    Sigma_x: np.ndarray
    Sigma_y: np.ndarray
    Sigma_z: np.ndarray
    Sigma_xy: np.ndarray
    Sigma_xz: np.ndarray
    Sigma_yz: np.ndarray
    Sigma_y_eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    Sigma_z_eigvals: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("Sigma_x", "Sigma_y", "Sigma_z", "Sigma_xy", "Sigma_xz", "Sigma_yz"):
            block = _read_only(np.array(np.atleast_2d(getattr(self, name)), dtype=float))
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
        w_y = _spd_eigvals(self.Sigma_y, "Sigma_y")
        w_z = _spd_eigvals(self.Sigma_z, "Sigma_z") if n_z > 0 else None
        object.__setattr__(self, "Sigma_y_eigvals", w_y)
        object.__setattr__(self, "Sigma_z_eigvals", w_z)
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


def _spd_eigvals(A: np.ndarray, name: str) -> np.ndarray:
    """``check_spd(A, name)``, returning the ``eigvalsh`` it tests (read-only)."""
    w = np.linalg.eigvalsh(check_symmetric(A, name=name))
    if w.size:
        _require_spd(w, name)
    return _read_only(w)


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
    return _schur(joint, list(target), list(cond), {})


def _schur(J: np.ndarray, target: list[int], cond: list[int], memo: dict) -> np.ndarray:
    """:func:`conditional_cov` of ``J = check_symmetric(joint)``.

    ``memo`` keeps, per index tuple, the ``eigvalsh`` of each conditioning
    block and the norm of each target block taken from this ``J``.  A block
    met again has the same bits, so its verdict and norm are read back
    instead of being taken again.
    """
    S_tt = J[np.ix_(target, target)]
    if not cond:
        return psd_repair(S_tt)
    S_cc = J[np.ix_(cond, cond)]
    S_tc = J[np.ix_(target, cond)]
    key = tuple(cond)
    if key not in memo:  # check_spd's symmetry check and the eigvalsh it tests
        memo[key] = np.linalg.eigvalsh(check_symmetric(S_cc, name="conditioning block"))
    schur = S_tt - S_tc @ _psd_solve(S_cc, S_tc.T, "conditioning block", memo[key])
    norm_key = ("norm",) + tuple(target)
    if norm_key not in memo:
        memo[norm_key] = spectral_norm_sym(S_tt)
    return psd_repair(schur, scale_hint=memo[norm_key])


def _psd_solve(S: np.ndarray, rhs: np.ndarray, name: str, w: np.ndarray) -> np.ndarray:
    """``S^{-1} rhs`` for a PSD matrix ``S``, via pseudo-inverse when singular.

    ``w`` is ``eigvalsh(check_symmetric(S))``, or of a matrix with those
    bits.  Gaussian conditioning is well defined for any PSD
    conditioning block (degenerate directions carry no randomness); a block
    that fails :func:`covrate.spd.check_spd`'s test is pseudo-inverted with
    eigenvalues below ``1e-12 * max`` treated as exact zeros.  A block with
    genuinely negative eigenvalues is not a covariance and is rejected.
    """
    try:
        _require_spd(w, name)
    except NotSpd as exc:
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
    return _estimator_matrices(model, None)


def _estimator_matrices(
    model: JointGaussianModel, w_obs: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`estimator_matrices`; ``w_obs`` is the ``eigvalsh`` of
    ``sym_part(obs)`` when the caller took it from the same bits."""
    n_y, n_z = model.n_y, model.n_z
    obs = np.block([[model.Sigma_y, model.Sigma_yz], [model.Sigma_yz.T, model.Sigma_z]])
    cross = np.hstack([model.Sigma_xy, model.Sigma_xz])
    name = "stacked (y, z) covariance"
    obs_sym = check_symmetric(obs, name=name)
    if w_obs is None:
        w_obs = np.linalg.eigvalsh(obs_sym)
    try:
        AB = _psd_solve(obs, cross.T, name, w_obs).T
    except SingularConditioningBlock as exc:
        raise SingularObservationCovariance(str(exc)) from exc
    return AB[:, :n_y], AB[:, n_y:n_y + n_z]


#: The matrices of :class:`ConditionalStats`, in field order.
_STATS_MATRICES = (
    "Sigma_x_given_z",
    "Sigma_x_given_yz",
    "Sigma_y_given_z",
    "A",
    "B",
    "Sigma_yprime_given_z",
)


@dataclass(frozen=True, eq=False)
class ConditionalStats:
    """Conditional statistics of a joint Gaussian model.

    ``Sigma_x_given_z = Sigma_yprime_given_z + Sigma_x_given_yz`` holds within
    1e-9 relative (checked at construction), and ``Sigma_x_given_yz`` is
    dominated by ``Sigma_x_given_z`` in the PSD order.

    The matrices are stored as read-only copies, so what the rate-distortion
    pipeline derives from them is computed once per object and cached,
    read-only too: :attr:`gap`, :attr:`gap_eig`, :attr:`regularity` and
    :attr:`Sigma_x_given_z_eigvals`.
    """

    model: JointGaussianModel = field(repr=False)
    Sigma_x_given_z: np.ndarray
    Sigma_x_given_yz: np.ndarray
    Sigma_y_given_z: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Sigma_yprime_given_z: np.ndarray

    def __post_init__(self):
        for name in _STATS_MATRICES:
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name))))
        lhs = self.Sigma_x_given_z
        rhs = self.Sigma_yprime_given_z + self.Sigma_x_given_yz
        scale = max(_norm_from_eigvals(self.Sigma_x_given_z_eigvals), np.finfo(float).tiny)
        if spectral_norm_sym(lhs - rhs) > 1e-9 * scale:
            raise NotSpd(
                "conditional decomposition identity violated beyond 1e-9; "
                "the model is too ill-conditioned for double precision"
            )

    @property
    def n_x(self) -> int:
        return self.Sigma_x_given_z.shape[0]

    @cached_property
    def Sigma_x_given_z_eigvals(self) -> np.ndarray:
        """``eigvalsh(sym_part(Sigma_x_given_z))``, ascending: the spectrum
        behind ``spectral_norm_sym(Sigma_x_given_z)`` and behind
        ``check_spd(Sigma_x_given_z)``'s test (same input bits)."""
        return _read_only(np.linalg.eigvalsh(sym_part(self.Sigma_x_given_z)))

    @cached_property
    def gap(self) -> np.ndarray:
        """``S1 = sym_part(Sigma_x_given_z - Sigma_x_given_yz)``, the
        informativeness gap (exactly symmetric)."""
        return _read_only(sym_part(self.Sigma_x_given_z - self.Sigma_x_given_yz))

    @cached_property
    def gap_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``_eig_desc(gap)``: eigenvector rows and descending eigenvalues."""
        U, lam = _eig_desc(self.gap)
        return _read_only(U), _read_only(lam)

    @cached_property
    def regularity(self) -> RegularityReport:
        """Rank diagnosis of :attr:`gap` (see :func:`check_regularity`)."""
        w = _read_only(np.linalg.eigvalsh(self.gap)[::-1])
        # The difference is formed by cancellation, so judge it against the
        # magnitude of the operands, not of a possibly-near-zero result.
        scale = max(
            float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0,
            _norm_from_eigvals(self.Sigma_x_given_z_eigvals),
            np.finfo(float).tiny,
        )
        threshold = REGULARITY_RTOL * scale
        rank = int(np.sum(w > threshold))
        return RegularityReport(
            full_rank=(rank == self.n_x),
            rank=rank,
            n_x=self.n_x,
            eigenvalues=w,
            threshold=threshold,
        )


def analyze(model: JointGaussianModel) -> ConditionalStats:
    """All conditional statistics needed by the rate-distortion machinery.

    The joint covariance is checked once.  The three Schur complements share
    one memo (:func:`_schur`), so the z block, which two of them condition
    on, gets one SPD verdict (the model's own), and ``||Sigma_x||`` is taken
    once.  The estimator matrices read the (y, z) block's verdict:
    ``sym_part`` of their stacked (y, z) covariance has the bits of that
    block of the symmetrized joint.  Every solve keeps its operands.
    """
    J = check_symmetric(model.joint(), name="joint covariance")
    ix, iy, iz = model.index_sets()
    # The y and z blocks of J have the bits of sym_part(Sigma_y) and
    # sym_part(Sigma_z), so the model's spectra give the norm of the y
    # target block and the z conditioning block's verdict.
    memo: dict = {("norm",) + tuple(iy): _norm_from_eigvals(model.Sigma_y_eigvals)}
    if iz:
        memo[tuple(iz)] = model.Sigma_z_eigvals
    Sigma_x_given_z = _schur(J, ix, iz, memo)
    Sigma_x_given_yz = _schur(J, ix, iy + iz, memo)
    Sigma_y_given_z = _schur(J, iy, iz, memo)
    A, B = _estimator_matrices(model, memo[tuple(iy + iz)])
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
    """Diagnose whether the downstream pipeline's full-rank requirement holds.

    The report is computed once per ``stats`` and shared (read-only).
    """
    return stats.regularity

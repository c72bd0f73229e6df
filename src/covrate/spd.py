"""Symmetric/SPD matrix primitives.

Sorted eigendecomposition, principal square root, the joint diagonalizer of an
ordered SPD pair, the matrix minimum, the positive-semidefinite partial order,
and a brute-force determinant-maximization oracle used by the test suite.

Conventions
-----------
* ``sym_eig_desc`` returns row-eigenvector matrices: ``A = U.T @ diag(lam) @ U``
  with ``lam`` sorted descending.
* The joint diagonalizer ``V`` of the ordered pair ``(S1, S2)`` satisfies
  ``V @ S1 @ V.T = diag(lam)`` and ``V @ S2 @ V.T = diag(lam_prime)`` with
  ``det V = +1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParam,
    NonSymmetric,
    NotSpd,
)

#: Relative symmetry tolerance for inputs.
EPS_SYM = 1e-10
#: Relative positive-definiteness tolerance for inputs.
EPS_PSD = 1e-10
#: Half the largest float: ``sym_part`` of a finite matrix can overflow only
#: when an entry exceeds this in magnitude.
SYM_OVERFLOW = 0.5 * np.finfo(float).max
#: Random directions drawn per vectorized step of :func:`constrained_det_oracle`.
ORACLE_BATCH = 32768


# ---- validation helpers -----------------------------------------------------

def as_square(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D square float array (copy)."""
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    return A


def _read_only(A: np.ndarray) -> np.ndarray:
    """Mark ``A`` read-only and return it, so no cached factor can go stale."""
    A.setflags(write=False)
    return A


def sym_part(A: np.ndarray) -> np.ndarray:
    """Symmetric part (A + A^T)/2."""
    return 0.5 * (A + A.T)


def check_symmetric(A, name: str = "matrix") -> np.ndarray:
    """Validate finite entries and symmetry within ``EPS_SYM``; return the
    symmetrized copy, which must not overflow (tested past ``SYM_OVERFLOW``)."""
    A = as_square(A, name)
    if not A.size:
        return sym_part(A)
    scale = np.abs(A).max()             # NaN or inf iff an entry is non-finite
    if not np.isfinite(scale):
        raise InvalidParam(f"{name} has non-finite entries")
    if np.abs(A - A.T).max() > EPS_SYM * max(scale, np.finfo(float).tiny):
        raise NonSymmetric(f"{name} is not symmetric within {EPS_SYM:g} relative")
    S = sym_part(A)
    if scale > SYM_OVERFLOW and not np.isfinite(S).all():
        raise InvalidParam(f"{name} overflows when symmetrized")
    return S


def _require_finite(A: np.ndarray, name: str) -> None:
    """:func:`check_symmetric`'s tests of the entries' values, with its messages.

    Of an exactly symmetric matrix it returns the same bits unless these fail
    (``(a + a) / 2 = a`` up to ``SYM_OVERFLOW`` and overflows past it)."""
    if A.size:
        scale = np.abs(A).max()
        if not np.isfinite(scale):
            raise InvalidParam(f"{name} has non-finite entries")
        if scale > SYM_OVERFLOW:
            raise InvalidParam(f"{name} overflows when symmetrized")


def check_spd(A, name: str = "matrix") -> np.ndarray:
    """Validate symmetric positive definiteness; return the symmetrized copy.

    Positive definite means: smallest eigenvalue > ``EPS_PSD`` times the largest.
    """
    A = check_symmetric(A, name=name)
    if A.size:
        _require_spd(np.linalg.eigvalsh(A), name)
    return A


def _require_spd(w: np.ndarray, name: str) -> None:
    """:func:`check_spd`'s test on ``w``, the ascending eigenvalues of the
    symmetrized matrix; raises :class:`NotSpd` with its message."""
    if w[-1] <= 0 or w[0] <= EPS_PSD * w[-1]:
        raise NotSpd(
            f"{name} is not SPD: eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]"
        )


def spectral_norm_sym(A: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix (largest |eigenvalue|)."""
    if A.size == 0:
        return 0.0
    return _norm_from_eigvals(np.linalg.eigvalsh(sym_part(A)))


def _norm_from_eigvals(w: np.ndarray) -> float:
    """:func:`spectral_norm_sym` from ``w = eigvalsh(sym_part(A))`` (ascending)."""
    return float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0


# ---- eigendecomposition and square roots ------------------------------------

def sym_eig_desc(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix with descending eigenvalues.

    Parameters
    ----------
    A : array_like
        Symmetric matrix (validated within ``EPS_SYM`` relative).

    Returns
    -------
    U : ndarray
        Row-orthonormal matrix whose *rows* are eigenvectors, so that
        ``A = U.T @ diag(lam) @ U``.  Each row's sign is fixed so that its
        largest-magnitude entry is positive, which makes the output
        deterministic across calls.
    lam : ndarray
        Eigenvalues sorted descending.
    """
    return _eig_desc(check_symmetric(A))


def _eig_desc(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_eig_desc` of an exactly symmetric float matrix, unchecked."""
    w, Q = np.linalg.eigh(A)            # ascending, columns are eigenvectors
    U = Q.T[::-1].copy()                # descending, rows are eigenvectors
    lam = w[::-1].copy()
    # Deterministic sign: each row's first largest-|entry| made positive.
    if U.size:
        flip = U[np.arange(U.shape[0]), np.argmax(np.abs(U), axis=1)] < 0
        U[flip] = -U[flip]
    return U, lam


def _sqrt_from_eig(U: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """A^{1/2} from the (U, lam) output of sym_eig_desc."""
    return sym_part(U.T @ (np.sqrt(lam)[:, None] * U))


def _inv_sqrt_from_eig(U: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """A^{-1/2} from the (U, lam) output of sym_eig_desc."""
    return U.T @ (lam[:, None] ** -0.5 * U)


# ---- joint diagonalizer ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JointDiag:
    """Joint diagonalizer of an ordered SPD pair.

    Attributes
    ----------
    V : ndarray
        Invertible matrix with ``det V = +1`` diagonalizing both inputs.
    lam : ndarray
        Diagonal of ``V @ S1 @ V.T`` (descending eigenvalues of ``S1``).
    lam_prime : ndarray
        Diagonal of ``V @ S2 @ V.T`` (descending).
    V_inv : ndarray
        Inverse of ``V``, computed from the defining factors.
    U : ndarray
        Eigenvector rows of ``S1`` (``S1 = U.T @ diag(lam) @ U``).
    """

    V: np.ndarray
    lam: np.ndarray
    lam_prime: np.ndarray
    V_inv: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)

    @property
    def gamma(self) -> np.ndarray:
        """Eigenvalues of S1^{-1/2} S2 S1^{-1/2} (= lam_prime / lam)."""
        return self.lam_prime / self.lam


def joint_diagonalize(S1, S2) -> JointDiag:
    """Joint diagonalizer ``V`` of the ordered SPD pair ``(S1, S2)``.

    Construction: with ``S1 = U1.T diag(lam) U1`` and
    ``S1^{-1/2} S2 S1^{-1/2} = W.T diag(gamma) W`` (both descending),
    ``V = diag(sqrt(lam)) @ W @ S1^{-1/2}``.  Then ``V S1 V.T = diag(lam)``,
    ``V S2 V.T = diag(lam * gamma)`` and ``|det V| = 1``; the sign of the last
    row of ``W`` is flipped if needed to force ``det V = +1``.
    """
    S1 = check_spd(S1, name="S1")
    S2 = check_spd(S2, name="S2")
    if S1.shape != S2.shape:
        raise DimensionMismatch(f"shape mismatch: {S1.shape} vs {S2.shape}")
    return _joint_diagonalize(S1, S2)


def _joint_diagonalize(
    S1: np.ndarray, S2: np.ndarray, eig1: tuple[np.ndarray, np.ndarray] | None = None
) -> JointDiag:
    """:func:`joint_diagonalize` of a pair that passes its checks, unchecked.

    ``S1`` and ``S2`` must be exactly symmetric, finite, of one shape and
    pass :func:`check_spd`'s test; then ``check_spd`` would return copies
    with their bits, so the result is the public function's.  ``eig1`` is
    ``_eig_desc(S1)`` when the caller already holds it for these bits.
    """
    U1, lam = _eig_desc(S1) if eig1 is None else eig1
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


def matrix_min(S1, S2) -> np.ndarray:
    """Matrix minimum of an SPD pair: ``V^{-1} diag(min(lam, lam')) V^{-T}``.

    The result is dominated by both arguments in the PSD order and maximizes
    the determinant among all such PSD matrices.
    """
    return _min_from_joint(joint_diagonalize(S1, S2))


def _min_from_joint(jd: JointDiag) -> np.ndarray:
    """:func:`matrix_min` of the pair ``jd`` jointly diagonalizes."""
    m = np.minimum(jd.lam, jd.lam_prime)
    return sym_part(jd.V_inv @ (m[:, None] * jd.V_inv.T))


# ---- PSD partial order -------------------------------------------------------

def psd_leq(A, B, tol: float = 1e-9) -> bool:
    """True iff ``A`` is dominated by ``B`` in the PSD order, within ``tol``.

    Test: smallest eigenvalue of ``B - A`` >= ``-tol *`` spectral norm of ``B``.
    """
    A = check_symmetric(A, name="A")
    B = check_symmetric(B, name="B")
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch: {A.shape} vs {B.shape}")
    if A.size == 0:
        return True
    return _psd_leq(A, B, spectral_norm_sym(B), tol)


def _psd_leq(A: np.ndarray, B: np.ndarray, b_norm: float, tol: float) -> bool:
    """:func:`psd_leq` of non-empty ``A``, ``B`` of one shape, unchecked.

    Both must be finite and exactly symmetric (so ``check_symmetric`` would
    return their bits), and ``b_norm`` must be ``spectral_norm_sym(B)``, or
    the same expression of an ``eigvalsh`` the caller already took of
    ``B``'s bits.
    """
    smallest = np.linalg.eigvalsh(B - A)[0]
    return bool(smallest >= -tol * max(b_norm, np.finfo(float).tiny))


#: Outcomes of :func:`_psd_leq_screen`.
SCREEN_REJECT, SCREEN_UNDECIDED, SCREEN_ACCEPT = -1, 0, 1


def _rotated_diag(U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``diag(U @ B @ U.T)``: the Rayleigh quotients of ``B`` on the rows of ``U``."""
    return np.sum((U @ B) * U, axis=1)


def _screen_slack(n: int, b_norm, d_max):
    """Rounding margin ``kappa * (||B|| + max d)`` of the screens, ``kappa = 100 n eps``."""
    return 100.0 * n * np.finfo(float).eps * (b_norm + d_max)


def _weyl_accept(d_max, b_min: float, b_norm: float, tol: float, n: int):
    """Exact sufficient test for ``psd_leq(D, B, tol)`` from ``lambda_max(D)``.

    ``B`` is SPD of order ``n`` with ``b_min``/``b_norm`` the smallest and
    largest entries of ``eigvalsh(B)``, and ``d_max`` is the largest
    eigenvalue of a symmetric ``D`` (or an array of them).  Weyl's inequality
    gives ``lambda_min(B - D) >= lambda_min(B) - lambda_max(D)``, so
    ``d_max - b_min <= tol ||B||`` means ``psd_leq`` is True; the test keeps
    the margin :func:`_screen_slack` against rounding (see
    :func:`_psd_leq_screen` for the argument).  When ``d_max`` is itself the
    last entry of ``eigvalsh(D)`` rather than an exact spectrum, it carries
    the eigensolver's error too: a backward-stable symmetric eigensolver
    returns ``lambda_max`` of a matrix within a small multiple of
    ``n eps ||D||`` of ``D``, so by Weyl again it misses the true
    ``lambda_max(D)`` by at most that much (Golub & Van Loan, §8.1; Horn &
    Johnson, §4.3), and ``||D|| = d_max`` up to the same error for a
    positive definite ``D``.  The ``kappa * d_max`` part of the margin covers
    it, so an accepted ``D`` is one ``psd_leq`` accepts.
    """
    return d_max - b_min <= tol * b_norm - _screen_slack(n, b_norm, d_max)


def _psd_leq_screen(
    d: np.ndarray, c: np.ndarray, b_min: float, b_norm: float, tol: float
) -> np.ndarray:
    """O(n) verdict of ``psd_leq(U.T @ diag(d) @ U, B, tol)`` without an eigensolve.

    ``U`` holds orthonormal rows (an eigenbasis from :func:`_eig_desc`),
    ``c = _rotated_diag(U, B)``, and ``b_min``/``b_norm`` are the smallest and
    largest entries of ``eigvalsh(B)`` for an SPD ``B``.  ``d`` has shape
    ``(..., n)``; each row gets :data:`SCREEN_REJECT`, :data:`SCREEN_ACCEPT`
    or :data:`SCREEN_UNDECIDED`.  ``psd_leq`` tests
    ``lambda_min(B - D) >= -tol * ||B||``, and two exact bounds bracket that
    eigenvalue:

    * Rayleigh-Ritz: ``lambda_min(B - D) <= u_j (B - D) u_j^T = c_j - d_j``
      for every row ``u_j`` of ``U``, so ``max_j (d_j - c_j) > tol ||B||``
      means ``psd_leq`` is False.
    * Weyl: ``lambda_min(B - D) >= lambda_min(B) - lambda_max(D)
      = b_min - max(d)``, so ``max(d) - b_min <= tol ||B||`` means
      ``psd_leq`` is True.

    Both decisions keep a margin ``kappa * (||B|| + max d)`` with
    ``kappa = 100 n eps``.  ``psd_leq`` sees ``D`` as ``fl(U.T diag(d) U)``
    with a ``U`` orthonormal only to O(n eps), subtracts it from ``B`` in
    floating point and takes ``eigvalsh``; ``c``, ``b_min`` and ``b_norm``
    carry rounding of the same kind.  Each of these moves the quantities
    compared by at most a small multiple of ``n eps (||B|| + max d)``
    (backward stability of the symmetric eigensolver and of a length-n dot
    product: Golub & Van Loan, *Matrix Computations*, 4th ed., §8.1; Horn &
    Johnson, *Matrix Analysis*, 2nd ed., §4.2-4.3).  A verdict other than
    undecided therefore never disagrees with ``psd_leq``; rows near either
    bound come back undecided and need the full test.
    """
    n = d.shape[-1]
    d_max = d.max(axis=-1)
    reject = (d - c).max(axis=-1) > tol * b_norm + _screen_slack(n, b_norm, d_max)
    accept = _weyl_accept(d_max, b_min, b_norm, tol, n)
    return np.where(reject, SCREEN_REJECT, np.where(accept, SCREEN_ACCEPT, SCREEN_UNDECIDED))


# ---- brute-force determinant oracle ------------------------------------------

def constrained_det_oracle(
    S1,
    S2,
    trials: int,
    seed: int,
) -> float:
    """Best determinant found over PSD matrices dominated by both S1 and S2.

    Randomized feasible search: draws random full-rank PSD directions
    ``P = G^T G`` and scales each to the feasibility boundary (largest ``t``
    with ``t P`` dominated by both inputs), recording ``det(t P)``.  The
    candidate ``matrix_min(S1, S2)`` itself is always included.

    Intended for desk-scale verification only, hence the ``n <= 4`` limit.
    """
    S1 = check_spd(S1, name="S1")
    S2 = check_spd(S2, name="S2")
    if S1.shape != S2.shape:
        raise DimensionMismatch(f"shape mismatch: {S1.shape} vs {S2.shape}")
    n = S1.shape[0]
    if n > 4:
        raise InvalidParam(f"oracle supports n <= 4, got n = {n}")
    if trials < 1:
        raise InvalidParam("trials must be >= 1")

    S1_isqrt = _inv_sqrt_from_eig(*_eig_desc(S1))
    S2_isqrt = _inv_sqrt_from_eig(*_eig_desc(S2))

    rng = np.random.default_rng(seed)
    best = -np.inf
    done = 0
    while done < trials:
        m = min(ORACLE_BATCH, trials - done)
        G = rng.standard_normal((m, n, n))
        P = np.matmul(G.transpose(0, 2, 1), G)
        # Boundary scale along the ray t*P: max eigenvalue of the congruence
        # against each constraint must equal one.
        e1 = np.linalg.eigvalsh(S1_isqrt @ P @ S1_isqrt)[:, -1]
        e2 = np.linalg.eigvalsh(S2_isqrt @ P @ S2_isqrt)[:, -1]
        t = 1.0 / np.maximum(e1, e2)
        sign, logdet = np.linalg.slogdet(P)
        d = np.where(sign > 0, t**n * np.exp(logdet), 0.0)
        best = max(best, float(d.max()))
        done += m

    return max(best, float(np.linalg.det(matrix_min(S1, S2))))

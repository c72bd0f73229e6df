"""Rate allocation and distortionless fusion for a centralized sensor network.

Each node observes ``y_i = W_i^T x_d + n_i``, codes it at rate
``R(D_i) = 1/2 log(|Sigma_y_i| / |D_i|)`` and ships it to a fusion center,
which applies a no-linear-distortion filter (``H W^T = I``).  Under suitable
coding, node ``i``'s contribution behaves like ``y_i`` plus an equivalent
noise with covariance ``Sigma_n_i + (D_i^{-1} - Sigma_y_i^{-1})^{-1}``, so the
fused SNR is a deterministic function of the allocation ``(D_1, ..., D_N)``.

This module provides the SNR objective, the stationarity (KKT) system and its
residuals, the high-rate allocator with its feasibility threshold, the
two-node scalar closed form with regime classification, and the random
valid-allocation generator used to probe (local/global) optimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import bisect

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    GenerationStalled,
    InfeasibleBudget,
    InvalidAllocation,
    InvalidParam,
    SingularGram,
)
from .model import _psd_repair, _spd_eigvals
from .spd import (
    SCREEN_ACCEPT,
    SCREEN_REJECT,
    _eig_desc,
    _norm_from_eigvals,
    _psd_leq,
    _psd_leq_screen,
    _read_only,
    _require_finite,
    _rotated_diag,
    _screen_slack,
    _weyl_accept,
    as_square,
    check_spd,
    check_symmetric,
    psd_leq,
    sym_part,
)

#: PSD-order slack for ``D <= Sigma_y`` checks on allocations.
ALLOC_TOL = 1e-9
#: Maximum admissible condition number for a node's mixing matrix.
MAX_W_COND = 1e12
#: Most candidate spectra :func:`random_valid_allocations` draws in one block.
DRAW_BLOCK = 256

#: Regime labels returned by :func:`scalar_allocate`.
REGIME_MAXIMIZER = "Maximizer"
REGIME_BOUNDARY = "Boundary"
REGIME_MINIMIZER = "Minimizer"


@dataclass(frozen=True, eq=False)
class SensorNode:
    """One sensor: invertible mixing ``W``, SPD noise ``Sigma_n``, weight ``alpha``."""

    W: np.ndarray
    Sigma_n: np.ndarray
    alpha: float

    def __post_init__(self):
        W = as_square(self.W, name="W")
        if not np.isfinite(W).all():
            raise InvalidParam("W has non-finite entries")
        Sigma_n = check_spd(self.Sigma_n, name="Sigma_n")
        if Sigma_n.shape != W.shape:
            raise DimensionMismatch(
                f"W is {W.shape} but Sigma_n is {Sigma_n.shape}"
            )
        if np.linalg.cond(W) > MAX_W_COND:
            raise InvalidParam("mixing matrix W is numerically singular")
        alpha = float(self.alpha)
        if not 0.0 < alpha <= 1.0:
            raise InvalidParam(f"alpha = {alpha} outside (0, 1]")
        object.__setattr__(self, "W", _read_only(W))
        object.__setattr__(self, "Sigma_n", _read_only(Sigma_n))
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @cached_property
    def Sigma_n_inv(self) -> np.ndarray:
        """``np.linalg.inv(Sigma_n)``, computed once per node (read-only)."""
        return _read_only(np.linalg.inv(self.Sigma_n))

    @cached_property
    def logdet_Sigma_n(self) -> np.float64:
        """``np.linalg.slogdet(Sigma_n)[1]``, computed once per node."""
        return np.linalg.slogdet(self.Sigma_n)[1]

    @cached_property
    def logdet_W(self) -> np.float64:
        """``np.linalg.slogdet(W)[1]`` (log of ``|det W|``), computed once per node."""
        return np.linalg.slogdet(self.W)[1]


@dataclass(frozen=True, eq=False)
class FusionNetwork:
    """Desired-source covariance, sensor list, and the sum-rate budget in nats.

    Per-node factors are computed once, on first use, and kept read-only.
    Each ``Sigma_y_i`` takes one ``eigvalsh``: the one its SPD test takes
    (:func:`covrate.spd.check_spd`'s, raising its ``NotSpd`` message), which
    :attr:`sigma_y_eigvals` then serves.
    """

    Sigma_xd: np.ndarray
    nodes: tuple[SensorNode, ...]
    R: float

    def __post_init__(self):
        Sigma_xd = check_spd(self.Sigma_xd, name="Sigma_xd")
        nodes = tuple(self.nodes)
        if not nodes:
            raise InvalidParam("network needs at least one node")
        for i, node in enumerate(nodes):
            if node.n != Sigma_xd.shape[0]:
                raise DimensionMismatch(
                    f"node {i} has dimension {node.n}, expected {Sigma_xd.shape[0]}"
                )
        weight_sum = sum(node.alpha for node in nodes)
        if abs(weight_sum - 1.0) > 1e-12:
            raise InvalidParam(f"node weights sum to {weight_sum!r}, expected 1")
        R = float(self.R)
        if not np.isfinite(R) or R < 0.0:
            raise InvalidParam(f"rate budget R = {R} must be finite and >= 0")
        object.__setattr__(self, "Sigma_xd", _read_only(Sigma_xd))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "R", R)

    @property
    def n(self) -> int:
        return self.Sigma_xd.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def alphas(self) -> np.ndarray:
        return np.array([node.alpha for node in self.nodes])

    @cached_property
    def _sigma_y_checked(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """``(sigma_y, sigma_y_eigvals)``: each ``Sigma_y_i`` through
        :func:`covrate.spd.check_spd`'s test, and the ``eigvalsh`` that test took."""
        mats, spectra = [], []
        for i, node in enumerate(self.nodes):
            S = sym_part(node.W.T @ self.Sigma_xd @ node.W + node.Sigma_n)
            spectra.append(_spd_eigvals(S, name=f"Sigma_y[{i}]"))
            mats.append(_read_only(S))
        return tuple(mats), tuple(spectra)

    @cached_property
    def sigma_y(self) -> tuple[np.ndarray, ...]:
        """Per-node observation covariances ``W^T Sigma_xd W + Sigma_n``,
        validated by :func:`covrate.spd.check_spd`'s test (read-only)."""
        return self._sigma_y_checked[0]

    @cached_property
    def sigma_y_eigvals(self) -> tuple[np.ndarray, ...]:
        """Ascending eigenvalues of each ``Sigma_y_i`` (read-only): the
        ``eigvalsh`` its SPD test took.  ``Sigma_y_i`` is exactly symmetric, so
        ``check_spd`` would return its bits and this is
        ``np.linalg.eigvalsh(sigma_y[i])``, bit for bit."""
        return self._sigma_y_checked[1]

    @cached_property
    def sigma_y_inv(self) -> tuple[np.ndarray, ...]:
        """``np.linalg.inv(Sigma_y_i)`` per node, computed once (read-only)."""
        return tuple(_read_only(np.linalg.inv(S)) for S in self.sigma_y)

    @cached_property
    def noise_gram(self) -> np.ndarray:
        """``S = sum_i W_i Sigma_n_i^{-1} W_i^T`` — the analog (infinite-rate)
        gram, computed once (read-only)."""
        S = np.zeros((self.n, self.n))
        for node in self.nodes:
            S += node.W @ np.linalg.solve(node.Sigma_n, node.W.T)
        return _read_only(sym_part(S))

    @cached_property
    def kkt_ceiling(self) -> tuple[np.ndarray, ...]:
        """Per node, the allocation-independent ``C_i`` of :func:`kkt_terms`,
        from the cached inverses of ``Sigma_n_i`` and ``Sigma_y_i`` (read-only)."""
        return tuple(
            _read_only(_kkt_ceiling(node.W @ node.Sigma_n_inv, node.Sigma_n_inv, Sy_inv))
            for node, Sy_inv in zip(self.nodes, self.sigma_y_inv)
        )

    @cached_property
    def logdet_sigma_y(self) -> tuple[np.float64, ...]:
        """``np.linalg.slogdet(Sigma_y_i)[1]`` per node, computed once."""
        return tuple(np.linalg.slogdet(S)[1] for S in self.sigma_y)

    @cached_property
    def log_beta(self) -> float:
        """Log of the determinant budget: ``sum_i alpha_i logdet Sigma_y_i - 2R``.

        An allocation meets the sum-rate budget exactly iff
        ``sum_i alpha_i logdet D_i`` equals this value.
        """
        return float(np.dot(self.alphas, self.logdet_sigma_y) - 2.0 * self.R)


@dataclass(frozen=True, eq=False)
class Allocation:
    """A distortion target per node.  Validity is checked against a network.

    The matrices are read-only, so their spectra are taken once and cached:
    :attr:`eig_desc` for all of them, :meth:`eigvalsh` one matrix at a time
    (:func:`check_allocation` may stop at the first invalid one).
    """

    D: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(
            _read_only(check_symmetric(Di, name=f"D[{i}]")) for i, Di in enumerate(self.D)
        )
        object.__setattr__(self, "D", mats)

    @cached_property
    def eig_desc(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per matrix, the ``(U, lam)`` of :func:`covrate.spd.sym_eig_desc` (read-only)."""
        return tuple(
            (_read_only(U), _read_only(lam)) for U, lam in (_eig_desc(Di) for Di in self.D)
        )

    @cached_property
    def _spectra(self) -> list[np.ndarray | None]:
        """The :meth:`eigvalsh` cache: one slot per matrix, ``None`` until taken."""
        return [None] * len(self.D)

    def eigvalsh(self, i: int) -> np.ndarray:
        """Ascending ``np.linalg.eigvalsh(D[i])``, taken once per matrix (read-only)."""
        w = self._spectra[i]
        if w is None:
            w = self._spectra[i] = _read_only(np.linalg.eigvalsh(self.D[i]))
        return w

    @classmethod
    def _with_eigvalsh(
        cls, D: Sequence[np.ndarray], spectra: Sequence[np.ndarray | None]
    ) -> Allocation:
        """``Allocation(D=D)`` whose :meth:`eigvalsh` returns ``spectra[i]``
        where it is not ``None``.  Each given entry must be
        ``np.linalg.eigvalsh`` of a ``D[i]`` that is exactly symmetric and
        finite, which the constructor copies bit for bit."""
        alloc = cls(D=D)
        alloc._spectra[:] = [None if w is None else _read_only(w) for w in spectra]
        return alloc


def _dominated(network: FusionNetwork, i: int, D: np.ndarray) -> bool:
    """``psd_leq(D, Sigma_y_i, tol=ALLOC_TOL)`` for an exactly symmetric ``D``
    of ``Sigma_y_i``'s shape, with ``||Sigma_y_i||`` read from
    :attr:`FusionNetwork.sigma_y_eigvals` instead of another ``eigvalsh``.
    For such a ``D`` the checks of ``psd_leq`` reduce to its value tests
    (:func:`covrate.spd._require_finite`), kept with their messages."""
    _require_finite(D, "A")
    norm = _norm_from_eigvals(network.sigma_y_eigvals[i])
    return _psd_leq(D, network.sigma_y[i], norm, ALLOC_TOL)


def allocation_valid(network: FusionNetwork, alloc: Allocation) -> bool:
    """True iff :func:`check_allocation` accepts the allocation."""
    try:
        check_allocation(network, alloc)
    except InvalidAllocation:
        return False
    return True


def check_allocation(network: FusionNetwork, alloc: Allocation) -> None:
    """Raise :class:`InvalidAllocation` unless every ``D_i`` is SPD and
    ``D_i <= Sigma_y_i`` within ``ALLOC_TOL``.

    Node ``i`` is positive definite iff the smallest entry of
    ``eigvalsh(D_i)`` is positive; that spectrum is :meth:`Allocation.eigvalsh`,
    taken once per matrix (an allocation from :func:`highrate_allocate` comes
    with the ones it took).  The largest entry ``w[-1]`` of the same
    spectrum then decides most nodes without another eigensolve: by Weyl's
    inequality, ``w[-1] - lambda_min(Sigma_y_i) <= ALLOC_TOL ||Sigma_y_i||``
    (less a rounding margin, :func:`covrate.spd._weyl_accept`) implies
    ``psd_leq(D_i, Sigma_y_i, tol=ALLOC_TOL)``, with both eigenvalues of
    ``Sigma_y_i`` read from :attr:`FusionNetwork.sigma_y_eigvals`.  Only the
    other nodes take the full test (:func:`_dominated`), so
    every verdict and message is the one ``psd_leq`` gives.
    """
    if len(alloc.D) != network.n_nodes:
        raise InvalidAllocation(
            f"allocation has {len(alloc.D)} matrices for {network.n_nodes} nodes"
        )
    for i, (Di, Syi, ev) in enumerate(zip(alloc.D, network.sigma_y, network.sigma_y_eigvals)):
        if Di.shape != Syi.shape:
            raise InvalidAllocation(f"D[{i}] has shape {Di.shape}, expected {Syi.shape}")
        w = alloc.eigvalsh(i)
        if w[0] <= 0.0:
            raise InvalidAllocation(f"D[{i}] is not positive definite")
        if _weyl_accept(w[-1], ev[0], ev[-1], ALLOC_TOL, Di.shape[0]):
            continue
        if not _dominated(network, i, Di):
            raise InvalidAllocation(f"D[{i}] exceeds the observation covariance")


def per_node_rate(sigma_y: np.ndarray, D: np.ndarray) -> float:
    """Coding rate ``1/2 log(|Sigma_y| / |D|)`` in nats for one node."""
    return _node_rate(D, psd_leq(D, sigma_y, tol=ALLOC_TOL), np.linalg.slogdet(sigma_y)[1])


def _node_rate(D: np.ndarray, dominated: bool, ld_y: float) -> float:
    """:func:`per_node_rate` given its ``psd_leq`` verdict and
    ``ld_y = slogdet(sigma_y)[1]``."""
    if not dominated:
        raise InvalidAllocation("D exceeds the observation covariance")
    sign, ld_d = np.linalg.slogdet(D)
    if sign <= 0:
        raise InvalidAllocation("D is not positive definite")
    return max(0.5 * (ld_y - ld_d), 0.0)


def weighted_sum_rate(network: FusionNetwork, alloc: Allocation) -> float:
    """``sum_i alpha_i R(D_i)`` in nats."""
    return float(
        sum(
            node.alpha * per_node_rate(Syi, Di)
            for node, Syi, Di in zip(network.nodes, network.sigma_y, alloc.D)
        )
    )


# --------------------------------------------------------------------------
# Fusion filter and output SNR
# --------------------------------------------------------------------------


def nld_filter(network: FusionNetwork, sigma_v: Sequence[np.ndarray]) -> np.ndarray:
    """No-linear-distortion fusion filter for block noise covariances ``sigma_v``.

    With ``W = [W_1 ... W_N]`` and block-diagonal ``Sigma_v``, the filter
    ``H = (W Sigma_v^{-1} W^T)^{-1} W Sigma_v^{-1}`` is the minimum-noise
    solution of ``H W^T = I``; the fused output is ``x_d`` plus filtered noise.
    """
    if len(sigma_v) != network.n_nodes:
        raise DimensionMismatch(
            f"{len(sigma_v)} noise blocks for {network.n_nodes} nodes"
        )
    blocks = []
    gram = np.zeros((network.n, network.n))
    for node, Svi in zip(network.nodes, sigma_v):
        WSvi = np.linalg.solve(check_spd(Svi, name="Sigma_v block"), node.W.T).T
        blocks.append(WSvi)
        gram += WSvi @ node.W.T
    gram = sym_part(gram)
    try:
        H = np.linalg.solve(gram, np.hstack(blocks))
    except np.linalg.LinAlgError as exc:
        raise SingularGram("fusion gram matrix is singular") from exc
    return H


def equivalent_noise_inv(network: FusionNetwork, i: int, D: np.ndarray) -> np.ndarray:
    """Inverse of node ``i``'s decoder-equivalent noise covariance.

    The equivalent noise is ``Sigma_n + (D^{-1} - Sigma_y^{-1})^{-1}``, which
    blows up as ``D -> Sigma_y`` (zero rate).  Its inverse stays bounded, so it
    is computed directly via the Woodbury identity
    ``Sigma_v^{-1} = Sigma_n^{-1} - Sigma_n^{-1} (Q + Sigma_n^{-1})^{-1} Sigma_n^{-1}``
    with ``Q = D^{-1} - Sigma_y^{-1}`` (PSD for any valid ``D``), using the
    network's cached inverses of ``Sigma_n`` and ``Sigma_y``.
    """
    Sn_inv = network.nodes[i].Sigma_n_inv
    Q = sym_part(np.linalg.inv(D) - network.sigma_y_inv[i])
    inner = np.linalg.solve(sym_part(Q + Sn_inv), Sn_inv)
    return sym_part(Sn_inv - Sn_inv @ inner)


def coding_noise_cov(sigma_y: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Test-channel noise covariance ``(D^{-1} - Sigma_y^{-1})^{-1}``.

    Finite only strictly inside the constraint set (``D`` strictly below
    ``Sigma_y``); the zero-rate boundary has infinite coding noise.
    """
    Q = sym_part(np.linalg.inv(D) - np.linalg.inv(sigma_y))
    ev = np.linalg.eigvalsh(Q)
    if ev[0] <= 0.0:
        raise InvalidAllocation("D is at the zero-rate boundary; coding noise is unbounded")
    return sym_part(np.linalg.inv(Q))


@dataclass(frozen=True)
class Snr:
    linear: float
    db: float


def output_snr(
    network: FusionNetwork, alloc: Allocation, validate: bool = True
) -> Snr:
    """Fused output SNR ``tr(Sigma_xd) / tr{[sum_i W_i Sigma_v_i^{-1} W_i^T]^{-1}}``."""
    if validate:
        check_allocation(network, alloc)
    gram = np.zeros((network.n, network.n))
    for i, (node, Di) in enumerate(zip(network.nodes, alloc.D)):
        Svi_inv = equivalent_noise_inv(network, i, Di)
        gram += node.W @ Svi_inv @ node.W.T
    gram = sym_part(gram)
    try:
        noise_cov = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("zero-information allocation: fused noise is unbounded") from exc
    linear = float(np.trace(network.Sigma_xd) / np.trace(noise_cov))
    if linear <= 0.0:
        raise SingularGram("fused noise power is not positive")
    return Snr(linear=linear, db=10.0 * np.log10(linear))


def _scalar_snr_db(network: FusionNetwork, D1: np.ndarray, D2: np.ndarray) -> np.ndarray:
    """``output_snr(network, Allocation(([[D1[k]]], [[D2[k]]])), validate=False).db``
    for every ``k`` of a two-node scalar network, elementwise.

    Each step of :func:`output_snr`'s chain on 1×1 matrices has an exact
    elementwise counterpart: ``inv([[x]])`` is ``1.0 / x``,
    ``solve([[a]], [[b]])`` is ``b / a`` (not ``b * (1.0 / a)``, which rounds
    differently), 1×1 products and traces are the product and the entry, and
    :func:`covrate.spd.sym_part` of a 1-D array is the ``0.5 * (x + x)`` it
    takes of a 1×1 matrix.  So, per node, with the cached ``Sn_inv`` and
    ``Sy_inv`` of :func:`equivalent_noise_inv` and ``Allocation``'s
    symmetrized ``D``::

        q = sym_part(1 / D - Sy_inv)
        s = sym_part(Sn_inv - Sn_inv * (Sn_inv / sym_part(q + Sn_inv)))
        gram += (w * s) * w

    then ``linear = Sigma_xd / (1 / sym_part(gram))`` and
    ``db = 10 log10(linear)``, in that order, which reproduces every float.
    Raises :class:`SingularGram` with ``output_snr``'s message at the first
    ``k`` where it raises: ``gram == 0`` (``inv`` fails) or ``linear <= 0``.
    """
    gram = np.zeros(len(D1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for node, Sy_inv, D in zip(network.nodes, network.sigma_y_inv, (D1, D2)):
            Sn_inv = node.Sigma_n_inv[0, 0]
            w = node.W[0, 0]
            q = sym_part(1.0 / sym_part(D) - Sy_inv[0, 0])
            s = sym_part(Sn_inv - Sn_inv * (Sn_inv / sym_part(q + Sn_inv)))
            gram += (w * s) * w
        gram = sym_part(gram)
        linear = network.Sigma_xd[0, 0] / (1.0 / gram)
        db = 10.0 * np.log10(linear)
    failed = (gram == 0.0) | (linear <= 0.0)
    if failed.any():
        if gram[np.argmax(failed)] == 0.0:
            raise SingularGram("zero-information allocation: fused noise is unbounded")
        raise SingularGram("fused noise power is not positive")
    return db


# --------------------------------------------------------------------------
# KKT system
# --------------------------------------------------------------------------


def kkt_terms(
    node: SensorNode, sigma_y: np.ndarray, D: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(Z, C)`` entering the stationarity conditions.

    ``Z = W Sn^{-1} (Sn^{-1} + D^{-1} - Sy^{-1})^{-1} Sn^{-1} W^T`` carries the
    allocation dependence (note ``W Sv^{-1} W^T = W Sn^{-1} W^T - Z``);
    ``C = W Sn^{-1} (Sn^{-1} - Sy^{-1})^{-1} Sn^{-1} W^T`` is its
    allocation-independent ceiling: ``Z`` is strictly below ``C`` in the PSD
    order for every finite ``D`` and approaches it as ``D`` grows.
    """
    Sn_inv = node.Sigma_n_inv
    Sy_inv = np.linalg.inv(sigma_y)
    WSn = node.W @ Sn_inv
    return _kkt_z(WSn, Sn_inv, Sy_inv, D), _kkt_ceiling(WSn, Sn_inv, Sy_inv)


def _kkt_z(WSn: np.ndarray, Sn_inv: np.ndarray, Sy_inv: np.ndarray, D: np.ndarray) -> np.ndarray:
    """``Z = W Sn^{-1} (Sn^{-1} + D^{-1} - Sy^{-1})^{-1} Sn^{-1} W^T`` from ``WSn = W Sn^{-1}``."""
    mid_z = np.linalg.inv(sym_part(Sn_inv + np.linalg.inv(D) - Sy_inv))
    return sym_part(WSn @ mid_z @ WSn.T)


def _kkt_ceiling(WSn: np.ndarray, Sn_inv: np.ndarray, Sy_inv: np.ndarray) -> np.ndarray:
    """``C = W Sn^{-1} (Sn^{-1} - Sy^{-1})^{-1} Sn^{-1} W^T`` from ``WSn = W Sn^{-1}``."""
    mid_c = np.linalg.inv(sym_part(Sn_inv - Sy_inv))
    return sym_part(WSn @ mid_c @ WSn.T)


@dataclass(frozen=True, eq=False)
class KktState:
    """Stationarity-system variables for one allocation."""

    Z: tuple[np.ndarray, ...]
    C: tuple[np.ndarray, ...]
    A_mat: np.ndarray
    lambda_mult: float


def kkt_state(
    network: FusionNetwork, alloc: Allocation, lambda_mult: float | None = None
) -> KktState:
    """Evaluate ``(Z_i, C_i, A)`` at an allocation.

    ``A`` is the fused gram ``S - sum_i Z_i``.  If ``lambda_mult`` is not
    given, the multiplier is fitted by least squares to the stationarity
    equations ``alpha_i lambda A^2 = Z_i - Z_i C_i^{-1} Z_i``; at an exact
    stationary point the fit recovers the true multiplier.
    """
    # kkt_terms(node, Sigma_y_i, D_i) on the cached inverses and ceilings.
    Zs = [
        _kkt_z(node.W @ node.Sigma_n_inv, node.Sigma_n_inv, Sy_inv, Di)
        for node, Sy_inv, Di in zip(network.nodes, network.sigma_y_inv, alloc.D)
    ]
    Cs = network.kkt_ceiling
    A = sym_part(network.noise_gram - sum(Zs))
    if lambda_mult is None:
        A2 = A @ A
        num, den = 0.0, 0.0
        for node, Z, C in zip(network.nodes, Zs, Cs):
            M = Z - Z @ np.linalg.solve(C, Z)
            num += node.alpha * float(np.tensordot(A2, M))
            den += node.alpha**2 * float(np.tensordot(A2, A2))
        lambda_mult = num / den if den > 0 else 0.0
    return KktState(Z=tuple(Zs), C=Cs, A_mat=A, lambda_mult=float(lambda_mult))


@dataclass(frozen=True)
class KktResiduals:
    """Frobenius/absolute residuals of the three stationarity conditions.

    ``stationarity``: max over nodes of ``||alpha_i lambda A^2 - Z_i + Z_i C_i^{-1} Z_i||_F``.
    ``multiplier``: ``||A - (S - sum_i Z_i)||_F``.
    ``budget``: ``|log of the determinant-product condition - log beta|`` where
    the condition's inner matrix ``Sn^{-1} W^T Z^{-1} W Sn^{-1} - Sn^{-1} + Sy^{-1}``
    reconstructs ``D_i^{-1}`` from ``Z_i``.
    """

    stationarity: float
    multiplier: float
    budget: float


def kkt_residuals(
    network: FusionNetwork, state: KktState, log_beta: float | None = None
) -> KktResiduals:
    """Residuals of the stationarity system at ``state`` (diagnostic; no raises).

    ``log_beta`` defaults to the network's budget value; pass the achieved
    value (``sum_i alpha_i logdet D_i``) to isolate internal consistency from
    budget deviation, e.g. for high-rate solutions whose achieved rate
    deliberately deviates from the budget.
    """
    A2 = state.A_mat @ state.A_mat
    stat = 0.0
    log_lhs = 0.0
    for node, Sy_inv, Z, C in zip(network.nodes, network.sigma_y_inv, state.Z, state.C):
        M = Z - Z @ np.linalg.solve(C, Z)
        stat = max(stat, float(np.linalg.norm(node.alpha * state.lambda_mult * A2 - M)))
        Sn_inv = node.Sigma_n_inv
        WSn = Sn_inv @ node.W.T
        try:
            inner = sym_part(WSn @ np.linalg.solve(Z, WSn.T) - Sn_inv + Sy_inv)
        except np.linalg.LinAlgError:
            log_lhs = np.inf
            break
        sign, ld = np.linalg.slogdet(inner)
        if sign <= 0:
            log_lhs = np.inf
            break
        log_lhs += -node.alpha * ld
    mult = float(np.linalg.norm(state.A_mat - (network.noise_gram - sum(state.Z))))
    target = network.log_beta if log_beta is None else float(log_beta)
    budget = float(abs(log_lhs - target)) if np.isfinite(log_lhs) else np.inf
    return KktResiduals(stationarity=stat, multiplier=mult, budget=budget)


# --------------------------------------------------------------------------
# High-rate allocator
# --------------------------------------------------------------------------


def highrate_rmin(network: FusionNetwork) -> float:
    """Feasibility threshold of the high-rate allocator (nats).

    Below this budget the high-rate multiplier equation has no root: the
    water-level product is bounded by ``|S|`` and the requested determinant
    budget exceeds what even infinite ``lambda`` provides.
    """
    _, ld_S = np.linalg.slogdet(network.noise_gram)
    n = network.n
    acc = 0.0
    for node, ld_y in zip(network.nodes, network.logdet_sigma_y):
        acc += node.alpha * (
            ld_y - n * np.log(node.alpha) - 2.0 * node.logdet_Sigma_n + 2.0 * node.logdet_W
        )
    return 0.5 * float(acc - ld_S)


@dataclass(frozen=True, eq=False)
class HighRateResult:
    """High-rate allocation plus the construction's internals.

    ``achieved_rate`` is the weighted sum-rate the returned allocation
    actually consumes; it differs from ``budget`` by the approximation error
    (always undershooting), which vanishes as the budget grows.
    ``node_valid``/``valid`` report whether the constructed distortions are
    SPD and dominated by the observation covariances — near the feasibility
    threshold the approximation can break down.
    """

    allocation: Allocation
    achieved_rate: float
    budget: float
    lambda_mult: float
    A_mat: np.ndarray
    S: np.ndarray
    r_min: float
    node_valid: tuple[bool, ...]
    valid: bool


def highrate_allocate(network: FusionNetwork) -> HighRateResult:
    """Distortion allocation from the high-rate stationarity approximation.

    Steps: form the analog gram ``S`` and its eigenvalues; reduce the
    determinant budget to the water constant ``gamma``; solve the scalar
    multiplier equation for ``lambda`` by bisection in ``log lambda``; build
    ``A`` from the per-eigenvalue quadratic ``lambda a^2 + a = s``; set
    ``Z_i = alpha_i lambda A^2`` and invert the ``Z``-definition for ``D_i``.

    Raises :class:`InfeasibleBudget` when ``R`` is below the threshold of
    :func:`highrate_rmin` (the multiplier equation has no root there).

    Each spectrum is taken once.  ``S`` takes one ``eigh``.  A node whose
    ``D_i^{-1}`` passes ``eigvalsh(D_i^{-1})[0] > 0`` takes one
    ``eigvalsh(D_i)``, which decides two things as :func:`check_allocation`
    and :func:`covrate.model._psd_repair` would: ``D_i <= Sigma_y_i`` by the
    Weyl screen of :func:`covrate.spd._weyl_accept` (with ``Sigma_y_i``'s
    spectrum from :attr:`FusionNetwork.sigma_y_eigvals`), falling back to
    :func:`_dominated`; and whether the repair can clip, by the rounding margin
    of :func:`_psd_repair_screened`, falling back to ``_psd_repair``'s
    ``eigh``.  The returned allocation carries the spectra of the matrices the
    repair left alone, so a validated :func:`output_snr` takes none again.
    """
    r_min = highrate_rmin(network)
    if network.R < r_min:
        raise InfeasibleBudget(
            f"budget R = {network.R:.6g} nats is below the high-rate "
            f"feasibility threshold {r_min:.6g}"
        )
    n = network.n
    S = network.noise_gram
    U_s, s = _eig_desc(S)
    log_gamma = network.log_beta
    for node in network.nodes:
        log_gamma -= node.alpha * (
            n * np.log(node.alpha) + 2.0 * node.logdet_Sigma_n - 2.0 * node.logdet_W
        )

    x, y = np.empty_like(s), np.empty_like(s)

    def g(t):
        # sum(2 log x - 2 log(sqrt(1 + x) + 1)) - n (log 4 + t) with x = 4 e^t s,
        # ufunc by ufunc in the buffers x and y.
        np.multiply(4.0 * np.exp(t), s, out=x)
        np.add(1.0, x, out=y)
        np.sqrt(y, out=y)
        np.add(y, 1.0, out=y)
        np.log(y, out=y)
        np.multiply(2.0, y, out=y)
        np.log(x, out=x)
        np.multiply(2.0, x, out=x)
        np.subtract(x, y, out=x)
        return float(np.add.reduce(x) - n * (np.log(4.0) + t)) - log_gamma

    t_lo = np.log(1e-18)
    for _ in range(600):
        if g(t_lo) < 0.0:
            break
        t_lo -= np.log(4.0)
    else:
        raise InfeasibleBudget("multiplier bracketing failed from below")
    t_hi = max(t_lo + np.log(4.0), 0.0)
    for _ in range(600):
        if g(t_hi) > 0.0:
            break
        t_hi += np.log(2.0)
    else:
        raise InfeasibleBudget(
            "budget is too close to the feasibility threshold: "
            "the multiplier equation has no reachable root"
        )
    t = bisect(g, t_lo, t_hi, xtol=1e-12, maxiter=200)
    lam = float(np.exp(t))

    a = 2.0 * s / (np.sqrt(1.0 + 4.0 * lam * s) + 1.0)  # root of lam*a^2 + a = s
    A = sym_part(U_s.T @ (a[:, None] * U_s))
    a2 = a**2

    Ds, spectra, node_valid, repaired = [], [], [], []
    for i, (node, Sy_inv, ev) in enumerate(
        zip(network.nodes, network.sigma_y_inv, network.sigma_y_eigvals)
    ):
        Z_inv = U_s.T @ (U_s / (node.alpha * lam * a2[:, None]))
        Sn_inv = node.Sigma_n_inv
        WSn = Sn_inv @ node.W.T
        D_inv = sym_part(WSn @ Z_inv @ WSn.T - Sn_inv + Sy_inv)
        ok = bool(np.linalg.eigvalsh(D_inv)[0] > 0.0)
        Di = sym_part(np.linalg.inv(D_inv))
        w, clipped = None, False
        if ok:
            _require_finite(Di, "A")  # the value tests _dominated starts with
            w = np.linalg.eigvalsh(Di)
            weyl = w[0] > 0.0 and _weyl_accept(w[-1], ev[0], ev[-1], ALLOC_TOL, n)
            ok = bool(weyl) or _dominated(network, i, Di)
            if ok:
                Di, clipped = _psd_repair_screened(Di, w)
                w = None if clipped else w
        Ds.append(Di)
        spectra.append(w)
        node_valid.append(ok)
        repaired.append(clipped)

    alloc = Allocation._with_eigvalsh(tuple(Ds), spectra)
    valid = all(node_valid)
    if valid:
        # weighted_sum_rate(network, alloc): a node psd_repair left alone
        # keeps its bits through Allocation, so its psd_leq verdict stands.
        achieved = float(
            sum(
                node.alpha * _node_rate(Di, not clipped or _dominated(network, i, Di), ld_y)
                for i, (node, Di, clipped, ld_y) in enumerate(
                    zip(network.nodes, alloc.D, repaired, network.logdet_sigma_y)
                )
            )
        )
    else:
        achieved = float("nan")
    return HighRateResult(
        allocation=alloc,
        achieved_rate=achieved,
        budget=network.R,
        lambda_mult=lam,
        A_mat=A,
        S=S,
        r_min=r_min,
        node_valid=tuple(node_valid),
        valid=valid,
    )


def _psd_repair_screened(D: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, bool]:
    """:func:`covrate.model._psd_repair` of an exactly symmetric finite ``D``
    whose ``eigvalsh`` is ``w``, without its ``eigh`` when ``w`` shows that
    ``eigh`` would find nothing to clip.

    ``_psd_repair`` returns ``D``'s bits unclipped iff the smallest eigenvalue
    ``eigh`` gives is ``>= 0``.  ``eigh`` and ``eigvalsh`` are backward stable
    (each returns the spectrum of a symmetric matrix within a small multiple of
    ``n eps ||D||`` of ``D``), so by Weyl's inequality each is within that of
    the exact spectrum and they differ by at most twice it (Golub & Van Loan,
    §8.1).  The margin ``kappa ||D||`` of :func:`covrate.spd._screen_slack`,
    ``kappa = 100 n eps``, covers both: ``w[0] > kappa w[-1]`` makes ``D``
    positive definite with ``||D|| = w[-1]``, and ``eigh``'s smallest
    eigenvalue positive.  Otherwise ``_psd_repair`` decides.
    """
    if w[0] > _screen_slack(D.shape[0], 0.0, w[-1]):
        return D, False
    return _psd_repair(D)


def highrate_state(network: FusionNetwork, result: HighRateResult) -> KktState:
    """KKT-state view of a high-rate solution (``Z_i = alpha_i lambda A^2``)."""
    A2 = result.A_mat @ result.A_mat
    Zs = tuple(node.alpha * result.lambda_mult * A2 for node in network.nodes)
    return KktState(
        Z=Zs, C=network.kkt_ceiling, A_mat=result.A_mat, lambda_mult=result.lambda_mult
    )


# --------------------------------------------------------------------------
# Scalar two-node closed form
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalarAllocationResult:
    """Closed-form scalar allocation with regime label and boundary sweep.

    ``(D1, D2)`` is the stationary point of the SNR on the rate-constraint
    curve; per the regime it is the unique maximizer (``R > r_max``), the
    unique minimizer (``R < r_min``), or infeasible/unclassified (between).
    The sweep walks the feasible constraint curve (log-spaced in ``D1``) and
    records the best point found, which is the operational answer whenever the
    stationary point is not the maximizer.
    """

    D1: float
    D2: float
    regime: str
    r_max: float
    r_min: float
    beta: float
    stationary_feasible: bool
    stationary_snr_db: float
    sweep_d1: np.ndarray
    sweep_d2: np.ndarray
    sweep_snr_db: np.ndarray
    best_d1: float
    best_d2: float
    best_snr_db: float


def scalar_allocate(network: FusionNetwork, sweep_points: int = 1000) -> ScalarAllocationResult:
    """Two-node scalar allocation: stationary point, regime, boundary sweep.

    Requires ``n = 1``, two nodes, equal weights ``1/2``, and equal mixing
    scalars (the closed form is derived under these assumptions); otherwise
    raises :class:`AssumptionViolated`.

    The SNRs are those of :func:`output_snr`, bit for bit, evaluated for the
    stationary point and then the whole sweep by :func:`_scalar_snr_db`.  The
    sweep needs both ends of the curve ``D1 D2 = beta^2`` as positive floats:
    with ``beta = e^{-2R} sqrt(Sy1 Sy2)``, ``beta^2 / max(Sy1, Sy2) > 0``,
    which on unit-scale networks holds up to about 186 nats (186.35 on the
    worked example).  Larger budgets raise :class:`InvalidParam`.
    """
    if network.n != 1 or network.n_nodes != 2:
        raise AssumptionViolated("closed form needs two scalar nodes")
    w1 = float(network.nodes[0].W[0, 0])
    w2 = float(network.nodes[1].W[0, 0])
    if abs(network.nodes[0].alpha - 0.5) > 1e-12 or abs(network.nodes[1].alpha - 0.5) > 1e-12:
        raise AssumptionViolated("closed form needs alpha_1 = alpha_2 = 1/2")
    if abs(w1 - w2) > 1e-12 * max(abs(w1), abs(w2)):
        raise AssumptionViolated("closed form needs equal mixing scalars")

    Sy1 = float(network.sigma_y[0][0, 0])
    Sy2 = float(network.sigma_y[1][0, 0])
    Sn1 = float(network.nodes[0].Sigma_n[0, 0])
    Sn2 = float(network.nodes[1].Sigma_n[0, 0])
    R = network.R

    Sig1 = Sn1 - Sn1**2 / Sy1
    Sig2 = Sn2 - Sn2**2 / Sy2
    beta = float(np.exp(-2.0 * R) * np.sqrt(Sy1 * Sy2))

    r_max = 0.25 * float(np.log(max(Sig1, Sig2) ** 2 / ((Sn1 - Sig1) * (Sn2 - Sig2))))
    r_min = 0.25 * float(np.log(min(Sig1, Sig2) ** 2 / ((Sn1 - Sig1) * (Sn2 - Sig2))))

    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = beta * (Sn1 / Sn2) * (Sn1 * Sn2 - Sig2 * beta) / (Sn1 * Sn2 - Sig1 * beta)
        d2 = beta * (Sn2 / Sn1) * (Sn1 * Sn2 - Sig1 * beta) / (Sn1 * Sn2 - Sig2 * beta)
    d1, d2 = float(d1), float(d2)

    if R > r_max:
        regime = REGIME_MAXIMIZER
    elif R < r_min:
        regime = REGIME_MINIMIZER
    else:
        regime = REGIME_BOUNDARY

    feasible = (
        np.isfinite(d1)
        and np.isfinite(d2)
        and 0.0 < d1 <= Sy1 * (1.0 + 1e-12)
        and 0.0 < d2 <= Sy2 * (1.0 + 1e-12)
    )
    if feasible:
        stat_snr = _scalar_snr_db(network, np.array([min(d1, Sy1)]), np.array([min(d2, Sy2)]))[0]
    else:
        stat_snr = float("nan")

    # Feasible constraint curve: D2 = beta^2 / D1 with both coordinates below
    # their observation variances.
    lo = beta**2 / Sy2
    hi = Sy1
    if not min(lo, beta**2 / hi) > 0.0:
        raise InvalidParam(
            f"rate budget R = {R:.6g} nats is too large for the scalar sweep: "
            f"the constraint curve D1 * D2 = beta^2 underflows (beta = {beta:.3g})"
        )
    grid = np.geomspace(lo, hi, sweep_points)
    snrs = _scalar_snr_db(network, grid, beta**2 / grid)
    k = int(np.argmax(snrs))

    return ScalarAllocationResult(
        D1=d1,
        D2=d2,
        regime=regime,
        r_max=r_max,
        r_min=r_min,
        beta=beta,
        stationary_feasible=bool(feasible),
        stationary_snr_db=stat_snr,
        sweep_d1=grid,
        sweep_d2=beta**2 / grid,
        sweep_snr_db=snrs,
        best_d1=float(grid[k]),
        best_d2=float(beta**2 / grid[k]),
        best_snr_db=float(snrs[k]),
    )


# --------------------------------------------------------------------------
# Random valid allocations
# --------------------------------------------------------------------------


def random_valid_allocations(
    network: FusionNetwork,
    base: Allocation,
    beta_w: float | Sequence[float],
    eta_w: float | Sequence[float],
    L: int,
    rng: np.random.Generator,
    max_consecutive_failures: int = 10**6,
) -> list[Allocation]:
    """Generate ``L`` budget-exact allocations around (or away from) ``base``.

    Each node's draw keeps the base eigenvectors and perturbs the spectrum:
    ``D_i = U_i^T (beta_w_i L_i + eta_w_i Theta_i) U_i`` with ``Theta_i``
    diagonal uniform on ``[0, 5 iota_i]`` (``iota_i`` = largest base
    eigenvalue).  Nodes before the last are redrawn until valid; the last
    node's draw is rescaled in closed form so the weighted sum-rate equals the
    network budget exactly, and redrawn (alone) if the rescaled matrix is
    invalid.  If the last node keeps failing — the leading draws can strand
    the budget when there are many nodes — the whole allocation is restarted.
    Raises :class:`GenerationStalled` after ``max_consecutive_failures``
    rejections in a row.

    A draw is valid when its spectrum is positive and
    ``psd_leq(D_i, Sigma_y_i, tol=ALLOC_TOL)`` holds.  Since ``D_i`` is
    diagonal in the basis ``U_i``, two exact O(n) bounds decide most draws
    first (:func:`covrate.spd._psd_leq_screen`): the Rayleigh quotient of
    ``Sigma_y_i - D_i`` on a row of ``U_i`` bounds its smallest eigenvalue
    from above (reject), and Weyl's inequality bounds it from below by
    ``lambda_min(Sigma_y_i) - max(d)`` (accept).  Only draws between the
    bounds take the full test (:func:`_dominated`), so every verdict is the
    one ``psd_leq`` gives.

    Candidate spectra are drawn in blocks of 1, 2, 4, ... up to
    :data:`DRAW_BLOCK` rows from one ``rng.uniform`` call, which consumes the
    same numbers as that many one-row calls.  When a row is accepted, the
    generator is rewound to the block's start and advanced past exactly the
    rows up to it; a block is never longer than the draws left before a stall
    or a restart.  The allocations, the stall (its message and its point) and
    the generator's final state are therefore those of drawing and testing
    one candidate at a time, for any bit generator.  The leading nodes are
    screened a block at a time; the last node's rows are rescaled and
    screened one at a time with the per-draw expressions, so the returned
    matrices are bit-identical to that per-draw loop's.
    """
    if L < 1:
        raise InvalidParam("L must be >= 1")
    if len(base.D) != network.n_nodes:
        raise InvalidAllocation("base allocation does not match the network")
    n, N = network.n, network.n_nodes
    betas = np.broadcast_to(np.asarray(beta_w, dtype=float), (N,))
    etas = np.broadcast_to(np.asarray(eta_w, dtype=float), (N,))
    if np.any(betas < 0) or np.any(etas < 0):
        raise InvalidParam("perturbation weights must be nonnegative")

    eigs = base.eig_desc
    diags = [_rotated_diag(U, Syi) for (U, _), Syi in zip(eigs, network.sigma_y)]
    alphas = network.alphas
    a_last = alphas[-1]
    log_beta = network.log_beta

    def first_valid(i: int, limit: int, lead_logdet: float | None = None):
        """Test up to ``limit`` draws of node ``i`` in order; return the
        number rejected before the first valid one, its spectrum and matrix
        (``None, None`` if all ``limit`` fail).  The last node passes
        ``lead_logdet`` to have its draws rescaled onto the budget."""
        U, lam = eigs[i]
        ev = network.sigma_y_eigvals[i]
        screen = (diags[i], ev[0], ev[-1], ALLOC_TOL)
        high = 5.0 * lam[0]
        used, k = 0, 1
        while used < limit:
            k = min(k, limit - used)
            state = rng.bit_generator.state if k > 1 else None
            raw = betas[i] * lam + etas[i] * rng.uniform(0.0, high, size=(k, n))
            live = np.all(raw > 0.0, axis=1)
            if lead_logdet is None:
                verdicts = _psd_leq_screen(raw, *screen)
                live &= verdicts != SCREEN_REJECT
            for j in np.flatnonzero(live):
                d = raw[j]
                if lead_logdet is None:
                    verdict = verdicts[j]
                else:  # rescale onto the budget, one row at a time
                    log_c = (
                        log_beta - lead_logdet - a_last * float(np.log(d).sum())
                    ) / (n * a_last)
                    d = np.exp(log_c) * d
                    verdict = _psd_leq_screen(d, *screen)
                if verdict == SCREEN_REJECT:
                    continue
                Di = sym_part(U.T @ (d[:, None] * U))
                if verdict == SCREEN_ACCEPT or _dominated(network, i, Di):
                    if j + 1 < k:  # give back the draws after row j
                        rng.bit_generator.state = state
                        rng.uniform(0.0, high, size=(j + 1, n))
                    return used + int(j), d, Di
            used += k
            k = min(2 * k, DRAW_BLOCK)
        return used, None, None

    def stalled(failures: int) -> GenerationStalled:
        return GenerationStalled(
            f"{failures} consecutive invalid draws; "
            "perturbation weights are incompatible with the constraints"
        )

    out: list[Allocation] = []
    failures = 0  # consecutive rejections since the last emitted allocation
    while len(out) < L:
        Ds: list[np.ndarray] = []
        lead_logdet = 0.0
        for i in range(N - 1):
            rejected, d, Di = first_valid(i, max_consecutive_failures - failures + 1)
            failures += rejected
            if Di is None:
                raise stalled(failures)
            Ds.append(Di)
            lead_logdet += alphas[i] * float(np.log(d).sum())
        # The last node gets 1000 tries, then the leading draws restart.
        tries = min(1000, max_consecutive_failures - failures + 1)
        rejected, _, Dn = first_valid(N - 1, tries, lead_logdet)
        failures += rejected
        if Dn is not None:
            out.append(Allocation(D=tuple(Ds + [Dn])))
            failures = 0
        elif failures > max_consecutive_failures:
            raise stalled(failures)
    return out

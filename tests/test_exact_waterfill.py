"""The exact water-fill of ``covrate.special`` against exact rational roots,
and the vectorized eigenvector sign fix of ``spd._eig_desc`` against the row
loop it replaced.

Both water-fillings (the MSE level and the relay's ``s``) are checked on the
float spectra the solvers themselves see: the exact root of the float
equation is computed with :class:`fractions.Fraction`, and the float answer
must lie within a backward-error bound of it, ``8 (n + 2) eps`` times the
sum of the levels (the rounding of the prefix sums that pick the active set,
and of the closing linear solve).  On dyadic levels every float operation of
the active-set count is exact, so there it must equal the exact count,
breakpoints included.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covrate import spd, special
from covrate.errors import InfiniteRate
from covrate.model import ConditionalStats, JointGaussianModel
from covrate.special import _water_active, mse_rdf, relay_solve, relay_supremum

EPS = np.finfo(float).eps


# --------------------------------------------------------------------------
# Exact references
# --------------------------------------------------------------------------


def exact_active(levels, target) -> int:
    """Levels strictly above the root of ``sum_i max(l_i - t, 0) = target``,
    in exact arithmetic on the float inputs: those whose breakpoint value
    ``sum_{j<i} (l_j - l_i)`` is below ``target``."""
    L = [Fraction(float(x)) for x in levels]
    T = Fraction(float(target))
    return sum(sum(L[:i]) - i * L[i] < T for i in range(len(L)))


def exact_drain_root(levels, target) -> Fraction:
    """Exact root ``t`` of ``sum_i max(l_i - t, 0) = target`` (levels descending)."""
    k = exact_active(levels, target)
    return (sum(Fraction(float(x)) for x in levels[:k]) - Fraction(float(target))) / k


def exact_fill_root(levels, budget) -> Fraction:
    """Exact root ``x`` of ``sum_i min(x, l_i) = budget`` (levels descending);
    ``l_0`` when the float budget is below the float sum but not the exact
    one (the left side then reaches the budget only at ``x = l_0``)."""
    L = [Fraction(float(x)) for x in levels]
    B = Fraction(float(budget))
    k = sum(i * L[i] + sum(L[i:]) > B for i in range(len(L)))
    return (B - sum(L[k:])) / k if k else L[0]


def backward_bound(levels) -> float:
    return 8.0 * (len(levels) + 2) * EPS * float(np.sum(levels))


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------


def _expand(groups) -> np.ndarray:
    """Descending levels from ``(value, multiplicity)`` groups (ties)."""
    return np.array(sorted((v for v, m in groups for _ in range(m)), reverse=True))


float_levels = st.lists(
    st.tuples(st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=6,
).map(_expand)

dyadic_levels = st.lists(
    st.tuples(st.integers(min_value=0, max_value=64), st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=6,
).map(lambda groups: _expand([(v / 8.0, m) for v, m in groups]))

#: Where the target sits: anywhere, just above 0, just below its supremum,
#: or exactly on a breakpoint of the float equation.
placements = st.sampled_from(["uniform", "near-zero", "near-top", "breakpoint"])


def _drain_values(levels: np.ndarray) -> np.ndarray:
    """Breakpoint values ``sum_{j<i} l_j - i l_i`` in float (as the solver forms them)."""
    return np.cumsum(levels) - np.arange(1, levels.size + 1) * levels


# --------------------------------------------------------------------------
# The active-set count
# --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(levels=dyadic_levels, i=st.integers(min_value=0, max_value=17),
       u=st.floats(min_value=0.0, max_value=1.0))
def test_active_count_is_exact_on_dyadic_levels(levels, i, u):
    """Breakpoint targets put the root exactly on a level, which is then not
    active (it lies at, not above, the water)."""
    h = _drain_values(levels)
    total = float(levels.sum())
    for target in (float(h[i % levels.size]), u * total):
        if 0.0 < target < total:
            assert _water_active(levels, target) == exact_active(levels, target)


def test_active_count_at_breakpoints_and_ties():
    levels = np.array([3.0, 1.0, 1.0, 0.5])
    # Breakpoint values 0, 2, 2, 3.5: the root sits on a level at 2 and 3.5.
    assert [_water_active(levels, t) for t in (1.0, 2.0, 3.0, 3.5, 4.0)] == [1, 1, 3, 3, 4]
    assert _water_active(np.array([2.0]), 1.0) == 1          # n = 1


# --------------------------------------------------------------------------
# Both water-fills through their solvers
# --------------------------------------------------------------------------


def _diagonal_stats(x_given_z: np.ndarray, x_given_yz: np.ndarray) -> ConditionalStats:
    """Statistics with diagonal ``Sigma_x_given_z`` and ``Sigma_x_given_yz``."""
    n = x_given_z.size
    model = JointGaussianModel.without_z(np.eye(n), np.eye(n), np.zeros((n, n)))
    return ConditionalStats(
        model=model,
        Sigma_x_given_z=np.diag(x_given_z),
        Sigma_x_given_yz=np.diag(x_given_yz),
        Sigma_y_given_z=np.eye(n),
        A=np.eye(n),
        B=np.zeros((n, 0)),
        Sigma_yprime_given_z=np.diag(x_given_z - x_given_yz),
    )


def _place(kind: str, top: float, breakpoints: np.ndarray, u: float, i: int) -> float:
    if kind == "uniform":
        return u * top
    if kind == "near-zero":
        return (1e-12 + 1e-9 * u) * top
    if kind == "near-top":
        return (1.0 - 1e-12 - 1e-9 * u) * top
    return float(breakpoints[i % breakpoints.size])


@settings(max_examples=300, deadline=None)
@given(levels=float_levels, kind=placements, u=st.floats(min_value=0.01, max_value=0.99),
       i=st.integers(min_value=0, max_value=17))
def test_mse_water_level_matches_exact_root(levels, kind, u, i):
    stats = _diagonal_stats(levels, np.zeros(levels.size))
    lam = stats.gap_eig[1]
    n = lam.size
    # Breakpoints of sum_i min(x, lam_i): its values at x = lam_i.
    fills = float(lam.sum()) - _drain_values(lam)
    D = _place(kind, float(lam.sum()), fills, u, i) / n
    budget = n * D - float(np.trace(stats.Sigma_x_given_yz))    # as mse_rdf forms it
    assume(0.0 < budget < lam.sum())
    level = mse_rdf(stats, D).water_level
    assert abs(Fraction(level) - exact_fill_root(lam, budget)) <= backward_bound(lam)


@settings(max_examples=300, deadline=None)
@given(mu=float_levels, kind=placements, u=st.floats(min_value=0.01, max_value=0.99),
       i=st.integers(min_value=0, max_value=17))
def test_relay_water_level_matches_exact_root(mu, kind, u, i):
    mu = mu / 1e3 * 0.999                                    # in (0, 1)
    stats = _diagonal_stats(np.ones(mu.size), 1.0 - mu)
    R_sup = relay_supremum(stats)
    res = relay_solve(stats, 1e-3 * R_sup)                   # any target gives mu
    s_levels = -np.log1p(-res.mu)                            # as relay_solve forms them
    R_I = 0.5 * _place(kind, 2.0 * R_sup, _drain_values(s_levels), u, i)
    assume(0.0 < R_I < R_sup and abs(R_I - R_sup) > 1e-12 * max(R_sup, 1.0))
    assume(2.0 * R_I < s_levels.sum())                       # the float equation has a root
    gamma = relay_solve(stats, R_I).gamma
    s_star = exact_drain_root(s_levels, 2.0 * R_I)
    bound = backward_bound(s_levels)
    assert s_star >= -bound
    assert abs(gamma - float(-np.expm1(-float(s_star)))) <= bound + 4.0 * EPS


def test_relay_target_past_the_float_spectrum_is_at_the_supremum(monkeypatch):
    """``R_sup`` comes from log-determinants and the water-fill from the
    spectrum; a target below the first but at or past half the spectrum's
    sum has no positive water level, and is refused as at the supremum."""
    stats = _diagonal_stats(np.ones(3), np.array([0.5, 0.25, 0.125]))
    s_sum = float(-np.log1p(-relay_solve(stats, 0.1).mu).sum())
    monkeypatch.setattr(special, "relay_supremum", lambda st: 0.5 * s_sum * (1.0 + 1e-6))
    with pytest.raises(InfiniteRate):
        relay_solve(stats, 0.5 * s_sum)
    assert relay_solve(stats, 0.5 * s_sum * (1.0 - 1e-6)).gamma > 0.0


def test_mse_water_level_with_one_component():
    stats = _diagonal_stats(np.array([2.0]), np.zeros(1))
    assert mse_rdf(stats, 0.5).water_level == 0.5
    assert mse_rdf(stats, 0.5).rate == 0.5 * np.log(4.0)


# --------------------------------------------------------------------------
# Eigenvector signs
# --------------------------------------------------------------------------


def reference_eig_desc(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`covrate.spd.sym_eig_desc` of an exactly symmetric float matrix, unchecked."""
    w, Q = np.linalg.eigh(A)            # ascending, columns are eigenvectors
    U = Q.T[::-1].copy()                # descending, rows are eigenvectors
    lam = w[::-1].copy()
    # Deterministic sign: largest-|entry| of each row made positive.
    for i in range(U.shape[0]):
        j = int(np.argmax(np.abs(U[i])))
        if U[i, j] < 0:
            U[i] = -U[i]
    return U, lam


def _same(a, b) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 32])
def test_eig_desc_matches_row_loop(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        G = rng.standard_normal((n, n))
        A = spd.sym_part(G + G.T)
        assert _same(spd._eig_desc(A), reference_eig_desc(A))


def test_eig_desc_tied_maxima_take_the_first(monkeypatch):
    """Rows whose largest |entry| is tied between entries of opposite sign:
    the first of them decides, in both directions and with a zero row."""
    r = 0.5
    Q = np.array([
        [r, -r, r, -r],
        [-r, r, -r, r],
        [r, r, -r, -r],
        [-r, -r, r, r],
    ]).T                                 # eigh returns eigenvectors as columns
    w = np.arange(4.0)
    monkeypatch.setattr(np.linalg, "eigh", lambda A: (w, Q))
    got = spd._eig_desc(np.eye(4))
    want = reference_eig_desc(np.eye(4))
    assert _same(got, want)
    assert (got[0][np.arange(4), np.argmax(np.abs(got[0]), axis=1)] > 0).all()


def test_eig_desc_on_matrices_with_tied_entries():
    for A in (np.array([[2.0, 1.0], [1.0, 2.0]]), np.kron(np.eye(3), [[1.0, -1.0], [-1.0, 1.0]]),
              np.ones((4, 4)), np.zeros((3, 3))):
        assert _same(spd._eig_desc(A), reference_eig_desc(A))

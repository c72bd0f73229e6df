"""The scalar allocator's elementwise SNR kernel against the per-point loop
it replaces.

``reference_scalar_allocate`` below is a verbatim copy of ``scalar_allocate``
as it was when every sweep point built an ``Allocation`` and called
``output_snr(validate=False)`` (its ``snr_db`` closure).  The production
function must return equal floats in every field, and raise the same error
with the same message wherever the reference raises.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covrate.cli import main
from covrate.errors import AssumptionViolated, InvalidParam
from covrate.fusion import (
    REGIME_BOUNDARY,
    REGIME_MAXIMIZER,
    REGIME_MINIMIZER,
    Allocation,
    FusionNetwork,
    ScalarAllocationResult,
    SensorNode,
    output_snr,
    scalar_allocate,
)
from covrate.jsonio import dump_json, network_to_json
from covrate.simkit import scalar_example_network


def reference_scalar_allocate(
    network: FusionNetwork, sweep_points: int = 1000
) -> ScalarAllocationResult:
    """Two-node scalar allocation: stationary point, regime, boundary sweep."""
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

    def snr_db(D1: float, D2: float) -> float:
        alloc = Allocation(D=(np.array([[D1]]), np.array([[D2]])))
        return output_snr(network, alloc, validate=False).db

    feasible = (
        np.isfinite(d1)
        and np.isfinite(d2)
        and 0.0 < d1 <= Sy1 * (1.0 + 1e-12)
        and 0.0 < d2 <= Sy2 * (1.0 + 1e-12)
    )
    stat_snr = snr_db(min(d1, Sy1), min(d2, Sy2)) if feasible else float("nan")

    # Feasible constraint curve: D2 = beta^2 / D1 with both coordinates below
    # their observation variances.
    lo = beta**2 / Sy2
    hi = Sy1
    grid = np.geomspace(lo, hi, sweep_points)
    snrs = np.array([snr_db(float(g), float(beta**2 / g)) for g in grid])
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


FIELDS = (
    "D1", "D2", "regime", "r_max", "r_min", "beta", "stationary_feasible",
    "stationary_snr_db", "sweep_d1", "sweep_d2", "sweep_snr_db",
    "best_d1", "best_d2", "best_snr_db",
)


def outcome(fn, *args, **kwargs):
    """``("ok", value)`` or the exception's type name and message."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the comparison is of whatever is raised
        return type(exc).__name__, str(exc)


def same(a, b) -> bool:
    """Equal arrays or values, of the same type, with NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def assert_same_as_reference(network: FusionNetwork, sweep_points: int = 1000) -> str:
    """Every field equal, or the same error; returns the outcome's kind."""
    with np.errstate(all="ignore"):  # the reference warns near underflow
        ref = outcome(reference_scalar_allocate, network, sweep_points)
    got = outcome(scalar_allocate, network, sweep_points)
    if ref[0] != "ok":
        assert got == ref
        return ref[0]
    assert got[0] == "ok", got
    for field in FIELDS:
        assert same(getattr(got[1], field), getattr(ref[1], field)), field
    return "ok"


def scalar_net(Sn1: float, Sn2: float, R: float, w: float = 1.0, sxd: float = 1.0) -> FusionNetwork:
    return FusionNetwork(
        Sigma_xd=np.array([[sxd]]),
        nodes=(
            SensorNode(W=np.array([[w]]), Sigma_n=np.array([[Sn1]]), alpha=0.5),
            SensorNode(W=np.array([[w]]), Sigma_n=np.array([[Sn2]]), alpha=0.5),
        ),
        R=R,
    )


@pytest.mark.parametrize("sweep_points", [1, 2, 100, 1000])
@pytest.mark.parametrize("R", [0.0, 1e-12, 1e-3, 0.5, 1.0, 2.0, 50.0, 150.0])
def test_worked_example_matches_reference(R, sweep_points):
    kind = assert_same_as_reference(scalar_example_network(R), sweep_points)
    assert kind == ("SingularGram" if R == 0.0 else "ok")


@pytest.mark.parametrize("R", [0.0, 0.3, 1.0, 3.0, 40.0])
def test_equal_noises_match_reference(R):
    net = scalar_net(0.15, 0.15, R)
    assert assert_same_as_reference(net) == ("SingularGram" if R == 0.0 else "ok")
    if R > 0.0:
        res = scalar_allocate(net)
        assert res.r_max == res.r_min


@pytest.mark.parametrize("w, sxd", [(2.5, 1.0), (0.3, 1.0), (1.0, 4.0), (-1.7, 0.02)])
@pytest.mark.parametrize("R", [0.0, 0.2, 1.0, 2.5, 20.0])
def test_mixing_and_source_scale_match_reference(w, sxd, R):
    assert_same_as_reference(scalar_net(0.3, 0.08, R, w=w, sxd=sxd))


@settings(max_examples=300, deadline=None)
@given(
    Sn1=st.floats(min_value=0.05, max_value=0.5),
    Sn2=st.floats(min_value=0.05, max_value=0.5),
    R=st.floats(min_value=0.25, max_value=3.0),
)
def test_allocate_workload_distribution_matches_reference(Sn1, Sn2, R):
    """The scalar requests of the ``allocate`` benchmark: ``Sn ~ U(0.05, 0.5)^2``,
    ``R ~ U(0.25, 3)``."""
    assert assert_same_as_reference(scalar_net(Sn1, Sn2, R)) == "ok"


@pytest.mark.parametrize("R", [200.0, 400.0])
def test_budget_beyond_the_sweep_range_raises_invalid_param(R):
    with pytest.raises(InvalidParam, match=f"R = {R:g} nats"):
        scalar_allocate(scalar_example_network(R))


def test_budget_where_only_the_last_sweep_point_underflows_raises_invalid_param():
    """With ``Sy1 = 3 > 2 Sy2``, ``beta^2 / Sy1`` underflows to 0 while
    ``beta^2 / Sy2`` does not; the per-point loop then inverted ``D2 = 0``."""
    net = scalar_net(2.0, 0.1, 186.30776942355888)
    beta_sq = (np.exp(-2.0 * net.R) * np.sqrt(net.sigma_y[0][0, 0] * net.sigma_y[1][0, 0])) ** 2
    assert beta_sq / net.sigma_y[1][0, 0] > 0.0 and beta_sq / net.sigma_y[0][0, 0] == 0.0
    with pytest.raises(InvalidParam, match="R = 186.308 nats"):
        scalar_allocate(net)


def test_largest_budgets_below_the_range_still_sweep():
    res = scalar_allocate(scalar_example_network(186.0))
    assert res.sweep_d1[0] > 0.0 and res.sweep_d2[-1] > 0.0
    assert_same_as_reference(scalar_example_network(186.0))


def test_cli_allocate_scalar_beyond_the_sweep_range_exits_1(capsys, tmp_path):
    net_path = tmp_path / "net.json"
    dump_json(network_to_json(scalar_example_network(200.0)), net_path)
    code = main(["allocate-scalar", "--network", str(net_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    err_doc = json.loads(captured.err)
    assert err_doc["error"] == "InvalidParam"
    assert "R = 200 nats" in err_doc["message"]
    assert "Traceback" not in captured.err

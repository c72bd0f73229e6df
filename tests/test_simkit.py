"""Sampling, Monte Carlo validation, and the experiment runners."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from covrate.errors import InvalidParam
from covrate.fusion import Allocation, scalar_allocate, weighted_sum_rate
from covrate.model import analyze
from covrate.simkit import (
    ExperimentSpec,
    RngStream,
    exp_cov,
    mc_validate_rdf,
    mc_validate_snr,
    random_model,
    run_experiment,
    sample_gaussian,
    scalar_example_network,
    two_node_network,
    uniform_allocation,
    EXPERIMENTS,
)
from conftest import random_spd, rel_fro, scalar_remote_model


def test_exp_cov_identity_and_reference_values():
    assert np.allclose(exp_cov(3, 1.0, 0.0), np.eye(3))
    assert np.allclose(exp_cov(2, 1.0, 0.9), [[1.0, 0.9], [0.9, 1.0]])
    w = np.linalg.eigvalsh(exp_cov(8, 0.01, 0.3))
    assert w[0] > 0.0


def test_exp_cov_rejects_bad_parameters():
    for args in [(4, 1.0, 1.0), (4, 1.0, -1.0), (4, 0.0, 0.5), (0, 1.0, 0.5)]:
        with pytest.raises(InvalidParam):
            exp_cov(*args)


def test_rng_stream_determinism():
    a = RngStream(seed=42).generator().standard_normal(8)
    b = RngStream(seed=42).generator().standard_normal(8)
    c = RngStream(seed=42, stream=3).generator().standard_normal(8)
    d = RngStream(seed=42).substream(3).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(c, d)


def test_sample_gaussian_moments():
    stream = RngStream(seed=1)
    x = sample_gaussian(np.array([[1.0]]), 1_000_000, stream)
    var = float(x.var())
    assert 0.99 <= var <= 1.01
    y = sample_gaussian(np.diag([1.0, 4.0]), 200_000, RngStream(seed=2))
    cross = float((y[:, 0] * y[:, 1]).mean())
    assert abs(cross) < 3 * np.sqrt(4.0 / 200_000) * 3


def test_sample_gaussian_covariance_bound():
    rng = np.random.default_rng(81)
    Sigma = random_spd(3, rng)
    N = 200_000
    x = sample_gaussian(Sigma, N, RngStream(seed=3))
    emp = x.T @ x / N
    bound = 3.0 * np.sqrt(2.0 / N) * np.linalg.norm(Sigma, 2)
    assert np.max(np.abs(emp - Sigma)) < bound


def test_mc_validate_rdf_zero_rate():
    m = scalar_remote_model()
    rep = mc_validate_rdf(m, np.array([[1.5]]), 100_000, RngStream(seed=4))
    assert abs(rep.emp_error_cov[0, 0] - 1.0) < 0.05
    assert rep.dominated


def test_mc_validate_rdf_scalar_worked_example():
    m = scalar_remote_model()
    rep = mc_validate_rdf(m, np.array([[0.5]]), 100_000, RngStream(seed=5))
    assert abs(rep.emp_error_cov[0, 0] - 0.5) < 0.025
    assert rep.frob_rel_dev <= 0.05
    assert rep.dominated
    assert abs(rep.error_cov[0, 0] - 0.5) < 1e-12


def test_mc_validate_rdf_random_model():
    rng = np.random.default_rng(82)
    m = random_model(3, 4, 2, rng)
    st = analyze(m)
    D = st.Sigma_x_given_yz + 0.5 * random_spd(3, rng, jitter=0.2)
    rep = mc_validate_rdf(m, D, 100_000, RngStream(seed=6))
    assert rep.frob_rel_dev <= 0.05
    assert rep.dominated
    assert rep.N == 100_000


def test_mc_validate_snr_scalar_example():
    net = scalar_example_network(2.0)
    res = scalar_allocate(net)
    alloc = Allocation(D=(np.array([[res.D1]]), np.array([[res.D2]])))
    rep = mc_validate_snr(net, alloc, 100_000, RngStream(seed=7))
    assert rep.abs_db_dev <= 0.2


def test_mc_validate_snr_high_rate_degenerate():
    # near-noiseless sensors at high rate: both SNRs land far above 40 dB
    net = two_node_network(2, 30.0, (0.0, 0.0), (1e-4, 1e-4))
    alloc = uniform_allocation(net)
    rep = mc_validate_snr(net, alloc, 20_000, RngStream(seed=8))
    assert rep.analytic_snr_db >= 40.0
    assert rep.emp_snr_db >= 40.0


def test_uniform_allocation_spends_budget_exactly():
    net = two_node_network(8, 20.0, (0.9, 0.3), (0.01, 0.02))
    alloc = uniform_allocation(net)
    assert abs(weighted_sum_rate(net, alloc) - net.R) < 1e-9


def test_experiment_spec_validation():
    with pytest.raises(InvalidParam):
        ExperimentSpec("not-an-experiment", seed=1)
    with pytest.raises(InvalidParam):
        ExperimentSpec("scalar-sweep", seed=1, params={"bogus": 2}).merged_params()
    assert set(EXPERIMENTS) >= {"local-max", "scalar-sweep", "mc-validate"}


def test_run_experiment_scalar_sweep(tmp_path: Path):
    spec = ExperimentSpec("scalar-sweep", seed=11, params={"sweep_points": 200})
    doc = run_experiment(spec, tmp_path)
    csv_path = tmp_path / "scalar-sweep.csv"
    json_path = tmp_path / "scalar-sweep.json"
    assert csv_path.exists() and json_path.exists()
    rates = doc["summary"]["rates"]
    assert rates["0.5"]["regime"] == "Minimizer"
    assert rates["1.0"]["regime"] == "Boundary"
    assert rates["2.0"]["regime"] == "Maximizer"
    header = csv_path.read_text().splitlines()
    meta = json.loads(header[0][2:])
    assert meta["seed"] == 11
    assert header[1].split(",")[0] == "variant"
    on_disk = json.loads(json_path.read_text())
    assert on_disk["summary"]["rates"]["2.0"]["regime"] == "Maximizer"


def test_run_experiment_deterministic_bytes(tmp_path: Path):
    spec = ExperimentSpec("scalar-sweep", seed=5, params={"sweep_points": 100})
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")
    assert (tmp_path / "a/scalar-sweep.csv").read_bytes() == (
        tmp_path / "b/scalar-sweep.csv"
    ).read_bytes()
    assert (tmp_path / "a/scalar-sweep.json").read_bytes() == (
        tmp_path / "b/scalar-sweep.json"
    ).read_bytes()


def test_run_experiment_highrate_accuracy_narrow(tmp_path: Path):
    spec = ExperimentSpec(
        "highrate-accuracy",
        seed=13,
        params={"R_start": 60.0, "R_stop": 160.0, "R_step": 50.0},
    )
    doc = run_experiment(spec, tmp_path)
    s = doc["summary"]
    assert s["R_grid"] == [60.0, 110.0, 160.0]
    errs = s["rate_error_nats"]
    assert len(errs) == 3
    assert s["n_invalid"] == 0
    assert errs[0] > errs[1] > errs[2]
    assert s["nonincreasing_within_1e-3"]


def test_highrate_accuracy_monotonicity_skips_invalid_constructions(tmp_path: Path):
    """At n = 32 the constructions at 25-35 nats are invalid (NaN errors);
    the flag judges the finite errors from 40 nats on, and ``n_invalid``
    still counts the NaNs."""
    spec = ExperimentSpec(
        "highrate-accuracy",
        seed=0,
        params={"n": 32, "R_start": 25.0, "R_stop": 45.0, "R_step": 5.0},
    )
    s = run_experiment(spec, tmp_path)["summary"]
    errs = s["rate_error_nats"]
    assert errs[:3] == [None, None, None]
    assert errs[3] > errs[4] > 0.0
    assert s["n_invalid"] == 3
    assert s["nonincreasing_within_1e-3"] is True


def test_run_experiment_mc_validate_reduced(tmp_path: Path):
    spec = ExperimentSpec(
        "mc-validate", seed=17, params={"models": 2, "N": 20_000, "n": 8, "R": 20.0}
    )
    doc = run_experiment(spec, tmp_path)
    s = doc["summary"]
    assert s["all_dominated"] in (True, False)
    assert s["max_frob_rel_dev"] < 0.2
    assert s["snr_abs_db_dev"] < 1.0
    rows = (tmp_path / "mc-validate.csv").read_text().splitlines()
    assert rows[1] == "trial,kind,value,is_optimal"
    assert len(rows) == 2 + 2 + 1  # meta + header + model rows + snr row

"""Input validation at the public entries: the sets of inputs they reject.

Inside the package, already-validated matrices go to unchecked kernels, so
these tests pin down that every public entry still rejects what it rejected
before (asymmetric, indefinite or non-nested input) and that non-finite
entries are refused as :class:`InvalidParam` by the library and with exit
code 1 and a JSON error by the CLI.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from covrate.cli import main
from covrate.errors import InvalidParam, NonSymmetric, NotNested, NotSpd
from covrate.fusion import Allocation, SensorNode
from covrate.jsonio import dump_json, matrix_to_json, model_to_json
from covrate.model import JointGaussianModel, analyze
from covrate.rdf import cond_mutual_info_gaussian, rate_distortion
from covrate.rdf import test_channel as make_channel
from covrate.simkit import random_model
from covrate.spd import check_spd, check_symmetric, joint_diagonalize, psd_leq, sym_eig_desc
from covrate.special import mse_rdf, relay_solve
from conftest import scalar_remote_model

SPD = np.array([[2.0, 0.3], [0.3, 1.0]])
ASYM = np.array([[2.0, 0.3], [0.2, 1.0]])
INDEFINITE = np.array([[1.0, 0.0], [0.0, -0.5]])
NON_FINITE = (np.nan, np.inf, -np.inf)


def _stats():
    return analyze(random_model(2, 3, 1, np.random.default_rng(5)))


def _with(value: float) -> np.ndarray:
    A = SPD.copy()
    A[1, 1] = value
    return A


# ---------------------------------------------------------- asymmetric ---


ASYMMETRIC_ENTRIES = {
    "sym_eig_desc": lambda: sym_eig_desc(ASYM),
    "check_spd": lambda: check_spd(ASYM),
    "psd_leq": lambda: psd_leq(ASYM, 3.0 * SPD),
    "joint_diagonalize": lambda: joint_diagonalize(ASYM, SPD),
    "rate_distortion.D": lambda: rate_distortion(_stats(), _stats().Sigma_x_given_yz + ASYM),
    "test_channel.D": lambda: make_channel(_stats(), _stats().Sigma_x_given_yz + ASYM),
    "Allocation": lambda: Allocation(D=(SPD, ASYM)),
}


@pytest.mark.parametrize("entry", sorted(ASYMMETRIC_ENTRIES))
def test_public_entries_reject_asymmetric_input(entry):
    with pytest.raises(NonSymmetric):
        ASYMMETRIC_ENTRIES[entry]()


def test_joint_diagonalize_rejects_indefinite_input():
    with pytest.raises(NotSpd):
        joint_diagonalize(SPD, INDEFINITE)
    with pytest.raises(NotSpd):
        joint_diagonalize(INDEFINITE, SPD)


def test_cond_mutual_info_rejects_indefinite_and_non_nested_input():
    with pytest.raises(NotSpd):
        cond_mutual_info_gaussian(INDEFINITE, SPD)
    with pytest.raises(NotSpd):
        cond_mutual_info_gaussian(SPD, INDEFINITE)
    with pytest.raises(NotNested):
        cond_mutual_info_gaussian(SPD, 2.0 * SPD)


# ---------------------------------------------------------- non-finite ---


@pytest.mark.parametrize("value", NON_FINITE)
def test_matrix_validators_reject_non_finite_entries(value):
    for validate in (check_symmetric, check_spd, sym_eig_desc):
        with pytest.raises(InvalidParam):
            validate(_with(value))
    with pytest.raises(InvalidParam):
        Allocation(D=(SPD, _with(value)))
    with pytest.raises(InvalidParam):
        SensorNode(W=_with(value), Sigma_n=SPD, alpha=1.0)


@pytest.mark.parametrize("block", ["Sigma_x", "Sigma_y", "Sigma_xy"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_model_rejects_non_finite_blocks(block, value):
    blocks = {"Sigma_x": 2.0 * SPD, "Sigma_y": 3.0 * SPD, "Sigma_xy": SPD}
    blocks[block] = blocks[block].copy()
    blocks[block][0, 1] = value
    with pytest.raises(InvalidParam):
        JointGaussianModel.without_z(**blocks)


@pytest.mark.parametrize("value", NON_FINITE)
def test_scalar_targets_reject_non_finite_values(scalar_stats, value):
    with pytest.raises(InvalidParam):
        mse_rdf(scalar_stats, value)
    with pytest.raises(InvalidParam):
        relay_solve(scalar_stats, value)
    with pytest.raises(InvalidParam):
        rate_distortion(scalar_stats, np.array([[value]]))


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    dump_json(model_to_json(scalar_remote_model()), path)
    return path


def _error_of(capsys, argv) -> tuple[int, dict]:
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, json.loads(captured.err)


def test_cli_rdf_nan_distortion_exits_1(capsys, model_path, tmp_path):
    d_path = tmp_path / "D.json"
    dump_json(matrix_to_json(np.array([[np.nan]])), d_path)
    code, err = _error_of(capsys, ["rdf", "--model", str(model_path), "--distortion", str(d_path)])
    assert code == 1
    assert err["error"] == "InvalidParam"


@pytest.mark.parametrize("argv", [["mse", "--D", "nan"], ["relay", "--RI", "nan"]])
def test_cli_scalar_targets_nan_exit_1(capsys, model_path, argv):
    code, err = _error_of(capsys, [argv[0], "--model", str(model_path), *argv[1:]])
    assert code == 1
    assert err["error"] == "InvalidParam"

"""Command-line surface: JSON in, JSON out, exit codes."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from covrate.cli import main
from covrate.fusion import Allocation, output_snr, scalar_allocate
from covrate.jsonio import (
    allocation_to_json,
    dump_json,
    matrix_to_json,
    model_to_json,
    network_to_json,
)
from covrate.model import JointGaussianModel, analyze
from covrate.simkit import scalar_example_network
from conftest import scalar_remote_model

HALF_LN3 = 0.5 * np.log(3.0)


@pytest.fixture
def scalar_files(tmp_path: Path) -> dict[str, Path]:
    model_path = tmp_path / "model.json"
    d_path = tmp_path / "D.json"
    dump_json(model_to_json(scalar_remote_model()), model_path)
    dump_json(matrix_to_json(np.array([[0.5]])), d_path)
    return {"model": model_path, "D": d_path, "dir": tmp_path}


def _run(capsys, argv) -> tuple[int, dict]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_rdf_nats_and_bits(capsys, scalar_files):
    argv = ["rdf", "--model", str(scalar_files["model"]), "--distortion", str(scalar_files["D"])]
    code, doc = _run(capsys, argv)
    assert code == 0
    assert doc["units"] == "nats"
    assert abs(doc["rate"] - HALF_LN3) < 1e-12
    assert doc["error_cov"]["rows"][0][0] == pytest.approx(0.5)
    code, doc = _run(capsys, argv + ["--bits"])
    assert code == 0
    assert doc["units"] == "bits"
    assert abs(doc["rate"] - HALF_LN3 / np.log(2.0)) < 1e-12


def test_cli_rdf_infeasible_distortion_exits_2(capsys, scalar_files, tmp_path):
    bad = tmp_path / "bad.json"
    dump_json(matrix_to_json(np.array([[0.2]])), bad)
    code = main(["rdf", "--model", str(scalar_files["model"]), "--distortion", str(bad)])
    err_doc = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err_doc["error"] == "InvalidDistortion"


def test_cli_near_singular_gap_exits_2(capsys, tmp_path):
    model = JointGaussianModel.without_z(np.eye(2), 2.0 * np.eye(2), np.eye(2))
    model_path, d_path = tmp_path / "model.json", tmp_path / "D.json"
    dump_json(model_to_json(model), model_path)
    D = analyze(model).Sigma_x_given_yz + np.diag([1.0, 1e-11])
    dump_json(matrix_to_json(D), d_path)
    for command in ("rdf", "channel"):
        code = main([command, "--model", str(model_path), "--distortion", str(d_path)])
        err_doc = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err_doc["error"] == "InvalidDistortion"


def test_cli_channel(capsys, scalar_files):
    code, doc = _run(
        capsys,
        ["channel", "--model", str(scalar_files["model"]), "--distortion", str(scalar_files["D"])],
    )
    assert code == 0
    assert doc["n_active"] == 1
    assert doc["noise_cov"]["rows"][0][0] == pytest.approx(0.375)
    assert abs(doc["rate"] - HALF_LN3) < 1e-12


def test_cli_mse(capsys, scalar_files):
    code, doc = _run(capsys, ["mse", "--model", str(scalar_files["model"]), "--D", "0.5"])
    assert code == 0
    assert doc["water_level"] == pytest.approx(0.25)
    assert abs(doc["rate"] - HALF_LN3) < 1e-12


def test_cli_relay(capsys, scalar_files):
    ri = 0.5 * np.log(2.0)
    code, doc = _run(capsys, ["relay", "--model", str(scalar_files["model"]), "--RI", str(float(ri))])
    assert code == 0
    assert doc["gamma"] == pytest.approx(0.5)
    assert abs(doc["rate"] - HALF_LN3) < 1e-12
    assert doc["d_star"]["rows"][0][0] == pytest.approx(0.5)


def test_cli_fusion_snr(capsys, tmp_path):
    net = scalar_example_network(2.0)
    res = scalar_allocate(net)
    alloc = Allocation(D=(np.array([[res.D1]]), np.array([[res.D2]])))
    net_path = tmp_path / "net.json"
    alloc_path = tmp_path / "alloc.json"
    dump_json(network_to_json(net), net_path)
    dump_json(allocation_to_json(alloc), alloc_path)
    code, doc = _run(
        capsys, ["fusion-snr", "--network", str(net_path), "--allocation", str(alloc_path)]
    )
    assert code == 0
    assert doc["snr_db"] == pytest.approx(output_snr(net, alloc).db)
    assert doc["weighted_sum_rate"] == pytest.approx(2.0)


def test_cli_allocate_highrate(capsys, tmp_path):
    net = scalar_example_network(4.0)
    net_path = tmp_path / "net.json"
    dump_json(network_to_json(net), net_path)
    out_dir = tmp_path / "out"
    code, doc = _run(
        capsys, ["allocate-highrate", "--network", str(net_path), "--out", str(out_dir)]
    )
    assert code == 0
    assert doc["valid"] is True
    assert abs(doc["achieved_rate"] - 4.0) < 0.2
    assert (out_dir / "allocation.json").exists()


def test_cli_allocate_highrate_infeasible_exits_2(capsys, tmp_path):
    net = scalar_example_network(0.05)
    net_path = tmp_path / "net.json"
    dump_json(network_to_json(net), net_path)
    code = main(["allocate-highrate", "--network", str(net_path)])
    err_doc = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err_doc["error"] == "InfeasibleBudget"


def test_cli_allocate_scalar(capsys, tmp_path):
    net = scalar_example_network(2.0)
    net_path = tmp_path / "net.json"
    dump_json(network_to_json(net), net_path)
    code, doc = _run(capsys, ["allocate-scalar", "--network", str(net_path)])
    assert code == 0
    assert doc["regime"] == "Maximizer"
    assert abs(doc["r_max"] - 1.13) < 0.005


def test_cli_experiment_runs_and_writes(capsys, tmp_path):
    code, doc = _run(
        capsys, ["experiment", "scalar-sweep", "--seed", "9", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "scalar-sweep.csv").exists()
    assert (tmp_path / "scalar-sweep.json").exists()
    assert doc["seed"] == 9


def test_cli_missing_file_exits_1(capsys, tmp_path):
    code = main(["rdf", "--model", str(tmp_path / "nope.json"), "--distortion", str(tmp_path / "d.json")])
    err_doc = json.loads(capsys.readouterr().err)
    assert code == 1
    assert "error" in err_doc


def test_cli_bad_arguments_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rdf"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "not-a-name"])
    assert exc.value.code == 1

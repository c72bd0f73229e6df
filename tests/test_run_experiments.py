"""Command-line parsing of ``scripts/run_experiments.py``."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "run_experiments", Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"
)
run_experiments = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_experiments)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_param_is_a_usage_error(value, tmp_path, capsys):
    argv = ["--only", "scalar-sweep", "--param", f"sweep_points={value}",
            "--outdir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        run_experiments.main(argv)
    assert exc.value.code == 2
    assert "--param" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_param_overrides_only_experiments_that_accept_it(tmp_path, capsys):
    argv = ["--only", "scalar-sweep", "--only", "highrate-accuracy",
            "--param", "sweep_points=50", "--param", "n=4", "--param", "R_stop=30",
            "--outdir", str(tmp_path)]
    assert run_experiments.main(argv) == 0
    sweep = (tmp_path / "scalar-sweep" / "scalar-sweep.csv").read_text().splitlines()
    assert '"sweep_points": 50' in sweep[0]
    accuracy = (tmp_path / "highrate-accuracy" / "highrate-accuracy.csv").read_text()
    assert '"R_stop": 30, ' in accuracy.splitlines()[0]
    assert '"n": 4' in accuracy.splitlines()[0]

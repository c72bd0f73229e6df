"""Behaviour lock: each experiment's JSON summary at reduced parameters.

The files under ``tests/golden/`` were written by ``run_experiment`` with seed
0 and the parameters in ``PARAMS``.  A refactor that keeps behaviour must
reproduce every number in them to 1e-9 relative, and every string, flag and
null exactly.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from covrate.simkit import ExperimentSpec, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9
PARAMS = {
    "local-max": {"L": 20},
    "global-max": {"L": 20},
    "scaling-4": {"L": 20},
    "highrate-accuracy": {"n": 8, "R_start": 10.0, "R_stop": 40.0, "R_step": 10.0},
    "scalar-sweep": {"sweep_points": 100},
    "mc-validate": {"models": 3, "N": 20000, "n": 8},
}


def _mismatches(got, want, path: str = "") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, w in enumerate(want) for m in _mismatches(got[i], w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) in (int, float):
        same = math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_experiment_summary_matches_golden(name, tmp_path):
    run_experiment(ExperimentSpec(name=name, seed=0, params=PARAMS[name]), tmp_path)
    got = json.loads((tmp_path / f"{name}.json").read_text())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _mismatches(got, want) == []

"""Behaviour lock: each experiment's CSV rows and JSON summary at reduced parameters.

The files under ``tests/golden/`` were written by ``run_experiment`` with seed
0 and the parameters in ``PARAMS``.  A refactor that keeps behaviour must
reproduce every number in them to 1e-9 relative, and every string, integer,
flag and null exactly.
"""
from __future__ import annotations

import csv
import json
import math
import re
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


def _cell(text: str) -> tuple[str, float | None]:
    """A CSV cell as (exact part, float part): ints and words (a wrapped
    ``np.float64(...)`` among them) are all exact; a bare float is a float."""
    if re.fullmatch(r"-?\d+", text):
        return text, None
    try:
        return "", float(text)
    except ValueError:
        return text, None


def _row_mismatches(got: str, want: str) -> list[str]:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if got_lines[:1] != want_lines[:1]:
        return [f"metadata: {got_lines[:1]} != {want_lines[:1]}"]
    got_rows = list(csv.reader(got_lines[1:]))
    want_rows = list(csv.reader(want_lines[1:]))
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return [f"row shapes differ: {len(got_rows)} rows against {len(want_rows)}"]
    out = []
    for i, (grow, wrow) in enumerate(zip(got_rows, want_rows)):
        for j, (g, w) in enumerate(zip(grow, wrow)):
            (gx, gv), (wx, wv) = _cell(g), _cell(w)
            if gv is None or wv is None:
                same = g == w
            else:
                same = gx == wx and (
                    math.isclose(gv, wv, rel_tol=RTOL, abs_tol=0.0)
                    or (math.isnan(gv) and math.isnan(wv))
                )
            if not same:
                out.append(f"row {i} column {j}: {g!r} != {w!r}")
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every experiment run once at ``PARAMS`` and seed 0, into one directory."""
    out = tmp_path_factory.mktemp("experiments")
    for name, params in PARAMS.items():
        run_experiment(ExperimentSpec(name=name, seed=0, params=params), out)
    return out


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_experiment_summary_matches_golden(name, outputs):
    got = json.loads((outputs / f"{name}.json").read_text())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _mismatches(got, want) == []


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_experiment_rows_match_golden(name, outputs):
    got = (outputs / f"{name}.csv").read_text()
    want = (GOLDEN / f"{name}.csv").read_text()
    assert _row_mismatches(got, want) == []

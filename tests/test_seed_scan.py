"""The seed parser and the report of ``scripts/seed_scan.py`` on synthetic records."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "seed_scan", Path(__file__).resolve().parent.parent / "scripts" / "seed_scan.py"
)
seed_scan = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seed_scan)


def record(seed, failed=0, wrong=0, digest="d"):
    return {"seed": seed, "ops": 64, "ok": 64 - failed - wrong, "failed": failed,
            "wrong": wrong, "digest": f"{digest}{seed}"}


def test_parse_seeds():
    assert seed_scan.parse_seeds("0-3,7") == [0, 1, 2, 3, 7]
    assert seed_scan.parse_seeds("47") == [47]


def test_report_names_wrong_failed_and_differing_seeds():
    parent = {s: record(s) for s in range(5)}
    change = {s: record(s) for s in range(5)}
    parent[1] = record(1, wrong=2)
    change[1] = record(1, wrong=3, digest="e")
    parent[2] = record(2, failed=1)
    change[2] = record(2, failed=2)
    change[4] = record(4, digest="e")
    lines = seed_scan.compare(parent, change)
    assert len(lines) == 1 + 5 + 7
    assert "parent seeds with wrong ops: [1]" in lines
    assert "change seeds with wrong ops: [1]" in lines
    assert "parent seeds with failed ops: [2]" in lines
    assert "same seeds with wrong ops: True" in lines
    assert "seeds where the change fails more ops: [2]" in lines
    assert "seeds whose digests differ: [1, 4]" in lines
    assert lines[5].endswith("differs") and not lines[4].endswith("differs")


def test_report_flags_a_new_wrong_seed():
    parent = {s: record(s) for s in range(3)}
    change = {**parent, 2: record(2, wrong=1)}
    lines = seed_scan.compare(parent, change)
    assert "same seeds with wrong ops: False" in lines
    assert "change seeds with wrong ops: [2]" in lines
    assert "seeds where the change fails more ops: []" in lines

"""The verdict rule of ``scripts/bench_pairs.py`` on synthetic runs."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [40.0, 41.0, 42.0, 43.0, 44.0, 45.0, 46.0, 47.0, 48.0, 49.0]


def runs(values, failed=0, correct=True):
    """Run records as ``bench/run.py`` prints them, for the metric ``m``."""
    failed = [failed] * len(values) if isinstance(failed, int) else failed
    return [
        {"correct": correct, "failed": f, "metrics": {"m": {"value": v}}}
        for v, f in zip(values, failed)
    ]


def verdict(parent, change, better, bound, **change_kw):
    metric = {"name": "m", "better": better, "bound": bound}
    return bench_pairs.verdict(metric, runs(parent), runs(change, **change_kw))


def test_clear_gain_either_direction():
    faster = [10.0 * p for p in PARENT]
    assert verdict(PARENT, faster, "higher", 0.25) == "gain"
    assert verdict(faster, PARENT, "lower", 0.25) == "gain"


def test_eight_wins_of_ten_is_no_gain():
    change = [p + 20.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    assert verdict(PARENT, change, "higher", 0.25) == "within bound"


def test_median_inside_parent_spread_is_no_gain():
    # wins every pair, but by less than the parent's interquartile range
    change = [p + 1.0 for p in PARENT]
    assert verdict(PARENT, change, "higher", 0.25) == "within bound"


def test_more_failures_or_wrong_output_is_no_gain():
    faster = [10.0 * p for p in PARENT]
    # parent fails no operation; one change run fails one
    assert verdict(PARENT, faster, "higher", 0.25, failed=[0] * 9 + [1]) == "within bound"
    assert verdict(PARENT, faster, "higher", 0.25, correct=False) == "within bound"
    metric = {"name": "m", "better": "higher", "bound": 0.25}
    # as many failures as the parent's median run still allow the gain
    parent = runs(PARENT, failed=[480, 483, 483, 483, 483, 483, 483, 483, 490, 490])
    assert bench_pairs.verdict(metric, parent, runs(faster, failed=483)) == "gain"
    assert bench_pairs.verdict(metric, parent, runs(faster, failed=484)) == "within bound"


def test_worse_beyond_bound():
    slower = [0.7 * p for p in PARENT]
    assert verdict(PARENT, slower, "higher", 0.25) == "worse"
    assert verdict(PARENT, [1.3 * p for p in PARENT], "lower", 0.25) == "worse"
    assert verdict(PARENT, [1.2 * p for p in PARENT], "lower", 0.25) == "within bound"


def test_wide_parent_spread_is_unresolved():
    parent = [30.0, 35.0, 40.0, 42.0, 44.0, 45.0, 46.0, 48.0, 50.0, 60.0]
    change = [p - 0.5 for p in parent]
    assert verdict(parent, change, "higher", 0.25) == "unresolved"


def test_wide_spread_but_every_change_run_better_is_resolved():
    parent = [1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    change = [10.5] * 10
    assert verdict(parent, change, "higher", 0.25) == "within bound"


def test_ties_count_for_neither_side():
    assert verdict([1.0] * 10, [1.0] * 10, "higher", 0.1) == "within bound"


def test_needs_ten_paired_runs():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:9], "higher", 0.25)
    with pytest.raises(ValueError):
        verdict(PARENT[:9], PARENT[:9], "higher", 0.25)

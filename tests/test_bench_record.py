"""The record builder and parsers of ``scripts/bench_record.py`` on synthetic input."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def bench_stdout(untraced: str, traced: str | None, correct: bool = True) -> str:
    lines = ["# run record", f"# digest untraced {untraced} same_in_every_pass=True"]
    if traced is not None:
        lines.append(f"# digest traced {traced} equal_to_untraced={traced == untraced}")
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": {"spd.psd_leq.calls_per_op": {"value": 0.4, "unit": "count/op"}}}
    return "\n".join(lines + ["spd.psd_leq.calls_per_op = 0.4 count/op", json.dumps(result)])


def side(seconds: float, csv: bytes, bench: dict) -> dict:
    return {
        "tier1": {"seconds": 30.0, "passed": 216, "failed": 2, "errors": 0},
        "kernels": {},
        "experiments": {"global-max": {"seconds": seconds, "csv": csv, "json": b"{}\n"}},
        "bench": bench,
    }


def test_parse_pytest_counts_reads_the_last_summary_line():
    out = "..F.\nFAILED tests/x.py::t - AssertionError: 3 passed in 1.0s\n2 failed, 216 passed in 36.80s\n"
    assert bench_record.parse_pytest_counts(out) == {"passed": 216, "failed": 2, "errors": 0}
    out = "1 failed, 3 passed, 1 error in 2.00s"
    assert bench_record.parse_pytest_counts(out) == {"passed": 3, "failed": 1, "errors": 1}
    assert bench_record.parse_pytest_counts("no tests ran") == {"passed": 0, "failed": 0, "errors": 0}


def test_parse_bench_output_takes_result_and_both_digests():
    run = bench_record.parse_bench_output(bench_stdout("ab12", "ab12"))
    assert run["digest_untraced"] == run["digest_traced"] == "ab12"
    assert run["result"]["correct"] is True
    assert bench_record.parse_bench_output(bench_stdout("ab12", None))["digest_traced"] is None


def test_build_record_compares_sides():
    parse = bench_record.parse_bench_output
    parent = side(8.0, b"a,b\n1,2\n", {
        "population": parse(bench_stdout("aa", "aa")),
        "allocate": parse(bench_stdout("cc", "cc")),
    })
    change = side(6.0, b"a,b\n1,3\n", {
        "population": parse(bench_stdout("aa", "aa")),
        "allocate": parse(bench_stdout("cc", "dd", correct=False)),
    })
    record = bench_record.build_record({"parent": "p"}, {"parent": parent, "change": change})
    assert record["parent"] == "p"
    assert record["tier1"]["change"]["passed"] == 216
    exp = record["experiments"]["global-max"]
    assert (exp["parent_s"], exp["change_s"]) == (8.0, 6.0)
    assert exp["csv_identical"] is False and exp["json_identical"] is True
    assert record["bench"]["population"]["digests_equal"] is True
    assert record["bench"]["population"]["correct"] is True
    assert record["bench"]["allocate"]["digests_equal"] is False
    assert record["bench"]["allocate"]["correct"] is False
    json.dumps(record)  # the document is plain JSON


def test_missing_traced_digest_is_never_equal():
    parse = bench_record.parse_bench_output
    parent = side(1.0, b"", {"population": parse(bench_stdout("aa", None))})
    change = side(1.0, b"", {"population": parse(bench_stdout("aa", None))})
    record = bench_record.build_record({}, {"parent": parent, "change": change})
    assert record["bench"]["population"]["digests_equal"] is False


def test_build_record_pairs_kernel_timings():
    parse = bench_record.parse_bench_output
    parent = side(1.0, b"", {"population": parse(bench_stdout("aa", "aa"))})
    change = side(1.0, b"", {"population": parse(bench_stdout("aa", "aa"))})
    parent["kernels"] = {"psd_leq.n4": 60.5, "scalar_allocate.sweep": 91000.0}
    change["kernels"] = {"psd_leq.n4": 59.0, "scalar_allocate.sweep": 110.2, "new.n32": 3.0}
    record = bench_record.build_record({}, {"parent": parent, "change": change})
    assert record["kernels"] == {
        "new.n32": {"parent_us": None, "change_us": 3.0},
        "psd_leq.n4": {"parent_us": 60.5, "change_us": 59.0},
        "scalar_allocate.sweep": {"parent_us": 91000.0, "change_us": 110.2},
    }
    assert list(record["kernels"]) == sorted(record["kernels"])
    json.dumps(record)


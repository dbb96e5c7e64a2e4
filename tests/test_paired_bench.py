"""The paired-benchmark summary of ``tools/paired_bench.py`` on canned runs."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
SPEC = importlib.util.spec_from_file_location("paired_bench", PATH)
paired_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(paired_bench)


def run(latency, items, sha="abc", failed=0):
    return {"metrics": {"latency_ms.mean": latency, "items_per_s": items},
            "failed": failed, "sha": sha}


BETTER = {"latency_ms.mean": "lower", "items_per_s": "higher"}


def test_parse_run_reads_the_meta_and_result_lines():
    result = {"correct": True, "attempted": 7, "failed": 1,
              "metrics": {"latency_ms.mean": {"value": 3.1, "unit": "ms"}}}
    text = "\n".join([
        "meta " + json.dumps({"output_sha256": "f00", "seed": 11}),
        "latency_ms.mean = 3.1 ms",
        json.dumps(result),
    ])
    assert paired_bench.parse_run(text) == {
        "metrics": {"latency_ms.mean": 3.1}, "failed": 1, "sha": "f00"}
    with pytest.raises(ValueError):
        paired_bench.parse_run("latency_ms.mean = 3.1 ms")


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    pairs = [(run(3.0, 80), run(2.8, 85)),
             (run(3.2, 81), run(3.2, 81)),     # a tie on both metrics
             (run(3.1, 82), run(3.3, 79)),     # the change loses both
             (run(3.4, 83), run(2.9, 90))]
    summary = paired_bench.summarize(pairs, BETTER)
    assert summary["latency_ms.mean"]["wins"] == 2
    assert summary["items_per_s"]["wins"] == 2
    assert summary["latency_ms.mean"]["pairs"] == 4
    # inclusive quartiles of 3.0, 3.1, 3.2, 3.4 and of 2.8, 2.9, 3.2, 3.3
    assert summary["latency_ms.mean"]["base"] == pytest.approx((3.075, 3.15, 3.25))
    assert summary["latency_ms.mean"]["change"] == pytest.approx((2.875, 3.05, 3.225))
    # medians 0.1 apart, inside the base's IQR of 0.175
    assert summary["latency_ms.mean"]["beyond"] == "no"
    # an unnamed metric counts lower as better
    assert paired_bench.summarize(pairs, {})["items_per_s"]["wins"] == 1


def test_summary_marks_a_clear_change_and_a_single_pair():
    pairs = [(run(3.0 + i / 100, 80), run(2.5 + i / 100, 80)) for i in range(5)]
    summary = paired_bench.summarize(pairs, BETTER)
    assert summary["latency_ms.mean"]["wins"] == 5
    assert summary["latency_ms.mean"]["beyond"] == "better"
    assert summary["items_per_s"]["wins"] == 0
    assert summary["items_per_s"]["beyond"] == "no"
    one = paired_bench.summarize(pairs[:1], BETTER)["latency_ms.mean"]
    assert one["base"] == (3.0, 3.0, 3.0)


def test_summary_and_report_say_which_way_a_clear_change_moved():
    # latency rises and throughput falls beyond the base's IQR: both worse
    pairs = [(run(3.0 + i / 100, 80 + i / 10), run(3.5 + i / 100, 70 + i / 10))
             for i in range(5)]
    summary = paired_bench.summarize(pairs, BETTER)
    assert summary["latency_ms.mean"]["beyond"] == "worse"
    assert summary["items_per_s"]["beyond"] == "worse"
    # the same pairs read with the directions swapped: both better
    swapped = {"latency_ms.mean": "higher", "items_per_s": "lower"}
    assert {s["beyond"] for s in paired_bench.summarize(pairs, swapped).values()} == {
        "better"}
    rows = paired_bench.report(summary, True, (0, 0)).splitlines()[1:3]
    assert [row.split()[-1] for row in rows] == ["worse", "worse"]


def test_report_states_whether_outputs_match():
    same = [(run(3.0, 80), run(2.9, 81))]
    other = [(run(3.0, 80), run(2.9, 81, sha="def"))]
    assert paired_bench.same_outputs(same)
    assert not paired_bench.same_outputs(other)
    text = paired_bench.report(paired_bench.summarize(other, BETTER),
                               paired_bench.same_outputs(other), (0, 1))
    assert text.splitlines()[-1] == "output_sha256 equal: NO"
    assert "failed operations: base 0, change 1" in text
    assert "1/1" in text

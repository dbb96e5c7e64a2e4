"""Smoke tests of the benchmark at tiny sizes: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace

import pytest

import run
from tracer import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
TINY = {
    "eval-int": replace(run.WORKLOADS["eval-int"], size=2, traced_calls=1),
    "eval-obs": replace(run.WORKLOADS["eval-obs"], size=1, traced_calls=1),
    "learn-800k": replace(run.WORKLOADS["learn-800k"], traced_calls=1),
}
# per-layer metrics that must repeat exactly across runs of one seed
DETERMINISTIC_SUFFIXES = (".calls", "despot.expansions", "despot.expand_ratio",
                          "despot.trials_per_search", "quality.mean_reward",
                          "quality.goal_rate", "quality.kl_full_transition")

sys.path.insert(0, str(run.SRC))


def tiny_run(name, tmp_path, trace, seed=1):
    return run.run(name, seed, 0, trace, tmp_path / f"{name}-{trace}",
                   workload=TINY[name], setups=1)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result, meta = tiny_run(name, tmp_path, trace=False)
    assert result["correct"], meta["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["output_sha256"] and meta["nproc"] >= 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counters_repeat_for_a_seed(name, tmp_path):
    first, meta = tiny_run(name, tmp_path, trace=True)
    second, meta2 = tiny_run(name, tmp_path, trace=True)
    assert first["correct"] and second["correct"], meta["problems"] + meta2["problems"]
    assert set(first["metrics"]) == PER_LAYER
    assert first["metrics"]["trace.coverage"]["value"] >= 0.9
    deterministic = [k for k in PER_LAYER if k.endswith(DETERMINISTIC_SUFFIXES)]
    assert {k: first["metrics"][k] for k in deterministic} == \
        {k: second["metrics"][k] for k in deterministic}
    assert meta["output_sha256"] == meta2["output_sha256"]


def test_tampered_summary_mean_counts_as_failed(tmp_path, monkeypatch):
    check_eval = run.check_eval

    def tampered(out, episodes, max_steps):
        summary = out / "summary.txt"
        lines = [("mean=1234.5" if line.startswith("mean=") else line)
                 for line in summary.read_text().splitlines()]
        summary.write_text("\n".join(lines) + "\n")
        return check_eval(out, episodes, max_steps)

    monkeypatch.setattr(run, "check_eval", tampered)
    result, meta = tiny_run("eval-int", tmp_path, trace=False)
    assert not result["correct"]
    assert result["failed"] == TINY["eval-int"].size
    assert any("summary mean" in p for p in meta["problems"])


def test_tracer_passes_results_through_and_skips_missing_names():
    marker = object()
    owner = types.SimpleNamespace(inner=lambda: marker)
    owner.outer = lambda: owner.inner()
    original = owner.inner
    tracer = Tracer()
    targets = [(owner, "outer", "outer", None), (owner, "inner", "inner", None),
               (owner, "gone", "gone", None), (None, "main", "absent", None)]
    with tracer.patched(targets):
        assert owner.outer() is marker
    assert owner.inner is original
    assert tracer.wrapped == {"outer", "inner"}
    assert dict(tracer.calls) == {"outer": 1, "inner": 1}
    assert all(t >= 0 for t in tracer.self_s.values())


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-int", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

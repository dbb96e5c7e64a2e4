"""The benchmark's span names are an API contract.

``bench/run.py`` traces the package by replacing callables at the names
their callers look them up by (``SPANS``).  A rename or deletion there makes
the traced run drop metrics silently, so these tests fail first.  They read
``bench/run.py`` without importing it, since importing it changes the
process's thread environment.
"""

import ast
import importlib
from pathlib import Path

import pytest

from causalplan import despot, gridworld

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _spans():
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no SPANS")


SPANS = _spans()


@pytest.mark.parametrize("module, cls, attr, name", SPANS, ids=[s[3] for s in SPANS])
def test_span_target_resolves_to_a_callable(module, cls, attr, name):
    owner = importlib.import_module(f"causalplan.{module}")
    if cls is not None:
        owner = vars(owner)[cls]
    assert attr in vars(owner), f"{name}: {attr} is gone from {owner!r}"
    assert callable(vars(owner)[attr])


def test_run_episode_reaches_search_through_the_module_global(monkeypatch):
    calls = []
    search = despot.search

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(despot, "search", counted)
    truth = gridworld.build_model(gridworld.default_map())
    config = despot.PlannerConfig(scenarios=20, depth=5, budget_trials=5)
    trace = despot.run_episode(truth, truth, config, 2, seed=0)
    assert len(calls) == trace.n_steps >= 1

"""Planted rule changes, and the tests that catch each one.

Each mutant is a small edit to a rule of the planner, the model, the
causal engine or the command line, given as (file, old text, new text).  For each, the script copies
the repository into a scratch directory, plants the edit there, runs the
quick suite without the digest and counter pins, and prints which tests
failed::

    python3 tools/mutants.py                   # every mutant
    python3 tools/mutants.py --only best_action_lambda default_action_first

The digests (``tests/test_golden.py``) and the search counter pins
(``TestSearchCounters``) are left out because they catch any change to the
search's output; a mutant counts as caught only by a test that checks the
rule it breaks.  ``tests/test_mutants.py`` is left out too: it checks that
each old text is in the code, which no mutated copy passes.  A run takes about a minute a mutant on two cores.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESPOT = "src/causalplan/despot.py"
SCM = "src/causalplan/scm.py"
MODEL = "src/causalplan/model.py"
CLI = "src/causalplan/cli.py"

# name -> (file, old text, new text); each old text occurs once in its file
MUTANTS = {
    "descend_by_q_lower": (
        DESPOT,
        "if edge.q_upper > best_q:\n                    best_edge, best_q = edge, edge.q_upper",
        "if edge.q_lower > best_q:\n                    best_edge, best_q = edge, edge.q_lower",
    ),
    "new_node_lambda_twice": (
        DESPOT,
        "node.default_value = node.lower = low / n - lam",
        "node.default_value = node.lower = low / n - 2 * lam",
    ),
    "child_cell_stride_short": (
        DESPOT,
        "s2 *= k\n        s2 += ids",
        "s2 *= k - 1\n        s2 += ids",
    ),
    "children_keys_shifted": (
        DESPOT,
        "zip(present.tolist(), children)",
        "zip((present + 1).tolist(), children)",
    ),
    "backup_lambda_dropped": (
        DESPOT,
        "max(node.default_value, best_low - self.config.regularization)",
        "max(node.default_value, best_low)",
    ),
    "excess_unweighted": (
        DESPOT,
        "weu = child.weight * (child.upper - child.lower - target)",
        "weu = child.upper - child.lower - target",
    ),
    "gap_scale_one_short": (
        DESPOT,
        "config.xi * model.discount ** (-(d + 1))",
        "config.xi * model.discount ** (-d)",
    ),
    "stop_target_doubled": (
        DESPOT,
        "target = (1.0 - config.xi) * gap0",
        "target = 2 * (1.0 - config.xi) * gap0",
    ),
    "best_action_lambda": (
        DESPOT,
        "q = edge.q_lower - self.config.regularization",
        "q = edge.q_lower",
    ),
    "default_action_first": (
        DESPOT,
        "model.rollout_policy[int(np.argmax(counts))]",
        "model.rollout_policy[int(starts[0])]",
    ),
    "step_lower_undiscounted": (
        DESPOT,
        "    low *= gamma\n",
        "    low *= 1.0\n",
    ),
    "step_first_action": (
        DESPOT,
        "return low, np.maximum.reduce(q, axis=0)",
        "return low, q[0]",
    ),
    "step_policy_shifted": (
        DESPOT,
        "c = cells.shape[-1]",
        "c, policy = cells.shape[-1], policy - 1",
    ),
    "do_override_dropped": (
        SCM,
        "    world.update(intervention)\n",
        "",
    ),
    "exogenous_do_allowed": (
        SCM,
        "if spec.is_exogenous(name):",
        "if False:",
    ),
    "rule_range_unchecked": (
        SCM,
        "if rule.table.min() < 0 or rule.table.max() >= var.arity:",
        "if False:",
    ),
    "prior_arity_unchecked": (
        SCM,
        "if prior.parent_arities != () or prior.n_categories != var.arity:",
        "if prior.parent_arities != ():",
    ),
    "placement_ignores_last_parent": (
        SCM,
        "if not placed.issuperset(parents):",
        "if not placed.issuperset(parents[:-1]):",
    ),
    "reach_one_action": (
        MODEL,
        "self._succ[_MODE_INDEX[mode]].compress(live, axis=1)",
        "self._succ[_MODE_INDEX[mode]][:1].compress(live, axis=1)",
    ),
    "step_cell_stride_short": (
        MODEL,
        "at = states * self._succ[m].shape[2] + b1",
        "at = states * (self._succ[m].shape[2] - 1) + b1",
    ),
    "budget_clock_after_setup": (
        DESPOT,
        "    start = time.perf_counter()\n    tree = DespotTree(model, config, belief)\n",
        "    tree = DespotTree(model, config, belief)\n    start = time.perf_counter()\n",
    ),
    "horizon_row_unzeroed": (
        DESPOT,
        "    tables[:, depth] = 0\n",
        "",
    ),
    "terminal_rows_unzeroed": (
        DESPOT,
        "    tables[:, :, n - 2:] = 0\n",
        "",
    ),
    "truth_cache_ignores_gamma": (
        CLI,
        "@functools.lru_cache(maxsize=1)\n"
        "def _truth_model(grid: gridworld.GridMap, gamma: float) -> UcPomdpModel:\n",
        "@functools.lru_cache(maxsize=1)\n"
        "def _truth_of_map(grid):\n"
        "    return gridworld.build_model(grid, _truth_of_map.gamma)\n\n\n"
        "def _truth_model(grid, gamma):\n"
        "    _truth_of_map.gamma = gamma\n"
        "    return _truth_of_map(grid)\n\n\n"
        "_truth_model.cache_clear = _truth_of_map.cache_clear\n\n\n"
        "def _unused(grid: gridworld.GridMap, gamma: float) -> UcPomdpModel:\n",
    ),
    "learn_builds_own_truth": (
        CLI,
        'truth = _truth_model(grid, options["gamma"])',
        'truth = gridworld.build_model(grid, options["gamma"])',
    ),
}

DESELECT = ["tests/test_golden.py", "tests/test_despot.py::TestSearchCounters",
            "tests/test_mutants.py"]


def plant(root: Path, file: str, old: str, new: str) -> None:
    path = root / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{file}: the old text occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))


def failed_tests(output: str) -> list[str]:
    """The node ids of the ``FAILED`` and ``ERROR`` lines of ``pytest -rfE``."""
    out = []
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.append(line[len(tag):].split(" - ")[0])
    return out


def run_mutant(repo: Path, name: str, scratch: Path) -> list[str]:
    copy = scratch / name
    shutil.copytree(repo, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    plant(copy, *MUTANTS[name])
    cmd = [sys.executable, "-m", "pytest", "-q", "-m", "not slow", "-rfE",
           "-p", "no:cacheprovider", *(f"--deselect={d}" for d in DESELECT)]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    shutil.rmtree(copy)
    return failed_tests(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="the checkout to copy and mutate (default: this one)")
    parser.add_argument("--only", nargs="+", choices=sorted(MUTANTS), default=list(MUTANTS))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        for name in args.only:
            caught = run_mutant(args.repo, name, Path(scratch))
            print(f"{name}: {len(caught)} caught" + "".join(f"\n    {t}" for t in caught),
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

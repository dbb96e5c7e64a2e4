"""In-process A/B timing of ``despot.search`` for two source trees.

Loads the ``causalplan`` package under ``BASE_SRC`` and the one under
``CHANGE_SRC`` into one process, each under its own module name, builds
each side's model of its own ``maps/default.map``, and times
``despot.search`` from every ordinary state, in both modes, at seeds 0-9,
``--reps`` times each, alternating which side goes first::

    python3 tools/ab_search.py BASE/src CHANGE/src --reps 3

Both sides share the interpreter, the numpy build and the machine's drift
from one search to the next, which paired runs of whole processes spread
over minutes.  Per
mode it prints each side's mean and median time per search, the number of
searches the change ran faster, the ratio of the change's mean time to the
base's, and whether every (action, bounds) result equals the other side's.
It exits 1 if any result differs.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SEEDS = range(10)


def load_package(src: Path, name: str):
    """The ``causalplan`` package under ``src``, imported as ``name`` with
    its submodules; the package's relative imports resolve inside it."""
    root = Path(src) / "causalplan"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One source tree: its planner, its model of its own shipped map."""

    def __init__(self, src: Path, name: str):
        load_package(src, name)
        self.despot = importlib.import_module(f"{name}.despot")
        self.model_module = importlib.import_module(f"{name}.model")
        gridworld = importlib.import_module(f"{name}.gridworld")
        text = (Path(src) / "causalplan" / "maps" / "default.map").read_text()
        self.model = gridworld.build_model(gridworld.parse_map(text))

    def search(self, state: int, mode: str, seed: int, scenarios: int, depth: int):
        """``(seconds, (action, bounds))`` of one search from ``state``."""
        model = self.model
        belief = self.model_module.Belief.point_mass(model.n_states, state)
        config = self.despot.PlannerConfig(
            scenarios=scenarios, depth=depth, seed=seed,
            mode=self.model_module.TransitionMode(mode))
        start = time.perf_counter()
        result = self.despot.search(belief, model, config)
        return time.perf_counter() - start, result


def compare(sides, mode: str, reps: int, scenarios: int, depth: int) -> tuple[tuple, int]:
    """Both sides' times per search in ``mode`` and the number of searches
    whose results differ; the side that goes first alternates."""
    times, differ = ([], []), 0
    for side in sides:  # builds the model's caches outside the timings
        side.search(0, mode, 0, scenarios, depth)
    runs = [(s, seed) for s in range(sides[0].model.n_states - 2) for seed in SEEDS]
    turn = 0
    for _ in range(reps):
        for state, seed in runs:
            order = (0, 1) if turn % 2 == 0 else (1, 0)
            turn += 1
            out = {i: sides[i].search(state, mode, seed, scenarios, depth) for i in order}
            for i in (0, 1):
                times[i].append(out[i][0])
            differ += out[0][1] != out[1][1]
    return times, differ


def summary(mode: str, times, differ: int) -> str:
    base, change = times
    wins = sum(c < b for b, c in zip(base, change))
    ms = [(statistics.fmean(t) * 1e3, statistics.median(t) * 1e3) for t in times]
    return (f"{mode}: {len(base)} searches a side\n"
            f"  base   mean {ms[0][0]:.3f} ms  median {ms[0][1]:.3f} ms\n"
            f"  change mean {ms[1][0]:.3f} ms  median {ms[1][1]:.3f} ms\n"
            f"  change faster in {wins}/{len(base)}; time ratio x{ms[1][0] / ms[0][0]:.3f}\n"
            f"  results {'identical' if not differ else f'differ in {differ} searches'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="the parent's src directory")
    parser.add_argument("change", type=Path, help="the change's src directory")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions of every (state, seed) search (default: 3)")
    parser.add_argument("--scenarios", type=int, default=None,
                        help="K (default: the planner's)")
    parser.add_argument("--depth", type=int, default=None,
                        help="D (default: the planner's)")
    args = parser.parse_args(argv)
    sides = (Side(args.base, "causalplan_ab_base"), Side(args.change, "causalplan_ab_change"))
    default = sides[1].despot.PlannerConfig()
    scenarios = default.scenarios if args.scenarios is None else args.scenarios
    depth = default.depth if args.depth is None else args.depth
    print(f"K = {scenarios}, D = {depth}, {args.reps} repetitions, seeds 0-9", flush=True)
    failed = False
    for mode in ("interventional", "observational"):
        times, differ = compare(sides, mode, args.reps, scenarios, depth)
        print(summary(mode, times, differ), flush=True)
        failed |= differ > 0
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Paired benchmark runs of two checkouts of the repository.

Runs ``bench/run.py --trace 0`` in two checkout directories alternately,
the parent (``base``) and the change, and swaps which side goes first in
every other pair, so a drift of the machine falls on both sides alike::

    python3 tools/paired_bench.py BASE_DIR CHANGE_DIR --workload eval-int \\
        --seeds 11 23 --pairs 5 --seconds 10

Both sides must be clean copies, each made from ``git ls-files`` into a
fresh directory: what building and testing leave in a working tree moves
the timings of code the change does not touch.  For a commit and for the
tracked files of a working tree::

    git archive PARENT | tar -x -C BASE_DIR
    git ls-files -z | xargs -0 cp --parents -t CHANGE_DIR

Each pair runs both sides at one seed; ``--pairs`` pairs run per seed.  For
every end-to-end metric the summary gives each side's median and quartiles
over all pairs, the number of pairs the change won (ties count for neither
side), and whether the change's median lies beyond the base's
interquartile range from the base's median: ``better`` or ``worse`` if it
does, ``no`` if it does not.  The direction of each metric is read from the
change's ``BENCHMARK.json`` (lower is better where it names none).  The last
line says whether every run's ``output_sha256`` equals the other side's at
the same seed.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run(text: str) -> dict:
    """The metrics and ``output_sha256`` of one ``bench/run.py`` output:
    ``{"metrics": {name: value}, "failed": n, "sha": digest}``."""
    meta, result = None, None
    for line in text.splitlines():
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if meta is None or result is None:
        raise ValueError("no meta or result line in the benchmark output")
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "failed": result["failed"], "sha": meta.get("output_sha256")}


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(done.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric of the ``(base, change)`` run pairs: each side's
    quartiles, the change's wins, and ``beyond``: ``"better"`` or
    ``"worse"`` if the change's median lies beyond the base's interquartile
    range from the base median, else ``"no"``.  ``better`` maps a metric to
    ``"lower"`` or ``"higher"``."""
    out = {}
    for name in pairs[0][0]["metrics"]:
        base = [b["metrics"][name] for b, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        sign = 1 if better.get(name, "lower") == "lower" else -1
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        beyond = "no" if abs(cm - bm) <= b3 - b1 else (
            "better" if sign * (bm - cm) > 0 else "worse")
        out[name] = {"base": (b1, bm, b3), "change": (c1, cm, c3), "wins": wins,
                     "pairs": len(pairs), "beyond": beyond}
    return out


def same_outputs(pairs: list[tuple[dict, dict]]) -> bool:
    return all(b["sha"] == c["sha"] for b, c in pairs)


def report(summary: dict, same: bool, failed: tuple[int, int]) -> str:
    lines = [f"{'metric':<18} {'base q1/median/q3':>30} {'change q1/median/q3':>30}"
             f" {'wins':>7} beyond base IQR"]
    for name, s in summary.items():
        base = "/".join(f"{v:.4g}" for v in s["base"])
        change = "/".join(f"{v:.4g}" for v in s["change"])
        lines.append(f"{name:<18} {base:>30} {change:>30} "
                     f"{s['wins']:>3}/{s['pairs']:<3} {s['beyond']}")
    lines.append(f"failed operations: base {failed[0]}, change {failed[1]}")
    lines.append(f"output_sha256 equal: {'yes' if same else 'NO'}")
    return "\n".join(lines)


def directions(checkout: Path) -> dict[str, str]:
    try:
        spec = json.loads((checkout / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", [])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=5, help="pairs per seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    pairs = []
    for seed in args.seeds:
        for i in range(args.pairs):
            sides = {}
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                sides[side] = run_side(getattr(args, side), args.workload, seed,
                                       args.seconds)
            pairs.append((sides["base"], sides["change"]))
            lat = [sides[s]["metrics"].get("latency_ms.mean") for s in ("base", "change")]
            print(f"seed {seed} pair {i} ({order[0]} first): latency_ms.mean "
                  f"base {lat[0]} change {lat[1]}", flush=True)
    failed = (sum(b["failed"] for b, _ in pairs), sum(c["failed"] for _, c in pairs))
    print(report(summarize(pairs, directions(args.change)), same_outputs(pairs), failed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Correctness checks on the files the CLI writes.

Each check returns a list of problems (empty when the output is correct)
together with the quality figures it parsed.  The checks read the files as a
user would and do not import the package, so they stay independent of it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

ACTIONS = {"RIGHT", "UP", "LEFT", "DOWN"}
OUTCOMES = ("goal", "collision", "timeout")
EPISODES_HEADER = "episode,seed,reward,outcome,steps,actions"
# Acceptance criterion 3 holds the seed-0 fit from 800k records to these.
KL_TOLERANCE = 0.005
TABLE_ERROR_TOLERANCE = 0.01
# Over seeds 0-149 at 800k records, 8% of fits exceed 0.01 in max table
# error and the largest reached 0.0144 (KL stayed below 0.00035), so a fit
# from another seed is held to this wider bound; a broken fit is far above.
TABLE_ERROR_ANY_SEED = 0.025


def _key_values(text: str) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {key.strip(): value.strip() for key, value in pairs}


def check_eval(out: Path, episodes: int, max_steps: int):
    """Check ``episodes.csv`` and ``summary.txt`` of one ``eval`` call.

    Returns ``(problems, rewards, goals)``.
    """
    problems: list[str] = []
    lines = (out / "episodes.csv").read_text().splitlines()
    if not lines or lines[0] != EPISODES_HEADER:
        return ["episodes.csv header is wrong"], [], 0
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != episodes:
        problems.append(f"episodes.csv has {len(rows)} rows, expected {episodes}")
    rewards: list[float] = []
    counts = dict.fromkeys(OUTCOMES, 0)
    for i, row in enumerate(rows):
        try:
            index, _, reward, outcome, steps, actions = row
            reward, steps = float(reward), int(steps)
            if int(index) != i:
                problems.append(f"row {i}: episode index {index}")
        except ValueError:
            problems.append(f"row {i}: malformed")
            continue
        if not math.isfinite(reward):
            problems.append(f"row {i}: reward {reward}")
        if outcome not in counts:
            problems.append(f"row {i}: outcome {outcome!r}")
        else:
            counts[outcome] += 1
        taken = actions.split("|") if actions else []
        if not 1 <= steps <= max_steps or len(taken) != steps:
            problems.append(f"row {i}: {steps} steps, {len(taken)} actions")
        if not set(taken) <= ACTIONS:
            problems.append(f"row {i}: unknown action in {actions!r}")
        rewards.append(reward)

    summary = _key_values((out / "summary.txt").read_text())
    try:
        mean = float(summary["mean"])
        if int(summary["episodes"]) != len(rewards):
            problems.append("summary episode count differs from episodes.csv")
        for outcome in OUTCOMES:
            if int(summary[outcome]) != counts[outcome]:
                problems.append(f"summary {outcome} count differs from episodes.csv")
    except (KeyError, ValueError):
        return problems + ["summary.txt is malformed"], rewards, counts["goal"]
    if rewards:
        csv_mean = float(np.mean(rewards))
        if not abs(mean - csv_mean) <= 1e-9 * max(1.0, abs(csv_mean)):
            problems.append(f"summary mean {mean!r} != episodes.csv mean {csv_mean!r}")
    return problems, rewards, counts["goal"]


def check_learn(out: Path, table_tolerance: float = TABLE_ERROR_ANY_SEED):
    """Check ``learn_report.txt``: KL within the criterion-3 tolerance and
    the largest table error within ``table_tolerance``.

    Returns ``(problems, kl_full_transition)``.
    """
    report = _key_values((out / "learn_report.txt").read_text())
    try:
        kl = float(report["kl_full_transition"])
        errors = [float(report[f"max_abs_error_{mode}"])
                  for mode in ("interventional", "observational")]
    except (KeyError, ValueError):
        return ["learn_report.txt is malformed"], math.nan
    problems = []
    if not 0.0 <= kl <= KL_TOLERANCE:
        problems.append(f"kl_full_transition {kl!r} outside [0, {KL_TOLERANCE}]")
    if not all(0.0 <= e <= table_tolerance for e in errors):
        problems.append(f"table error {errors} above {table_tolerance}")
    if not (out / "params.txt").is_file():
        problems.append("params.txt is missing")
    return problems, kl


def search_bounds(result):
    """The root ``(lower, upper)`` of a ``search`` result: today an
    ``(action, (lower, upper))`` tuple, or an object with ``lower`` and
    ``upper`` attributes."""
    if isinstance(result, tuple) and len(result) == 2:
        return tuple(result[1])
    return result.lower, result.upper

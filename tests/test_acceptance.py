"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Episode counts exceed the stated minimums where that buys statistical
headroom; all tolerances are the stated ones.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from causalplan import cli, gridworld, learning
from causalplan.despot import DespotTree, PlannerConfig, run_episode, sample_scenarios
from causalplan.model import Belief, TransitionMode
from causalplan.scm import exact_query, importance_query

from helpers import (
    brute_force_optimum, dist_prob, first_action, hand_confounded_tables,
    total_variation, two_state_model,
)

INT = TransitionMode.INTERVENTIONAL
OBS = TransitionMode.OBSERVATIONAL
RIGHT, UP = 0, 1

PAPER_DO_UP_FORWARD = 0.7229
PAPER_OBS_UP_FORWARD = 0.1914


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def learned_800k(truth):
    params = learning.fit(learning.generate_dataset(truth, 800_000, seed=0))
    return learning.assemble_model(truth, params), params


def test_criterion_1_inference_oracle_parity(grid):
    start = time.perf_counter()
    truth = gridworld.build_model(grid)
    do_tables, obs_tables = hand_confounded_tables()
    worst = 0.0
    for a, action in enumerate(truth.actions):
        got_do = truth.region_rows(INT)[a]
        got_obs = truth.region_rows(OBS)[a]
        worst = max(
            worst,
            float(np.abs(got_do - do_tables[action]).max()),
            float(np.abs(got_obs - obs_tables[action]).max()),
        )
    assert worst <= 1e-12
    up_do = dist_prob(truth.region_rows(INT)[UP], "north")
    up_obs = dist_prob(truth.region_rows(OBS)[UP], "north")
    assert up_do == pytest.approx(0.73, abs=1e-12)
    assert up_obs == pytest.approx(89 / 420, abs=1e-12)
    # our exact dynamics sit within 0.03 of the paper's learned-model readouts
    assert abs(up_do - PAPER_DO_UP_FORWARD) <= 0.03
    assert abs(up_obs - PAPER_OBS_UP_FORWARD) <= 0.03
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_importance_sampling_convergence(confounded_fragment):
    start = time.perf_counter()
    exact = exact_query(confounded_fragment, "DS", intervention={"A": UP})
    tv = {}
    for n in (5_000, 1_000_000):
        tv[n] = np.mean([
            total_variation(
                exact,
                importance_query(
                    confounded_fragment, "DS", intervention={"A": UP},
                    n_particles=n, rng=np.random.default_rng(seed),
                ),
            )
            for seed in range(20)
        ])
    assert tv[5_000] <= 0.02
    assert tv[1_000_000] <= 0.002
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"TV@5k={tv[5000]:.4f}, TV@1M={tv[1_000_000]:.5f}, {elapsed:.1f}s")


def test_criterion_3_learning_fidelity(truth):
    start = time.perf_counter()
    params = learning.fit(learning.generate_dataset(truth, 800_000, seed=0))
    learned = learning.assemble_model(truth, params)
    kl = learning.eval_kl_full_transition(learned, truth)
    err = learning.max_abs_table_error(learned, truth, INT)
    p_u_err = np.abs(params.p_u.values[0] - [0.1, 0.8, 0.1]).max()
    elapsed = time.perf_counter() - start
    assert kl <= 0.005
    assert err <= 0.01
    assert p_u_err <= 0.005
    assert elapsed < 120.0

    desk_start = time.perf_counter()
    desk = learning.assemble_model(
        truth, learning.fit(learning.generate_dataset(truth, 100_000, seed=0))
    )
    desk_kl = learning.eval_kl_full_transition(desk, truth)
    desk_elapsed = time.perf_counter() - desk_start
    assert desk_kl <= 0.01
    assert desk_elapsed < 15.0
    report(
        3,
        f"KL800k={kl:.5f}, maxerr={err:.4f}, p_u err={p_u_err:.4f} "
        f"({elapsed:.1f}s); KL100k={desk_kl:.5f} ({desk_elapsed:.1f}s)",
    )


def _episode_batch(plan, execu, mode, n_episodes, trials):
    config = PlannerConfig(
        scenarios=500, depth=15, xi=0.95, regularization=0.01,
        budget_trials=trials, mode=mode, seed=0,
    )
    rewards = np.empty(n_episodes)
    first_actions = np.empty(n_episodes, dtype=int)
    for i in range(n_episodes):
        seed = int(np.random.SeedSequence((0, 4, i)).generate_state(1)[0])
        trace = run_episode(plan, execu, config, 15, seed)
        rewards[i] = trace.total_discounted_reward
        first_actions[i] = first_action(trace)
    return rewards, first_actions


@pytest.mark.slow
def test_criterion_4_planner_ordering(truth, learned_800k):
    start = time.perf_counter()
    learned, _ = learned_800k
    n_episodes, trials = 300, 2_000
    t_crit = stats.t.ppf(0.95, n_episodes - 1)
    details = []
    for source, plan in (("truth", truth), ("learned", learned)):
        r_int, f_int = _episode_batch(plan, truth, INT, n_episodes, trials)
        r_obs, f_obs = _episode_batch(plan, truth, OBS, n_episodes, trials)
        diff = r_int - r_obs
        t_stat = diff.mean() / (diff.std(ddof=1) / np.sqrt(n_episodes))
        up_rate = float(np.mean(f_int == UP))
        right_rate = float(np.mean(f_obs == RIGHT))
        assert diff.mean() > 0.0
        assert t_stat > t_crit, f"{source}: t={t_stat:.2f} <= {t_crit:.2f}"
        assert up_rate >= 0.90
        assert right_rate > 0.50
        details.append(
            f"{source}: INT {r_int.mean():.2f} > OBS {r_obs.mean():.2f} "
            f"(t={t_stat:.2f}), UP {up_rate:.2f}, RIGHT {right_rate:.2f}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 3600.0
    report(4, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_5_small_instance_optimality():
    start = time.perf_counter()
    model = two_state_model()
    config = PlannerConfig(
        scenarios=24, depth=3, xi=0.999999,
        regularization=0.0, budget_trials=100_000, seed=5,
    )
    belief = Belief(np.array([0.5, 0.5, 0.0, 0.0]))
    starts, streams = sample_scenarios(belief, 24, seed=5, depth=3)
    oracle = brute_force_optimum(model, starts, streams, 3, 0.95, config.mode)
    tree = DespotTree(model, config, belief)
    while True:
        before = (tree.root.lower, tree.root.upper)
        expanded = tree.run_trial()
        if tree.root.upper - tree.root.lower <= 1e-12:
            break
        if not expanded and (tree.root.lower, tree.root.upper) == before:
            break
    gap = abs(tree.root.lower - oracle)
    assert gap <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, f"|despot - enumeration| = {gap:.2e}, {elapsed:.2f}s")


def test_criterion_6_no_confounding_trace_equality(tmp_path):
    start = time.perf_counter()
    map_path = tmp_path / "free.map"
    map_path.write_text("G...\n.M..\n.#.#\nS..#\n")
    shared = [
        "simulate", "--map", str(map_path), "--steps", "15", "--seed", "42",
        "--scenarios", "300", "--budget-trials", "500", "--depth", "15",
    ]
    assert cli.main(shared + ["--mode", "interventional",
                              "--out", str(tmp_path / "i")]) == 0
    assert cli.main(shared + ["--mode", "observational",
                              "--out", str(tmp_path / "o")]) == 0
    trace_i = (tmp_path / "i" / "trace.csv").read_bytes()
    trace_o = (tmp_path / "o" / "trace.csv").read_bytes()
    assert trace_i == trace_o
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"byte-identical traces ({len(trace_i)} bytes), {elapsed:.1f}s")


def test_criterion_7_invariant_suites():
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest",
         str(Path(__file__).parent / "test_invariants.py"),
         "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(7, f"invariant suites green, {elapsed:.1f}s")

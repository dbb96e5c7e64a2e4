"""Planner tests: scenarios, bounds, trials, search, and episodes."""

import numpy as np
import pytest

from causalplan.despot import (
    DefaultValueTable,
    DespotNode,
    DespotTree,
    PlannerConfig,
    initial_upper_bound,
    run_episode,
    sample_scenarios,
    search,
)
from causalplan.model import Belief, TransitionMode, deterministic_step
from causalplan.scm import CategoricalTable, UsageError

from helpers import free_roam_model, two_state_model

INT = TransitionMode.INTERVENTIONAL
OBS = TransitionMode.OBSERVATIONAL
RIGHT, UP, LEFT, DOWN = 0, 1, 2, 3


class TestPlannerConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            PlannerConfig(scenarios=0)
        with pytest.raises(UsageError):
            PlannerConfig(gamma=1.0)
        with pytest.raises(UsageError):
            PlannerConfig(xi=0.0)
        with pytest.raises(UsageError):
            PlannerConfig(regularization=-0.1)


class TestSampleScenarios:
    def test_point_mass_belief(self, truth):
        b = Belief.point_mass(truth.n_states, 3)
        starts, _ = sample_scenarios(b, 50, seed=1, depth=5)
        assert np.all(starts == 3)

    def test_uniform_belief_counts(self, truth):
        n_free = truth.n_states - 2
        probs = np.zeros(truth.n_states)
        probs[:n_free] = 1.0 / n_free
        b = Belief(probs)
        counts = np.zeros(n_free)
        n_seeds = 20
        for seed in range(n_seeds):
            starts, _ = sample_scenarios(b, 500, seed=seed, depth=3)
            counts += np.bincount(starts, minlength=n_free)
        mean_counts = counts / n_seeds
        p = 1.0 / n_free
        sigma = np.sqrt(500 * p * (1 - p) / n_seeds)
        assert np.all(np.abs(mean_counts - 500 * p) <= 3 * sigma)

    def test_same_seed_reproduces_identically(self, truth):
        b = truth.initial_belief
        first = sample_scenarios(b, 40, seed=9, depth=8)
        second = sample_scenarios(b, 40, seed=9, depth=8)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_streams_differ_across_scenarios(self, truth):
        _, streams = sample_scenarios(truth.initial_belief, 10, seed=4, depth=6)
        assert streams.shape == (10, 6, 2)
        assert len({stream.tobytes() for stream in streams}) == 10

    def test_count_must_be_positive(self, truth):
        with pytest.raises(UsageError):
            sample_scenarios(truth.initial_belief, 0, seed=0)


def make_node(truth, config, state, k=16, phi=0.5, depth=0):
    streams = np.full((k, config.depth, 2), phi)
    node = DespotNode(depth, np.arange(k), np.full(k, state), k)
    return node, streams


def default_lower_bound(node, model, config, streams):
    """The node's default-policy bound as the planner forms it: the mean of
    its scenarios' table entries minus the regularization penalty."""
    values = DefaultValueTable(model, config, streams)[node.depth]
    return float(values[node.scenario_ids, node.states].mean()) - config.regularization


class TestBounds:
    def test_rollout_from_goal_adjacent_cell(self, truth):
        config = PlannerConfig(scenarios=16, depth=15, regularization=0.01, seed=0)
        s = truth.state_index((0, 2))
        # phi = 0.5 lands in the goal bucket of the UP transition CDF
        node, streams = make_node(truth, config, s)
        value = default_lower_bound(node, truth, config, streams)
        assert value == pytest.approx(99.0 - config.regularization, abs=1e-9)

    def test_all_terminal_node(self, truth):
        config = PlannerConfig(scenarios=8, depth=15, regularization=0.01, seed=0)
        node, streams = make_node(truth, config, truth.goal_state, k=8)
        assert default_lower_bound(node, truth, config, streams) == pytest.approx(
            -config.regularization
        )
        assert initial_upper_bound(node, truth, config) == 0.0

    def test_upper_bound_distance_one(self, truth):
        config = PlannerConfig(scenarios=8, depth=15, seed=0)
        node, _ = make_node(truth, config, truth.state_index((0, 2)), k=8)
        assert initial_upper_bound(node, truth, config) == pytest.approx(99.0)

    def test_upper_bound_distance_three(self, truth):
        config = PlannerConfig(scenarios=8, depth=15, seed=0)
        node, _ = make_node(truth, config, truth.state_index((0, 0)), k=8)
        expected = -1.0 - 0.95 + 0.95 ** 2 * 99.0
        assert initial_upper_bound(node, truth, config) == pytest.approx(
            expected, abs=1e-9
        )

    def test_upper_bound_zero_at_horizon(self, truth):
        config = PlannerConfig(scenarios=8, depth=4, seed=0)
        node, _ = make_node(truth, config, truth.state_index((0, 0)), k=8, depth=4)
        assert initial_upper_bound(node, truth, config) == 0.0


def scalar_rollout(model, config, state, stream, depth):
    """The default policy's discounted return from ``state`` at ``depth``,
    one :func:`deterministic_step` at a time."""
    value, discount = 0.0, 1.0
    for t in range(depth, config.depth):
        action = int(model.rollout_policy[state])
        state, _, r = deterministic_step(model, state, action, tuple(stream[t]),
                                         config.mode)
        value += discount * r
        discount *= config.gamma
    return value


class TestDefaultValueTable:
    @pytest.mark.parametrize("mode", [INT, OBS])
    @pytest.mark.parametrize("which", ["truth", "two_state"])
    def test_every_entry_equals_a_scalar_rollout(self, truth, which, mode):
        model = truth if which == "truth" else two_state_model()
        config = PlannerConfig(scenarios=10, depth=15, mode=mode, seed=3)
        _, streams = sample_scenarios(model.initial_belief, 10, seed=3, depth=15)
        table = DefaultValueTable(model, config, streams)
        for depth in range(config.depth, -1, -1):  # fill rows out of order
            row = table[depth]
            assert row.shape == (10, model.n_states)
            for k in range(10):
                for s in range(model.n_states):
                    assert row[k, s] == scalar_rollout(model, config, s, streams[k], depth)

    def test_one_policy_step_per_depth(self, truth, monkeypatch):
        calls = []
        step = type(truth).batch_policy_step

        def counted(self, *args):
            calls.append(1)
            return step(self, *args)

        monkeypatch.setattr(type(truth), "batch_policy_step", counted)
        config = PlannerConfig(scenarios=20, depth=15, seed=0)
        _, streams = sample_scenarios(truth.initial_belief, 20, seed=0, depth=15)
        table = DefaultValueTable(truth, config, streams)
        for depth in range(config.depth + 1):
            table[depth]
            table[depth]
        assert len(calls) <= config.depth


class TestRunTrial:
    def test_first_trial_expands_root_and_tightens(self, truth):
        config = PlannerConfig(scenarios=100, depth=10, budget_trials=10, seed=0)
        tree = DespotTree(truth, config, truth.initial_belief)
        lower0, upper0 = tree.bounds()
        expanded = tree.run_trial()
        assert expanded
        assert tree.n_expansions == 1
        lower1, upper1 = tree.bounds()
        assert lower1 >= lower0 - 1e-12
        assert upper1 <= upper0 + 1e-12

    def test_one_step_problem_converges_to_exact_optimum(self):
        model = two_state_model()
        config = PlannerConfig(
            scenarios=30, depth=1, gamma=0.95, xi=0.999999,
            regularization=0.0, budget_trials=1000, seed=12,
        )
        belief = Belief(np.array([0.5, 0.5, 0.0, 0.0]))
        starts, streams = sample_scenarios(belief, 30, seed=12, depth=1)
        best = max(
            np.mean([
                deterministic_step(model, s, a, tuple(stream[0]), config.mode)[2]
                for s, stream in zip(starts, streams)
            ])
            for a in range(model.n_actions)
        )
        tree = DespotTree(model, config, belief)
        while tree.run_trial():
            pass
        lower, upper = tree.bounds()
        assert lower == pytest.approx(best, abs=1e-12)
        assert upper == pytest.approx(best, abs=1e-12)

    def test_modes_value_up_differently_at_confounded_cell(self, truth):
        b = Belief.point_mass(truth.n_states, truth.state_index((0, 2)))
        values = {}
        for mode in (INT, OBS):
            config = PlannerConfig(
                scenarios=300, depth=10, budget_trials=400, mode=mode, seed=5
            )
            tree = DespotTree(truth, config, b)
            for _ in range(400):
                if not tree.run_trial():
                    break
            edge = tree.root.children[UP]
            values[mode] = tree._q_lower(edge, tree.root)
        assert values[INT] > values[OBS]
        assert values[INT] - values[OBS] > 30  # 0.73 vs 0.21 success mass


class TestSearch:
    def test_interventional_takes_left_path(self, truth):
        for seed in range(5):
            config = PlannerConfig(
                scenarios=500, depth=15, budget_trials=800, mode=INT, seed=seed
            )
            action, (lower, upper) = search(truth.initial_belief, truth, config)
            assert action == UP
            assert lower <= upper + 1e-6

    def test_observational_takes_right_path(self, truth):
        votes = []
        for seed in range(5):
            config = PlannerConfig(
                scenarios=500, depth=15, budget_trials=800, mode=OBS, seed=seed
            )
            action, _ = search(truth.initial_belief, truth, config)
            votes.append(action)
        assert sum(a == RIGHT for a in votes) >= 3

    def test_deterministic_given_seed(self, truth):
        config = PlannerConfig(scenarios=200, depth=12, budget_trials=300, seed=21)
        first = search(truth.initial_belief, truth, config)
        second = search(truth.initial_belief, truth, config)
        assert first == second

    def test_zero_budget_returns_default_action(self, truth):
        config = PlannerConfig(scenarios=50, depth=15, budget_trials=0, seed=0)
        action, _ = search(truth.initial_belief, truth, config)
        assert action == UP  # greedy default from the start cell


def find_episode(truth, predicate, budget_trials=0, max_seed=200, steps=15):
    config = PlannerConfig(
        scenarios=50, depth=15, budget_trials=budget_trials, seed=0
    )
    for seed in range(max_seed):
        trace = run_episode(truth, truth, config, steps, seed)
        if predicate(trace):
            return trace
    raise AssertionError("no episode matching the predicate found")


class TestRunEpisode:
    def test_left_path_reward(self, truth):
        trace = find_episode(
            truth,
            lambda tr: tr.outcome == "goal" and tr.n_steps == 3
            and all(s.action == UP for s in tr.steps),
        )
        expected = -1.0 - 0.95 + 0.95 ** 2 * 99.0
        assert trace.total_discounted_reward == pytest.approx(expected, abs=1e-9)

    def test_first_step_collision_reward(self, truth):
        trace = find_episode(
            truth, lambda tr: tr.outcome == "collision" and tr.n_steps == 1
        )
        assert trace.total_discounted_reward == pytest.approx(-51.0)

    def test_timeout_accumulates_discounted_step_costs(self):
        model = free_roam_model()
        config = PlannerConfig(scenarios=20, depth=15, budget_trials=50, seed=0)
        trace = run_episode(model, model, config, 15, seed=0)
        assert trace.outcome == "timeout"
        expected = -sum(0.95 ** t for t in range(15))
        assert trace.total_discounted_reward == pytest.approx(expected, abs=1e-9)

    def test_inconsistent_observation_resets_belief(self, truth):
        # planning model believes UP never drifts; execution truth does
        p_0 = np.array(truth.p_0.values)
        p_0[UP] = [1.0, 0.0, 0.0, 0.0]
        plan = truth.with_tables(
            truth.confounder_prior, truth.p_uc, CategoricalTable((4,), p_0)
        )
        config = PlannerConfig(scenarios=50, depth=15, budget_trials=0, seed=0)
        for seed in range(200):
            trace = run_episode(plan, truth, config, 15, seed)
            if trace.belief_resets > 0:
                return
        raise AssertionError("expected at least one flagged episode")

    def test_rejects_max_steps_below_one(self, truth):
        config = PlannerConfig(scenarios=10, budget_trials=0, seed=0)
        with pytest.raises(UsageError):
            run_episode(truth, truth, config, 0, seed=0)

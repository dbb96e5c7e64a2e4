"""Planner tests: scenarios, bounds, trials, search, and episodes."""

import gc
import hashlib
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from causalplan import cli, despot, gridworld, model as model_module, scm
from causalplan.despot import (
    DespotNode,
    DespotTree,
    PlannerConfig,
    run_episode,
    sample_scenarios,
    search,
)
from causalplan.model import Belief, TransitionMode, deterministic_step
from causalplan.scm import CategoricalTable, UsageError

from helpers import (
    assert_backups_hold,
    assert_stop_rule,
    bound_tables,
    descent_target,
    free_roam_model,
    node_scenarios,
    noisy_sensor_model,
    reach_mask,
    scalar_bounds,
    state_index,
    tree_nodes,
    two_state_model,
    watch_trials,
)

INT = TransitionMode.INTERVENTIONAL
OBS = TransitionMode.OBSERVATIONAL
RIGHT, UP, LEFT, DOWN = 0, 1, 2, 3


class TestPlannerConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            PlannerConfig(scenarios=0)
        with pytest.raises(UsageError):
            PlannerConfig(xi=0.0)
        with pytest.raises(UsageError):
            PlannerConfig(regularization=-0.1)
        with pytest.raises(UsageError, match="finite"):
            PlannerConfig(regularization=np.inf)
        with pytest.raises(UsageError):
            PlannerConfig(budget_ms=-5.0)


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
            sample_scenarios(truth.initial_belief, 0, seed=0, depth=5)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_must_be_positive(self, truth, depth):
        with pytest.raises(UsageError, match="depth must be >= 1"):
            sample_scenarios(truth.initial_belief, 10, 0, depth=depth)


def make_node(truth, config, state, k=16, phi=0.5, depth=0):
    streams = np.full((k, config.depth, 2), phi)
    node = DespotNode(depth, np.full(k, state) * k + np.arange(k), k)
    return node, streams


def node_bounds(node, model, config, streams):
    """The node's default value and upper bound as the planner forms them:
    the means of its scenarios' table entries, the first minus the
    regularization penalty."""
    states, ids = node_scenarios(node, len(streams))
    lower, upper = bound_tables(model, config, states, streams)
    d = node.depth
    return (float(lower[d][states, ids].mean()) - config.regularization,
            float(upper[d][states, ids].mean()))


class TestBounds:
    def test_rollout_from_goal_adjacent_cell(self, truth):
        config = PlannerConfig(scenarios=16, depth=15, regularization=0.01, seed=0)
        s = state_index(truth, (0, 2))
        # phi = 0.5 lands in the goal bucket of the UP transition CDF
        node, streams = make_node(truth, config, s)
        value, _ = node_bounds(node, truth, config, streams)
        assert value == pytest.approx(99.0 - config.regularization, abs=1e-9)

    def test_all_terminal_node(self, truth):
        config = PlannerConfig(scenarios=8, depth=15, regularization=0.01, seed=0)
        node, streams = make_node(truth, config, truth.goal_state, k=8)
        lower, upper = node_bounds(node, truth, config, streams)
        assert lower == pytest.approx(-config.regularization)
        assert upper == 0.0

    # phi = 0.5 moves every action forward, so the clairvoyant optimum is
    # the shortest path's return
    def test_upper_bound_distance_one(self, truth):
        config = PlannerConfig(scenarios=8, depth=15, seed=0)
        node, streams = make_node(truth, config, state_index(truth, (0, 2)), k=8)
        assert node_bounds(node, truth, config, streams)[1] == pytest.approx(99.0)

    def test_upper_bound_distance_three(self, truth):
        config = PlannerConfig(scenarios=8, depth=15, seed=0)
        node, streams = make_node(truth, config, state_index(truth, (0, 0)), k=8)
        expected = -1.0 - 0.95 + 0.95 ** 2 * 99.0
        assert node_bounds(node, truth, config, streams)[1] == pytest.approx(
            expected, abs=1e-9
        )

    def test_upper_bound_zero_at_horizon(self, truth):
        config = PlannerConfig(scenarios=8, depth=4, seed=0)
        node, streams = make_node(truth, config, state_index(truth, (0, 0)), k=8, depth=4)
        assert node_bounds(node, truth, config, streams)[1] == 0.0


def assert_tables_equal_scalar_bounds(model, config, belief):
    """Fills both bound tables for ``config`` from ``belief`` and checks
    every filled cell, those reachable from the start states, against the
    scalar backward recursion; returns the tables and the mask."""
    k, depth, mode = config.scenarios, config.depth, config.mode
    starts, streams = sample_scenarios(belief, k, config.seed, depth)
    tables = bound_tables(model, config, starts, streams)
    assert tables.shape == (2, depth + 1, model.n_states, k)
    reach = reach_mask(model, starts, depth, mode)
    for j in range(k):
        lower, upper = scalar_bounds(model, streams[j], depth, mode)
        assert np.array_equal(tables[0, :, :, j][reach], lower[reach])
        assert np.array_equal(tables[1, :, :, j][reach], upper[reach])
    return tables, reach


class TestDefaultValueTable:
    """Both bound tables of ``despot._fill_bounds``: the default-value
    (lower) table and the clairvoyant (upper) table."""

    @pytest.mark.parametrize("mode", [INT, OBS])
    @pytest.mark.parametrize("which", ["truth", "two_state"])
    def test_every_entry_equals_a_scalar_rollout(self, truth, which, mode):
        model = truth if which == "truth" else two_state_model()
        config = PlannerConfig(scenarios=10, depth=15, mode=mode, seed=3)
        assert_tables_equal_scalar_bounds(model, config, model.initial_belief)

    # the broadcast fill at its edge shapes: one lane, one depth, one
    # reachable state at depth 0, and none (the kernel sees an (A, 0, K) batch)
    @pytest.mark.parametrize("mode", [INT, OBS])
    @pytest.mark.parametrize("k, depth, where", [
        (1, 15, "start"), (10, 1, "start"), (10, 15, "confounded"), (10, 15, "goal"),
    ])
    def test_edge_shapes_equal_a_scalar_rollout(self, truth, mode, k, depth, where):
        state = {"start": truth.initial_belief.top_state, "goal": truth.goal_state,
                 "confounded": min(truth.confounded_states)}[where]
        config = PlannerConfig(scenarios=k, depth=depth, mode=mode, seed=5)
        belief = Belief.point_mass(truth.n_states, state)
        (_, upper), reach = assert_tables_equal_scalar_bounds(truth, config, belief)
        assert np.flatnonzero(reach[0]).tolist() == [state]
        assert upper[0][state].any() == (where != "goal")

    # on the shipped map's 17 interventional buckets, J is the largest
    # j <= D with 17**j <= K
    @pytest.mark.parametrize("k, tail", [(16, 0), (17, 1), (288, 1), (289, 2), (500, 2)])
    def test_one_policy_step_per_depth(self, grid, monkeypatch, k, tail):
        model = gridworld.build_model(grid)
        assert model.n_buckets(INT) == 17
        calls = []
        step = type(model).batch_policy_step

        def counted(self, *args):
            calls.append(1)
            return step(self, *args)

        monkeypatch.setattr(type(model), "batch_policy_step", counted)
        config = PlannerConfig(scenarios=k, depth=15, seed=0)
        starts, streams = sample_scenarios(model.initial_belief, k, seed=0, depth=15)
        counts = []
        for _ in range(2):
            bound_tables(model, config, starts, streams)
            counts.append(len(calls))
            calls.clear()
        # the last J depths read the tail tables, which the model's first
        # fill builds with one more step
        assert counts == [config.depth - tail + (tail > 0), config.depth - tail]

    def test_tail_tables_go_with_their_model(self, grid):
        model = gridworld.build_model(grid)
        config = PlannerConfig(scenarios=300, depth=5, budget_trials=5)
        search(model.initial_belief, model, config)
        tails = despot._MODEL_CACHES[model][1][INT]
        n = model.n_states
        assert [t.shape for t in tails] == [(2, n, 1), (2, n, 17), (2, n, 289)]
        # a copy with the same tables builds its own, equal tail tables
        other = model.with_tables(model.confounder_prior, model.p_uc, model.p_0)
        search(other.initial_belief, other, config)
        own = despot._MODEL_CACHES[other][1][INT]
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(own, tails, strict=True))
        refs = [weakref.ref(t) for t in tails]
        del model, tails
        gc.collect()
        assert [ref() for ref in refs] == [None] * 3


class TestSearchCounters:
    """Expansions and trials of searches from the shipped map's start,
    pinned: a change that makes the planner search more or less shows here,
    apart from one that only runs the same search faster.  The sha256 of the
    root bounds' ``repr`` pins them bit for bit, so a change that perturbs
    one float bit (a reordered sum, a new table layout) fails here too.  The
    hashes were re-pinned when a node's first bounds became ``reduceat``
    sums; the expansion counts and actions held."""

    BOUNDS_SHA256 = {
        INT: "69583e0f913c39f0d53f8b40896346e1cccc97bc57982c09100fb5d4ca694215",
        OBS: "f837ff06004dc2d3cd034843fdacc40156b06987d29c644a862e2b8d5438deea",
    }

    @pytest.mark.parametrize("mode, expansions, action",
                             [(INT, 122, UP), (OBS, 412, RIGHT)])
    def test_searches_from_the_start(self, truth, monkeypatch, mode, expansions,
                                     action):
        counts = {"_expand": 0, "run_trial": 0}
        for name in counts:
            def counted(self, *args, _name=name, _method=getattr(DespotTree, name)):
                counts[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(DespotTree, name, counted)
        results = [search(truth.initial_belief, truth, PlannerConfig(mode=mode, seed=s))
                   for s in range(20)]
        assert counts == {"_expand": expansions, "run_trial": expansions}
        assert {a for a, _ in results} == {action}
        bounds = repr([b for _, b in results]).encode()
        assert hashlib.sha256(bounds).hexdigest() == self.BOUNDS_SHA256[mode]


class TestBucketGridLifetime:
    """Each of a model's tables with CDF breaks, the two modes' laws,
    builds its bucket grid on its first lookup, keeps it, and drops it with
    itself and so with the model; the shipped sensor has no breaks and
    builds none."""

    @pytest.fixture
    def built(self, monkeypatch):
        made = []

        def counted(breaks, _make=scm._bucket_grid):
            made.append(len(breaks))
            return _make(breaks)

        monkeypatch.setattr(scm, "_bucket_grid", counted)
        return made

    def test_learn_and_tables_build_no_grid(self, built, tmp_path):
        assert cli.main(["learn", "--dataset-n", "100", "--out", str(tmp_path / "l")]) == 0
        assert cli.main(["tables", "--out", str(tmp_path / "t")]) == 0
        assert built == []

    def test_searches_build_one_grid_per_mode_and_none_for_observations(self, built):
        model = gridworld.build_model(gridworld.default_map())
        config = PlannerConfig(scenarios=50, depth=5, budget_trials=20)
        grids = []
        for mode in (INT, OBS, INT, OBS):
            search(model.initial_belief, model, replace(config, mode=mode))
            grids.append(len(built))
        assert grids == [1, 2, 2, 2]

    def test_grids_go_with_their_model(self):
        model = gridworld.build_model(gridworld.default_map())
        for mode in (INT, OBS):
            search(model.initial_belief, model,
                   PlannerConfig(scenarios=50, depth=5, budget_trials=20, mode=mode))
        assert "_grid" not in vars(model._sensor)
        grids = [weakref.ref(table._grid) for table in model._laws]
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None
        assert [grid() for grid in grids] == [None] * 2


class TestNoisySensor:
    """Episodes on :func:`helpers.noisy_sensor_model`, whose observation
    rows have CDF breaks and whose beliefs are not all point masses."""

    def test_episodes_keep_bounds_beliefs_and_caches_sound(self, monkeypatch):
        model = noisy_sensor_model()
        assert len(model._sensor.buckets[0]) > 0
        beliefs = []

        def checked(belief, plan_model, config):
            beliefs.append(belief.probs)
            _, streams = sample_scenarios(belief, config.scenarios, config.seed,
                                          config.depth)
            ids = plan_model.bucket_ids(streams, config.mode)
            law = plan_model._laws[model_module._MODE_INDEX[config.mode]]
            for half, table in enumerate((law, plan_model._sensor)):
                breaks, _ = table.buckets
                assert np.array_equal(ids[..., half],
                                      breaks.searchsorted(streams[..., half], side="right"))
            return search(belief, plan_model, config)

        monkeypatch.setattr(despot, "search", checked)
        steps = []
        for mode in (INT, OBS):
            config = PlannerConfig(scenarios=100, budget_trials=100, mode=mode)
            for seed in range(20):
                steps.extend(run_episode(model, model, config, 15, seed).steps)
        assert len(steps) == len(beliefs)
        assert all(step.lower <= step.upper for step in steps)
        assert all(abs(probs.sum() - 1.0) <= 1e-9 for probs in beliefs)
        assert any(probs.max() < 0.9 for probs in beliefs)
        # one reach entry per (mode, depth, start states): 13 for the 174
        # searches of these 40 episodes
        reach, _ = despot._MODEL_CACHES[model]
        assert len(reach) <= 16


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
            scenarios=30, depth=1, xi=0.999999,
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
        b = Belief.point_mass(truth.n_states, state_index(truth, (0, 2)))
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
            values[mode] = edge.q_lower
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


class TestMsBudget:
    """``budget_ms`` counts from entry to :func:`search`, set-up included;
    the clock is a fake one that only the set-up moves."""

    @pytest.mark.parametrize("mode", list(TransitionMode))
    @pytest.mark.parametrize("budget_ms, trials", [(1.0, False), (3.0, True)])
    def test_a_set_up_that_spends_the_budget_leaves_no_trial(self, truth, monkeypatch,
                                                             mode, budget_ms, trials):
        now, trees = [0.0], []

        class SlowSetUp(DespotTree):
            def __init__(self, *args):
                super().__init__(*args)
                now[0] += 2e-3
                self.first = self.bounds()
                trees.append(self)

        monkeypatch.setattr(despot, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(despot, "DespotTree", SlowSetUp)
        config = PlannerConfig(scenarios=50, depth=5, mode=mode, budget_ms=budget_ms,
                               budget_trials=20)
        action, bounds = search(truth.initial_belief, truth, config)
        (tree,) = trees
        assert (tree.n_trials > 0) == trials
        if not trials:
            assert (action, bounds) == (tree.default_action, tree.first)


class TestBestAction:
    """The returned action against the rules of ``best_action``, checked
    without a digest: the regularized edge bounds against the root's default
    value, and the default action at the root's most common start state."""

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_regularization_can_keep_the_default_action(self, truth, lam):
        config = PlannerConfig(scenarios=20, depth=3, regularization=lam, seed=0)
        tree = DespotTree(truth, config, truth.initial_belief)
        assert tree.run_trial() and tree.root.children is not None
        best = (tree.default_action + 1) % truth.n_actions
        for a, edge in enumerate(tree.root.children):
            edge.q_lower = 1.0 if a == best else -10.0
        tree.root.default_value = 0.8   # q_lower - 0.5 < 0.8 < q_lower
        assert tree.best_action() == (best if lam == 0 else tree.default_action)

    def test_default_action_is_the_most_common_starts(self, truth):
        policy = truth.rollout_policy
        rare = 0
        common = next(s for s in range(truth.n_states - 2) if policy[s] != policy[rare])
        probs = np.zeros(truth.n_states)
        probs[[rare, common]] = 0.3, 0.7
        belief = Belief(probs)
        k, depth = 20, 5

        def starts(seed):
            return sample_scenarios(belief, k, seed, depth)[0]

        # a seed whose first start is the less likely state
        seed = next(s for s in range(100) if starts(s)[0] == rare
                    and np.bincount(starts(s)).argmax() == common)
        config = PlannerConfig(scenarios=k, depth=depth, budget_trials=0, seed=seed)
        action, _ = search(belief, truth, config)
        assert action == policy[common] != policy[rare]


class TestSearchRules:
    """The descent, the backup and the stop rule of a search, each against
    its oracle in ``tests/helpers.py`` rather than a digest: the searches of
    ``TestSearchCounters`` and searches on a noisy sensor, whose nodes have
    several observation children."""

    @pytest.fixture(scope="class")
    def noisy(self):
        return noisy_sensor_model()

    def searches(self, model, mode, lam=0.01, seeds=range(20), scenarios=500):
        for seed in seeds:
            config = PlannerConfig(scenarios=scenarios, regularization=lam, mode=mode,
                                   seed=seed)
            yield config, search(model.initial_belief, model, config)

    @pytest.mark.parametrize("mode", [INT, OBS])
    @pytest.mark.parametrize("which", ["truth", "noisy"])
    def test_each_trial_expands_the_descent_rules_node(self, request, monkeypatch,
                                                       which, mode):
        def expanded_it(tree, expanded, node):
            assert expanded == (node is not None)
            assert node is None or node.children is not None

        log = watch_trials(monkeypatch, descent_target, expanded_it)
        seeds = range(20) if which == "truth" else range(6)
        for _ in self.searches(request.getfixturevalue(which), mode, seeds=seeds):
            pass
        assert sum(expanded for _, _, expanded in log) > len(seeds)

    @pytest.mark.parametrize("mode", [INT, OBS])
    @pytest.mark.parametrize("lam", [0.01, 0.5])
    def test_every_trial_leaves_each_node_backed_up(self, truth, noisy, monkeypatch,
                                                    lam, mode):
        watch_trials(monkeypatch, after=lambda tree, *_: assert_backups_hold(tree))
        for model in (truth, noisy):
            for _ in self.searches(model, mode, lam, seeds=range(3), scenarios=100):
                pass

    @pytest.mark.parametrize("mode", [INT, OBS])
    @pytest.mark.parametrize("lam", [0.01, 0.5])
    def test_searches_stop_by_the_stop_rule(self, truth, noisy, monkeypatch, lam, mode):
        log = watch_trials(monkeypatch)
        for model in (truth, noisy):
            for config, (_, bounds) in self.searches(model, mode, lam, seeds=range(10)):
                assert_stop_rule(log, config, bounds)
                log.clear()
            config = PlannerConfig(scenarios=50, regularization=lam, mode=mode,
                                   budget_trials=3)
            _, bounds = search(model.initial_belief, model, config)
            assert_stop_rule(log, config, bounds)
            assert len(log) == 3
            log.clear()


class _FilledEmpty:
    """numpy as ``despot`` looks it up, but ``empty`` returns arrays filled
    with ``value``: the bound tables are the module's only ``np.empty``."""

    def __init__(self, value):
        self.value = value

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape):
        return np.full(shape, self.value)


class TestFreshBoundTables:
    """Each search fills fresh ``np.empty`` bound tables, of which
    ``_fill_bounds`` zeroes only row ``D`` and the terminal rows, so no
    search may read a cell it did not fill: tables that start as NaN must
    search as zeroed ones do."""

    @staticmethod
    def searched(monkeypatch, fill, model, belief, config):
        """``repr`` of a search's result, whose fresh tables start as
        ``fill``, and the depth and bounds of every node of its tree."""
        trees = []

        class Kept(DespotTree):
            def __init__(self, *args):
                super().__init__(*args)
                trees.append(self)

        with monkeypatch.context() as patched:
            patched.setattr(despot, "np", _FilledEmpty(fill))
            patched.setattr(despot, "DespotTree", Kept)
            result = search(belief, model, config)
        tree, = trees
        nodes = [(n.depth, n.lower, n.upper, n.default_value) for n in tree_nodes(tree)]
        return repr(result), nodes

    # the default config, and a horizon one fill step before the tail's J = 2
    # depths (17**2 and 18**2 <= K), whose searches reach depth-D nodes
    @pytest.mark.parametrize("mode", [INT, OBS])
    @pytest.mark.parametrize("k, depth", [(500, 15), (400, 3)])
    def test_poisoned_tables_search_as_zeroed_ones(self, truth, monkeypatch, mode, k,
                                                   depth):
        config = PlannerConfig(scenarios=k, depth=depth, mode=mode)
        assert truth.n_buckets(mode) ** 2 <= k < truth.n_buckets(mode) ** 3
        deepest = 0
        for state in range(truth.n_states - 2):
            belief = Belief.point_mass(truth.n_states, state)
            poisoned = self.searched(monkeypatch, np.nan, truth, belief, config)
            assert poisoned == self.searched(monkeypatch, 0.0, truth, belief, config)
            assert not np.isnan([bounds for _, *bounds in poisoned[1]]).any()
            deepest = max(deepest, *(d for d, *_ in poisoned[1]))
        # the short horizon's searches reach depth-D nodes, which read row D
        assert depth == 15 or deepest == depth


class TestBoundTableReuse:
    """Searches on one model share what the model keeps, its reach rows,
    tail tables and bucket grids, and nothing else: interleaved searches
    equal searches on fresh models, and a tree's tables are its own."""

    @staticmethod
    def config(mode, seed, depth=10):
        return PlannerConfig(scenarios=100, depth=depth, budget_trials=200,
                             mode=mode, seed=seed)

    def test_interleaved_searches_equal_searches_on_a_fresh_model(self, grid):
        model = gridworld.build_model(grid)
        # the start, the goal's neighbour, the confounded cell and a corner:
        # reach sets of different sizes, so each search meets stale rows
        starts = [model.initial_belief.top_state, state_index(model, (0, 2)),
                  min(model.confounded_states), state_index(model, (3, 3))]
        runs = [(mode, s, seed, 10) for seed in (0, 1) for s in starts
                for mode in (OBS, INT)]
        runs.insert(5, (INT, starts[0], 2, 4))   # another table shape between
        for mode, s, seed, depth in runs:
            belief = Belief.point_mass(model.n_states, s)
            config = self.config(mode, seed, depth)
            fresh = search(belief, gridworld.build_model(grid), config)
            reused = search(belief, model, config)
            assert repr(reused) == repr(fresh)

    def test_a_directly_built_tree_keeps_its_tables(self, grid, monkeypatch):
        model = gridworld.build_model(grid)
        start, belief = model.initial_belief, Belief.point_mass(
            model.n_states, state_index(model, (0, 2)))
        search(start, model, self.config(OBS, 0))
        tree = DespotTree(model, self.config(INT, 3), belief)
        tables = tree.tables
        kept = tables.copy()
        # a tree built on the model while a search runs gets other tables
        pairs = []
        trial = DespotTree.run_trial

        def build_a_tree(running):
            if not pairs:
                other = DespotTree(model, running.config, belief)
                pairs.append((running.tables, other.tables))
            return trial(running)

        monkeypatch.setattr(DespotTree, "run_trial", build_a_tree)
        result = search(start, model, self.config(INT, 1))
        monkeypatch.undo()
        assert pairs[0][0] is not pairs[0][1]
        assert result == search(start, gridworld.build_model(grid), self.config(INT, 1))
        # later searches on the model neither receive nor overwrite them
        for mode in (OBS, INT):
            for seed in range(3):
                search(start, model, self.config(mode, seed))
                search(belief, model, self.config(mode, seed))
        assert tree.tables is tables
        # bit for bit: the cells no search fills hold whatever np.empty gave
        assert tables.tobytes() == kept.tobytes()
        fresh = DespotTree(gridworld.build_model(grid), self.config(INT, 3), belief)
        for t in (tree, fresh):
            while t.run_trial():
                pass
        assert (tree.best_action(), tree.bounds()) == (fresh.best_action(), fresh.bounds())


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

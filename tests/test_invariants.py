"""Property suites for every module's declared invariants.

The acceptance gate runs this file as a unit; keep each class scoped to one
module's invariant list.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalplan import cli
from causalplan.despot import (
    DespotTree,
    PlannerConfig,
    run_episode,
    sample_scenarios,
)
from causalplan.learning import (
    assemble_model,
    eval_kl_full_transition,
    fit,
    generate_dataset,
)
from causalplan.model import Belief, TransitionMode, belief_update
from causalplan.scm import (
    CategoricalTable,
    ScmSpec,
    VariableId,
    exact_query,
    importance_query,
    sample_worlds,
)
from causalplan import gridworld

from helpers import (
    brute_force_optimum,
    mutilate,
    node_scenarios,
    permuted,
    slice_mean,
    specs_equal,
    total_variation,
    transition_matrix,
    tree_nodes,
    two_state_model,
)

INT = TransitionMode.INTERVENTIONAL
OBS = TransitionMode.OBSERVATIONAL


def dist_strategy(k):
    return st.lists(
        st.floats(0.01, 1.0, allow_nan=False), min_size=k, max_size=k
    ).map(lambda row: np.array(row) / np.sum(row))


# -- causal-model ----------------------------------------------------------------


class TestCausalModelInvariants:
    @given(prior=dist_strategy(3), rows=st.lists(dist_strategy(4), min_size=3, max_size=3))
    @settings(derandomize=True, max_examples=50, deadline=None)
    def test_query_outputs_normalized(self, prior, rows):
        spec = ScmSpec(
            exogenous=[(VariableId("U", 3), CategoricalTable((), prior))],
            endogenous=[(VariableId("V", 4), ("U",), CategoricalTable((3,), rows))],
        )
        for query in (
            exact_query(spec, "V"),
            exact_query(spec, "V", evidence={"U": 1}),
            exact_query(spec, "U", intervention={"V": 2}),
        ):
            assert abs(query.sum() - 1.0) <= 1e-9

    @given(
        a_prior=dist_strategy(3),
        rows=st.lists(dist_strategy(3), min_size=3, max_size=3),
        value=st.integers(0, 2),
    )
    @settings(derandomize=True, max_examples=50, deadline=None)
    def test_no_confounding_makes_do_equal_conditioning(self, a_prior, rows, value):
        # A has no parents, so intervening on it cannot sever any back door
        spec = ScmSpec(
            exogenous=[],
            endogenous=[
                (VariableId("A", 3), (), CategoricalTable((), a_prior)),
                (VariableId("V", 3), ("A",), CategoricalTable((3,), rows)),
            ],
        )
        by_do = exact_query(spec, "V", intervention={"A": value})
        by_seeing = exact_query(spec, "V", evidence={"A": value})
        assert by_do == pytest.approx(by_seeing, abs=1e-12)

    @given(a=st.integers(0, 3), ds=st.integers(0, 3))
    @settings(derandomize=True, max_examples=20, deadline=None)
    def test_mutilation_idempotent_and_commutative(self, confounded_fragment, a, ds):
        once = mutilate(confounded_fragment, {"A": a})
        assert specs_equal(mutilate(once, {"A": a}), once)
        both_orders = (
            mutilate(mutilate(confounded_fragment, {"A": a}), {"DS": ds}),
            mutilate(mutilate(confounded_fragment, {"DS": ds}), {"A": a}),
        )
        assert specs_equal(*both_orders)

    def test_importance_sampling_tv_decreases_with_particles(self, confounded_fragment):
        exact = exact_query(confounded_fragment, "DS", intervention={"A": 1})
        mean_tv = []
        for n in (100, 10_000, 1_000_000):
            tvs = [
                total_variation(
                    exact,
                    importance_query(
                        confounded_fragment, "DS", intervention={"A": 1},
                        n_particles=n, rng=np.random.default_rng(1000 + s),
                    ),
                )
                for s in range(20)
            ]
            mean_tv.append(np.mean(tvs))
        assert mean_tv[0] > mean_tv[1] > mean_tv[2]

    def test_forward_sampling_matches_exact_marginals(self, confounded_fragment, rng):
        worlds = sample_worlds(confounded_fragment, 1_000_000, rng)
        for name in ("U", "A", "DS"):
            arity = confounded_fragment.arity(name)
            freq = np.bincount(worlds[name], minlength=arity) / 1_000_000
            exact = exact_query(confounded_fragment, name)
            assert np.abs(freq - exact).max() <= 0.01


# -- scm-ucpomdp -------------------------------------------------------------------


class TestModelInvariants:
    def test_transition_rows_sum_to_one_in_both_modes(self, truth):
        for mode in (INT, OBS):
            sums = transition_matrix(truth, mode).sum(axis=2)
            assert np.abs(sums - 1.0).max() <= 1e-9

    def test_confounding_gap_is_material(self, truth):
        for s in truth.confounded_states:
            t_int = transition_matrix(truth, INT)[:, s, :]
            t_obs = transition_matrix(truth, OBS)[:, s, :]
            assert np.abs(t_int - t_obs).max() > 0.1

    def test_modes_identical_outside_region(self, truth):
        outside = [
            s for s in range(truth.n_states - 2)
            if s not in truth.confounded_states
        ]
        t_int = transition_matrix(truth, INT)[:, outside, :]
        t_obs = transition_matrix(truth, OBS)[:, outside, :]
        assert np.abs(t_int - t_obs).max() <= 1e-12

    def test_belief_update_preserves_simplex(self, truth, rng):
        b = Belief(np.full(truth.n_states, 1.0 / truth.n_states))
        for _ in range(100):
            a = int(rng.integers(truth.n_actions))
            pred = b.probs @ transition_matrix(truth, OBS)[a]
            feasible = np.flatnonzero(pred @ truth._sensor.values > 0)
            z = int(rng.choice(feasible))
            b = belief_update(truth, b, a, z, OBS)
            assert abs(b.probs.sum() - 1.0) <= 1e-9
            assert np.all(b.probs >= 0.0)

    def test_deterministic_step_marginal_is_product_law(self, rng):
        model = two_state_model()
        n = 1_000_000
        b = model.bucket_ids(rng.random((n, 2)), INT)
        rows = model.batch_step(np.zeros(n, dtype=int), b[:, 0], b[:, 1], INT)
        s2, z, _ = (x[1] for x in rows)
        joint = np.zeros((model.n_states, model.n_observations))
        np.add.at(joint, (s2, z), 1.0 / n)
        expected = (
            transition_matrix(model, INT)[1, 0][:, None] * model._sensor.values
        )
        assert np.abs(joint - expected).max() <= 0.005


# -- despot-planner ------------------------------------------------------------------


class TestPlannerInvariants:
    def _searched_tree(self, model, belief, mode, trials, seed, scenarios=200):
        config = PlannerConfig(
            scenarios=scenarios, depth=12, budget_trials=trials, mode=mode, seed=seed
        )
        tree = DespotTree(model, config, belief)
        lowers, uppers = [tree.root.lower], [tree.root.upper]
        for _ in range(trials):
            before = (tree.root.lower, tree.root.upper)
            expanded = tree.run_trial()
            lowers.append(tree.root.lower)
            uppers.append(tree.root.upper)
            if not expanded and (tree.root.lower, tree.root.upper) == before:
                break
        return tree, lowers, uppers

    def test_bound_sandwich_everywhere(self, truth):
        nodes = []
        beliefs = [
            Belief.point_mass(truth.n_states, s)
            for s in range(truth.n_states - 2)
        ]
        for seed, belief in enumerate(beliefs):
            for mode in (INT, OBS):
                tree, _, _ = self._searched_tree(truth, belief, mode, 200, seed)
                nodes.extend(tree_nodes(tree))
        assert len(nodes) > 1000
        for node in nodes:
            assert node.lower <= node.upper + 1e-6

    def test_root_bounds_are_anytime_monotone(self, truth):
        for mode in (INT, OBS):
            _, lowers, uppers = self._searched_tree(
                truth, truth.initial_belief, mode, 300, 11
            )
            assert all(b >= a - 1e-9 for a, b in zip(lowers, lowers[1:]))
            assert all(b <= a + 1e-9 for a, b in zip(uppers, uppers[1:]))

    def test_scenario_subsets_partition_parent(self, truth):
        tree, _, _ = self._searched_tree(truth, truth.initial_belief, OBS, 300, 17)
        k = tree.config.scenarios
        for node in tree_nodes(tree):
            if node.children is None:
                continue
            parent_ids = set(node_scenarios(node, k)[1].tolist())
            for edge in node.children:
                child_ids = [set(node_scenarios(c, k)[1].tolist()) for _, c in edge.children]
                merged = set().union(*child_ids)
                assert merged == parent_ids
                assert sum(len(c) for c in child_ids) == len(parent_ids)

    @pytest.mark.parametrize("mode", [INT, OBS])
    @pytest.mark.parametrize("which", ["truth", "two_state"])
    def test_expansions_and_stored_edge_bounds_match_loop_recomputation(
        self, truth, which, mode
    ):
        self._assert_expansions_match_loop_recomputation(
            truth if which == "truth" else two_state_model(), mode, 200)

    @pytest.mark.parametrize("mode", [INT, OBS])
    def test_expansions_match_loop_recomputation_at_seven_scenarios(self, truth, mode):
        # a cell stride of 7, away from the default K
        self._assert_expansions_match_loop_recomputation(truth, mode, 7)

    def _assert_expansions_match_loop_recomputation(self, model, mode, k):
        """The per-action, per-observation expansion and the Q sums of K =
        ``k`` searches, recomputed one child at a time and compared with
        exact ==: from the start belief, then every point mass, until 20
        nodes are expanded."""
        beliefs = [model.initial_belief] + [
            Belief.point_mass(model.n_states, s) for s in range(model.n_states - 2)
        ]
        expanded = 0
        for belief in beliefs:
            if expanded >= 20:
                break
            tree, _, _ = self._searched_tree(model, belief, mode, 300, 3, k)
            config, (lower, upper) = tree.config, tree.tables
            for node in tree_nodes(tree):
                if node.children is None:
                    continue
                expanded += 1
                states, ids = node_scenarios(node, k)
                n = len(ids)
                b1, b2 = tree.buckets[node.depth][:, ids]
                assert len(node.children) == model.n_actions
                rows = model.batch_step(states, b1, b2, mode)
                for a, edge in enumerate(node.children):
                    s2, z, r = (x[a] for x in rows)
                    assert edge.avg_reward == float(np.mean(r))
                    assert [obs for obs, _ in edge.children] == np.unique(z).tolist()
                    low = up = 0.0
                    for obs, child in edge.children:
                        child_states, child_ids = node_scenarios(child, k)
                        assert np.array_equal(child_ids, ids[z == obs])
                        assert np.array_equal(child_states, s2[z == obs])
                        d = child.depth
                        cells = (child_states, child_ids)
                        assert child.default_value == slice_mean(
                            lower[d][cells]) - config.regularization
                        if child.children is None:
                            assert child.upper == slice_mean(upper[d][cells])
                            assert child.lower == child.default_value
                        low += len(child_ids) * child.lower
                        up += len(child_ids) * child.upper
                    assert edge.q_lower == edge.avg_reward + model.discount * low / n
                    assert edge.q_upper == edge.avg_reward + model.discount * up / n
        assert expanded >= 20

    def test_modes_coincide_without_confounding(self):
        grid = gridworld.parse_map("G...\n.M..\n.#.#\nS..#\n")
        model = gridworld.build_model(grid)
        assert not model.confounded_states
        for seed in (0, 1):
            traces = {}
            for mode in (INT, OBS):
                config = PlannerConfig(
                    scenarios=200, depth=12, budget_trials=300, mode=mode, seed=0
                )
                traces[mode] = run_episode(model, model, config, 12, seed)
            assert [s.action for s in traces[INT].steps] == [
                s.action for s in traces[OBS].steps
            ]
            assert (
                traces[INT].total_discounted_reward
                == traces[OBS].total_discounted_reward
            )

    def test_small_instance_matches_policy_tree_enumeration(self):
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
        assert tree.root.lower == pytest.approx(oracle, abs=1e-9)
        assert tree.root.upper == pytest.approx(oracle, abs=1e-9)


# -- model-learning ------------------------------------------------------------------


class TestLearningInvariants:
    def test_kl_non_increasing_in_dataset_size(self, truth):
        sizes = (1_000, 10_000, 100_000, 800_000)
        means = []
        for n in sizes:
            kls = []
            for seed in range(5):
                learned = assemble_model(truth, fit(generate_dataset(truth, n, seed)))
                kls.append(eval_kl_full_transition(learned, truth))
            means.append(np.mean(kls))
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_privileged_confounder_prevents_bias(self, truth):
        params = fit(generate_dataset(truth, 800_000, seed=8))
        for a in range(truth.n_actions):
            for u in range(truth.n_confounder):
                row = a * truth.n_confounder + u
                fitted = params.p_uc.values[row]
                mechanism = truth.p_uc.values[row]
                mixture = truth.region_rows(OBS)[a]
                assert np.abs(fitted - mechanism).max() <= 0.06
                if np.abs(mechanism - mixture).max() > 0.2:
                    assert (
                        np.abs(fitted - mechanism).max()
                        < np.abs(fitted - mixture).max()
                    )

    def test_every_learned_probability_positive(self, truth):
        params = fit(generate_dataset(truth, 2_000, seed=2), smoothing=0.5)
        for table in (params.p_u, params.p_uc, params.p_0):
            assert np.all(table.values > 0.0)

    def test_fit_order_independent(self, truth):
        ds = generate_dataset(truth, 20_000, seed=6)
        shuffled = permuted(ds, np.random.default_rng(3).permutation(len(ds)))
        a, b = fit(ds), fit(shuffled)
        assert np.array_equal(a.p_uc.values, b.p_uc.values)
        assert np.array_equal(a.p_0.values, b.p_0.values)
        assert np.array_equal(a.p_u.values, b.p_u.values)


# -- experiment-cli -------------------------------------------------------------------


class TestCliInvariants:
    FAST = ["--scenarios", "80", "--budget-trials", "150", "--depth", "12"]

    def test_commands_are_deterministic(self, tmp_path):
        args = ["eval", "--episodes", "3", "--steps", "6", "--seed", "13", *self.FAST]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("episodes.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_summary_statistics_match_episode_rows(self, tmp_path):
        assert cli.main([
            "eval", "--episodes", "5", "--steps", "6", "--seed", "23",
            "--out", str(tmp_path), *self.FAST,
        ]) == 0
        rows = [
            line for line in (tmp_path / "episodes.csv").read_text().splitlines()[1:]
        ]
        rewards = np.array([float(r.split(",")[2]) for r in rows])
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / "summary.txt").read_text().splitlines()
            if "=" in line and not line.startswith("hist")
        )
        assert float(summary["mean"]) == pytest.approx(rewards.mean(), abs=1e-9)
        assert float(summary["stderr"]) == pytest.approx(
            rewards.std(ddof=1) / np.sqrt(len(rewards)), abs=1e-9
        )

    def test_mode_flag_is_inert_without_confounding(self, tmp_path):
        map_path = tmp_path / "free.map"
        map_path.write_text("G...\n.M..\n.#.#\nS..#\n")
        shared = [
            "eval", "--map", str(map_path), "--episodes", "3", "--steps", "6",
            "--seed", "31", *self.FAST,
        ]
        assert cli.main(shared + ["--mode", "interventional",
                                  "--out", str(tmp_path / "i")]) == 0
        assert cli.main(shared + ["--mode", "observational",
                                  "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "i" / "episodes.csv").read_bytes() == (
            tmp_path / "o" / "episodes.csv"
        ).read_bytes()

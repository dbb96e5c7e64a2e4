"""Planner oracles on small random models.

A hypothesis strategy draws small :class:`UcPomdpModel` instances: 2-4
ordinary states, 2-3 actions and 2-3 ordinary observations, successors that
may be the terminals, probability rows with zero entries and tied CDF values,
and rewards of either sign.  Each property checks a batched kernel against
the scalar step, or a search's bounds against the determinized optimum.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalplan.despot import DespotTree, PlannerConfig
from causalplan.model import (
    Belief,
    InconsistentObservationError,
    TransitionMode,
    UcPomdpModel,
    belief_update,
    deterministic_step,
)
from causalplan.scm import CategoricalTable, exact_query

from helpers import (
    assert_kernels_equal_scalar_step,
    assert_mechanism_rows_fold,
    assert_successor_masks_equal_reach,
    assert_transition_rows_fold,
    bound_tables,
    brute_force_optimum,
    buckets_of,
    determinized_optimum,
    free_roam_model,
    node_scenarios,
    reach_mask,
    scalar_bounds,
    transition_matrix,
    tree_nodes,
    two_state_inputs,
)

MODES = st.sampled_from(list(TransitionMode))
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def small_models(draw, repeated_successors=False):
    """A random model; with ``repeated_successors`` every state's last
    relative outcome leads where its first does."""
    n = draw(st.integers(2, 4))      # ordinary states
    n_a = draw(st.integers(2, 3))
    n_z = draw(st.integers(2, 3))    # ordinary observations
    n_ds = draw(st.integers(2, 3))
    n_u = draw(st.integers(1, 2))

    def ints(shape, low, high):
        size = int(np.prod(shape))
        values = draw(st.lists(st.integers(low, high), min_size=size, max_size=size))
        return np.array(values).reshape(shape)

    def rows(count, width, low=0):
        # small integer weights make zero entries and equal CDF steps common
        w = ints((count, width), low, 3)
        w[w.sum(axis=1) == 0, 0] = 1
        return w / w.sum(axis=1, keepdims=True)

    def successors():
        table = ints((n, n_ds), 0, n + 1)
        if repeated_successors:
            table[:, -1] = table[:, 0]
        return table

    return UcPomdpModel(
        state_labels=range(n),
        actions=[f"a{i}" for i in range(n_a)],
        ds_labels=[f"d{i}" for i in range(n_ds)],
        observation_labels=[*range(n_z), "terminal"],
        confounder_prior=CategoricalTable((), rows(1, n_u)),
        # every action keeps some mass, so conditioning on it is defined
        reactive_policy=CategoricalTable((n_u,), rows(n_u, n_a, low=1)),
        confounded_states=draw(st.lists(st.integers(0, n - 1), unique=True)),
        p_uc=CategoricalTable((n_a, n_u), rows(n_a * n_u, n_ds)),
        p_0=CategoricalTable((n_a,), rows(n_a, n_ds)),
        successor_table=successors(),
        observation_table=CategoricalTable((n,), np.hstack([rows(n, n_z),
                                                            np.zeros((n, 1))])),
        rewards=ints((n_a, n, n + 2), -4, 4) / 2,
        discount=draw(st.sampled_from([0.5, 0.9, 0.95])),
        initial_belief=rows(1, n)[0],
        # one action everywhere: an open-loop policy, so its return is a
        # policy tree's and the default value a valid lower bound
        rollout_policy=[draw(st.integers(0, n_a - 1))] * n,
        name="random",
    )


def unit_draws(model, rng, shape):
    """Draws in [0, 1), half of them exact CDF values, where ties and bucket
    edges sit."""
    u = rng.random(shape)
    edges = np.concatenate([law.cdf.ravel() for law in (*model._laws, model._sensor)])
    edges = edges[edges < 1.0]
    at = rng.random(shape) < 0.5
    u[at] = rng.choice(edges, at.sum())
    return u


def nan_outside_reach(tree):
    """Sets every bound-table cell that the root's start states cannot
    reach to NaN, so a search that reads one gets a NaN bound."""
    config = tree.config
    starts, _ = node_scenarios(tree.root, config.scenarios)
    reach = reach_mask(tree.model, starts, config.depth, config.mode)
    for rows in tree.tables:
        rows[np.broadcast_to(~reach[:, :, None], rows.shape)] = np.nan


def searched_tree(model, config, belief):
    """A tree searched to a stop, its unreached table cells set to NaN (so
    a NaN bound fails every comparison); asserts after every trial that the
    root bounds hold the determinized optimum of the root's scenarios and
    move monotonically."""
    tree = DespotTree(model, config, belief)
    nan_outside_reach(tree)
    starts, _ = node_scenarios(tree.root, config.scenarios)
    optimum = determinized_optimum(model, starts, tree.streams, 0,
                                   config.depth, config.mode)
    history = [tree.bounds()]
    for _ in range(config.budget_trials):
        expanded = tree.run_trial()
        history.append(tree.bounds())
        if not expanded and history[-1] == history[-2]:
            break
    for lower, upper in history:
        assert lower <= optimum + 1e-9
        assert optimum <= upper + 1e-9
    for (low0, up0), (low1, up1) in zip(history, history[1:]):
        assert low1 >= low0 - 1e-9
        assert up1 <= up0 + 1e-9
    return tree


@given(model=small_models(), seed=SEEDS, mode=MODES)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_batch_kernels_equal_the_scalar_step(model, seed, mode):
    rng = np.random.default_rng(seed)
    states = rng.integers(0, model.n_states, 64)
    actions = rng.integers(0, model.n_actions, 64)
    phi1, phi2 = unit_draws(model, rng, 64), unit_draws(model, rng, 64)
    b1, b2 = buckets_of(model, phi1, phi2, mode)
    s2, z, r = model.batch_step(states, b1, b2, mode)
    # the outer contract: (action, state i, bucket j); its (a_i, i, i) cells
    # are the aligned steps
    policy_s2, policy_r = model.batch_policy_step(states, b1, mode)
    for i in range(64):
        s, a, u = int(states[i]), int(actions[i]), (phi1[i], phi2[i])
        assert (s2[a, i], z[a, i], r[a, i]) == deterministic_step(model, s, a, u, mode)
        assert (policy_s2[a, i, i], policy_r[a, i, i]) == (s2[a, i], r[a, i])
        assert (s2[1, i], z[1, i], r[1, i]) == deterministic_step(model, s, 1, u, mode)


@given(model=small_models(), mode=MODES)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_both_access_patterns_equal_the_scalar_step_in_every_bucket(model, mode):
    assert_kernels_equal_scalar_step(model, mode)


@given(model=small_models())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_successor_masks_are_one_step_of_reach(model):
    assert_successor_masks_equal_reach(model)


@given(model=small_models(), seed=SEEDS, mode=MODES,
       k=st.integers(1, 64), depth=st.integers(1, 6))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bound_tables_equal_the_scalar_recursion(model, seed, mode, k, depth):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, model.n_states - 2, k)
    streams = unit_draws(model, rng, (k, depth, 2))
    config = PlannerConfig(scenarios=k, depth=depth, mode=mode)
    table_lower, table_upper = bound_tables(model, config, starts, streams)
    # only the cells a search can read are filled
    reach = reach_mask(model, starts, depth, mode)
    for j in range(k):
        lower, upper = scalar_bounds(model, streams[j], depth, mode)
        assert np.array_equal(table_lower[:, :, j][reach], lower[reach])
        assert np.array_equal(table_upper[:, :, j][reach], upper[reach])


@given(model=small_models())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bucket_count_is_bounded_by_the_nonzeros(model):
    # at most 1 + the sum over rows of (nonzeros - 1) buckets; every break
    # lies below 1, so the draw just below 1 falls in the last bucket
    for mode in TransitionMode:
        last_trans, last_obs = model.bucket_ids([np.nextafter(1.0, 0.0)] * 2, mode)
        rows = transition_matrix(model, mode).reshape(-1, model.n_states)
        assert last_trans <= ((rows > 0).sum(axis=1) - 1).sum()
        assert last_obs <= ((model._sensor.values > 0).sum(axis=1) - 1).sum()


@given(model=small_models())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_folds_equal_the_entrywise_loop(model):
    # arbitrary successor tables: several outcomes often share a successor
    assert_transition_rows_fold(model)
    assert_mechanism_rows_fold(model)


@given(model=small_models(repeated_successors=True))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_successor_slots_are_the_distinct_successors(model):
    # slot j of state s is its j-th distinct successor, padded with the
    # largest at zero mass; every relative outcome's slot holds its successor
    for s, successors in enumerate(model.successor_table):
        distinct = np.unique(successors)
        padding = [distinct[-1]] * (model.n_ds - len(distinct))
        assert np.array_equal(model._slots[s], [*distinct, *padding])
        assert np.array_equal(model._slots[s, model._slot_of[s]], successors)
    assert_transition_rows_fold(model)


# sampled_from leans to its first entry: deep trees and a small xi, which
# descends until the gaps close
@given(model=small_models(), seed=st.integers(0, 10**6), mode=MODES,
       k=st.sampled_from([4, 3, 2, 1]), depth=st.sampled_from([3, 2, 1]),
       xi=st.sampled_from([0.01, 0.5, 0.95]),
       regularization=st.sampled_from([0.0, 0.01, 0.5]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_node_holds_its_scenarios_optimum(model, seed, mode, k, depth, xi,
                                               regularization):
    config = PlannerConfig(scenarios=k, depth=depth, mode=mode, seed=seed, xi=xi,
                           regularization=regularization, budget_trials=200)
    tree = searched_tree(model, config, model.initial_belief)
    for node in tree_nodes(tree):
        states, ids = node_scenarios(node, k)
        optimum = determinized_optimum(model, states, tree.streams[ids],
                                       node.depth, depth, mode)
        assert node.lower <= optimum + 1e-9
        assert optimum <= node.upper + 1e-9


@pytest.mark.xfail(strict=True, reason="the default policy's lower bound follows "
                   "the hidden state, which these observations do not reveal")
@pytest.mark.parametrize("mode", list(TransitionMode))
def test_root_sandwich_with_uninformative_observations(mode):
    # +1 for hold at left and for flip at right, by current state; the root
    # starts at (2.8525, 2.8525) against an optimum of 0.95125
    rewards = np.where(np.eye(2, dtype=bool), 1.0, -1.0)[:, :, None].repeat(4, axis=2)
    model = UcPomdpModel(**{
        **two_state_inputs(), "rewards": rewards, "rollout_policy": [0, 1],
        "observation_table": CategoricalTable((2,), [[0.5, 0.5, 0.0]] * 2)})
    config = PlannerConfig(scenarios=4, depth=3, seed=0, regularization=0.0, mode=mode)
    tree = DespotTree(model, config, model.initial_belief)
    starts, _ = node_scenarios(tree.root, 4)
    optimum = determinized_optimum(model, starts, tree.streams, 0, 3, mode)
    for trial in range(31):
        lower, upper = tree.bounds()
        assert lower <= optimum + 1e-9 and optimum <= upper + 1e-9, (trial, lower, upper)
        tree.run_trial()


def test_root_sandwich_on_free_roam_model():
    # every reward is -1: a root lower bound floored at 0.0 sat above the
    # optimum, -2.8525, and above the root's upper bound
    model = free_roam_model()
    config = PlannerConfig(scenarios=4, depth=3, seed=0, budget_trials=200)
    start = DespotTree(model, config, model.initial_belief).bounds()
    assert start == pytest.approx((-2.8525 - config.regularization, -2.8525))
    searched_tree(model, config, model.initial_belief)


@given(model=small_models(), seed=SEEDS, mode=MODES, k=st.integers(1, 4),
       depth=st.integers(1, 2))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_recursive_optimum_equals_policy_tree_enumeration(model, seed, mode, k,
                                                          depth):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, model.n_states - 2, k)
    streams = unit_draws(model, rng, (k, depth, 2))
    assert determinized_optimum(model, starts, streams, 0, depth, mode) == (
        pytest.approx(brute_force_optimum(
            model, starts, streams, depth, model.discount, mode,
            observations=tuple(range(model.n_observations))), abs=1e-9))


@pytest.mark.parametrize("mode", list(TransitionMode))
def test_searches_on_the_map_never_read_an_unreached_cell(truth, mode):
    for seed in range(3):
        config = PlannerConfig(scenarios=50, mode=mode, seed=seed, budget_trials=100)
        tree = DespotTree(truth, config, truth.initial_belief)
        nan_outside_reach(tree)
        for _ in range(config.budget_trials):
            tree.run_trial()
        assert tree.n_expansions > 1
        assert all(np.isfinite([node.lower, node.upper]).all() for node in tree_nodes(tree))


@given(model=small_models(), seed=SEEDS, mode=MODES)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_belief_update_is_bayes_rule(model, seed, mode):
    # P(s2 | b, a, z) by hand: the predicted mass of s2 times P(z | s2),
    # over the total; a zero total is an inconsistent observation
    rng = np.random.default_rng(seed)
    n = model.n_states
    weights = rng.integers(0, 3, n).astype(float)
    weights[rng.integers(n)] += 1.0
    belief = Belief(weights / weights.sum())
    trans = transition_matrix(model, mode)
    for a in range(model.n_actions):
        for z in range(model.n_observations):
            joint = [sum(belief.probs[s] * trans[a, s, s2] for s in range(n))
                     * model._sensor.values[s2, z] for s2 in range(n)]
            total = sum(joint)
            if total == 0.0:
                with pytest.raises(InconsistentObservationError):
                    belief_update(model, belief, a, z, mode)
            else:
                posterior = belief_update(model, belief, a, z, mode).probs
                assert posterior == pytest.approx([p / total for p in joint], abs=1e-12)


@given(model=small_models())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_scm_queries_fold_into_the_transition_matrix(model):
    # P(DS | do(A=a)) in INT and P(DS | A=a) in OBS of each state's SCM,
    # added into successor states one relative outcome at a time; outside
    # the confounded region the action says nothing about U, so conditioning
    # on it and intervening agree to rounding there and the model uses one query
    n = model.n_states
    for mode in TransitionMode:
        query = "intervention" if mode is TransitionMode.INTERVENTIONAL else "evidence"
        expected = np.zeros((model.n_actions, n, n))
        for s in range(n - 2):
            for a in range(model.n_actions):
                act = {"A": a}
                if s in model.confounded_states:
                    rel = exact_query(model._spec_region, "DS", **{query: act})
                else:
                    rel = exact_query(model._spec_free, "DS", intervention=act)
                    assert exact_query(model._spec_free, "DS", evidence=act) == (
                        pytest.approx(rel, abs=1e-12))
                for ds, s2 in enumerate(model.successor_table[s]):
                    expected[a, s, s2] += rel[ds]
        expected[:, n - 2, n - 2] = expected[:, n - 1, n - 1] = 1.0
        assert np.array_equal(transition_matrix(model, mode), expected)

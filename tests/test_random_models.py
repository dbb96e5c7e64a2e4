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

from causalplan.despot import DespotTree, PlannerConfig, ScenarioBounds
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
    assert_mechanism_rows_fold,
    assert_transition_rows_fold,
    brute_force_optimum,
    buckets_of,
    determinized_optimum,
    free_roam_model,
    reach_mask,
    scalar_bounds,
)

MODES = st.sampled_from(list(TransitionMode))
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def small_models(draw):
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
        successor_table=ints((n, n_ds), 0, n + 1),
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
    edges = np.concatenate([model._trans_cdf.ravel(), model._obs_cdf.ravel()])
    edges = edges[edges < 1.0]
    at = rng.random(shape) < 0.5
    u[at] = rng.choice(edges, at.sum())
    return u


def nan_outside_reach(tree):
    """Sets every bound-table cell that the root's start states cannot
    reach to NaN, so a search that reads one gets a NaN bound."""
    table, config = tree.scenario_bounds, tree.config
    reach = reach_mask(tree.model, tree.root.states, config.depth, config.mode)
    for rows in (table.lower, table.upper):
        rows[np.broadcast_to(~reach[:, :, None], rows.shape)] = np.nan


def searched_tree(model, config, belief):
    """A tree searched to a stop, its unreached table cells set to NaN (so
    a NaN bound fails every comparison); asserts after every trial that the
    root bounds hold the determinized optimum of the root's scenarios and
    move monotonically."""
    tree = DespotTree(model, config, belief)
    nan_outside_reach(tree)
    optimum = determinized_optimum(model, tree.root.states, tree.streams, 0,
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
    s2, z, r = model.batch_step(states, actions, b1, b2, mode)
    policy_s2, policy_r = model.batch_policy_step(states, actions, b1, mode)
    shared = model.batch_step(states, 1, b1, b2, mode)
    for i in range(64):
        s, u = int(states[i]), (phi1[i], phi2[i])
        assert (s2[i], z[i], r[i]) == deterministic_step(model, s, int(actions[i]),
                                                         u, mode)
        assert (policy_s2[i], policy_r[i]) == (s2[i], r[i])
        assert tuple(x[i] for x in shared) == deterministic_step(model, s, 1, u, mode)


@given(model=small_models(), seed=SEEDS, mode=MODES,
       k=st.integers(1, 4), depth=st.integers(1, 4))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bound_tables_equal_the_scalar_recursion(model, seed, mode, k, depth):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, model.n_states - 2, k)
    streams = unit_draws(model, rng, (k, depth, 2))
    config = PlannerConfig(scenarios=k, depth=depth, mode=mode)
    table = ScenarioBounds(model, config, model.bucket_ids(streams, mode), starts)
    # only the cells a search can read are filled
    reach = reach_mask(model, starts, depth, mode)
    for j in range(k):
        lower, upper = scalar_bounds(model, streams[j], depth, mode)
        assert np.array_equal(table.lower[:, :, j][reach], lower[reach])
        assert np.array_equal(table.upper[:, :, j][reach], upper[reach])


@given(model=small_models())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bucket_count_is_bounded_by_the_nonzeros(model):
    # at most 1 + the sum over rows of (nonzeros - 1) buckets; every break
    # lies below 1, so the draw just below 1 falls in the last bucket
    for mode in TransitionMode:
        last_trans, last_obs = model.bucket_ids([np.nextafter(1.0, 0.0)] * 2, mode)
        rows = model.transition_matrix(mode).reshape(-1, model.n_states)
        assert last_trans <= ((rows > 0).sum(axis=1) - 1).sum()
        assert last_obs <= ((model._obs > 0).sum(axis=1) - 1).sum()


@given(model=small_models())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_folds_equal_the_entrywise_loop(model):
    # arbitrary successor tables: several outcomes often share a successor
    assert_transition_rows_fold(model)
    assert_mechanism_rows_fold(model)


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
    for node in tree.nodes():
        optimum = determinized_optimum(model, node.states,
                                       tree.streams[node.scenario_ids],
                                       node.depth, depth, mode)
        assert node.lower <= optimum + 1e-9
        assert optimum <= node.upper + 1e-9


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
        assert all(np.isfinite([node.lower, node.upper]).all() for node in tree.nodes())


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
    trans = model.transition_matrix(mode)
    for a in range(model.n_actions):
        for z in range(model.n_observations):
            joint = [sum(belief.probs[s] * trans[a, s, s2] for s in range(n))
                     * model._obs[s2, z] for s2 in range(n)]
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
                    rel = exact_query(model._spec_region, "DS", **{query: act}).probs
                else:
                    rel = exact_query(model._spec_free, "DS", intervention=act).probs
                    assert exact_query(model._spec_free, "DS", evidence=act).probs == (
                        pytest.approx(rel, abs=1e-12))
                for ds, s2 in enumerate(model.successor_table[s]):
                    expected[a, s, s2] += rel[ds]
        expected[:, n - 2, n - 2] = expected[:, n - 1, n - 1] = 1.0
        assert np.array_equal(model.transition_matrix(mode), expected)

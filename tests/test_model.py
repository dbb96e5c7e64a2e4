"""Model-layer tests: transitions, observations, beliefs, rewards, stepping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalplan.learning import _inverse_cdf
from causalplan.model import (
    Belief,
    InconsistentObservationError,
    TransitionMode,
    UcPomdpModel,
    belief_update,
    deterministic_step,
)
from causalplan.scm import (
    CategoricalTable,
    Dist,
    SpecificationError,
    cdf_index,
    importance_query,
)

from helpers import (
    assert_mechanism_rows_fold,
    assert_transition_rows_fold,
    buckets_of,
    dist_prob,
    fold_loop,
    sample_reactive_action,
    two_state_inputs,
    two_state_model,
)

INT = TransitionMode.INTERVENTIONAL
OBS = TransitionMode.OBSERVATIONAL
RIGHT, UP, LEFT, DOWN = 0, 1, 2, 3


class TestConstruction:
    @pytest.mark.parametrize("key, value, fragment", [
        ("discount", 1.0, "discount"),
        ("initial_belief", [0.5, 0.5, 0.0, 0.0], "initial belief"),
        ("initial_belief", [1.0], "initial belief"),
        ("rollout_policy", [0, 0, 0, 0], "rollout policy needs"),
        ("rollout_policy", [0], "rollout policy needs"),
        ("rollout_policy", [0, 2], "unknown actions"),
        ("rollout_policy", [0, -1], "unknown actions"),
        ("successor_table", [[0, -1], [1, 0]], "unknown states"),
        ("observation_table", CategoricalTable((2,), [[0.5, 0.5], [0.5, 0.5]]),
         "observation table width"),
        ("rewards", np.zeros((2, 2, 2)), "reward array shape"),
        ("successor_table", [[0, 4], [1, 0]], "unknown states"),
        ("observation_table", CategoricalTable((3,), np.tile([0.5, 0.5, 0.0], (3, 1))),
         "one row per ordinary state"),
        ("p_uc", CategoricalTable((2,), [[0.7, 0.3], [0.2, 0.8]]), "p_uc"),
    ])
    def test_rejects_one_broken_input(self, key, value, fragment):
        inputs = two_state_inputs()
        UcPomdpModel(**inputs)  # the unbroken inputs build
        with pytest.raises(SpecificationError, match=fragment):
            UcPomdpModel(**{**inputs, key: value})

    @pytest.mark.parametrize("which", ["truth", "two_state"])
    def test_with_own_tables_rebuilds_the_same_arrays(self, truth, which):
        model = truth if which == "truth" else two_state_model()
        copy = model.with_tables(model.confounder_prior, model.p_uc, model.p_0)
        for name in ("_reward_table", "rollout_policy"):
            assert np.array_equal(getattr(copy, name), getattr(model, name))
        assert np.array_equal(copy.initial_belief.probs, model.initial_belief.probs)
        assert copy._reward_table.flags.c_contiguous

    @pytest.mark.parametrize("build", [
        lambda p: CategoricalTable((), p),
        lambda p: Dist(("a", "b", "c"), p),
        Belief,
    ])
    def test_nan_entry_is_rejected(self, build):
        with pytest.raises(SpecificationError):
            build(np.array([np.nan, 0.5, 0.5]))


class TestTransitionDist:
    def test_relative_interventional_up(self, truth):
        d = truth.relative_transition_dist(True, UP, INT)
        assert dict(zip(d.support, d.probs)) == pytest.approx(
            {"north": 0.73, "east": 0.13, "south": 0.01, "west": 0.13}, abs=1e-12
        )

    def test_relative_observational_up(self, truth):
        d = truth.relative_transition_dist(True, UP, OBS)
        assert dist_prob(d, "north") == pytest.approx(0.211905, abs=1e-6)
        assert dist_prob(d, "east") == pytest.approx(0.373810, abs=1e-6)
        assert dist_prob(d, "west") == pytest.approx(0.373810, abs=1e-6)
        assert dist_prob(d, "south") == pytest.approx(0.040476, abs=1e-6)

    def test_down_is_mode_independent_in_region(self, truth):
        # reactive probability of DOWN is the same for every confounder value,
        # so conditioning on it is uninformative
        d_int = truth.relative_transition_dist(True, DOWN, INT)
        d_obs = truth.relative_transition_dist(True, DOWN, OBS)
        assert d_obs.probs == pytest.approx(d_int.probs, abs=1e-12)

    def test_modes_agree_outside_region(self, truth):
        for s in range(truth.n_states - 2):
            if s in truth.confounded_states:
                continue
            for a in range(truth.n_actions):
                inter = truth.transition_matrix(INT)[a, s]
                obser = truth.transition_matrix(OBS)[a, s]
                assert obser == pytest.approx(inter, abs=1e-12)

    def test_importance_method_matches_exact(self, truth, rng):
        # the model's own causal spec, answered by sampling, folds into the
        # exactly enumerated transition row
        s = truth.state_index((0, 2))
        exact = truth.transition_matrix(INT)[UP, s]
        rel = importance_query(truth._spec_region, "DS", intervention={"A": UP},
                               n_particles=20000, rng=rng).probs
        assert np.abs(exact - fold_loop(truth, s, rel)).max() <= 0.02


class TestObservationDist:
    def test_noiseless_position(self, truth):
        s = truth.state_index((2, 1))
        assert truth._obs[s, s] == 1.0

    def test_terminals_emit_terminal_observation(self, truth):
        for t in (truth.goal_state, truth.collided_state):
            assert truth._obs[t, truth.terminal_observation] == 1.0

    def test_action_independence(self, truth, rng):
        # the observation drawn at phi[1] depends on the successor alone
        for phi in rng.random((50, 2)):
            seen = {}
            for s in range(truth.n_states - 2):
                for a in range(truth.n_actions):
                    s2, z, _ = deterministic_step(truth, s, a, tuple(phi), INT)
                    assert seen.setdefault(s2, z) == z


class TestBeliefUpdate:
    def test_point_mass_collapses_to_observed_cell(self, truth):
        b = Belief.point_mass(truth.n_states, truth.state_index((0, 0)))
        z = truth.state_index((0, 1))  # observation ids mirror cell ids
        b2 = belief_update(truth, b, UP, z, INT)
        assert b2.probs[truth.state_index((0, 1))] == pytest.approx(1.0)

    def test_posterior_proportional_to_inflow(self, truth):
        n = truth.n_states
        b = Belief(np.full(n, 1.0 / n))
        z = truth.state_index((1, 0))
        b2 = belief_update(truth, b, RIGHT, z, INT)
        # noiseless sensor: only the observed cell can carry mass
        assert b2.probs[truth.state_index((1, 0))] == pytest.approx(1.0)

    def test_impossible_observation_raises(self, truth):
        b = Belief.point_mass(truth.n_states, truth.state_index((0, 0)))
        z_far = truth.state_index((3, 3))
        with pytest.raises(InconsistentObservationError):
            belief_update(truth, b, UP, z_far, INT)

    def test_marginalizing_observations_recovers_prediction(self, truth):
        n = truth.n_states
        b = Belief(np.full(n, 1.0 / n))
        a = UP
        pred = b.probs @ truth.transition_matrix(INT)[a]
        recovered = np.zeros(n)
        for z in range(truth.n_observations):
            pz = float(pred @ truth._obs[:, z])
            if pz == 0.0:
                continue
            recovered += pz * belief_update(truth, b, a, z, INT).probs
        assert recovered == pytest.approx(pred, abs=1e-12)

    def test_normalization_preserved(self, truth, rng):
        b = Belief(np.full(truth.n_states, 1.0 / truth.n_states))
        for _ in range(50):
            a = int(rng.integers(4))
            pred = b.probs @ truth.transition_matrix(OBS)[a]
            feasible = np.flatnonzero(pred @ truth._obs > 0)
            z = int(rng.choice(feasible))
            b = belief_update(truth, b, a, z, OBS)
            assert b.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(b.probs >= 0)


class TestReward:
    """Rewards as the kernels and ``run_episode`` read them:
    ``_reward_table[a, s, s_next]``."""

    def test_ordinary_move(self, truth):
        s = truth.state_index((0, 0))
        assert truth._reward_table[UP, s, truth.state_index((0, 1))] == -1.0

    def test_goal_arrival(self, truth):
        s = truth.state_index((0, 2))
        assert truth._reward_table[UP, s, truth.goal_state] == 99.0

    def test_collision(self, truth):
        s = truth.state_index((0, 0))
        assert truth._reward_table[LEFT, s, truth.collided_state] == -51.0

    def test_terminal_absorbs_with_zero(self, truth):
        assert truth._reward_table[UP, truth.goal_state, truth.goal_state] == 0.0
        assert truth._reward_table[DOWN, truth.collided_state, truth.collided_state] == 0.0


class TestReactiveAction:
    def test_region_minus_90_prefers_up(self, truth):
        s = truth.state_index((0, 2))
        rng = np.random.default_rng(0)
        draws = np.array(
            [sample_reactive_action(truth, s, 0, rng) for _ in range(100_000)]
        )
        assert abs(np.mean(draws == UP) - 0.85) <= 0.01

    def test_region_zero_error_prefers_sides(self, truth):
        s = truth.state_index((0, 2))
        rng = np.random.default_rng(1)
        draws = np.array(
            [sample_reactive_action(truth, s, 1, rng) for _ in range(100_000)]
        )
        assert abs(np.mean(draws == RIGHT) - 0.45) <= 0.01
        assert abs(np.mean(draws == LEFT) - 0.45) <= 0.01

    def test_uniform_outside_region(self, truth):
        s = truth.state_index((2, 1))
        rng = np.random.default_rng(2)
        draws = np.array(
            [sample_reactive_action(truth, s, 0, rng) for _ in range(100_000)]
        )
        freqs = np.bincount(draws, minlength=4) / len(draws)
        assert np.all(np.abs(freqs - 0.25) <= 0.01)


class TestDeterministicStep:
    def test_phi_zero_selects_first_successor(self, truth):
        s = truth.state_index((0, 2))
        first = int(np.flatnonzero(truth.transition_matrix(INT)[UP, s])[0])
        s2, _, _ = deterministic_step(truth, s, UP, (0.0, 0.0), INT)
        assert s2 == first

    def test_empirical_marginal_matches_transition_dist(self, truth, rng):
        s = truth.state_index((0, 2))
        b1, b2 = buckets_of(truth, rng.random(1_000_000), rng.random(1_000_000), INT)
        s2, _, _ = truth.batch_step(np.full(1_000_000, s), UP, b1, b2, INT)
        freq = np.bincount(s2, minlength=truth.n_states) / len(s2)
        assert np.abs(freq - truth.transition_matrix(INT)[UP, s]).max() <= 0.005

    def test_pure_function_of_inputs(self, truth):
        s = truth.state_index((0, 1))
        out1 = deterministic_step(truth, s, UP, (0.42, 0.17), OBS)
        out2 = deterministic_step(truth, s, UP, (0.42, 0.17), OBS)
        assert out1 == out2

    def test_terminal_absorbs(self, truth):
        s2, z, r = deterministic_step(truth, truth.goal_state, UP, (0.5, 0.5), INT)
        assert (s2, z, r) == (truth.goal_state, truth.terminal_observation, 0.0)

    def test_batch_matches_scalar(self, truth, rng):
        states = rng.integers(0, truth.n_states, size=200)
        for a in range(truth.n_actions):
            phi1 = rng.random(200)
            phi2 = rng.random(200)
            s2, z, r = truth.batch_step(states, a, *buckets_of(truth, phi1, phi2, INT),
                                        INT)
            for i in range(200):
                if truth.is_terminal(int(states[i])):
                    continue  # batch rows use identity transitions at terminals
                expect = deterministic_step(
                    truth, int(states[i]), a, (phi1[i], phi2[i]), INT
                )
                assert (int(s2[i]), int(z[i]), float(r[i])) == expect

    @pytest.mark.parametrize("mode", [INT, OBS])
    def test_batch_matches_scalar_at_cdf_ties(self, truth, mode):
        # draws equal to a CDF entry, where the side of the comparison matters
        ties = np.unique(np.concatenate([truth._trans_cdf.ravel(),
                                         truth._obs_cdf.ravel()]))
        ties = ties[ties < 1.0]
        for s in range(truth.n_states - 2):
            for a in range(truth.n_actions):
                n = len(ties)
                s2, z, r = truth.batch_step(np.full(n, s), a,
                                            *buckets_of(truth, ties, ties, mode), mode)
                for i, phi in enumerate(ties):
                    expect = deterministic_step(truth, s, a, (phi, phi), mode)
                    assert (int(s2[i]), int(z[i]), float(r[i])) == expect


class TestFold:
    def test_transition_matrix_matches_loop(self, truth):
        assert_transition_rows_fold(truth)

    def test_mechanism_rows_match_loop(self, truth):
        assert_mechanism_rows_fold(truth)


@st.composite
def cdf_rows_and_draws(draw):
    """A table of normalized rows with zero entries, so its CDF repeats
    values, plus row indices and unit draws that include 0.0, 1.0 and exact
    CDF values (ties)."""
    width = draw(st.integers(1, 5))
    weight = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0])
    rows = np.array(draw(st.lists(
        st.lists(weight, min_size=width, max_size=width).filter(any),
        min_size=1, max_size=4)))
    table = CategoricalTable((len(rows),), rows / rows.sum(axis=1, keepdims=True))
    # 1.0 is a tie with every row's last entry: each inverter must clamp it
    ties = sorted(set(table.cdf.ravel().tolist()))
    unit = st.one_of(st.just(0.0), st.just(1.0), st.sampled_from(ties),
                     st.floats(0.0, 1.0, exclude_max=True))
    n = draw(st.integers(1, 30))
    ids = np.array(draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n)))
    return table, ids, np.array(draw(st.lists(unit, min_size=n, max_size=n)))


class TestCdfInverters:
    @given(cdf_rows_and_draws())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_shared_helper_and_both_batched_forms_agree(self, case):
        table, ids, u = case
        cdf = table.cdf
        scalar = np.array([cdf_index(cdf[i], x) for i, x in zip(ids, u)])
        per_row = np.empty_like(scalar)
        for i in range(len(cdf)):
            per_row[ids == i] = cdf_index(cdf[i], u[ids == i])
        assert np.array_equal(scalar, per_row)
        assert np.array_equal(scalar, _inverse_cdf(cdf, ids, u))
        # the bucket lookup that desugaring and the planner use, for the
        # draws in [0, 1) it is given
        breaks, buckets = table.buckets
        assert len(breaks) <= ((table.values > 0).sum(axis=1) - 1).sum()
        unit = u < 1.0
        bucket = breaks.searchsorted(u[unit], side="right")
        assert np.array_equal(scalar[unit], buckets[bucket, ids[unit]])

"""Model-layer tests: transitions, observations, beliefs, rewards, stepping."""

import numpy as np
import pytest

from causalplan.model import (
    Belief,
    InconsistentObservationError,
    TransitionMode,
    belief_update,
    deterministic_step,
    observation_dist,
    reward,
    sample_reactive_action,
    transition_dist,
)
from causalplan.scm import UsageError

INT = TransitionMode.INTERVENTIONAL
OBS = TransitionMode.OBSERVATIONAL
RIGHT, UP, LEFT, DOWN = 0, 1, 2, 3


class TestTransitionDist:
    def test_relative_interventional_up(self, truth):
        d = truth.relative_transition_dist(True, UP, INT)
        assert dict(zip(d.support, d.probs)) == pytest.approx(
            {"north": 0.73, "east": 0.13, "south": 0.01, "west": 0.13}, abs=1e-12
        )

    def test_relative_observational_up(self, truth):
        d = truth.relative_transition_dist(True, UP, OBS)
        assert d.prob("north") == pytest.approx(0.211905, abs=1e-6)
        assert d.prob("east") == pytest.approx(0.373810, abs=1e-6)
        assert d.prob("west") == pytest.approx(0.373810, abs=1e-6)
        assert d.prob("south") == pytest.approx(0.040476, abs=1e-6)

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
                inter = transition_dist(truth, s, a, INT).probs
                obser = transition_dist(truth, s, a, OBS).probs
                assert obser == pytest.approx(inter, abs=1e-12)

    def test_terminal_state_rejected(self, truth):
        with pytest.raises(UsageError):
            transition_dist(truth, truth.goal_state, UP, INT)

    def test_importance_method_matches_exact(self, truth, rng):
        s = truth.state_index((0, 2))
        exact = transition_dist(truth, s, UP, INT).probs
        approx = transition_dist(
            truth, s, UP, INT, method="importance", n_particles=20000, rng=rng
        ).probs
        assert np.abs(exact - approx).max() <= 0.02


class TestObservationDist:
    def test_noiseless_position(self, truth):
        s = truth.state_index((2, 1))
        d = observation_dist(truth, s, UP)
        assert d.probs[s] == 1.0

    def test_terminals_emit_terminal_observation(self, truth):
        for t in (truth.goal_state, truth.collided_state):
            d = observation_dist(truth, t, RIGHT)
            assert d.probs[truth.terminal_observation] == 1.0

    def test_action_independence(self, truth):
        for s in range(truth.n_states):
            rows = [observation_dist(truth, s, a).probs for a in range(4)]
            for row in rows[1:]:
                assert np.array_equal(row, rows[0])


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
    def test_ordinary_move(self, truth):
        s = truth.state_index((0, 0))
        assert reward(truth, s, UP, truth.state_index((0, 1))) == -1.0

    def test_goal_arrival(self, truth):
        s = truth.state_index((0, 2))
        assert reward(truth, s, UP, truth.goal_state) == 99.0

    def test_collision(self, truth):
        s = truth.state_index((0, 0))
        assert reward(truth, s, LEFT, truth.collided_state) == -51.0

    def test_terminal_absorbs_with_zero(self, truth):
        assert reward(truth, truth.goal_state, UP, truth.goal_state) == 0.0
        assert reward(truth, truth.collided_state, DOWN, truth.collided_state) == 0.0


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
        dist = transition_dist(truth, s, UP, INT)
        first = int(np.flatnonzero(dist.probs)[0])
        s2, _, _ = deterministic_step(truth, s, UP, (0.0, 0.0), INT)
        assert s2 == first

    def test_empirical_marginal_matches_transition_dist(self, truth, rng):
        s = truth.state_index((0, 2))
        phi1 = rng.random(1_000_000)
        phi2 = rng.random(1_000_000)
        s2, _, _ = truth.batch_step(
            np.full(1_000_000, s), UP, phi1, phi2, INT
        )
        freq = np.bincount(s2, minlength=truth.n_states) / len(s2)
        assert np.abs(freq - transition_dist(truth, s, UP, INT).probs).max() <= 0.005

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
            s2, z, r = truth.batch_step(states, a, phi1, phi2, INT)
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
                s2, z, r = truth.batch_step(np.full(n, s), a, ties, ties, mode)
                for i, phi in enumerate(ties):
                    expect = deterministic_step(truth, s, a, (phi, phi), mode)
                    assert (int(s2[i]), int(z[i]), float(r[i])) == expect


def _fold_loop(model, s, rel):
    """Relative outcomes folded into successors one entry at a time."""
    row = np.zeros(model.n_states)
    for ds in range(model.n_ds):
        row[model.successor_table[s, ds]] += rel[ds]
    return row


class TestFold:
    def test_transition_matrix_matches_loop(self, truth):
        for mode in (INT, OBS):
            m = 0 if mode is OBS else 1
            matrix = truth.transition_matrix(mode)
            for a in range(truth.n_actions):
                for s in range(truth.n_states - 2):
                    region = s in truth.confounded_states
                    rel = truth._rel_region[m, a] if region else truth._rel_free[a]
                    assert np.array_equal(matrix[a, s], _fold_loop(truth, s, rel))

    def test_mechanism_rows_match_loop(self, truth):
        for s in range(truth.n_states - 2):
            for a in range(truth.n_actions):
                for u in range(truth.n_confounder):
                    if s in truth.confounded_states:
                        rel = truth.p_uc.row((a, u))
                    else:
                        rel = truth.p_0.row((a,))
                    assert np.array_equal(truth.mechanism_transition_row(s, a, u),
                                          _fold_loop(truth, s, rel))

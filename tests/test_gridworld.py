"""Benchmark environment tests: map parsing, headings, drift, moves, assembly."""

import tracemalloc
from collections import deque

import numpy as np
import pytest

from causalplan import gridworld
from causalplan.gridworld import (
    COLLIDED,
    GOAL,
    GridMap,
    MapParseError,
    apply_move,
    effective_heading,
    parse_map,
    relative_transition,
)
from causalplan.model import TransitionMode

from helpers import (
    dist_prob,
    hand_confounded_tables,
    serialize_map,
    state_index,
    transition_matrix,
)

RIGHT, UP, LEFT, DOWN = 0, 1, 2, 3


class TestParseMap:
    def test_default_map(self, grid):
        assert (grid.width, grid.height) == (4, 4)
        assert len(grid.free_cells) == 12
        assert grid.start == (0, 0)
        assert grid.goal == (0, 3)
        assert grid.confounded == frozenset({(0, 2)})
        assert grid.magnet == (1, 2)
        assert grid.occupied == frozenset({(1, 1), (1, 2), (3, 0), (3, 1)})

    def test_unknown_glyph_reports_location(self):
        with pytest.raises(MapParseError) as err:
            parse_map("G..\nS.?\n")
        assert err.value.line == 2
        assert err.value.column == 3

    def test_missing_start(self):
        with pytest.raises(MapParseError):
            parse_map("G..\n...\n")

    def test_missing_goal(self):
        with pytest.raises(MapParseError):
            parse_map("S..\n...\n")

    def test_duplicate_start(self):
        with pytest.raises(MapParseError):
            parse_map("GS.\nS..\n")

    def test_ragged_rows(self):
        with pytest.raises(MapParseError):
            parse_map("G..\nS.\n")

    def test_goal_on_occupied_rejected(self):
        with pytest.raises(MapParseError):
            GridMap(
                width=2, height=2, occupied=frozenset({(1, 1)}),
                start=(0, 0), goal=(1, 1), confounded=frozenset(),
            )

    def test_start_equals_goal_rejected(self):
        with pytest.raises(MapParseError):
            GridMap(
                width=2, height=2, occupied=frozenset(),
                start=(0, 0), goal=(0, 0), confounded=frozenset(),
            )

    def test_round_trip(self, grid):
        assert parse_map(serialize_map(grid)) == grid


class TestHeadings:
    def test_right_plus_90_moves_up(self):
        assert effective_heading(RIGHT, 90) == 90  # north

    def test_up_zero_offset(self):
        assert effective_heading(UP, 0) == 90

    def test_up_minus_90_moves_east(self):
        assert effective_heading(UP, -90) == 0

    def test_zero_offset_is_identity(self):
        for a in range(4):
            assert effective_heading(a, 0) == gridworld.ACTION_HEADINGS[a]

    def test_opposite_offsets_cancel(self):
        for a in range(4):
            plus = effective_heading(a, 90)
            assert (plus - 90) % 360 == gridworld.ACTION_HEADINGS[a]


class TestRelativeTransition:
    def test_region_up_no_error(self):
        d = relative_transition(UP, 0, True)
        assert dist_prob(d, "north") == 0.9
        assert dist_prob(d, "west") == 0.05
        assert dist_prob(d, "east") == 0.05

    def test_region_up_minus_90(self):
        d = relative_transition(UP, -90, True)
        assert dist_prob(d, "east") == 0.9
        assert dist_prob(d, "north") == 0.05
        assert dist_prob(d, "south") == 0.05

    def test_outside_region_error_is_inert(self):
        for u in gridworld.ORIENTATION_ERRORS:
            d = relative_transition(RIGHT, u, False)
            assert dist_prob(d, "east") == 0.9
            assert dist_prob(d, "north") == 0.05
            assert dist_prob(d, "south") == 0.05

    def test_three_outcomes_summing_to_one(self):
        for a in range(4):
            for u in gridworld.ORIENTATION_ERRORS:
                for region in (False, True):
                    p = relative_transition(a, u, region)
                    assert (p > 0).sum() == 3
                    assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_result_is_read_only(self):
        p = relative_transition(UP, 0, True)
        with pytest.raises(ValueError):
            p[0] = 1.0


class TestApplyMove:
    def test_north_from_confounded_reaches_goal(self, grid):
        assert apply_move(grid, (0, 2), "north") == GOAL

    def test_east_from_confounded_hits_magnet(self, grid):
        assert apply_move(grid, (0, 2), "east") == COLLIDED

    def test_off_grid_collides(self, grid):
        assert apply_move(grid, (0, 0), "west") == COLLIDED

    def test_ordinary_move(self, grid):
        assert apply_move(grid, (0, 0), "north") == (0, 1)

    def test_total_over_all_free_cells(self, grid):
        for cell in grid.free_cells:
            for ds in gridworld.DS_LABELS:
                result = apply_move(grid, cell, ds)
                assert result in (GOAL, COLLIDED) or result in grid.free_cells


def bfs_distance(grid, blocked=frozenset()):
    """Shortest action-path length start -> goal avoiding ``blocked`` cells."""
    frontier = deque([(grid.start, 0)])
    seen = {grid.start}
    while frontier:
        cell, dist = frontier.popleft()
        for ds in gridworld.DS_LABELS:
            dest = apply_move(grid, cell, ds)
            if dest == GOAL:
                return dist + 1
            if dest == COLLIDED or dest in seen or dest in blocked:
                continue
            seen.add(dest)
            frontier.append((dest, dist + 1))
    return None


class TestMapTopology:
    def test_shortest_path_is_three_through_confounded_cell(self, grid):
        assert bfs_distance(grid) == 3
        # the 3-step path must pass through the confounded cell: blocking it
        # forces the long way round
        assert bfs_distance(grid, blocked=grid.confounded) == 7


class TestBuildModel:
    def test_folded_interventional_up(self, grid, truth):
        s = state_index(truth, (0, 2))
        row = transition_matrix(truth, TransitionMode.INTERVENTIONAL)[UP, s]
        assert row[truth.goal_state] == pytest.approx(0.73, abs=1e-12)
        assert row[truth.collided_state] == pytest.approx(0.26, abs=1e-12)
        assert row[state_index(truth, (0, 1))] == pytest.approx(0.01, abs=1e-12)

    def test_folded_observational_up(self, truth):
        s = state_index(truth, (0, 2))
        row = transition_matrix(truth, TransitionMode.OBSERVATIONAL)[UP, s]
        assert row[truth.goal_state] == pytest.approx(89 / 420, abs=1e-12)

    def test_relative_tables_match_hand_mixture(self, truth):
        do_tables, obs_tables = hand_confounded_tables()
        for a, action in enumerate(truth.actions):
            got_do = truth.region_rows(TransitionMode.INTERVENTIONAL)[a]
            got_obs = truth.region_rows(TransitionMode.OBSERVATIONAL)[a]
            assert got_do == pytest.approx(do_tables[action], abs=1e-12)
            assert got_obs == pytest.approx(obs_tables[action], abs=1e-12)

    def test_transition_rows_normalized(self, truth):
        for mode in TransitionMode:
            T = transition_matrix(truth, mode)
            assert np.allclose(T.sum(axis=2), 1.0, atol=1e-9)

    def test_open_30x30_map_builds_in_little_memory(self):
        # S = 902: laws, CDFs, mechanism rows and rewards over the successor
        # slots take O(S) memory; the dense (A, S, S) tables of the
        # transition laws peaked at 307 MiB and kept 213 MiB
        grid = GridMap(width=30, height=30, occupied=frozenset(), start=(0, 0),
                       goal=(29, 29), confounded=frozenset({(14, 14), (15, 14)}))
        tracemalloc.start()
        try:
            model = gridworld.build_model(grid)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.n_states == 902
        assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert retained < 32 * 2**20, f"retained {retained / 2**20:.1f} MiB"

    def test_state_count_matches_free_cells(self, grid, truth):
        assert truth.n_states == len(grid.free_cells) + 2
        assert truth.n_observations == len(grid.free_cells) + 1

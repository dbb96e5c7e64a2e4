"""The confounded grid-world benchmark.

A robot navigates a small grid to a goal cell.  An electromagnet next to one
free cell perturbs the robot's orientation sensor there: the orientation
error both biases the robot's reflexive action choice and rotates the
executed heading, making it an unobserved confounder of action and outcome.
Everywhere the executed move also drifts laterally with 5% probability per
side.

Map format: one row of glyphs per line, top line = highest y.
``G`` goal, ``S`` start, ``#`` occupied, ``M`` occupied magnet cell,
``C`` confounded free cell, ``.`` free cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .model import UcPomdpModel
from .scm import CategoricalTable, Dist

ACTIONS = ("RIGHT", "UP", "LEFT", "DOWN")
# headings in degrees, grid frame: RIGHT=0 (east), counterclockwise positive
ACTION_HEADINGS = (0, 90, 180, 270)
DS_LABELS = ("north", "east", "south", "west")
DS_OFFSETS = {"north": (0, 1), "east": (1, 0), "south": (0, -1), "west": (-1, 0)}
HEADING_TO_DS = {90: "north", 0: "east", 270: "south", 180: "west"}
ORIENTATION_ERRORS = (-90, 0, 90)
CONFOUNDER_PRIOR = (0.10, 0.80, 0.10)
# reactive action choice P(A | orientation error), columns RIGHT/UP/LEFT/DOWN
REACTIVE_ROWS = (
    (0.05, 0.85, 0.05, 0.05),   # -90 degrees
    (0.45, 0.05, 0.45, 0.05),   # 0 degrees
    (0.05, 0.85, 0.05, 0.05),   # +90 degrees
)
FORWARD_PROB = 0.90
DRIFT_PROB = 0.05

GOAL = "goal-reached"
COLLIDED = "collided"

BASE_REWARD = -1.0
GOAL_BONUS = 100.0
COLLISION_PENALTY = -50.0


class MapParseError(Exception):
    """Raised for malformed map text, with a 1-based line/column location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class GridMap:
    width: int
    height: int
    occupied: frozenset
    start: tuple
    goal: tuple
    confounded: frozenset
    magnet: tuple | None = None

    def __post_init__(self):
        for cell in {self.start, self.goal} | set(self.confounded):
            if cell in self.occupied:
                raise MapParseError(f"cell {cell} must be free")
            if not self.in_bounds(cell):
                raise MapParseError(f"cell {cell} lies outside the grid")
        if self.start == self.goal:
            raise MapParseError("start and goal must differ")

    def in_bounds(self, cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    @property
    def free_cells(self) -> tuple:
        return tuple(
            (x, y)
            for x in range(self.width)
            for y in range(self.height)
            if (x, y) not in self.occupied
        )


def parse_map(text: str) -> GridMap:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MapParseError("map text is empty")
    width = len(lines[0])
    height = len(lines)
    occupied, confounded = set(), set()
    start = goal = magnet = None
    for row, line in enumerate(lines):
        if len(line) != width:
            raise MapParseError(
                f"ragged row: {len(line)} glyphs, expected {width}", line=row + 1
            )
        y = height - 1 - row
        for x, glyph in enumerate(line):
            cell = (x, y)
            if glyph == "#":
                occupied.add(cell)
            elif glyph == "M":
                occupied.add(cell)
                magnet = cell
            elif glyph == "C":
                confounded.add(cell)
            elif glyph == "S":
                if start is not None:
                    raise MapParseError("duplicate start", line=row + 1, column=x + 1)
                start = cell
            elif glyph == "G":
                if goal is not None:
                    raise MapParseError("duplicate goal", line=row + 1, column=x + 1)
                goal = cell
            elif glyph != ".":
                raise MapParseError(
                    f"unknown glyph {glyph!r}", line=row + 1, column=x + 1
                )
    if start is None:
        raise MapParseError("map has no start cell")
    if goal is None:
        raise MapParseError("map has no goal cell")
    return GridMap(
        width=width,
        height=height,
        occupied=frozenset(occupied),
        start=start,
        goal=goal,
        confounded=frozenset(confounded),
        magnet=magnet,
    )


def default_map() -> GridMap:
    text = resources.files("causalplan").joinpath("maps/default.map").read_text()
    return parse_map(text)


def effective_heading(action: int, error: int) -> int:
    """Heading actually flown: the commanded heading rotated by the
    orientation error (counterclockwise positive), in degrees."""
    return (ACTION_HEADINGS[action] + error) % 360


def relative_transition(action: int, error: int, in_region: bool) -> Dist:
    """Relative-move distribution: 90% forward along the effective heading,
    5% drift to either side.  Outside the region the error is inert."""
    heading = effective_heading(action, error) if in_region else ACTION_HEADINGS[action]
    probs = np.zeros(len(DS_LABELS))
    probs[DS_LABELS.index(HEADING_TO_DS[heading])] = FORWARD_PROB
    probs[DS_LABELS.index(HEADING_TO_DS[(heading + 90) % 360])] = DRIFT_PROB
    probs[DS_LABELS.index(HEADING_TO_DS[(heading - 90) % 360])] = DRIFT_PROB
    return Dist(DS_LABELS, probs)


def apply_move(grid: GridMap, cell, ds: str):
    """Deterministic successor: the goal cell wins, any occupied or off-grid
    destination collides, otherwise the robot lands on the destination cell."""
    dx, dy = DS_OFFSETS[ds]
    dest = (cell[0] + dx, cell[1] + dy)
    if dest == grid.goal:
        return GOAL
    if dest in grid.occupied or not grid.in_bounds(dest):
        return COLLIDED
    return dest


def manhattan(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _greedy_action(grid: GridMap, cell) -> int:
    """Default rollout policy: step toward the goal by Manhattan distance,
    never into a collision, ties broken in canonical action order."""
    best, best_score = 0, None
    for a, ds in enumerate(("east", "north", "west", "south")):
        dest = apply_move(grid, cell, ds)
        if dest == COLLIDED:
            continue
        score = -1 if dest == GOAL else manhattan(dest, grid.goal)
        if best_score is None or score < best_score:
            best, best_score = a, score
    return best


def build_model(grid: GridMap, discount: float = 0.95) -> UcPomdpModel:
    """Assemble the ground-truth POMDP for a map: partitioned relative
    transitions, reflexive action policy, noiseless position sensor, and the
    -1 / +100 / -50 reward scheme."""
    cells = grid.free_cells
    cell_index = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    goal_idx, collided_idx = n, n + 1

    state_index = {**cell_index, GOAL: goal_idx, COLLIDED: collided_idx}
    successor = [[state_index[apply_move(grid, c, ds)] for ds in DS_LABELS]
                 for c in cells]

    p_uc_rows = [
        relative_transition(a, u, True).probs
        for a in range(len(ACTIONS))
        for u in ORIENTATION_ERRORS
    ]
    p_0_rows = [relative_transition(a, 0, False).probs for a in range(len(ACTIONS))]

    # noiseless position sensor: one observation per free cell + terminal
    obs = np.zeros((n, n + 1))
    obs[np.arange(n), np.arange(n)] = 1.0

    rewards = np.full((len(ACTIONS), n, n + 2), BASE_REWARD)
    rewards[:, :, goal_idx] += GOAL_BONUS
    rewards[:, :, collided_idx] += COLLISION_PENALTY

    return UcPomdpModel(
        state_labels=cells,
        actions=ACTIONS,
        ds_labels=DS_LABELS,
        observation_labels=tuple(cells) + ("terminal",),
        confounder_prior=CategoricalTable((), CONFOUNDER_PRIOR),
        reactive_policy=CategoricalTable((len(ORIENTATION_ERRORS),), REACTIVE_ROWS),
        confounded_states=[cell_index[c] for c in sorted(grid.confounded)],
        p_uc=CategoricalTable((len(ACTIONS), len(ORIENTATION_ERRORS)), p_uc_rows),
        p_0=CategoricalTable((len(ACTIONS),), p_0_rows),
        successor_table=successor,
        observation_table=CategoricalTable((n,), obs),
        rewards=rewards,
        discount=discount,
        initial_belief=np.eye(n)[cell_index[grid.start]],
        rollout_policy=[_greedy_action(grid, c) for c in cells],
        name=f"gridworld-{grid.width}x{grid.height}",
    )

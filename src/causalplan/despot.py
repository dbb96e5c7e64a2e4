"""Anytime regularized determinized sparse tree search.

The planner builds a sparse belief tree over K sampled scenarios, each a
start state plus a per-depth stream of unit-interval numbers that determinize
transition and observation draws.  Trials descend along the most promising
action (highest upper bound) into the observation child with the largest
weighted excess uncertainty, expand one frontier node, and back bounds up the
path.  A :class:`~causalplan.model.TransitionMode` switch selects whether
simulated steps follow the observational or the interventional transition
law, which is the entire difference between the biased and the
causally-informed planner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    Belief,
    InconsistentObservationError,
    TransitionMode,
    UcPomdpModel,
    belief_update,
)
from .scm import UsageError


@dataclass(frozen=True)
class PlannerConfig:
    """Search parameters.

    ``budget_trials`` and ``budget_ms`` may both be set; the search stops at
    whichever limit is hit first.  Trial budgets are deterministic; wall-clock
    budgets are not.
    """

    scenarios: int = 500
    depth: int = 15
    gamma: float = 0.95
    xi: float = 0.95
    regularization: float = 0.01
    budget_trials: int | None = 10_000
    budget_ms: float | None = None
    mode: TransitionMode = TransitionMode.INTERVENTIONAL
    seed: int = 0

    def __post_init__(self):
        if self.scenarios < 1:
            raise UsageError("scenario count must be >= 1")
        if self.depth < 1:
            raise UsageError("depth must be >= 1")
        if not 0 < self.gamma < 1:
            raise UsageError("gamma must lie in (0, 1)")
        if not 0 < self.xi < 1:
            raise UsageError("xi must lie in (0, 1)")
        if self.regularization < 0:
            raise UsageError("regularization must be >= 0")
        if self.budget_trials is not None and self.budget_trials < 0:
            raise UsageError("budget_trials must be >= 0")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")


def sample_scenarios(
    belief: Belief, count: int, seed: int, depth: int = 15
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` scenarios, each a start state plus a per-depth stream of
    (transition, observation) unit-interval pairs; fully determined by
    ``seed``.  Returns ``(starts, streams)`` of shapes ``(count,)`` and
    ``(count, depth, 2)``.

    Start states are i.i.d. from the belief, drawn by one generator seeded
    with ``(seed, 0)``; scenario ``i``'s stream comes from its own generator
    seeded with ``(seed, 1, i)``.
    """
    if count < 1:
        raise UsageError("scenario count must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    cdf = np.cumsum(belief.probs)
    cdf /= cdf[-1]
    starts = np.minimum(
        np.searchsorted(cdf, rng.random(count), side="right"), len(cdf) - 1
    )
    streams = np.empty((count, depth, 2))
    for i in range(count):
        np.random.default_rng(np.random.SeedSequence((seed, 1, i))).random(
            out=streams[i]
        )
    return starts, streams


class DespotNode:
    """A belief node holding the scenarios that reached it."""

    __slots__ = (
        "depth", "scenario_ids", "states", "weight",
        "lower", "upper", "default_value", "children",
    )

    def __init__(self, depth: int, scenario_ids: np.ndarray, states: np.ndarray,
                 total_scenarios: int):
        self.depth = depth
        self.scenario_ids = scenario_ids
        self.states = states
        self.weight = len(scenario_ids) / total_scenarios
        self.lower = 0.0
        self.upper = 0.0
        self.default_value = 0.0
        self.children: list[ActionEdge] | None = None   # None = frontier


class ActionEdge:
    __slots__ = ("avg_reward", "children")

    def __init__(self, avg_reward: float, children: list[tuple[int, DespotNode]]):
        self.avg_reward = avg_reward
        self.children = children  # (observation, node), canonical observation order


def initial_upper_bound(
    node: DespotNode, model: UcPomdpModel, config: PlannerConfig
) -> float:
    """Scenario-average admissible per-state bound; zero at the horizon."""
    if config.depth - node.depth <= 0:
        return 0.0
    return float(model.upper_hint[node.states].mean())


class DefaultValueTable:
    """Discounted default-policy returns of one search: ``table[d][k, s]``
    is the return from state ``s`` at depth ``d`` to the horizon along
    scenario ``k``'s stream (zero at terminals and at the horizon).

    Rows are filled on first use, as a search reads only the depths it
    expands to; each depth's successors take one batched policy step over
    every (scenario, ordinary state) pair.  Rollouts add their rewards
    forward like a scalar :func:`~causalplan.model.deterministic_step`
    rollout and stop once absorbed, so each entry equals it bit for bit.
    """

    def __init__(self, model: UcPomdpModel, config: PlannerConfig,
                 streams: np.ndarray):
        self.model, self.config, self.streams = model, config, streams
        n = model.n_states
        # the default action's reward, at s * n + s2
        self._rewards = model._reward_table[model.rollout_policy, np.arange(n)].ravel()
        self._successors: list[np.ndarray | None] = [None] * config.depth
        self._rows: list[np.ndarray | None] = [None] * (config.depth + 1)

    def __getitem__(self, depth: int) -> np.ndarray:
        if self._rows[depth] is None:
            self._rows[depth] = self._fill(depth)
        return self._rows[depth]

    def _successor(self, depth: int) -> np.ndarray:
        """Successor of each pair ``k * (S - 2) + s`` at ``depth``, stored in
        the narrowest integer type that holds a state."""
        if self._successors[depth] is None:
            n = self.model.n_states
            states = np.tile(np.arange(n - 2), len(self.streams))
            s2, _ = self.model.batch_policy_step(
                states, self.model.rollout_policy[states],
                np.repeat(self.streams[:, depth, 0], n - 2), self.config.mode,
            )
            self._successors[depth] = s2.astype(np.min_scalar_type(n - 1))
        return self._successors[depth]

    def _fill(self, depth: int) -> np.ndarray:
        k, n = len(self.streams), self.model.n_states
        row = np.zeros(k * n)
        # running rollouts: their cell in the row and their current pair
        cells = np.flatnonzero(np.arange(k * n) % n < n - 2)
        at = np.arange(len(cells))
        discount = 1.0
        for t in range(depth, self.config.depth):
            if not len(at):
                break
            s = at % (n - 2)
            s2 = self._successor(t).take(at)
            row[cells] += discount * self._rewards.take(s * n + s2)
            discount *= self.config.gamma
            running = np.flatnonzero(s2 < n - 2)
            cells, at = cells.take(running), (at - s + s2).take(running)
        return row.reshape(k, n)


class DespotTree:
    """A single search owns its tree; trials mutate it in place."""

    def __init__(self, model: UcPomdpModel, config: PlannerConfig, belief: Belief):
        if len(belief.probs) != model.n_states:
            raise UsageError("belief length does not match the model")
        self.model = model
        self.config = config
        starts, self.streams = sample_scenarios(
            belief, config.scenarios, config.seed, config.depth
        )
        self.default_values = DefaultValueTable(model, config, self.streams)
        self.n_expansions = 0
        self.n_trials = 0
        self.root = DespotNode(0, np.arange(config.scenarios), starts,
                               config.scenarios)
        # the default policy's action at the root's most common state
        counts = np.bincount(starts, minlength=model.n_states)
        self.default_action = int(model.rollout_policy[int(np.argmax(counts))])
        self.root.upper = initial_upper_bound(self.root, model, config)
        self.root.lower = self.root.default_value

    # -- trial machinery --------------------------------------------------------

    def _q_upper(self, edge: ActionEdge, node: DespotNode) -> float:
        total = 0.0
        for _, child in edge.children:
            total += len(child.scenario_ids) * child.upper
        return edge.avg_reward + self.config.gamma * total / len(node.scenario_ids)

    def _q_lower(self, edge: ActionEdge, node: DespotNode) -> float:
        total = 0.0
        for _, child in edge.children:
            total += len(child.scenario_ids) * child.lower
        return edge.avg_reward + self.config.gamma * total / len(node.scenario_ids)

    def _weu(self, child: DespotNode, root_gap: float) -> float:
        target = self.config.xi * self.config.gamma ** (-child.depth) * root_gap
        return child.weight * (child.upper - child.lower - target)

    def _expand(self, node: DespotNode):
        model, config = self.model, self.config
        d = node.depth
        ids = node.scenario_ids
        phi1 = self.streams[ids, d, 0]
        phi2 = self.streams[ids, d, 1]
        values = self.default_values[d + 1]
        edges = []
        for a in range(model.n_actions):
            s2, z, r = model.batch_step(node.states, a, phi1, phi2, config.mode)
            cont = values[ids, s2]
            children = []
            for obs in np.unique(z):
                sel = z == obs
                child = DespotNode(d + 1, ids[sel], s2[sel], config.scenarios)
                child.default_value = float(cont[sel].mean()) - config.regularization
                child.lower = child.default_value
                child.upper = initial_upper_bound(child, model, config)
                children.append((int(obs), child))
            edges.append(ActionEdge(float(r.mean()), children))
        node.children = edges
        self.n_expansions += 1

    def _backup(self, node: DespotNode):
        best_low = best_up = -np.inf
        for edge in node.children:
            ql = self._q_lower(edge, node)
            qu = self._q_upper(edge, node)
            if ql > best_low:
                best_low = ql
            if qu > best_up:
                best_up = qu
        node.lower = max(node.default_value, best_low - self.config.regularization)
        node.upper = best_up

    def run_trial(self) -> bool:
        """One descent-expand-backup pass; returns whether a node was expanded."""
        root_gap = self.root.upper - self.root.lower
        node = self.root
        path = [node]
        while node.children is not None and node.depth < self.config.depth:
            best_edge, best_q = None, -np.inf
            for edge in node.children:
                q = self._q_upper(edge, node)
                if q > best_q:
                    best_edge, best_q = edge, q
            best_child, best_weu = None, -np.inf
            for _, child in best_edge.children:
                weu = self._weu(child, root_gap)
                if weu > best_weu:
                    best_child, best_weu = child, weu
            if best_weu <= 0:
                break
            node = best_child
            path.append(node)
        expanded = False
        if node.children is None and node.depth < self.config.depth:
            self._expand(node)
            expanded = True
        for n in reversed(path):
            if n.children is not None:
                self._backup(n)
        self.n_trials += 1
        return expanded

    # -- results ----------------------------------------------------------------

    def best_action(self) -> int:
        """Argmax of the regularized lower bound at the root; the default
        policy's action if the root is unexpanded or the default bound wins."""
        root = self.root
        if root.children is None:
            return self.default_action
        best_a, best_q = None, -np.inf
        for a, edge in enumerate(root.children):
            q = self._q_lower(edge, root) - self.config.regularization
            if q > best_q:
                best_a, best_q = a, q
        if root.default_value > best_q:
            return self.default_action
        return best_a

    def bounds(self) -> tuple[float, float]:
        return self.root.lower, self.root.upper

    def nodes(self):
        """All nodes, parents before children."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                for edge in node.children:
                    for _, child in edge.children:
                        stack.append(child)


def run_trial(tree: DespotTree) -> DespotTree:
    tree.run_trial()
    return tree


def search(
    belief: Belief, model: UcPomdpModel, config: PlannerConfig
) -> tuple[int, tuple[float, float]]:
    """Build a tree and run trials until the budget is spent or the root gap
    shrinks to ``(1 - xi)`` of its initial value; returns the chosen action
    and the final root bounds."""
    tree = DespotTree(model, config, belief)
    gap0 = tree.root.upper - tree.root.lower
    target = (1.0 - config.xi) * gap0
    start = time.perf_counter()
    while True:
        if tree.root.upper - tree.root.lower <= target + 1e-12:
            break
        if config.budget_trials is not None and tree.n_trials >= config.budget_trials:
            break
        if config.budget_ms is not None:
            if (time.perf_counter() - start) * 1e3 >= config.budget_ms:
                break
        before = (tree.root.lower, tree.root.upper)
        expanded = tree.run_trial()
        if not expanded and (tree.root.lower, tree.root.upper) == before:
            break
    return tree.best_action(), tree.bounds()


@dataclass
class EpisodeStep:
    belief_state: int
    action: int
    lower: float
    upper: float
    next_state: int
    observation: int
    reward: float


@dataclass
class EpisodeTrace:
    seed: int
    steps: list[EpisodeStep] = field(default_factory=list)
    total_discounted_reward: float = 0.0
    outcome: str = "timeout"
    belief_resets: int = 0

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def first_action(self) -> int:
        return self.steps[0].action


def _step_seed(seed: int, step: int) -> int:
    # documented derivation: search seed for step t is drawn from (seed, 2, t)
    return int(np.random.SeedSequence((seed, 2, step)).generate_state(1)[0])


def run_episode(
    model_plan: UcPomdpModel,
    model_exec: UcPomdpModel,
    config: PlannerConfig,
    max_steps: int,
    seed: int,
) -> EpisodeTrace:
    """Plan on ``model_plan``, execute on ``model_exec``'s interventional
    ground-truth dynamics, update the belief after each observation.

    The executed action is imposed by the planner, so outcomes follow the
    interventional law of the execution model; the confounder still drives
    the outcome inside the confounded region.  If the planning model assigns
    the received observation zero probability the episode is flagged and the
    belief resets to the executed position.
    """
    if max_steps < 1:
        raise UsageError("max_steps must be >= 1")
    if model_plan.n_states != model_exec.n_states:
        raise UsageError("planning and execution models disagree on states")
    exec_rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    state = model_exec.initial_belief.sample(exec_rng)
    belief = model_plan.initial_belief
    trace = EpisodeTrace(seed=seed)
    total = 0.0
    for t in range(max_steps):
        step_config = replace(config, seed=_step_seed(seed, t))
        action, (lower, upper) = search(belief, model_plan, step_config)
        s_next = model_exec.sample_transition(
            state, action, TransitionMode.INTERVENTIONAL, exec_rng
        )
        z = model_exec.sample_observation(s_next, exec_rng)
        r = float(model_exec._reward_table[action, state, s_next])
        total += config.gamma ** t * r
        trace.steps.append(
            EpisodeStep(belief.top_state, action, lower, upper, s_next, z, r)
        )
        if model_exec.is_terminal(s_next):
            trace.outcome = (
                "goal" if s_next == model_exec.goal_state else "collision"
            )
            break
        try:
            belief = belief_update(model_plan, belief, action, z, config.mode)
        except InconsistentObservationError:
            trace.belief_resets += 1
            belief = Belief.point_mass(model_plan.n_states, s_next)
        state = s_next
    trace.total_discounted_reward = total
    return trace

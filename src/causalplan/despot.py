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

import itertools
import sys
import time
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    Belief,
    InconsistentObservationError,
    TransitionMode,
    UcPomdpModel,
    belief_update,
    deterministic_step,
)
from .scm import CapacityError, UsageError


@dataclass(frozen=True)
class PlannerConfig:
    """Search parameters.

    ``budget_trials`` and ``budget_ms`` may both be set; the search stops at
    whichever limit is hit first.  Trial budgets are deterministic; wall-clock
    budgets are not.
    """

    scenarios: int = 500
    depth: int = 15
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
        if not 0 < self.xi < 1:
            raise UsageError("xi must lie in (0, 1)")
        if not 0 <= self.regularization < np.inf:
            raise UsageError("regularization must be finite and >= 0")
        if self.budget_trials is not None and self.budget_trials < 0:
            raise UsageError("budget_trials must be >= 0")
        if self.budget_ms is not None and not self.budget_ms >= 0:
            raise UsageError("budget_ms must be >= 0")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")


def sample_scenarios(
    belief: Belief, count: int, seed: int, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` scenarios, each a start state plus a per-depth stream of
    (transition, observation) unit-interval pairs; fully determined by
    ``seed``.  Returns ``(starts, streams)`` of shapes ``(count,)`` and
    ``(count, depth, 2)``.

    Start states are i.i.d. from the belief, drawn by one generator seeded
    with ``(seed, 0)``; every stream comes from one generator seeded with
    ``(seed, 1)``, filled in ``(scenario, depth, pair)`` order.
    """
    if count < 1:
        raise UsageError("scenario count must be >= 1")
    if depth < 1:
        raise UsageError("depth must be >= 1")
    if count * depth * 16 > sys.maxsize:  # the streams' bytes; numpy's array limit
        raise CapacityError(f"{count} scenarios of depth {depth} exceed the largest array")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    starts = belief.sample(rng, count)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    return starts, rng.random((count, depth, 2))


class DespotNode:
    """A belief node holding the ``count`` scenarios that reached it as cells
    ``state * K + scenario``, their entries in the bound tables' (S, K) rows."""

    __slots__ = (
        "depth", "cells", "count", "weight",
        "lower", "upper", "default_value", "children",
    )

    def __init__(self, depth: int, cells: np.ndarray, total_scenarios: int):
        self.depth = depth
        self.cells = cells
        self.count = len(cells)
        self.weight = self.count / total_scenarios
        self.lower = 0.0
        self.upper = 0.0
        self.default_value = 0.0
        self.children: list[ActionEdge] | None = None   # None = frontier


class ActionEdge:
    """One action's outcome at a node; ``q_lower``/``q_upper`` are its Q
    bounds as of the node's last :meth:`DespotTree._backup`."""

    __slots__ = ("avg_reward", "children", "q_lower", "q_upper")

    def __init__(self, avg_reward: float):
        self.avg_reward = avg_reward
        self.children: list[tuple[int, DespotNode]] = []  # ascending observation


# Per planning model, kept as long as the model lives: the reach rows of the
# fills, by (mode, depth, start states); and per mode the tail tables, entry
# j the (2, S, B**j) lower and upper bounds of every state j steps before
# the horizon over every suffix of j transition bucket ids (_tail_tables).
_MODEL_CACHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _step_rows(prev, cells: np.ndarray, r: np.ndarray,
               policy: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """One Bellman step of both bounds: the lower and upper ``(m, C)`` rows
    one step before ``prev``, the next depth's ``(S, C)`` lower and upper
    bounds.  ``cells`` and ``r`` are the ``(A, m, C)`` successor cells
    ``s2 * C + column`` and rewards of every action; ``policy`` the rows of
    their ``(A * m, C)`` views that the default policy takes.

    The upper row is ``max_a (r_a + gamma * upper[s2_a])``, the scenario's
    clairvoyant optimum, and the lower row ``r_pi + gamma * lower[s2_pi]``,
    the default policy's return (Ye et al., 2017).  Each cell gets
    ``q = prev[s2]; q *= gamma; q += r``, the two IEEE operations of a
    scalar :func:`~causalplan.model.deterministic_step` recursion on the
    same operands, and the max compares the same values, so every entry
    equals that recursion bit for bit."""
    lower, upper = prev
    q = upper.reshape(-1).take(cells)
    q *= gamma
    q += r
    c = cells.shape[-1]
    low = lower.reshape(-1).take(cells.reshape(-1, c).take(policy, axis=0))
    low *= gamma
    low += r.reshape(-1, c).take(policy, axis=0)
    return low, np.maximum.reduce(q, axis=0)


def _tail_tables(model: UcPomdpModel, mode: TransitionMode, depth: int,
                 tails: dict) -> list[np.ndarray]:
    """The tail tables of ``mode`` through ``depth`` steps before the
    horizon, extending the model's kept list.  Entry ``j`` is ``(2, S,
    B**j)``, column ``b * B**(j-1) + t`` the bounds after bucket id ``b``
    and then column ``t``'s suffix; entry 0 is the horizon.  Each entry is
    one :func:`_step_rows` of every state at every bucket id."""
    have = tails.get(mode) or [np.zeros((2, model.n_states, 1))]
    if len(have) > depth:
        return have
    n = model.n_states
    s2, r = model.batch_policy_step(np.arange(n), np.arange(model.n_buckets(mode)), mode)
    policy = model.rollout_policy * n + np.arange(n)
    # stored complete, so a concurrent search never sees a part
    out = list(have)
    for _ in range(len(have), depth + 1):
        c = out[-1].shape[2]
        cells = (s2[..., None] * c + np.arange(c)).reshape(*s2.shape[:2], -1)
        out.append(np.stack(_step_rows(out[-1], cells, r.repeat(c, axis=2), policy,
                                       model.discount)))
    tails[mode] = out
    return out


def _fill_bounds(model: UcPomdpModel, config: PlannerConfig, buckets: np.ndarray,
                 starts: np.ndarray) -> np.ndarray:
    """The per-scenario bounds of one search as one ``(2, D+1, S, K)``
    array, filled from the horizon back by :func:`_step_rows`: the default
    policy's return (the first half) and the clairvoyant optimum from each
    state at each depth along each scenario's stream, zero at the terminals
    and at the horizon.  ``buckets`` are the scenarios' depth-major ``(D,
    2, K)`` bucket ids; ``starts`` their start states.  Only the rows of
    states reachable in ``d`` steps from ``starts`` are filled and read.

    The last ``J`` depths, ``J`` the largest ``j <= D`` with ``B**j <= K``,
    are one ``take`` of the tail tables (:func:`_tail_tables`) at each
    scenario's suffix id; each earlier depth is one
    :meth:`~causalplan.model.UcPomdpModel.batch_policy_step` over the K
    scenario lanes, the innermost axis.  The array is fresh and only row
    ``D`` and the two terminal rows are zeroed: no search reads a cell it
    did not fill.
    """
    k, n, depth = buckets.shape[2], model.n_states, config.depth
    reach, tails = _MODEL_CACHES.setdefault(model, ({}, {}))
    tables = np.empty((2, depth + 1, n, k))
    tables[:, depth] = 0
    tables[:, :, n - 2:] = 0
    lower, upper = tables
    live = np.zeros(n, dtype=bool)
    live[starts] = True
    key = (config.mode, depth, live.tobytes())
    rows = reach.get(key)
    if rows is None:
        # per depth: the reachable ordinary states and the rows of the
        # fill's (A * m, K) step results that the default policy takes;
        # stored complete, so a concurrent search never sees a part
        rows = []
        for _ in range(depth):
            states = np.flatnonzero(live[:n - 2])
            m = len(states)
            rows.append((states, model.rollout_policy[states] * m + np.arange(m)))
            live = model.successor_mask(live, config.mode)
        reach[key] = rows
    b, tail = model.n_buckets(config.mode), 0
    while tail < depth and b ** (tail + 1) <= k:
        tail += 1
    if tail:
        by_suffix = _tail_tables(model, config.mode, tail, tails)
        sid = 0   # each scenario's id of its last j bucket ids
        for j in range(1, tail + 1):
            d = depth - j
            sid = buckets[d, 0] * b ** (j - 1) + sid
            states = rows[d][0]
            tables[:, d, states] = by_suffix[j].take(states, axis=1).take(sid, axis=2)
    lanes = np.arange(k)
    for d in range(depth - tail - 1, -1, -1):
        states, policy = rows[d]
        # the step's fresh successors become the cells s2 * k + lane in place
        s2, r = model.batch_policy_step(states, buckets[d, 0], config.mode)
        s2 *= k
        s2 += lanes
        lower[d][states], upper[d][states] = _step_rows(
            (lower[d + 1], upper[d + 1]), s2, r, policy, model.discount)
    return tables


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
        # the scenarios' bucket ids, depth-major: (D, 2, K)
        self.buckets = np.ascontiguousarray(
            model.bucket_ids(self.streams, config.mode).transpose(1, 2, 0))
        # the lower and upper bound tables, (2, D+1, S, K)
        self.tables = _fill_bounds(model, config, self.buckets, starts)
        # the smallest integer type of the (action, observation) sort keys,
        # so the stable argsort of _expand is a radix sort
        self._key_type = np.min_scalar_type(model.n_actions * model.n_observations - 1)
        # per depth d, the share xi * discount ** -(d + 1) of the root gap a child
        # must exceed to be descended into; inf where the power overflows
        self._gap_scale = []
        for d in range(config.depth):
            try:
                self._gap_scale.append(config.xi * model.discount ** (-(d + 1)))
            except OverflowError:
                self._gap_scale.append(np.inf)
        self.n_expansions = 0
        self.n_trials = 0
        k = config.scenarios
        self.root, = self._nodes(0, starts * k + np.arange(k), [k])
        # the default policy's action at the root's most common state
        counts = np.bincount(starts, minlength=model.n_states)
        self.default_action = int(model.rollout_policy[int(np.argmax(counts))])

    def _nodes(self, depth: int, cells: np.ndarray, counts: list[int]) -> list[DespotNode]:
        """New nodes with their first bounds, one per consecutive slice of
        ``cells`` of the lengths ``counts``, from their lower and upper table
        entries at ``depth``: the mean default-policy return less the
        regularization is a node's default value and lower bound, the mean
        clairvoyant return its upper bound.  One ``np.add.reduceat`` sums
        every slice, ``x[0] + pairwise(x[1:])`` (``np.mean`` sums ``0.0 +
        pairwise(x)``); each mean and the subtraction are Python float
        operations, the same IEEE operations as numpy's on float64."""
        total, lam = self.config.scenarios, self.config.regularization
        starts = [0, *itertools.accumulate(counts[:-1])]
        sums = np.add.reduceat(self.tables[:, depth].reshape(2, -1).take(cells, axis=1),
                               starts, axis=1)
        nodes = []
        for lo, n, low, up in zip(starts, counts, *sums.tolist()):
            node = DespotNode(depth, cells[lo:lo + n], total)
            node.default_value = node.lower = low / n - lam
            node.upper = up / n
            nodes.append(node)
        return nodes

    # -- trial machinery --------------------------------------------------------

    def _expand(self, node: DespotNode):
        """Step every action from every scenario in one kernel call, then
        group the (action, scenario) results by (action, observation) key:
        one stable sort puts each child's cells in a contiguous slice in
        scenario order, and one ``bincount`` gives the present keys and
        their slices' lengths."""
        model, config = self.model, self.config
        d, m, k = node.depth, node.count, config.scenarios
        states, ids = np.divmod(node.cells, k)
        b1, b2 = self.buckets[d].take(ids, axis=1)
        actions = np.arange(model.n_actions)[:, None]
        s2, z, r = model.batch_step(states, b1, b2, config.mode)
        key = (actions * model.n_observations + z).astype(self._key_type).ravel()
        # the step's fresh successors become the children's cells in place
        s2 *= k
        s2 += ids
        counts = np.bincount(key)
        present = np.flatnonzero(counts)
        edges = [ActionEdge(total / m) for total in np.add.reduce(r, axis=1).tolist()]
        children = self._nodes(d + 1, s2.ravel().take(np.argsort(key, kind="stable")),
                               counts.take(present).tolist())
        for ak, child in zip(present.tolist(), children):
            a, obs = divmod(ak, model.n_observations)
            edges[a].children.append((obs, child))
        node.children = edges
        self.n_expansions += 1

    def _backup(self, node: DespotNode, edge: ActionEdge | None = None):
        """Store the Q bounds of ``edge``, or of every edge if it is None,
        and take the best of the stored ones.  The descent and
        :meth:`best_action` read the stored values, which stay exact: only
        the nodes on a trial's path change, each is backed up before its
        parent, and a path node's other edges lead to unchanged children."""
        discount, n = self.model.discount, node.count
        for e in node.children if edge is None else (edge,):
            low = up = 0.0
            for _, child in e.children:
                low += child.count * child.lower
                up += child.count * child.upper
            e.q_lower = e.avg_reward + discount * low / n
            e.q_upper = e.avg_reward + discount * up / n
        best_low = best_up = -np.inf
        for e in node.children:
            if e.q_lower > best_low:
                best_low = e.q_lower
            if e.q_upper > best_up:
                best_up = e.q_upper
        node.lower = max(node.default_value, best_low - self.config.regularization)
        node.upper = best_up

    def run_trial(self) -> bool:
        """One descent-expand-backup pass; returns whether a node was expanded."""
        root_gap = self.root.upper - self.root.lower
        node = self.root
        path = []   # (node, the edge the trial took from it)
        while node.children is not None and node.depth < self.config.depth:
            best_edge, best_q = None, -np.inf
            for edge in node.children:
                if edge.q_upper > best_q:
                    best_edge, best_q = edge, edge.q_upper
            # each child's weighted excess uncertainty; all sit at depth + 1
            target = self._gap_scale[node.depth] * root_gap
            best_child, best_weu = None, -np.inf
            for _, child in best_edge.children:
                weu = child.weight * (child.upper - child.lower - target)
                if weu > best_weu:
                    best_child, best_weu = child, weu
            if best_weu <= 0:
                break
            path.append((node, best_edge))
            node = best_child
        expanded = False
        if node.children is None and node.depth < self.config.depth:
            self._expand(node)
            expanded = True
        if node.children is not None:
            self._backup(node)
        for n, edge in reversed(path):
            self._backup(n, edge)
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
            q = edge.q_lower - self.config.regularization
            if q > best_q:
                best_a, best_q = a, q
        if root.default_value > best_q:
            return self.default_action
        return best_a

    def bounds(self) -> tuple[float, float]:
        return self.root.lower, self.root.upper


def search(
    belief: Belief, model: UcPomdpModel, config: PlannerConfig
) -> tuple[int, tuple[float, float]]:
    """Build a tree and run trials until the budget is spent or the root gap
    shrinks to ``(1 - xi)`` of its initial value; returns the chosen action
    and the final root bounds.  ``budget_ms`` counts from entry: a set-up
    that spends it leaves no trial."""
    start = time.perf_counter()
    tree = DespotTree(model, config, belief)
    gap0 = tree.root.upper - tree.root.lower
    target = (1.0 - config.xi) * gap0
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
    belief resets to the executed position.  Each executed step is
    :func:`~causalplan.model.deterministic_step` at the next two draws of the
    episode's execution generator.
    """
    if max_steps < 1:
        raise UsageError("max_steps must be >= 1")
    if model_plan.n_states != model_exec.n_states:
        raise UsageError("planning and execution models disagree on states")
    exec_rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    state = int(model_exec.initial_belief.sample(exec_rng))
    belief = model_plan.initial_belief
    trace = EpisodeTrace(seed=seed)
    total = 0.0
    for t in range(max_steps):
        step_config = replace(config, seed=_step_seed(seed, t))
        action, (lower, upper) = search(belief, model_plan, step_config)
        s_next, z, r = deterministic_step(
            model_exec, state, action, (exec_rng.random(), exec_rng.random()),
            TransitionMode.INTERVENTIONAL,
        )
        total += model_plan.discount ** t * r
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

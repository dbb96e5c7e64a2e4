"""Shared oracles and small models for the test suite.

The hand-computed tables here are derived independently of the library code:
they restate the benchmark's published constants (confounder prior, reactive
action table, 90/5/5 drift) and compute mixtures directly, so library output
can be checked against them.
"""

import itertools
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from causalplan import despot, gridworld
from causalplan.learning import Dataset, DatasetMeta
from causalplan.model import _MODE_INDEX, TransitionMode, UcPomdpModel, deterministic_step
from causalplan.scm import CategoricalTable, DeterministicRule, ScmSpec, VariableId, cdf_index

PRIOR = {-90: 0.10, 0: 0.80, 90: 0.10}
REACTIVE = {
    -90: {"RIGHT": 0.05, "UP": 0.85, "LEFT": 0.05, "DOWN": 0.05},
    0: {"RIGHT": 0.45, "UP": 0.05, "LEFT": 0.45, "DOWN": 0.05},
    90: {"RIGHT": 0.05, "UP": 0.85, "LEFT": 0.05, "DOWN": 0.05},
}
HEADING = {"RIGHT": 0, "UP": 90, "LEFT": 180, "DOWN": 270}
DIRECTION = {90: "north", 0: "east", 270: "south", 180: "west"}
DS_ORDER = ("north", "east", "south", "west")
ACTION_ORDER = ("RIGHT", "UP", "LEFT", "DOWN")


def drift_row(action: str, error: int) -> dict:
    """90% forward along the error-rotated heading, 5% to either side."""
    h = (HEADING[action] + error) % 360
    return {
        DIRECTION[h]: 0.9,
        DIRECTION[(h + 90) % 360]: 0.05,
        DIRECTION[(h - 90) % 360]: 0.05,
    }


def hand_confounded_tables() -> tuple[dict, dict]:
    """Confounded-cell relative tables per action: (interventional, observational).

    Interventional mixes the drift rows by the confounder prior; observational
    reweights the prior by the reactive likelihood of the conditioned action.
    """
    interventional, observational = {}, {}
    for action in ACTION_ORDER:
        post = {u: REACTIVE[u][action] * PRIOR[u] for u in PRIOR}
        post_total = sum(post.values())
        row_do = np.zeros(4)
        row_obs = np.zeros(4)
        for u in PRIOR:
            drift = drift_row(action, u)
            for k, ds in enumerate(DS_ORDER):
                row_do[k] += PRIOR[u] * drift.get(ds, 0.0)
                row_obs[k] += post[u] / post_total * drift.get(ds, 0.0)
        interventional[action] = row_do
        observational[action] = row_obs
    return interventional, observational


def state_index(model, label) -> int:
    """Index of the state labelled ``label``, a cell or a terminal."""
    return model.states.index(label)


def two_state_inputs() -> dict:
    """Constructor arguments of :func:`two_state_model`."""
    rows = [[0.7, 0.3], [0.2, 0.8]]
    obs = np.array([[0.8, 0.2, 0.0], [0.25, 0.75, 0.0]])
    # (action, state, successor): the reward depends on action and successor
    rewards = np.array([[[-0.3, 1.0, 0.0, 0.0]] * 2, [[0.4, -0.1, 0.0, 0.0]] * 2])
    return dict(
        state_labels=("left", "right"),
        actions=("hold", "flip"),
        ds_labels=("stay", "swap"),
        observation_labels=("z0", "z1", "terminal"),
        confounder_prior=CategoricalTable((), [[1.0]]),
        reactive_policy=CategoricalTable((1,), [[0.5, 0.5]]),
        confounded_states=[],
        p_uc=CategoricalTable((2, 1), rows),
        p_0=CategoricalTable((2,), rows),
        successor_table=np.array([[0, 1], [1, 0]]),
        observation_table=CategoricalTable((2,), obs),
        rewards=rewards,
        discount=0.95,
        initial_belief=[0.5, 0.5],
        rollout_policy=[0, 0],
        name="two-state-chain",
    )


def two_state_model() -> UcPomdpModel:
    """2 ordinary states, 2 actions, 2 reachable noisy observations, no
    reachable terminals; used for exhaustive planner checks."""
    return UcPomdpModel(**two_state_inputs())


def free_roam_model() -> UcPomdpModel:
    """Terminal-free wanderer: every step costs -1, so episodes always time out."""
    succ = np.array([[0, 1], [1, 0]])
    rows = [[0.5, 0.5], [0.5, 0.5]]
    obs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return UcPomdpModel(
        state_labels=("a", "b"),
        actions=("go", "back"),
        ds_labels=("stay", "swap"),
        observation_labels=("za", "zb", "terminal"),
        confounder_prior=CategoricalTable((), [[1.0]]),
        reactive_policy=CategoricalTable((1,), [[0.5, 0.5]]),
        confounded_states=[],
        p_uc=CategoricalTable((2, 1), rows),
        p_0=CategoricalTable((2,), rows),
        successor_table=succ,
        observation_table=CategoricalTable((2,), obs),
        rewards=np.full((2, 2, 4), -1.0),
        discount=0.95,
        initial_belief=[1.0, 0.0],
        rollout_policy=[0, 0],
        name="free-roam",
    )


def scalar_bounds(model, stream, horizon, mode) -> tuple[np.ndarray, np.ndarray]:
    """One scenario's ``(lower, upper)`` rows of shape ``(horizon + 1, S)``
    by backward recursion over :func:`deterministic_step`: the default
    policy's return and the best return of any action sequence."""
    lower = np.zeros((horizon + 1, model.n_states))
    upper = np.zeros((horizon + 1, model.n_states))
    for d in range(horizon - 1, -1, -1):
        for s in range(model.n_states - 2):
            q = []
            for a in range(model.n_actions):
                s2, _, r = deterministic_step(model, s, a, tuple(stream[d]), mode)
                q.append(r + model.discount * upper[d + 1, s2])
                if a == model.rollout_policy[s]:
                    lower[d, s] = r + model.discount * lower[d + 1, s2]
            upper[d, s] = max(q)
    return lower, upper


def enumerate_policy_trees(n_actions: int, observations: tuple, depth: int):
    """Every depth-limited policy tree: (action, {observation: subtree})."""
    if depth == 0:
        yield None
        return
    subtrees = list(enumerate_policy_trees(n_actions, observations, depth - 1))
    for a in range(n_actions):
        if not observations:
            yield (a, {})
            continue
        for combo in _product(subtrees, len(observations)):
            yield (a, dict(zip(observations, combo)))


def _product(options, repeat):
    if repeat == 0:
        yield ()
        return
    for head in options:
        for tail in _product(options, repeat - 1):
            yield (head,) + tail


def policy_tree_value(model, tree, state, stream, depth, gamma, mode) -> float:
    if tree is None:
        return 0.0
    action, branches = tree
    s2, z, r = deterministic_step(model, state, action, tuple(stream[depth]), mode)
    sub = branches.get(z)
    cont = (
        policy_tree_value(model, sub, s2, stream, depth + 1, gamma, mode)
        if sub is not None
        else 0.0
    )
    return r + gamma * cont


def brute_force_optimum(model, starts, streams, depth, gamma, mode,
                        observations=(0, 1)) -> float:
    """Max over all policy trees of the scenario-average determinized return."""
    best = -np.inf
    for tree in enumerate_policy_trees(model.n_actions, observations, depth):
        total = 0.0
        for state, stream in zip(starts, streams):
            total += policy_tree_value(
                model, tree, int(state), stream, 0, gamma, mode
            )
        best = max(best, total / len(starts))
    return float(best)


def determinized_optimum(model, states, streams, depth, horizon, mode) -> float:
    """:func:`brute_force_optimum` by recursion: the best scenario-average
    return from ``depth`` to ``horizon`` of the scenarios at ``states`` with
    ``streams``.  Each observation's subtree is chosen on its own, so the
    best policy tree takes the best action and then the best subtree of every
    observation child; the cost grows with the tree's nodes, not its count
    of policy trees."""
    if depth >= horizon:
        return 0.0
    best = -np.inf
    for a in range(model.n_actions):
        steps = [deterministic_step(model, int(s), a, tuple(stream[depth]), mode)
                 for s, stream in zip(states, streams)]
        total = sum(r for _, _, r in steps)
        for z in sorted({z for _, z, _ in steps}):
            at = [i for i, step in enumerate(steps) if step[1] == z]
            total += model.discount * len(at) * determinized_optimum(
                model, [steps[i][0] for i in at], [streams[i] for i in at],
                depth + 1, horizon, mode)
        best = max(best, total / len(states))
    return float(best)


def reach_mask(model, starts, horizon, mode) -> np.ndarray:
    """``(horizon + 1, S)`` mask of the states that some path of nonzero
    transition probability reaches in ``d`` steps from ``starts``, one row
    at a time: the cells a search can read."""
    trans = transition_matrix(model, mode)
    mask = np.zeros((horizon + 1, model.n_states), dtype=bool)
    mask[0, list(starts)] = True
    for d in range(horizon):
        for s in np.flatnonzero(mask[d]):
            for a in range(model.n_actions):
                mask[d + 1, trans[a, s] > 0] = True
    return mask


def assert_successor_masks_equal_reach(model):
    """``model.successor_mask`` of every one-state mask, in both modes,
    against one step of :func:`reach_mask`."""
    for mode in TransitionMode:
        for s in range(model.n_states):
            live = np.zeros(model.n_states, dtype=bool)
            live[s] = True
            assert np.array_equal(model.successor_mask(live, mode),
                                  reach_mask(model, [s], 1, mode)[1])


def dense_row(model, s, row):
    """``row[..., j]``, over the successor slots of state ``s``, written out
    over all states: each distinct slot's entry at its state, and zero at
    the states that are no successor of ``s``."""
    slots = model._slots[s]
    distinct = np.diff(slots, prepend=-1) > 0
    out = np.zeros(np.shape(row)[:-1] + (model.n_states,))
    out[..., slots[distinct]] = np.asarray(row)[..., distinct]
    return out


def transition_matrix(model, mode) -> np.ndarray:
    """(action, state, successor) probabilities of ``mode``'s law, written
    out over all states; terminal rows are identity."""
    n = model.n_states
    law = model._laws[_MODE_INDEX[mode]].values.reshape(model.n_actions, n, -1)
    return np.stack([dense_row(model, s, law[:, s]) for s in range(n)], axis=1)


def reward_table(model) -> np.ndarray:
    """(action, state, successor) rewards as the kernels read them, written
    out over all states; zero where the successor is no successor of the
    state, and at the terminals."""
    return np.stack([dense_row(model, s, model._rewards[:, s])
                     for s in range(model.n_states)], axis=1)


def fold_loop(model, s, rel):
    """Relative outcomes folded into successors one entry at a time."""
    row = np.zeros(model.n_states)
    for ds in range(model.n_ds):
        row[model.successor_table[s, ds]] += rel[ds]
    return row


def assert_transition_rows_fold(model):
    """Every ordinary row of both modes' transition matrices equals its
    relative row, the region's or ``p_0``'s, folded by :func:`fold_loop`."""
    for m, mode in enumerate((TransitionMode.OBSERVATIONAL, TransitionMode.INTERVENTIONAL)):
        matrix = transition_matrix(model, mode)
        for a in range(model.n_actions):
            for s in range(model.n_states - 2):
                region = s in model.confounded_states
                rel = model._rel_region[m, a] if region else model.p_0.values[a]
                assert np.array_equal(matrix[a, s], fold_loop(model, s, rel))


def assert_free_rows_are_mechanism_rows(model):
    """Outside the confounded region both modes' law rows equal
    ``mechanism_rows[s, a, u]`` bit for bit, for every action and every
    confounder value: the free rows have one source, ``p_0``."""
    n = model.n_states
    for law in model._laws:
        rows = law.values.reshape(model.n_actions, n, -1)
        for s, a, u in itertools.product(range(n - 2), range(model.n_actions),
                                         range(model.n_confounder)):
            if s not in model.confounded_states:
                assert np.array_equal(rows[a, s], model.mechanism_rows[s, a, u])


def assert_mechanism_rows_fold(model):
    """``mechanism_rows[s, a, u]`` equals the mechanism table's relative
    row, ``p_uc`` inside the region and ``p_0`` outside, folded by
    :func:`fold_loop`."""
    n = model.n_states
    rows = model.mechanism_rows
    assert rows.shape == (n - 2, model.n_actions, model.n_confounder, model.n_ds)
    for s, a, u in itertools.product(range(n - 2), range(model.n_actions),
                                     range(model.n_confounder)):
        if s in model.confounded_states:
            rel = model.p_uc.values[a * model.n_confounder + u]
        else:
            rel = model.p_0.values[a]
        assert np.array_equal(dense_row(model, s, rows[s, a, u]), fold_loop(model, s, rel))


def buckets_of(model, phi1, phi2, mode):
    """Transition and observation bucket ids of the draws ``phi1``, ``phi2``:
    the kernel inputs that stand for them."""
    ids = model.bucket_ids(np.stack([phi1, phi2], axis=-1), mode)
    return ids[..., 0], ids[..., 1]


def assert_kernels_equal_scalar_step(model, mode):
    """Both batched access patterns equal :func:`deterministic_step` exactly,
    cell for cell, at the lower edge of every bucket (a draw in it): the
    outer ``batch_policy_step`` over every (action, state including the
    terminals, transition bucket), and ``batch_step``'s ``(A, N)`` rows over
    every (action, state, transition bucket, observation bucket)."""
    edges = [np.concatenate(([0.0], table.buckets[0]))
             for table in (model._laws[_MODE_INDEX[mode]], model._sensor)]
    b1, b2 = (np.arange(len(e)) for e in edges)
    assert np.array_equal(buckets_of(model, edges[0], np.zeros(len(b1)), mode)[0], b1)
    assert np.array_equal(buckets_of(model, np.zeros(len(b2)), edges[1], mode)[1], b2)
    states = np.arange(model.n_states)
    s2, r = model.batch_policy_step(states, b1, mode)
    assert s2.shape == r.shape == (model.n_actions, model.n_states, len(b1))
    for a, s, b in itertools.product(range(model.n_actions), states.tolist(), b1.tolist()):
        step = deterministic_step(model, s, a, (edges[0][b], 0.0), mode)
        assert (s2[a, s, b], r[a, s, b]) == (step[0], step[2])
    s, i, j = np.indices((model.n_states, len(b1), len(b2))).reshape(3, -1)
    rows = model.batch_step(s, i, j, mode)
    assert [x.shape for x in rows] == [(model.n_actions, len(s))] * 3
    s2, z, r = (x.tolist() for x in rows)
    for a, cell in itertools.product(range(model.n_actions), range(len(s))):
        phi = (edges[0][i[cell]], edges[1][j[cell]])
        step = deterministic_step(model, int(s[cell]), a, phi, mode)
        assert (s2[a][cell], z[a][cell], r[a][cell]) == step


def bound_tables(model, config, starts, streams) -> np.ndarray:
    """The ``(2, D+1, S, K)`` lower and upper bound tables that a search
    from ``starts`` over ``streams`` fills (``despot._fill_bounds``)."""
    buckets = model.bucket_ids(streams, config.mode).transpose(1, 2, 0)
    return despot._fill_bounds(model, config, np.ascontiguousarray(buckets), starts)


def slice_mean(x) -> float:
    """The mean of a vector as ``np.add.reduceat`` sums a slice, its first
    entry plus the pairwise sum of the rest, over the slice's length: the
    arithmetic of a node's first bounds."""
    return float((x[0] + np.add.reduce(x[1:])) / len(x))


def noisy_sensor_model() -> UcPomdpModel:
    """The shipped map's model with a noisy position sensor: 0.7 on the
    cell's own observation index and 0.15 on each neighbouring index (both
    on the one neighbour of the first and the last index).  Beliefs then
    spread over several cells, and the observation rows have real CDF
    breaks, which the shipped sensor's one-hot rows do not."""
    truth = gridworld.build_model(gridworld.default_map())
    n = truth.n_states - 2
    obs = np.zeros((n, truth.n_observations))
    for s in range(n):
        obs[s, s] = 0.7
        for nb in (s - 1, s + 1):
            obs[s, nb if 0 <= nb < n else 2 * s - nb] += 0.15
    return UcPomdpModel(
        state_labels=truth.states[:-2],
        actions=truth.actions,
        ds_labels=truth.ds_labels,
        observation_labels=truth.observation_labels,
        confounder_prior=truth.confounder_prior,
        reactive_policy=truth.reactive_policy,
        confounded_states=truth.confounded_states,
        p_uc=truth.p_uc,
        p_0=truth.p_0,
        successor_table=truth.successor_table[:-2],
        observation_table=CategoricalTable((n,), obs),
        rewards=reward_table(truth)[:, :-2],
        discount=truth.discount,
        initial_belief=truth.initial_belief.probs[:-2],
        rollout_policy=truth.rollout_policy[:-2],
        name="gridworld-noisy-sensor",
    )


def tree_nodes(tree):
    """Every node of a ``DespotTree``, parents before children."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if node.children is not None:
            for edge in node.children:
                for _, child in edge.children:
                    stack.append(child)


def node_scenarios(node, k):
    """A search node's ``(states, scenario ids)``, decoded from its cells
    ``state * k + scenario``; ``k`` is the search's scenario count."""
    return divmod(node.cells, k)


def watch_trials(monkeypatch, before=None, after=None) -> list:
    """Wrap ``DespotTree.run_trial`` for the rest of a test.  Each trial
    appends ``(root bounds before, root bounds after, expanded)`` to the
    returned list; ``before(tree)`` runs ahead of it and ``after(tree,
    expanded, what before returned)`` behind it."""
    log, run = [], despot.DespotTree.run_trial

    def watched(tree):
        seen, bounds = before(tree) if before else None, tree.bounds()
        expanded = run(tree)
        log.append((bounds, tree.bounds(), expanded))
        if after:
            after(tree, expanded, seen)
        return expanded

    monkeypatch.setattr(despot.DespotTree, "run_trial", watched)
    return log


def assert_stop_rule(log, config, bounds):
    """One search's trials, a :func:`watch_trials` log, against the stop
    rule: a trial ran only while the root gap was above ``(1 - xi) * gap0 +
    1e-12`` and the trial budget lasted, and the search stopped at that
    target, at the budget, or after a trial that expanded nothing.
    ``bounds`` are the returned root bounds."""
    lower, upper = log[0][0] if log else bounds
    target = (1.0 - config.xi) * (upper - lower) + 1e-12
    stalled = False
    for before, after, expanded in log:
        assert not stalled and before[1] - before[0] > target
        stalled = not expanded
    assert config.budget_trials is None or len(log) <= config.budget_trials
    last = log[-1][1] if log else bounds
    assert bounds == last
    assert stalled or last[1] - last[0] <= target or len(log) == config.budget_trials


def assert_backups_hold(tree):
    """Every expanded node lies above depth D, and its bounds equal the
    backup rule, recomputed from its children within 1e-12: ``lower =
    max(default value, max_a (r_a + discount * sum_c n_c * l_c / n) -
    regularization)`` and ``upper = max_a (r_a + discount * sum_c n_c * u_c
    / n)``, ``r_a`` the edge's mean reward and ``n`` the node's scenario
    count."""
    gamma, lam = tree.model.discount, tree.config.regularization
    for node in tree_nodes(tree):
        if node.children is not None:
            assert node.depth < tree.config.depth
            q = np.array([[e.avg_reward + gamma * sum(c.count * getattr(c, side)
                                                      for _, c in e.children) / node.count
                           for side in ("lower", "upper")] for e in node.children])
            assert abs(node.lower - max(node.default_value, q[:, 0].max() - lam)) <= 1e-12
            assert abs(node.upper - q[:, 1].max()) <= 1e-12


def descent_target(tree):
    """The node the next trial expands, walked from the root by the
    descent rule: the edge of largest upper Q bound, then its child of
    largest weighted excess uncertainty ``(n_c / K) * (u_c - l_c - xi *
    discount ** -(d + 1) * root gap)`` at depth ``d + 1``, stopping at a
    frontier node, at depth D, or where that excess is <= 0.  None where the
    trial expands nothing."""
    config, root = tree.config, tree.root
    node = root
    while node.children is not None and node.depth < config.depth:
        edge = max(node.children, key=lambda e: e.q_upper)
        gap = config.xi * tree.model.discount ** (-(node.depth + 1)) * (root.upper - root.lower)
        excess, child = max(((c.count / config.scenarios * (c.upper - c.lower - gap), c)
                             for _, c in edge.children), key=lambda pair: pair[0])
        if excess <= 0:
            break
        node = child
    return node if node.children is None and node.depth < config.depth else None


def dist_prob(row, label) -> float:
    """Probability of the relative outcome ``label`` in a row over
    ``gridworld.DS_LABELS``."""
    return float(row[gridworld.DS_LABELS.index(label)])


def first_action(trace) -> int:
    """The action an episode trace took first."""
    return trace.steps[0].action


def _rules_equal(x, y) -> bool:
    if type(x) is not type(y):
        return False
    if isinstance(x, CategoricalTable):
        return x.parent_arities == y.parent_arities and np.array_equal(x.values, y.values)
    return x.table.shape == y.table.shape and np.array_equal(x.table, y.table)


def specs_equal(a, b) -> bool:
    """Whether two causal specs list the same variables with the same
    parents and the same tables, in the same order."""
    return (
        len(a.exogenous) == len(b.exogenous) and len(a.endogenous) == len(b.endogenous)
        and all(va == vb and _rules_equal(ta, tb)
                for (va, ta), (vb, tb) in zip(a.exogenous, b.exogenous))
        and all(va == vb and pa == pb and _rules_equal(ra, rb)
                for (va, pa, ra), (vb, pb, rb) in zip(a.endogenous, b.endogenous))
    )


def sample_reactive_action(model, s: int, u: int, rng: np.random.Generator) -> int:
    """The agent's reflexive action: Table-driven inside the confounded
    region, uniform elsewhere."""
    if s in model.confounded_states:
        cdf = model.reactive_policy.cdf[u]
    else:
        cdf = np.arange(1, model.n_actions + 1) / model.n_actions
    return int(cdf_index(cdf, rng.random()))


def total_variation(p, q) -> float:
    """Total-variation distance between two probability arrays of one shape."""
    assert p.shape == q.shape
    return 0.5 * float(np.abs(p - q).sum())


def load_dataset_csv(path) -> Dataset:
    """Read a ``learn --write-dataset`` file back into a :class:`Dataset`."""
    header = Path(path).read_text().splitlines()[0]
    meta = dict(token.split("=", 1) for token in header[1:].split())
    uc, u, a, ds = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=2, ndmin=2).T
    return Dataset(uc.astype(bool), u, a, ds, DatasetMeta(
        int(meta["seed"]), meta["model"], len(uc),
        int(meta["n_u"]), int(meta["n_a"]), int(meta["n_ds"])))


def permuted(dataset: Dataset, order) -> Dataset:
    """The same records in another order."""
    return Dataset(dataset.uc[order], dataset.u[order], dataset.a[order],
                   dataset.ds[order], dataset.meta)


def serialize_map(grid) -> str:
    """Map text that ``parse_map`` reads back as ``grid``."""
    glyph = {**{c: "C" for c in grid.confounded}, **{c: "#" for c in grid.occupied},
             grid.start: "S", grid.goal: "G", grid.magnet: "M"}
    return "".join("".join(glyph.get((x, y), ".") for x in range(grid.width)) + "\n"
                   for y in range(grid.height - 1, -1, -1))


@st.composite
def small_maps(draw):
    """A grid map of 3-6 by 3-6 cells with 0-3 walls, a start and a
    different goal, and no confounded cell, written out by
    :func:`serialize_map` and read back by ``gridworld.parse_map``."""
    width, height = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    cells = [(x, y) for x in range(width) for y in range(height)]
    start, goal, *walls = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=5,
                                        unique=True))
    grid = gridworld.GridMap(width, height, frozenset(walls), start, goal, frozenset())
    return gridworld.parse_map(serialize_map(grid))


def mutilate(spec, intervention) -> ScmSpec:
    """do(X=x) by graph surgery: each intervened rule becomes the constant
    ``x`` and loses its parents.  The reference for the queries of ``scm``,
    which fix the intervened values in the worlds instead."""
    assert set(intervention) <= {var.name for var, _, _ in spec.endogenous}
    endo = [(var, (), DeterministicRule(np.int64(intervention[var.name])))
            if var.name in intervention else (var, parents, rule)
            for var, parents, rule in spec.endogenous]
    return ScmSpec(spec.exogenous, endo)


def free_spec(model) -> ScmSpec:
    """The causal spec of a cell outside the confounded region: the
    confounder as in the region, an action uniform and parentless, and the
    relative outcome drawn from ``p_0`` given the action alone.  Its do() and
    conditional queries of DS both give ``p_0``, which is why the model
    folds ``p_0`` outside the region without building it."""
    n_a = model.n_actions
    return ScmSpec(
        exogenous=[(VariableId("U", model.n_confounder), model.confounder_prior)],
        endogenous=[
            (VariableId("A", n_a), (), CategoricalTable((), np.full(n_a, 1.0 / n_a))),
            (VariableId("DS", model.n_ds), ("A",), model.p_0),
        ],
    )


def exact_query_loop(spec, target, evidence=None, intervention=None) -> np.ndarray:
    """Unnormalized posterior mass of ``target``: one exogenous world at a
    time in ``itertools.product`` order, on the :func:`mutilate`-d spec; the
    reference for the array form of ``scm.exact_query``."""
    m, evidence = mutilate(spec, dict(intervention or {})), dict(evidence or {})
    priors = [prior.values[0] for _, prior in m.exogenous]
    exo_names = [var.name for var, _ in m.exogenous]
    acc = np.zeros(m.arity(target))
    for combo in itertools.product(*(range(v.arity) for v, _ in m.exogenous)):
        w = 1.0
        for p, c in zip(priors, combo):
            w *= p[c]
        if w == 0.0:
            continue
        world = dict(zip(exo_names, combo))
        for var, parents, rule in m.endogenous:
            world[var.name] = int(rule.table[tuple(world[p] for p in parents)])
        if any(world[k] != v for k, v in evidence.items()):
            continue
        acc[world[target]] += w
    return acc


def _gather_inverse_cdf(cdf_rows, draws):
    return np.minimum((cdf_rows <= draws[:, None]).sum(axis=1), cdf_rows.shape[1] - 1)


def generate_dataset_two_branch(model, n: int, seed: int) -> Dataset:
    """``learning.generate_dataset`` with both branches of each region
    choice computed for every record and picked by ``np.where``: the
    reference for the one-branch form."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 10)))
    n_ordinary = model.n_states - 2
    n_a = model.n_actions
    u = cdf_index(model.confounder_prior.cdf[0], rng.random(n))
    cells = rng.integers(0, n_ordinary, size=n)
    region_mask = np.zeros(n_ordinary, dtype=bool)
    region_mask[list(model.confounded_states)] = True
    uc = region_mask[cells]
    action_draws = rng.random(n)
    a = np.where(
        uc,
        _gather_inverse_cdf(model.reactive_policy.cdf[u], action_draws),
        cdf_index(np.arange(1, n_a + 1) / n_a, action_draws),
    )
    ds_draws = rng.random(n)
    ds = np.where(
        uc,
        _gather_inverse_cdf(model.p_uc.cdf[a * model.n_confounder + u], ds_draws),
        _gather_inverse_cdf(model.p_0.cdf[a], ds_draws),
    )
    return Dataset(uc, u, a, ds, DatasetMeta(
        seed, model.name, n, model.n_confounder, n_a, model.n_ds))


def exact_values(model, mode, depth) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(V, Q, policy)`` of ``mode``'s law by dense value iteration over
    :func:`transition_matrix` and :func:`reward_table`, ``Q = sum P (R +
    gamma V)``, with the terminal rows held at zero: ``V[d]`` the optimal
    expected discounted reward of each state with ``d`` steps to go,
    ``Q[d - 1]`` the ``(A, S)`` action values and ``policy[d - 1]`` their
    argmax, the first action of a receding horizon of ``d``; a tie goes to
    the lowest action index, as ``np.argmax`` takes it."""
    p, n = transition_matrix(model, mode), model.n_states
    expected = (p * reward_table(model)).sum(axis=2)
    values, qs = [np.zeros(n)], []
    for _ in range(depth):
        q = expected + model.discount * (p @ values[-1])
        q[:, n - 2:] = 0.0
        qs.append(q)
        values.append(q.max(axis=0))
    q = np.array(qs)
    return np.array(values), q, q.argmax(axis=1)


def exact_policy_value(model, policy, law_mode, steps) -> np.ndarray:
    """Each state's expected discounted reward over ``steps`` steps of the
    stationary ``policy`` (an action per state) under ``law_mode``'s law,
    by dense evaluation over :func:`transition_matrix` and
    :func:`reward_table`; zero at the terminals."""
    p, n = transition_matrix(model, law_mode), model.n_states
    rows = np.arange(n)
    step, reward = p[policy, rows], (p * reward_table(model)).sum(axis=2)[policy, rows]
    value = np.zeros(n)
    for _ in range(steps):
        value = reward + model.discount * (step @ value)
        value[n - 2:] = 0.0
    return value

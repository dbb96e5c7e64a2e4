"""Shared oracles and small models for the test suite.

The hand-computed tables here are derived independently of the library code:
they restate the benchmark's published constants (confounder prior, reactive
action table, 90/5/5 drift) and compute mixtures directly, so library output
can be checked against them.
"""

import numpy as np

from causalplan.model import UcPomdpModel, deterministic_step
from causalplan.scm import CategoricalTable

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


def two_state_model() -> UcPomdpModel:
    """2 ordinary states, 2 actions, 2 reachable noisy observations, no
    reachable terminals; used for exhaustive planner checks."""
    succ = np.array([[0, 1], [1, 0]])
    rows = [[0.7, 0.3], [0.2, 0.8]]
    obs = np.array([[0.8, 0.2, 0.0], [0.25, 0.75, 0.0]])
    rewards = {(0, 0): -0.3, (0, 1): 1.0, (1, 0): 0.4, (1, 1): -0.1}

    def reward_fn(s, a, s_next):
        return rewards[(a, s_next)] if s_next < 2 else 0.0

    return UcPomdpModel(
        state_labels=("left", "right"),
        actions=("hold", "flip"),
        ds_labels=("stay", "swap"),
        observation_labels=("z0", "z1", "terminal"),
        confounder_prior=CategoricalTable((), [[1.0]]),
        reactive_policy=CategoricalTable((1,), [[0.5, 0.5]]),
        confounded_states=[],
        p_uc=CategoricalTable((2, 1), rows),
        p_0=CategoricalTable((2,), rows),
        successor_table=succ,
        observation_table=CategoricalTable((2,), obs),
        reward_fn=reward_fn,
        discount=0.95,
        initial_belief=[0.5, 0.5],
        rollout_policy=[0, 0],
        upper_hint=[20.0, 20.0],
        name="two-state-chain",
    )


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
        reward_fn=lambda s, a, s_next: -1.0,
        discount=0.95,
        initial_belief=[1.0, 0.0],
        rollout_policy=[0, 0],
        upper_hint=[0.0, 0.0],
        name="free-roam",
    )


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

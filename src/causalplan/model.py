"""POMDP model layer backed by the causal engine.

A :class:`UcPomdpModel` carries a finite state space plus two absorbing
terminal states (goal-reached, collided), a confounder with a prior, the
agent's reactive action policy, and relative-transition tables partitioned
into a confounded region and everywhere else.  Successor-state distributions
are obtained by assembling the corresponding structural causal model and
running exact inference on it, once per (region, action, mode), and folding
the relative outcome through the deterministic successor assignment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .scm import (
    CategoricalTable,
    Dist,
    ROW_SUM_TOLERANCE,
    ScmSpec,
    SpecificationError,
    UsageError,
    VariableId,
    exact_query,
    importance_query,
)

GOAL_LABEL = "goal-reached"
COLLIDED_LABEL = "collided"
TERMINAL_OBSERVATION_LABEL = "terminal"


class TransitionMode(enum.Enum):
    """Which transition law the planner samples from."""

    OBSERVATIONAL = "observational"
    INTERVENTIONAL = "interventional"


_MODE_INDEX = {TransitionMode.OBSERVATIONAL: 0, TransitionMode.INTERVENTIONAL: 1}


class InconsistentObservationError(Exception):
    """A belief update saw an observation with zero predicted probability."""


@dataclass(frozen=True)
class Belief:
    """A normalized probability vector over all states including terminals."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1:
            raise SpecificationError("belief must be a vector")
        if np.any(p < 0):
            raise SpecificationError("belief entries must be non-negative")
        if abs(float(p.sum()) - 1.0) > ROW_SUM_TOLERANCE:
            raise SpecificationError(f"belief sums to {p.sum()!r}, not 1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def point_mass(cls, n_states: int, state: int) -> "Belief":
        p = np.zeros(n_states)
        p[state] = 1.0
        return cls(p)

    @property
    def top_state(self) -> int:
        return int(np.argmax(self.probs))

    def sample(self, rng: np.random.Generator) -> int:
        cdf = np.cumsum(self.probs)
        cdf /= cdf[-1]
        return min(int(np.searchsorted(cdf, rng.random(), side="right")),
                   len(cdf) - 1)


class UcPomdpModel:
    """POMDP with an unobserved confounder over a partitioned transition law.

    ``state_labels`` names the ordinary states; the two terminals are
    appended automatically as the last two states.  ``successor_table`` maps
    (ordinary state, relative outcome) to a successor state index and may
    target the terminals.  ``observation_table`` has one row per ordinary
    state over the full observation support (the terminal observation is the
    last column); terminal states emit it with probability 1.
    """

    def __init__(
        self,
        *,
        state_labels: Sequence,
        actions: Sequence[str],
        ds_labels: Sequence[str],
        observation_labels: Sequence,
        confounder_prior: CategoricalTable,
        reactive_policy: CategoricalTable,
        confounded_states: Sequence[int],
        p_uc: CategoricalTable,
        p_0: CategoricalTable,
        successor_table,
        observation_table: CategoricalTable,
        reward_fn: Callable[[int, int, int], float],
        discount: float,
        initial_belief,
        rollout_policy,
        upper_hint,
        name: str = "ucpomdp",
    ):
        self.name = name
        self.actions = tuple(actions)
        self.ds_labels = tuple(ds_labels)
        self.states = tuple(state_labels) + (GOAL_LABEL, COLLIDED_LABEL)
        self.observation_labels = tuple(observation_labels)
        self.n_states = len(self.states)
        self.n_actions = len(self.actions)
        self.n_ds = len(self.ds_labels)
        self.n_observations = len(self.observation_labels)
        self.goal_state = self.n_states - 2
        self.collided_state = self.n_states - 1
        self.terminal_observation = self.n_observations - 1
        if not 0 < discount < 1:
            raise SpecificationError("discount must lie in (0, 1)")
        self.discount = float(discount)

        self.confounder_prior = confounder_prior
        self.n_confounder = confounder_prior.n_categories
        self.reactive_policy = reactive_policy
        self.confounded_states = frozenset(int(s) for s in confounded_states)
        self.p_uc = p_uc
        self.p_0 = p_0
        self.reward_fn = reward_fn

        self._validate_tables()

        n_ordinary = self.n_states - 2
        succ = np.asarray(successor_table, dtype=np.int64)
        if succ.shape != (n_ordinary, self.n_ds):
            raise SpecificationError(
                f"successor table shape {succ.shape}, expected "
                f"{(n_ordinary, self.n_ds)}"
            )
        if succ.size and (succ.min() < 0 or succ.max() >= self.n_states):
            raise SpecificationError("successor table targets unknown states")
        full_succ = np.vstack(
            [succ,
             np.full((1, self.n_ds), self.goal_state, dtype=np.int64),
             np.full((1, self.n_ds), self.collided_state, dtype=np.int64)]
        )
        full_succ.setflags(write=False)
        self.successor_table = full_succ

        if observation_table.parent_arities != (n_ordinary,):
            raise SpecificationError(
                "observation table must have one row per ordinary state"
            )
        if observation_table.n_categories != self.n_observations:
            raise SpecificationError("observation table width != |Z|")
        term_row = np.zeros(self.n_observations)
        term_row[self.terminal_observation] = 1.0
        obs = np.vstack([observation_table.values, term_row, term_row])
        self._obs = obs
        self._obs_cdf = np.cumsum(obs, axis=1)
        self._obs_cdf /= self._obs_cdf[:, -1:]
        self._obs_keys = _cdf_keys(self._obs_cdf)

        self.initial_belief = self._pad_belief(initial_belief)
        self.rollout_policy = self._pad_int_vector(rollout_policy, "rollout policy")
        if self.rollout_policy.max() >= self.n_actions:
            raise SpecificationError("rollout policy references unknown actions")
        hint = self._pad_float_vector(upper_hint, "upper hint")
        hint[self.goal_state] = 0.0
        hint[self.collided_state] = 0.0
        hint.setflags(write=False)
        self.upper_hint = hint

        self._build_specs()
        self._build_caches()

    # -- construction helpers -------------------------------------------------

    def _validate_tables(self):
        if self.confounder_prior.parent_arities != ():
            raise SpecificationError("confounder prior must be parentless")
        if self.reactive_policy.parent_arities != (self.n_confounder,):
            raise SpecificationError("reactive policy must condition on U alone")
        if self.reactive_policy.n_categories != self.n_actions:
            raise SpecificationError("reactive policy width != |A|")
        if self.p_uc.parent_arities != (self.n_actions, self.n_confounder):
            raise SpecificationError("p_uc must condition on (A, U)")
        if self.p_0.parent_arities != (self.n_actions,):
            raise SpecificationError("p_0 must condition on A alone")
        if self.p_uc.n_categories != self.n_ds or self.p_0.n_categories != self.n_ds:
            raise SpecificationError("relative transition width != |ΔS|")
        bad = [s for s in self.confounded_states
               if not 0 <= s < self.n_states - 2]
        if bad:
            raise SpecificationError(f"confounded region lists non-states: {bad}")

    def _pad_belief(self, belief) -> Belief:
        if isinstance(belief, Belief):
            p = np.asarray(belief.probs, dtype=float)
        else:
            p = np.asarray(belief, dtype=float)
        if len(p) == self.n_states - 2:
            p = np.concatenate([p, [0.0, 0.0]])
        if len(p) != self.n_states:
            raise SpecificationError("initial belief has the wrong length")
        return Belief(p)

    def _pad_int_vector(self, vec, what) -> np.ndarray:
        v = np.asarray(vec, dtype=np.int64)
        if len(v) == self.n_states - 2:
            v = np.concatenate([v, [0, 0]])
        if len(v) != self.n_states:
            raise SpecificationError(f"{what} has the wrong length")
        v = v.copy()
        v.setflags(write=False)
        return v

    def _pad_float_vector(self, vec, what) -> np.ndarray:
        v = np.asarray(vec, dtype=float)
        if len(v) == self.n_states - 2:
            v = np.concatenate([v, [0.0, 0.0]])
        if len(v) != self.n_states:
            raise SpecificationError(f"{what} has the wrong length")
        return v.copy()

    def _build_specs(self):
        u_var = VariableId("U", self.n_confounder)
        a_var = VariableId("A", self.n_actions)
        ds_var = VariableId("DS", self.n_ds)
        self._spec_region = ScmSpec(
            exogenous=[(u_var, self.confounder_prior)],
            endogenous=[
                (a_var, ("U",), self.reactive_policy),
                (ds_var, ("A", "U"), self.p_uc),
            ],
        )
        self._spec_free = ScmSpec(
            exogenous=[(u_var, self.confounder_prior)],
            endogenous=[
                (a_var, (), CategoricalTable.uniform((), self.n_actions)),
                (ds_var, ("A",), self.p_0),
            ],
        )

    def _relative_rows(self, method="exact", n_particles=5000, rng=None):
        """Relative-outcome distributions per (mode, action) for both regions.

        Outside the confounded region the action carries no information about
        the confounder, so a single interventional query serves both modes.
        """
        query = {
            "exact": lambda spec, **kw: exact_query(spec, "DS", **kw),
            "importance": lambda spec, **kw: importance_query(
                spec, "DS", n_particles=n_particles, rng=rng, **kw
            ),
        }[method]
        region = np.empty((2, self.n_actions, self.n_ds))
        free = np.empty((self.n_actions, self.n_ds))
        for a in range(self.n_actions):
            region[_MODE_INDEX[TransitionMode.INTERVENTIONAL], a] = query(
                self._spec_region, intervention={"A": a}
            ).probs
            region[_MODE_INDEX[TransitionMode.OBSERVATIONAL], a] = query(
                self._spec_region, evidence={"A": a}
            ).probs
            free[a] = query(self._spec_free, intervention={"A": a}).probs
        return region, free

    def _build_caches(self):
        self._rel_region, self._rel_free = self._relative_rows()

        n, n_a = self.n_states, self.n_actions
        trans = np.zeros((2, n_a, n, n))
        for s in range(n - 2):
            region = s in self.confounded_states
            for a in range(n_a):
                for m in range(2):
                    rel = self._rel_region[m, a] if region else self._rel_free[a]
                    trans[m, a, s] = self._fold(s, rel)
        for term in (self.goal_state, self.collided_state):
            trans[:, :, term, term] = 1.0
        trans.setflags(write=False)
        self._transition = trans
        cdf = np.cumsum(trans, axis=3)
        cdf /= cdf[..., -1:]
        self._trans_cdf = cdf
        self._trans_keys = _cdf_keys(cdf.reshape(2, n_a * n, n))

        rew = np.zeros((n_a, n, n))
        for a in range(n_a):
            for s in range(n - 2):
                for s2 in range(n):
                    rew[a, s, s2] = self.reward_fn(s, a, s2)
        rew.setflags(write=False)
        self._reward_table = rew

    # -- public accessors ------------------------------------------------------

    def is_terminal(self, s: int) -> bool:
        return s >= self.n_states - 2

    def state_index(self, label) -> int:
        return self.states.index(label)

    def transition_matrix(self, mode: TransitionMode) -> np.ndarray:
        """(action, state, successor) probabilities; terminal rows are identity."""
        return self._transition[_MODE_INDEX[mode]]

    def relative_transition_dist(
        self, in_region: bool, action: int, mode: TransitionMode
    ) -> Dist:
        """Distribution over relative outcomes, before folding into states."""
        if in_region:
            row = self._rel_region[_MODE_INDEX[mode], action]
        else:
            row = self._rel_free[action]
        return Dist(self.ds_labels, row)

    def mechanism_transition_row(self, s: int, a: int, u: int) -> np.ndarray:
        """P(S' | s, a, u) under the mechanism tables (no mode marginalization)."""
        if self.is_terminal(s):
            row = np.zeros(self.n_states)
            row[s] = 1.0
            return row
        if s in self.confounded_states:
            rel = self.p_uc.row((a, u))
        else:
            rel = self.p_0.row((a,))
        return self._fold(s, rel)

    def _fold(self, s: int, rel: np.ndarray) -> np.ndarray:
        """Successor-state row of ordinary state ``s`` from its
        relative-outcome row: entry ``ds`` adds to column
        ``successor_table[s, ds]``, in ``ds`` order."""
        return np.bincount(self.successor_table[s], weights=rel,
                           minlength=self.n_states)

    def with_tables(
        self,
        confounder_prior: CategoricalTable,
        p_uc: CategoricalTable,
        p_0: CategoricalTable,
        name: str | None = None,
    ) -> "UcPomdpModel":
        """A copy of this model with the three learnable tables substituted."""
        return UcPomdpModel(
            state_labels=self.states[:-2],
            actions=self.actions,
            ds_labels=self.ds_labels,
            observation_labels=self.observation_labels,
            confounder_prior=confounder_prior,
            reactive_policy=self.reactive_policy,
            confounded_states=self.confounded_states,
            p_uc=p_uc,
            p_0=p_0,
            successor_table=self.successor_table[:-2],
            observation_table=CategoricalTable(
                (self.n_states - 2,), self._obs[:-2]
            ),
            reward_fn=self.reward_fn,
            discount=self.discount,
            initial_belief=self.initial_belief,
            rollout_policy=self.rollout_policy,
            upper_hint=self.upper_hint,
            name=name or f"{self.name}+tables",
        )

    # -- sampling and batched simulation ---------------------------------------

    def sample_transition(
        self, s: int, a: int, mode: TransitionMode, rng: np.random.Generator
    ) -> int:
        row = self._trans_cdf[_MODE_INDEX[mode], a, s]
        return min(int(np.searchsorted(row, rng.random(), side="right")),
                   self.n_states - 1)

    def sample_observation(self, s_next: int, rng: np.random.Generator) -> int:
        row = self._obs_cdf[s_next]
        return min(int(np.searchsorted(row, rng.random(), side="right")),
                   self.n_observations - 1)

    def batch_step(self, states, action: int, phi1, phi2, mode: TransitionMode):
        """Vectorized :func:`deterministic_step` for one shared action."""
        s2, r = self.batch_policy_step(states, action, phi1, mode)
        z = _invert_cdf(self._obs_keys, s2, phi2, self.n_observations)
        return s2, z, r

    def batch_policy_step(self, states, actions, phi1, mode: TransitionMode):
        """Vectorized transition half of :func:`deterministic_step` with a
        per-element action vector: successor states and rewards."""
        n = self.n_states
        pairs = np.asarray(actions) * n + states
        s2 = _invert_cdf(self._trans_keys[_MODE_INDEX[mode]], pairs, phi1, n)
        return s2, self._reward_table.reshape(-1).take(pairs * n + s2)


def _cdf_keys(cdf: np.ndarray) -> np.ndarray:
    """Keys ``i + cdf[i, j]*1j`` that invert every row of a CDF table in one
    ``searchsorted``: numpy orders complex numbers by real part first, so a
    query ``i + u*1j`` lands after every key of the rows before ``i`` and
    after the entries of row ``i`` that are ``<= u``.  Leading axes of
    ``cdf`` index separate tables."""
    rows, width = cdf.shape[-2:]
    keys = np.empty(cdf.shape[:-2] + (rows * width,), dtype=complex)
    keys.real = np.repeat(np.arange(rows), width)
    keys.imag = cdf.reshape(keys.shape)
    return keys


def _invert_cdf(keys: np.ndarray, rows, u, width: int) -> np.ndarray:
    """How many entries of CDF row ``rows[i]`` are ``<= u[i]``: the category
    :func:`deterministic_step` draws (every row ends at 1.0 > ``u``)."""
    query = np.empty(len(u), dtype=complex)
    query.real, query.imag = rows, u
    return keys.searchsorted(query, side="right") - rows * width


# -- module-level operations ---------------------------------------------------


def transition_dist(
    model: UcPomdpModel, s: int, a: int, mode: TransitionMode,
    *, method: str = "exact", n_particles: int = 5000,
    rng: np.random.Generator | None = None,
) -> Dist:
    """Distribution over successor states from ``s`` under action ``a``.

    ``method="importance"`` answers the same query by sampling, for models
    too large to enumerate exactly.
    """
    if model.is_terminal(s):
        raise UsageError("transition_dist is undefined at terminal states")
    if not 0 <= a < model.n_actions:
        raise UsageError(f"unknown action {a}")
    if method == "exact":
        row = model.transition_matrix(mode)[a, s]
        return Dist(tuple(range(model.n_states)), row)
    region, free = model._relative_rows(
        method=method, n_particles=n_particles, rng=rng
    )
    if s in model.confounded_states:
        rel = region[_MODE_INDEX[mode], a]
    else:
        rel = free[a]
    return Dist(tuple(range(model.n_states)), model._fold(s, rel))


def observation_dist(model: UcPomdpModel, s_next: int, a: int | None = None) -> Dist:
    """P(Z | S' = s_next); independent of the action by model construction."""
    return Dist(tuple(range(model.n_observations)), model._obs[s_next])


def belief_update(
    model: UcPomdpModel, b: Belief, a: int, z: int, mode: TransitionMode
) -> Belief:
    """Bayes update of the belief after taking ``a`` and observing ``z``."""
    pred = b.probs @ model.transition_matrix(mode)[a]
    post = pred * model._obs[:, z]
    mass = float(post.sum())
    if mass <= 0.0:
        raise InconsistentObservationError(
            f"observation {z} has zero predicted probability"
        )
    return Belief(post / mass)


def reward(model: UcPomdpModel, s: int, a: int, s_next: int) -> float:
    """Immediate reward; terminal states absorb with reward 0."""
    if model.is_terminal(s):
        return 0.0
    return float(model.reward_fn(s, a, s_next))


def sample_reactive_action(
    model: UcPomdpModel, s: int, u: int, rng: np.random.Generator
) -> int:
    """The agent's reflexive action: Table-driven inside the confounded
    region, uniform elsewhere."""
    draw = rng.random()
    if s in model.confounded_states:
        cdf = model.reactive_policy.cdf[u]
    else:
        cdf = np.arange(1, model.n_actions + 1) / model.n_actions
    return min(int(np.searchsorted(cdf, draw, side="right")), model.n_actions - 1)


def deterministic_step(
    model: UcPomdpModel,
    s: int,
    a: int,
    phi: tuple[float, float],
    mode: TransitionMode,
) -> tuple[int, int, float]:
    """Pure determinized step: invert the transition CDF at ``phi[0]`` and the
    observation CDF at ``phi[1]``.  Terminal states self-loop with reward 0
    and emit the terminal observation."""
    if model.is_terminal(s):
        return s, model.terminal_observation, 0.0
    phi1, phi2 = phi
    row = model._trans_cdf[_MODE_INDEX[mode], a, s]
    s2 = min(int(np.searchsorted(row, phi1, side="right")), model.n_states - 1)
    orow = model._obs_cdf[s2]
    z = min(int(np.searchsorted(orow, phi2, side="right")), model.n_observations - 1)
    return s2, z, float(model._reward_table[a, s, s2])

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
from typing import Sequence

import numpy as np

from .scm import (
    CategoricalTable,
    Dist,
    ROW_SUM_TOLERANCE,
    ScmSpec,
    SpecificationError,
    VariableId,
    cdf_index,
    exact_query,
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
        if not np.all(p >= 0):
            raise SpecificationError("belief entries must be non-negative")
        if not abs(float(p.sum()) - 1.0) <= ROW_SUM_TOLERANCE:
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

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """One state (``size`` None) or an array of ``size`` i.i.d. states."""
        cdf = np.cumsum(self.probs)
        cdf /= cdf[-1]
        return cdf_index(cdf, rng.random(size))


class UcPomdpModel:
    """POMDP with an unobserved confounder over a partitioned transition law.

    ``state_labels`` names the ordinary states; the two terminals are
    appended automatically as the last two states.  ``successor_table`` maps
    (ordinary state, relative outcome) to a successor state index and may
    target the terminals.  ``observation_table`` has one row per ordinary
    state over the full observation support (the terminal observation is the
    last column); terminal states emit it with probability 1.  ``rewards``
    is an (action, ordinary state, successor state) array; terminal states
    earn 0.  ``initial_belief`` and ``rollout_policy`` have one entry per
    ordinary state; the terminals' entries are 0.
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
        rewards,
        discount: float,
        initial_belief,
        rollout_policy,
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
        terminals = [[self.goal_state] * self.n_ds, [self.collided_state] * self.n_ds]
        self.successor_table = np.vstack([succ, terminals])
        self.successor_table.setflags(write=False)

        if observation_table.parent_arities != (n_ordinary,):
            raise SpecificationError(
                "observation table must have one row per ordinary state"
            )
        if observation_table.n_categories != self.n_observations:
            raise SpecificationError("observation table width != |Z|")
        term_row = np.zeros(self.n_observations)
        term_row[self.terminal_observation] = 1.0
        obs = CategoricalTable((self.n_states,), np.vstack(
            [observation_table.values, term_row, term_row]))
        self._obs, self._obs_cdf = obs.values, obs.cdf
        self._obs_breaks, self._obs_buckets = obs.buckets

        self.initial_belief = Belief(self._pad(initial_belief, float, "initial belief"))
        self.rollout_policy = self._pad(rollout_policy, np.int64, "rollout policy")
        if self.rollout_policy.min() < 0 or self.rollout_policy.max() >= self.n_actions:
            raise SpecificationError("rollout policy references unknown actions")

        rew = np.zeros((self.n_actions, self.n_states, self.n_states))
        if np.shape(rewards) != rew[:, :-2].shape:
            raise SpecificationError(f"reward array shape {np.shape(rewards)}, "
                                     f"expected {rew[:, :-2].shape}")
        rew[:, :-2] = rewards
        rew.setflags(write=False)
        self._reward_table = rew

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

    def _pad(self, vec, dtype, what) -> np.ndarray:
        """A read-only copy of ``vec``, given over the ordinary states, with
        zeros appended for the two terminals."""
        v = np.asarray(vec, dtype=dtype)
        if v.shape != (self.n_states - 2,):
            raise SpecificationError(f"{what} needs one entry per ordinary state")
        v = np.concatenate([v, np.zeros(2, dtype=dtype)])
        v.setflags(write=False)
        return v

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

    def _build_caches(self):
        # Relative-outcome rows per (mode, action) for both regions.  Outside
        # the confounded region the action carries no information about the
        # confounder, so one interventional query serves both modes.
        n, n_a = self.n_states, self.n_actions
        m_int = _MODE_INDEX[TransitionMode.INTERVENTIONAL]
        m_obs = _MODE_INDEX[TransitionMode.OBSERVATIONAL]
        region, free = self._spec_region, self._spec_free
        self._rel_region = np.empty((2, n_a, self.n_ds))
        self._rel_free = np.empty((n_a, self.n_ds))
        for a in range(n_a):
            act = {"A": a}
            self._rel_region[m_int, a] = exact_query(region, "DS", intervention=act).probs
            self._rel_region[m_obs, a] = exact_query(region, "DS", evidence=act).probs
            self._rel_free[a] = exact_query(free, "DS", intervention=act).probs

        # rel[m, a, s]: the region's row inside it, the free row outside
        in_region = np.isin(np.arange(n - 2), list(self.confounded_states))[:, None]
        trans = np.zeros((2, n_a, n, n))
        trans[:, :, :-2] = self._fold(np.where(
            in_region, self._rel_region[:, :, None], self._rel_free[:, None]))
        for term in (self.goal_state, self.collided_state):
            trans[:, :, term, term] = 1.0
        trans.setflags(write=False)
        self._transition = trans
        # per mode: breaks, then successor and reward per (bucket, action, state)
        self._trans_breaks, self._succ, self._rew, cdf = [], [], [], []
        for m in range(2):
            table = CategoricalTable((n_a, n), trans[m].reshape(n_a * n, n))
            breaks, succ = table.buckets
            succ = succ.reshape(-1, n_a, n)
            cdf.append(table.cdf)
            self._trans_breaks.append(breaks)
            self._succ.append(succ.ravel())
            self._rew.append(self._reward_table[np.arange(n_a)[:, None],
                                                np.arange(n), succ].ravel())
        self._trans_cdf = np.reshape(cdf, trans.shape)

        # P(S' | s, a, u) under the mechanism tables, (ordinary state, A, U, S')
        p_uc = self.p_uc.values.reshape(n_a, self.n_confounder, 1, self.n_ds)
        mech = self._fold(np.where(in_region, p_uc, self.p_0.values[:, None, None]))
        self.mechanism_rows = mech.transpose(2, 0, 1, 3)
        self.mechanism_rows.setflags(write=False)

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

    def _fold(self, rel: np.ndarray) -> np.ndarray:
        """Successor-state rows from a stack of relative-outcome rows
        ``rel[..., s, ds]`` over the ordinary states: entry ``ds`` of row
        ``s`` adds to column ``successor_table[s, ds]``, in ``ds`` order,
        through one ``bincount`` over the (row, successor) cells."""
        n = self.n_states
        rows = np.arange(rel[..., 0].size).reshape(rel.shape[:-1] + (1,))
        cells = rows * n + self.successor_table[:-2]
        return np.bincount(cells.ravel(), weights=rel.ravel(),
                           minlength=rows.size * n).reshape(rel.shape[:-1] + (n,))

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
            observation_table=CategoricalTable((self.n_states - 2,), self._obs[:-2]),
            rewards=self._reward_table[:, :-2],
            discount=self.discount,
            initial_belief=self.initial_belief.probs[:-2],
            rollout_policy=self.rollout_policy[:-2],
            name=name or f"{self.name}+tables",
        )

    # -- batched simulation -----------------------------------------------------

    def bucket_ids(self, draws, mode: TransitionMode) -> np.ndarray:
        """Bucket ids of unit draws in ``[0, 1)``: ``draws[..., 0]`` among
        the transition breaks of ``mode``, ``draws[..., 1]`` among the
        observation breaks; the batched kernels take these ids.

        The breaks and per-bucket categories are
        :attr:`~causalplan.scm.CategoricalTable.buckets` of a mode's
        transition rows (and of the observation rows), so there are at most
        ``1 + sum over rows of (nonzeros - 1)`` buckets, and each table
        entry is the category :func:`deterministic_step` draws at any ``u``
        in the bucket."""
        draws = np.asarray(draws)
        ids = np.empty(draws.shape, dtype=np.int64)
        ids[..., 0] = self._trans_breaks[_MODE_INDEX[mode]].searchsorted(
            draws[..., 0], side="right")
        ids[..., 1] = self._obs_breaks.searchsorted(draws[..., 1], side="right")
        return ids

    def batch_step(self, states, actions, b1, b2, mode: TransitionMode):
        """Vectorized :func:`deterministic_step` at transition bucket ids
        ``b1`` and observation bucket ids ``b2`` (:meth:`bucket_ids`); the
        inputs broadcast together, as in :meth:`batch_policy_step`."""
        s2, r = self.batch_policy_step(states, actions, b1, mode)
        return s2, self._obs_buckets.take(b2 * self.n_states + s2), r

    def batch_policy_step(self, states, actions, b1, mode: TransitionMode):
        """Vectorized transition half of :func:`deterministic_step` at
        transition bucket ids ``b1`` (:meth:`bucket_ids`): successor states
        and rewards, shaped as ``states``, ``actions`` and ``b1`` broadcast."""
        m = _MODE_INDEX[mode]
        at = (b1 * self.n_actions + actions) * self.n_states + states
        return self._succ[m].take(at), self._rew[m].take(at)


# -- module-level operations ---------------------------------------------------


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


def deterministic_step(
    model: UcPomdpModel,
    s: int,
    a: int,
    phi: tuple[float, float],
    mode: TransitionMode,
) -> tuple[int, int, float]:
    """Pure determinized step: invert the transition CDF at ``phi[0]`` and the
    observation CDF at ``phi[1]``.  Terminal states self-loop with reward 0
    and emit the terminal observation.

    This is the one scalar step: :func:`~causalplan.despot.run_episode`
    executes through it, and the batched kernels are checked against it."""
    if model.is_terminal(s):
        return s, model.terminal_observation, 0.0
    s2 = int(cdf_index(model._trans_cdf[_MODE_INDEX[mode], a, s], phi[0]))
    z = int(cdf_index(model._obs_cdf[s2], phi[1]))
    return s2, z, float(model._reward_table[a, s, s2])

"""POMDP model layer backed by the causal engine.

A :class:`UcPomdpModel` carries a finite state space plus two absorbing
terminal states (goal-reached, collided), a confounder with a prior, the
agent's reactive action policy, and relative-transition tables partitioned
into a confounded region and everywhere else.  Successor-state distributions
are obtained by running exact inference on the structural causal model
inside the confounded region, once per mode with a row per action, and
folding the relative outcome through the deterministic successor assignment.

Laws over successors are kept over **successor slots**, a layout only this
module reads: slot ``j`` of state ``s`` holds the ``j``-th distinct entry of
``successor_table[s]``, ascending; the last repeats at zero mass up to |ΔS|.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scm import (
    CategoricalTable,
    ROW_SUM_TOLERANCE,
    ScmSpec,
    SpecificationError,
    UsageError,
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


@dataclass(frozen=True, eq=False)
class Belief:
    """A normalized probability vector over all states including terminals.
    Equality is identity: an elementwise array comparison has no truth value."""

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

        self.reactive_policy = reactive_policy
        self.confounded_states = frozenset(int(s) for s in confounded_states)

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
        # _slots[s, j]: slot j's state; _slot_of[s, ds]: the slot of outcome ds
        srt = np.sort(self.successor_table, axis=1)
        repeat = np.diff(srt, axis=1, prepend=-1) == 0
        self._slots = np.sort(np.where(repeat, srt[:, -1:], srt), axis=1)
        self._slot_of = (self._slots[:, None] < self.successor_table[:, :, None]).sum(axis=2)

        if observation_table.parent_arities != (n_ordinary,):
            raise SpecificationError(
                "observation table must have one row per ordinary state"
            )
        if observation_table.n_categories != self.n_observations:
            raise SpecificationError("observation table width != |Z|")
        term_row = np.zeros(self.n_observations)
        term_row[self.terminal_observation] = 1.0
        self._sensor = CategoricalTable((self.n_states,), np.vstack(
            [observation_table.values, term_row, term_row]))

        self.initial_belief = Belief(self._pad(initial_belief, float, "initial belief"))
        self.rollout_policy = self._pad(rollout_policy, np.int64, "rollout policy")
        if self.rollout_policy.min() < 0 or self.rollout_policy.max() >= self.n_actions:
            raise SpecificationError("rollout policy references unknown actions")

        expected = (self.n_actions, n_ordinary, self.n_states)
        if np.shape(rewards) != expected:
            raise SpecificationError(f"reward array shape {np.shape(rewards)}, "
                                     f"expected {expected}")
        # (action, state, slot): the reward of moving to the slot's state
        self._rewards = np.zeros((self.n_actions, self.n_states, self.n_ds))
        self._rewards[:, :-2] = np.take_along_axis(np.asarray(rewards, dtype=float),
                                                   self._slots[None, :-2], axis=2)
        for table in (self._slots, self._slot_of, self._rewards):
            table.setflags(write=False)
        self._set_tables(confounder_prior, p_uc, p_0)

    # -- construction helpers -------------------------------------------------

    def _set_tables(self, confounder_prior, p_uc, p_0):
        """Check and take the three learnable tables; build what they feed."""
        self.confounder_prior, self.p_uc, self.p_0 = confounder_prior, p_uc, p_0
        self.n_confounder = confounder_prior.n_categories
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
        self._build_caches()

    def _pad(self, vec, dtype, what) -> np.ndarray:
        """A read-only copy of ``vec``, given over the ordinary states, with
        zeros appended for the two terminals."""
        v = np.asarray(vec, dtype=dtype)
        if v.shape != (self.n_states - 2,):
            raise SpecificationError(f"{what} needs one entry per ordinary state")
        v = np.concatenate([v, np.zeros(2, dtype=dtype)])
        v.setflags(write=False)
        return v

    def _build_caches(self):
        self._spec_region = ScmSpec(
            exogenous=[(VariableId("U", self.n_confounder), self.confounder_prior)],
            endogenous=[
                (VariableId("A", self.n_actions), ("U",), self.reactive_policy),
                (VariableId("DS", self.n_ds), ("A", "U"), self.p_uc),
            ],
        )
        # Relative-outcome rows per (mode, action) inside the confounded
        # region, one query per mode with a row per action.  Outside it the
        # action carries no information about the confounder, so the back-door
        # criterion gives P(DS | do(a)) = P(DS | a) = p_0(a) in both modes.
        n, n_a = self.n_states, self.n_actions
        region, acts = self._spec_region, {"A": np.arange(n_a)}
        self._rel_region = np.empty((2, n_a, self.n_ds))
        self._rel_region[_MODE_INDEX[TransitionMode.INTERVENTIONAL]] = exact_query(
            region, "DS", intervention=acts)
        self._rel_region[_MODE_INDEX[TransitionMode.OBSERVATIONAL]] = exact_query(
            region, "DS", evidence=acts)
        self._rel_region.setflags(write=False)

        # rel[m, a, s]: the region's row inside it, p_0's row outside
        in_region = np.isin(np.arange(n - 2), list(self.confounded_states))[:, None]
        trans = np.zeros((2, n_a, n, self.n_ds))
        trans[:, :, :-2] = self._fold(np.where(
            in_region, self._rel_region[:, :, None], self.p_0.values[:, None]))
        trans[:, :, -2:, 0] = 1.0
        # per mode, the law over (action, state) rows and the kernels'
        # successor and reward per (action, state, bucket), buckets innermost
        self._laws = tuple(CategoricalTable((n_a, n), t.reshape(n_a * n, -1)) for t in trans)
        self._succ, self._rew = [], []
        states = np.arange(n)[:, None]
        for law in self._laws:
            slot = law.buckets[1].reshape(n_a, n, -1)
            self._succ.append(self._slots[states, slot])
            self._rew.append(self._rewards[np.arange(n_a)[:, None, None], states, slot])

        # P(S' | s, a, u) under the mechanism tables, (ordinary state, A, U, slot)
        p_uc = self.p_uc.values.reshape(n_a, self.n_confounder, 1, self.n_ds)
        mech = self._fold(np.where(in_region, p_uc, self.p_0.values[:, None, None]))
        self.mechanism_rows = mech.transpose(2, 0, 1, 3)
        self.mechanism_rows.setflags(write=False)

    # -- public accessors ------------------------------------------------------

    def is_terminal(self, s: int) -> bool:
        return s >= self.n_states - 2

    def region_rows(self, mode: TransitionMode) -> np.ndarray:
        """Read-only (action, relative outcome) probabilities inside the
        confounded region, before folding into states."""
        return self._rel_region[_MODE_INDEX[mode]]

    def n_buckets(self, mode: TransitionMode) -> int:
        """The number of transition bucket ids of ``mode``
        (:meth:`bucket_ids`)."""
        return self._succ[_MODE_INDEX[mode]].shape[2]

    def successor_mask(self, live: np.ndarray, mode: TransitionMode) -> np.ndarray:
        """The states that some action moves a state of the boolean mask
        ``live`` to with nonzero probability under ``mode``: the live columns
        of the kernels' successor table, where each slot with mass has a bucket."""
        out = np.zeros(self.n_states, dtype=bool)
        out[self._succ[_MODE_INDEX[mode]].compress(live, axis=1)] = True
        return out

    def _fold(self, rel: np.ndarray) -> np.ndarray:
        """Rows over successor slots, shaped as ``rel``, from a stack of
        relative-outcome rows ``rel[..., s, ds]`` over the ordinary states:
        entry ``ds`` of row ``s`` adds to slot ``_slot_of[s, ds]``, in ``ds``
        order, through one ``bincount`` over the (row, slot) cells."""
        rows = np.arange(rel[..., 0].size).reshape(rel.shape[:-1] + (1,))
        cells = rows * self.n_ds + self._slot_of[:-2]
        return np.bincount(cells.ravel(), weights=rel.ravel(),
                           minlength=rel.size).reshape(rel.shape)

    def with_tables(
        self,
        confounder_prior: CategoricalTable,
        p_uc: CategoricalTable,
        p_0: CategoricalTable,
        name: str | None = None,
    ) -> "UcPomdpModel":
        """A copy of this model with the three learnable tables substituted;
        it shares the read-only arrays that do not depend on them."""
        model = copy.copy(self)
        model.name = name or f"{self.name}+tables"
        model._set_tables(confounder_prior, p_uc, p_0)
        return model

    # -- batched simulation -----------------------------------------------------

    def bucket_ids(self, draws, mode: TransitionMode) -> np.ndarray:
        """Bucket ids of unit draws in ``[0, 1)``: ``draws[..., 0]`` among
        the transition breaks of ``mode``, ``draws[..., 1]`` among the
        observation breaks; the batched kernels take these ids.  A draw
        outside ``[0, 1)``, or NaN, or a last axis other than 2 is a
        ``UsageError``.

        Each half is :meth:`~causalplan.scm.CategoricalTable.bucket_index`
        of its table, the mode's transition law or the sensor, so there are
        at most ``1 + sum over rows of (nonzeros - 1)`` buckets, and each
        entry of the table's :attr:`~causalplan.scm.CategoricalTable.buckets`
        is the category :func:`deterministic_step` draws at any ``u`` in the
        bucket."""
        draws = np.asarray(draws, dtype=float)
        if draws.shape[-1:] != (2,):
            raise UsageError("bucket draws need a last axis of length 2")
        flat = draws.reshape(-1, 2)
        ids = np.empty(flat.shape, dtype=np.int64)
        # each half copied to a contiguous row: a strided check and lookup
        # cost twice as much
        tables = (self._laws[_MODE_INDEX[mode]], self._sensor)
        for half, (table, u) in enumerate(zip(tables, flat.T.copy())):
            ids[:, half] = table.bucket_index(u)
        return ids.reshape(draws.shape)

    def batch_step(self, states, b1, b2, mode: TransitionMode):
        """Vectorized :func:`deterministic_step` of every action from each of
        the m ``states`` at its transition and observation bucket ids ``b1``,
        ``b2`` (:meth:`bucket_ids`), all vectors: ``(A, m)`` successors,
        observations and rewards, each table's flat rows taken at ``s * B + b``."""
        m, obs = _MODE_INDEX[mode], self._sensor.buckets[1]
        at = states * self._succ[m].shape[2] + b1
        s2 = self._succ[m].reshape(self.n_actions, -1).take(at, axis=1)
        return (s2, obs.take(s2 * obs.shape[1] + b2),
                self._rew[m].reshape(self.n_actions, -1).take(at, axis=1))

    def batch_policy_step(self, states, b1, mode: TransitionMode):
        """The transition half of :func:`deterministic_step` for every
        action from each of the m ``states`` at each of the K transition
        bucket ids ``b1`` (:meth:`bucket_ids`), both vectors: ``(A, m, K)``
        successor states and rewards, the states' ``(A, m, B)`` rows of the
        bucket-innermost tables taken at ``b1`` along their last axis."""
        m = _MODE_INDEX[mode]
        return (self._succ[m].take(states, axis=1).take(b1, axis=2),
                self._rew[m].take(states, axis=1).take(b1, axis=2))


# -- module-level operations ---------------------------------------------------


def belief_update(
    model: UcPomdpModel, b: Belief, a: int, z: int, mode: TransitionMode
) -> Belief:
    """Bayes update of the belief after taking ``a`` and observing ``z``:
    each state's mass times its row over successor slots, summed into the
    slots' states by one ``bincount``."""
    n = model.n_states
    law = model._laws[_MODE_INDEX[mode]].values.reshape(model.n_actions, n, -1)[a]
    pred = np.bincount(model._slots.ravel(), weights=(b.probs[:, None] * law).ravel(),
                       minlength=n)
    post = pred * model._sensor.values[:, z]
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
    law = model._laws[_MODE_INDEX[mode]]
    slot = int(cdf_index(law.cdf[a * model.n_states + s], phi[0]))
    s2 = int(model._slots[s, slot])
    z = int(cdf_index(model._sensor.cdf[s2], phi[1]))
    return s2, z, float(model._rewards[a, s, slot])

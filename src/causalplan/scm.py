"""Discrete structural causal models with do-interventions and posterior inference.

Every model is kept in exogenous-noise / deterministic-assignment form: all
randomness lives in the priors of exogenous root variables, and each
endogenous variable is a deterministic lookup over its parents.  Stochastic
conditional tables are accepted as a construction convenience and are
desugared into a fresh exogenous noise variable plus an inverse-CDF lookup,
which preserves the joint distribution.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

ROW_SUM_TOLERANCE = 1e-9
ENUMERATION_LIMIT = 10_000_000  # rows x exogenous worlds in one exact_query


class ScmError(Exception):
    """Base class for causal-model errors."""


class SpecificationError(ScmError):
    """The model specification itself is invalid (cycle, bad table, ...)."""


class UsageError(ScmError):
    """An operation was called in violation of its preconditions."""


class ZeroProbabilityEvidenceError(ScmError):
    """Exact inference was conditioned on evidence with zero prior mass."""


class DegenerateEvidenceError(ScmError):
    """Every importance-sampling particle received zero weight."""


class CapacityError(ScmError):
    """Exact enumeration would exceed the configured limit."""


@dataclass(frozen=True)
class VariableId:
    """A named categorical variable with a fixed number of categories."""

    name: str
    arity: int

    def __post_init__(self):
        if not self.name:
            raise SpecificationError("variable name must be non-empty")
        if self.arity < 1:
            raise SpecificationError(f"variable {self.name!r}: arity must be >= 1")


class CategoricalTable:
    """Conditional probability table over one categorical variable.

    Rows are indexed by the mixed-radix encoding of the parent assignment
    (first parent varies slowest).  An empty parent list yields one row, i.e.
    an unconditional prior.
    """

    def __init__(self, parent_arities: Sequence[int], values):
        self.parent_arities = tuple(int(a) for a in parent_arities)
        if any(a < 1 for a in self.parent_arities):
            raise SpecificationError("parent arities must be >= 1")
        vals = np.array(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[None, :]
        if vals.ndim != 2:
            raise SpecificationError("table values must be a matrix of rows")
        expected = math.prod(self.parent_arities)
        if vals.shape[0] != expected:
            raise SpecificationError(
                f"table has {vals.shape[0]} rows, expected {expected} "
                f"for parent arities {self.parent_arities}"
            )
        if vals.shape[1] < 1:
            raise SpecificationError("table must have at least one category")
        # each check is written so that a NaN entry fails it
        if not np.all(vals >= 0):
            raise SpecificationError("table entries must be non-negative")
        row_sums = vals.sum(axis=1)
        if not np.all(np.abs(row_sums - 1.0) <= ROW_SUM_TOLERANCE):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise SpecificationError(
                f"table row {worst} sums to {row_sums[worst]!r}, not 1"
            )
        vals.setflags(write=False)
        self.values = vals

    @property
    def n_categories(self) -> int:
        return self.values.shape[1]

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """Row-wise cumulative distribution with the last column pinned to 1."""
        c = np.cumsum(self.values, axis=1)
        c /= c[:, -1:]
        c.setflags(write=False)
        return c

    @functools.cached_property
    def buckets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(breaks, table)``: the sorted distinct CDF values below 1 at
        nonzero entries, which cut [0, 1) into buckets at edges
        ``[0, *breaks, 1]``, and each row's category per bucket,
        ``table[row, bucket]``.  A unit draw's bucket is the number of
        breaks ``<= u``; no CDF value lies between a bucket's lower edge and
        any draw in it, so every draw there selects the category
        :func:`cdf_index` returns at that edge, which the table holds."""
        cdf = self.cdf
        breaks = np.unique(cdf[(self.values > 0) & (cdf < 1.0)])
        edges = np.concatenate(([0.0], breaks))[:, None]
        table = np.minimum((cdf[:, None] <= edges).sum(axis=-1), self.n_categories - 1)
        breaks.setflags(write=False)
        table.setflags(write=False)
        return breaks, table

    @functools.cached_property
    def _grid(self) -> np.ndarray:
        return _bucket_grid(self.buckets[0])

    def bucket_index(self, u) -> np.ndarray:
        """Each draw's bucket (:attr:`buckets`) for a vector ``u`` of draws
        in [0, 1): the number of breaks ``<= u``, read from a grid of
        ``2**12`` equal cells of [0, 1) (:func:`_bucket_grid`) that is built
        on the first call and kept on the table; only draws in a cell with a
        break strictly inside it are looked up in the breaks themselves; a
        table with no breaks builds none.  A draw outside [0, 1), or NaN, is
        a ``UsageError``."""
        u = np.asarray(u, dtype=float)
        # min and max are NaN if any draw is, and both tests then fail
        if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
            raise UsageError("bucket draws must lie in [0, 1)")
        if not len(self.buckets[0]):
            return np.zeros(u.shape, dtype=np.intp)
        return _grid_lookup(self._grid, self.buckets[0], u)

    def __repr__(self) -> str:
        return (
            f"CategoricalTable(parents={self.parent_arities}, "
            f"categories={self.n_categories})"
        )


# Cells of a bucket grid over [0, 1).  A power of two, so ``u * _GRID_CELLS``
# is exact and its floor is the cell that holds ``u``.
_GRID_CELLS = 1 << 12


def _bucket_grid(breaks: np.ndarray) -> np.ndarray:
    """The bucket id of each grid cell ``[c / G, (c + 1) / G)`` of [0, 1):
    the number of ``breaks <= c / G``, which every draw in the cell has at
    or below it, or -1 where a break lies strictly inside the cell; in the
    smallest signed type that holds the number of breaks."""
    edges = np.arange(_GRID_CELLS + 1) / _GRID_CELLS
    lo = breaks.searchsorted(edges[:-1], side="right")
    inside = breaks.searchsorted(edges[1:], side="left") > lo
    return np.where(inside, -1, lo).astype(np.min_scalar_type(-1 - len(breaks)))


def _grid_lookup(grid: np.ndarray, breaks: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``breaks.searchsorted(draws, side="right")`` for a vector of draws in
    [0, 1), through ``grid``, the :func:`_bucket_grid` of ``breaks``: each
    draw's cell id, or a ``searchsorted`` for the draws in marked cells."""
    ids = grid.take((draws * _GRID_CELLS).astype(np.intp))
    marked = np.flatnonzero(ids < 0)
    ids[marked] = breaks.searchsorted(draws[marked], side="right")
    return ids


def cdf_index(cdf: np.ndarray, u):
    """The category a unit draw ``u`` selects from one CDF row: the number of
    entries ``<= u``, clamped to the last category (rows end at 1, above any
    draw).  ``u`` may be a scalar or an array."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


class DeterministicRule:
    """Assignment function mapping a full parent assignment to one category.

    The lookup table's shape equals the tuple of parent arities, in parent
    order; a parentless rule is a 0-d constant.
    """

    __slots__ = ("table",)

    def __init__(self, table):
        tbl = np.array(table, dtype=np.int64)
        tbl.setflags(write=False)
        self.table = tbl


AssignmentRule = Union[DeterministicRule, CategoricalTable]
Intervention = Mapping[str, int]
Evidence = Mapping[str, int]


def _desugar(table: CategoricalTable,
             noise_name: str) -> tuple[VariableId, CategoricalTable, DeterministicRule]:
    """Rewrite a stochastic node as exogenous noise plus a lookup.

    The noise variable's categories are the table's buckets
    (:attr:`CategoricalTable.buckets`), weighted by their widths; each
    bucket selects a single category under every parent assignment, so the
    joint is preserved.
    """
    breaks, lookup = table.buckets
    widths = np.diff(np.concatenate(([0.0], breaks, [1.0])))
    noise = VariableId(noise_name, len(widths))
    prior = CategoricalTable((), widths / widths.sum())
    rule = DeterministicRule(lookup.reshape(table.parent_arities + (len(widths),)))
    return noise, prior, rule


class ScmSpec:
    """A structural causal model over categorical variables.

    Construction desugars each stochastic assignment table into a noise
    prior and a lookup (:func:`_desugar`), keeps one name table over the
    exogenous, noise and endogenous variables, checks every prior once, and
    orders the endogenous variables: each pass places, in declaration
    order, every declaration whose parents are placed, and checks its
    rule's shape and values.  Instances are immutable and safe to share.
    """

    def __init__(
        self,
        exogenous: Sequence[tuple[VariableId, CategoricalTable]],
        endogenous: Sequence[tuple[VariableId, Sequence[str], AssignmentRule]],
    ):
        exo = [(var, prior) for var, prior in exogenous]
        pending = []
        for var, parents, rule in endogenous:
            parents = tuple(parents)
            if isinstance(rule, CategoricalTable):
                if rule.n_categories != var.arity:
                    raise SpecificationError(
                        f"table for {var.name!r} has {rule.n_categories} "
                        f"categories, expected {var.arity}"
                    )
                noise, prior, rule = _desugar(rule, f"{var.name}~u")
                exo.append((noise, prior))
                parents += (noise.name,)
            elif not isinstance(rule, DeterministicRule):
                raise SpecificationError(
                    f"assignment rule for {var.name!r} must be a "
                    "DeterministicRule or CategoricalTable"
                )
            pending.append((var, parents, rule))

        self._vars: dict[str, VariableId] = {}
        for var in [var for var, _ in exo] + [var for var, _, _ in pending]:
            if var.name in self._vars:
                raise SpecificationError(f"duplicate variable name {var.name!r}")
            self._vars[var.name] = var
        for var, prior in exo:
            if prior.parent_arities != () or prior.n_categories != var.arity:
                raise SpecificationError(
                    f"prior for {var.name!r} must be parentless with {var.arity} "
                    f"categories, not {prior!r}"
                )
        self.exogenous = tuple(exo)
        self._exo_names = frozenset(var.name for var, _ in exo)

        placed, endo = set(self._exo_names), []
        while pending:
            rest = []
            for var, parents, rule in pending:
                if not placed.issuperset(parents):
                    rest.append((var, parents, rule))
                    continue
                shape = tuple(self._vars[p].arity for p in parents)
                if rule.table.shape != shape:
                    raise SpecificationError(
                        f"rule table for {var.name!r} has shape {rule.table.shape}, "
                        f"expected {shape}"
                    )
                if rule.table.min() < 0 or rule.table.max() >= var.arity:
                    raise SpecificationError(
                        f"rule table for {var.name!r} assigns values outside "
                        f"[0, {var.arity})"
                    )
                endo.append((var, parents, rule))
                placed.add(var.name)
            if len(rest) == len(pending):
                raise SpecificationError(
                    "cyclic or dangling parent references involving: "
                    + ", ".join(var.name for var, _, _ in rest)
                )
            pending = rest
        self.endogenous = tuple(endo)

    @property
    def variables(self) -> Mapping[str, VariableId]:
        return self._vars

    def is_exogenous(self, name: str) -> bool:
        return name in self._exo_names

    def arity(self, name: str) -> int:
        return self._vars[name].arity


def _check_assignment(spec: ScmSpec, assignment: Mapping[str, int], role: str):
    """Each value must be an integer category of its variable: anything
    ``operator.index`` rejects (a float, even an integral one, NaN, a
    string) or a value outside ``[0, arity)`` is a ``UsageError``."""
    for name, value in assignment.items():
        if name not in spec.variables:
            raise UsageError(f"{role} on unknown variable {name!r}")
        try:
            index = operator.index(value)
        except TypeError:
            raise UsageError(
                f"{role} value {value!r} for {name!r} is not an integer") from None
        if not 0 <= index < spec.arity(name):
            raise UsageError(
                f"{role} value {value} out of range for {name!r} "
                f"(arity {spec.arity(name)})"
            )


def sample_worlds(spec: ScmSpec, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Vectorized forward sampling; returns one integer array per variable."""
    if n < 1:
        raise UsageError("n must be >= 1")
    return _evaluate(spec, _draw_exogenous(spec, n, rng))


def _draw_exogenous(spec: ScmSpec, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """``n`` prior draws of each exogenous variable, one ``rng.random(n)`` each in order."""
    return {var.name: cdf_index(prior.cdf[0], rng.random(n))
            for var, prior in spec.exogenous}


def _evaluate(spec: ScmSpec, world: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every variable's value per world, gathering through the rule tables
    from ``world``'s exogenous index arrays; an endogenous variable given in
    ``world`` keeps its given values in place of its rule, which is do() on
    it: its parents no longer matter, and every exogenous noise term stays.
    Each value is broadcast to their common shape, so even a constant has
    one entry per world."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in world.values()))
    world = {name: np.broadcast_to(v, shape) for name, v in world.items()}
    for var, parents, rule in spec.endogenous:
        if var.name not in world:
            world[var.name] = np.broadcast_to(
                rule.table[tuple(world[p] for p in parents)], shape)
    return world


def _query_setup(spec, target, evidence, intervention):
    """A query's checked evidence and interventions, as new dicts; each
    intervention an ``np.intp`` category of an endogenous variable."""
    evidence = dict(evidence or {})
    intervention = dict(intervention or {})
    if target not in spec.variables:
        raise UsageError(f"unknown target variable {target!r}")
    if target in intervention:
        raise UsageError(f"target {target!r} must not be intervened on")
    overlap = set(evidence) & set(intervention)
    if overlap:
        raise UsageError(
            f"variables {sorted(overlap)} appear as both evidence and intervention"
        )
    _check_assignment(spec, evidence, "evidence")
    _check_assignment(spec, intervention, "intervention")
    for name in intervention:
        if spec.is_exogenous(name):
            raise UsageError(f"cannot intervene on exogenous variable {name!r}")
    return evidence, {name: np.intp(value) for name, value in intervention.items()}


def exact_query(
    spec: ScmSpec,
    target: str,
    evidence: Evidence | None = None,
    intervention: Intervention | None = None,
) -> np.ndarray:
    """Posterior of ``target`` by exhaustive enumeration of exogenous worlds,
    as a read-only probability array indexed by category.

    Fixes each intervened variable's value in every world (:func:`_evaluate`),
    sums prior weight over every exogenous assignment consistent with the
    evidence, and normalizes.  The worlds are broadcast index arrays, each
    weight is the prior product taken left to right, and the sum runs in
    ``itertools.product`` order.

    One variable of ``evidence`` or ``intervention`` may take a 1-D sequence
    of values instead of one value.  The result is then one row per value,
    each the query with that value bit for bit, from one enumeration keyed
    by (value, target) in one ``bincount``; an intervened variable's
    distinct values are an extra outermost axis of the worlds.  Each row
    sums the same weights in the same order and divides by its own total.

    Time and memory are O(rows x worlds), where worlds is the product of
    exogenous arities; the module's ``ENUMERATION_LIMIT`` bounds that product.
    """
    evidence, intervention = dict(evidence or {}), dict(intervention or {})
    batched = [(given, name) for given in (evidence, intervention)
               for name, value in given.items() if np.ndim(value) == 1]
    if len(batched) > 1:
        raise UsageError("only one variable may take a sequence of values")
    name, values = None, None
    if batched:
        given, name = batched[0]
        role = "evidence" if given is evidence else "intervention"
        for value in given[name]:
            _check_assignment(spec, {name: value}, role)
        values = np.array(given[name], dtype=np.intp)
        if not len(values):
            raise UsageError(f"{role} on {name!r} lists no values")
        given[name] = values[0]  # checked as any one value
    evidence, intervention = _query_setup(spec, target, evidence, intervention)
    arities = tuple(var.arity for var, _ in spec.exogenous)
    size = (1 if values is None else len(values)) * math.prod(arities)
    if size > ENUMERATION_LIMIT:
        raise CapacityError(
            f"enumeration over {size} rows x exogenous worlds exceeds limit "
            f"{ENUMERATION_LIMIT}"
        )
    index = np.indices(arities, sparse=True)
    weight = np.ones(())
    for idx, (_, prior) in zip(index, spec.exogenous):
        weight = weight * prior.values[0][idx]
    world = {var.name: idx for idx, (var, _) in zip(index, spec.exogenous)}
    if name in intervention:
        intervention[name] = np.unique(values).reshape((-1,) + (1,) * len(arities))
    world.update(intervention)
    world = _evaluate(spec, world)
    row, n_rows = 0, 1
    if name is not None:
        row, n_rows = world[name], spec.arity(name)
        evidence.pop(name, None)
    acc = _target_mass(spec, world, target, evidence, weight, row, n_rows)
    if name is not None:
        acc = acc[values]
    total = acc.sum(axis=1, keepdims=True)
    if (total <= 0.0).any():
        at = "" if name is None else f" at {name}={values[np.argmax(total <= 0.0)]}"
        raise ZeroProbabilityEvidenceError(
            f"evidence {evidence} has zero probability under the model{at}"
        )
    probs = acc / total
    probs.setflags(write=False)
    return probs[0] if name is None else probs


def importance_query(
    spec: ScmSpec,
    target: str,
    evidence: Evidence | None = None,
    intervention: Intervention | None = None,
    *,
    n_particles: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Self-normalized importance estimate of the same posterior, also a
    read-only array indexed by category.

    The proposal is the prior with the intervened values fixed in every
    particle (likelihood weighting); with fully deterministic assignments the
    evidence likelihood is a 0/1 indicator, so the estimate is the empirical
    target distribution over accepted particles.  The particles are
    :func:`sample_worlds`'s draws.  Converges to :func:`exact_query` as
    ``n_particles`` grows.
    """
    if n_particles < 1:
        raise UsageError("n_particles must be >= 1")
    evidence, intervention = _query_setup(spec, target, evidence, intervention)
    world = _evaluate(spec, {**_draw_exogenous(spec, n_particles, rng), **intervention})
    counts = _target_mass(spec, world, target, evidence)[0]
    accepted = int(counts.sum())
    if accepted == 0:
        raise DegenerateEvidenceError(
            f"all {n_particles} particles have zero weight under evidence {evidence}"
        )
    probs = counts / accepted
    probs.setflags(write=False)
    return probs


def _target_mass(spec: ScmSpec, world, target: str, evidence, weights=None,
                 row=0, n_rows: int = 1) -> np.ndarray:
    """Per (row, category of ``target``), the summed ``weights`` (or the
    count) of the worlds that agree with ``evidence``, added in the worlds'
    C order; ``row`` holds each world's row in ``[0, n_rows)`` and is
    broadcast against the worlds, as ``weights`` is."""
    keep = np.ones(world[target].shape, dtype=bool)
    for name, value in evidence.items():
        keep &= world[name] == value
    arity = spec.arity(target)
    key = world[target] + row * arity
    if weights is not None:
        weights = np.broadcast_to(weights, key.shape)[keep]
    return np.bincount(key[keep], weights,
                       minlength=n_rows * arity).reshape(n_rows, arity)


def kl_divergence(p, q):
    """KL(p || q) in nats over the last axis of two arrays of one shape: a
    float for vectors, else an array of one value per row.  0*ln(0/q) = 0,
    and a row is +inf where p > 0 but q = 0.  A term whose ratio p/q
    overflows or underflows to 0 takes ln p - ln q instead, which is finite
    unless q = 0.  Each row's terms are added as NumPy sums a vector, left
    to right from 0.0 in rows under 8 entries."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise UsageError(f"shape mismatch: {a.shape} vs {b.shape}")
    mask = a > 0
    a, b = a[mask], b[mask]
    with np.errstate(divide="ignore", over="ignore"):
        logs = np.log(a / b)
        bad = np.isinf(logs)
        if bad.any():
            logs[bad] = np.log(a[bad]) - np.log(b[bad])
    terms = np.zeros(mask.shape)
    terms[mask] = a * logs
    kl = terms.sum(axis=-1) if terms.ndim else terms
    return float(kl) if kl.ndim == 0 else kl

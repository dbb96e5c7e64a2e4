"""Discrete structural causal models with do-interventions and posterior inference.

Every model is kept in exogenous-noise / deterministic-assignment form: all
randomness lives in the priors of exogenous root variables, and each
endogenous variable is a deterministic lookup over its parents.  Stochastic
conditional tables are accepted as a construction convenience and are
desugared into a fresh exogenous noise variable plus an inverse-CDF lookup,
which preserves the joint distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

ROW_SUM_TOLERANCE = 1e-9
DEFAULT_ENUMERATION_LIMIT = 10_000_000


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

    __slots__ = ("parent_arities", "values", "_cdf", "_buckets")

    def __init__(self, parent_arities: Sequence[int], values):
        self.parent_arities = tuple(int(a) for a in parent_arities)
        if any(a < 1 for a in self.parent_arities):
            raise SpecificationError("parent arities must be >= 1")
        vals = np.array(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[None, :]
        if vals.ndim != 2:
            raise SpecificationError("table values must be a matrix of rows")
        n_rows = 1
        for a in self.parent_arities:
            n_rows *= a
        if vals.shape[0] != n_rows:
            raise SpecificationError(
                f"table has {vals.shape[0]} rows, expected {n_rows} "
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
        self._cdf = None
        self._buckets = None

    @classmethod
    def uniform(cls, parent_arities: Sequence[int], n_categories: int) -> "CategoricalTable":
        n_rows = 1
        for a in parent_arities:
            n_rows *= a
        return cls(parent_arities, np.full((n_rows, n_categories), 1.0 / n_categories))

    @property
    def n_categories(self) -> int:
        return self.values.shape[1]

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def cdf(self) -> np.ndarray:
        """Row-wise cumulative distribution with the last column pinned to 1."""
        if self._cdf is None:
            c = np.cumsum(self.values, axis=1)
            c /= c[:, -1:]
            c.setflags(write=False)
            self._cdf = c
        return self._cdf

    @property
    def buckets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(breaks, table)``: the sorted distinct CDF values below 1 at
        nonzero entries, which cut [0, 1) into buckets at edges
        ``[0, *breaks, 1]``, and each row's category per bucket,
        ``table[bucket, row]``.  A unit draw's bucket is the number of
        breaks ``<= u``; no CDF value lies between a bucket's lower edge and
        any draw in it, so every draw there selects the category
        :func:`cdf_index` returns at that edge, which the table holds."""
        if self._buckets is None:
            cdf = self.cdf
            breaks = np.unique(cdf[(self.values > 0) & (cdf < 1.0)])
            edges = np.concatenate(([0.0], breaks))[:, None, None]
            table = np.minimum((cdf <= edges).sum(axis=-1), self.n_categories - 1)
            breaks.setflags(write=False)
            table.setflags(write=False)
            self._buckets = breaks, table
        return self._buckets

    def row_index(self, assignment: Sequence[int]) -> int:
        if len(assignment) != len(self.parent_arities):
            raise UsageError(
                f"assignment of length {len(assignment)} for "
                f"{len(self.parent_arities)} parents"
            )
        idx = 0
        for value, arity in zip(assignment, self.parent_arities):
            if not 0 <= value < arity:
                raise UsageError(f"parent value {value} out of range [0, {arity})")
            idx = idx * arity + value
        return idx

    def row(self, assignment: Sequence[int] = ()) -> np.ndarray:
        return self.values[self.row_index(assignment)]

    def __repr__(self) -> str:
        return (
            f"CategoricalTable(parents={self.parent_arities}, "
            f"categories={self.n_categories})"
        )


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


@dataclass(frozen=True)
class Dist:
    """A normalized distribution over the ordered categories of one variable."""

    support: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or len(p) != len(self.support):
            raise SpecificationError("probs must be one entry per support point")
        if not np.all(p >= 0):
            raise SpecificationError("probabilities must be non-negative")
        if not abs(float(p.sum()) - 1.0) <= ROW_SUM_TOLERANCE:
            raise SpecificationError(f"distribution sums to {p.sum()!r}, not 1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "support", tuple(self.support))


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
    rule = DeterministicRule(lookup.T.reshape(table.parent_arities + (len(widths),)))
    return noise, prior, rule


class ScmSpec:
    """A structural causal model over categorical variables.

    Construction validates the DAG, desugars stochastic assignment tables,
    and freezes everything; instances are immutable and safe to share.
    """

    def __init__(
        self,
        exogenous: Sequence[tuple[VariableId, CategoricalTable]],
        endogenous: Sequence[tuple[VariableId, Sequence[str], AssignmentRule]],
    ):
        exo: list[tuple[VariableId, CategoricalTable]] = []
        endo: list[tuple[VariableId, tuple[str, ...], DeterministicRule]] = []
        names: set[str] = set()

        for var, prior in exogenous:
            if var.name in names:
                raise SpecificationError(f"duplicate variable name {var.name!r}")
            names.add(var.name)
            if prior.parent_arities != ():
                raise SpecificationError(
                    f"exogenous {var.name!r} must have a parentless prior"
                )
            if prior.n_categories != var.arity:
                raise SpecificationError(
                    f"prior for {var.name!r} has {prior.n_categories} categories, "
                    f"expected {var.arity}"
                )
            exo.append((var, prior))

        pending = []
        for var, parents, rule in endogenous:
            if var.name in names:
                raise SpecificationError(f"duplicate variable name {var.name!r}")
            names.add(var.name)
            pending.append((var, tuple(parents), rule))

        for var, parents, rule in pending:
            if isinstance(rule, CategoricalTable):
                if rule.n_categories != var.arity:
                    raise SpecificationError(
                        f"table for {var.name!r} has {rule.n_categories} "
                        f"categories, expected {var.arity}"
                    )
                noise_name = f"{var.name}~u"
                if noise_name in names:
                    raise SpecificationError(
                        f"noise name {noise_name!r} collides with an existing variable"
                    )
                names.add(noise_name)
                noise, prior, det = _desugar(rule, noise_name)
                exo.append((noise, prior))
                endo.append((var, parents + (noise_name,), det))
            elif isinstance(rule, DeterministicRule):
                endo.append((var, parents, rule))
            else:
                raise SpecificationError(
                    f"assignment rule for {var.name!r} must be a "
                    "DeterministicRule or CategoricalTable"
                )

        self.exogenous = tuple(exo)
        self.endogenous = tuple(self._topo_sort(exo, endo))
        self._vars = {v.name: v for v, _ in self.exogenous}
        self._vars.update({v.name: v for v, _, _ in self.endogenous})
        self._exo_names = frozenset(v.name for v, _ in self.exogenous)
        self._validate_rules()

    @staticmethod
    def _topo_sort(exo, endo):
        known = {v.name for v, _ in exo}
        remaining = list(endo)
        ordered = []
        while remaining:
            progressed = False
            rest = []
            for item in remaining:
                var, parents, _ = item
                if all(p in known for p in parents):
                    ordered.append(item)
                    known.add(var.name)
                    progressed = True
                else:
                    rest.append(item)
            if not progressed:
                bad = ", ".join(v.name for v, _, _ in rest)
                raise SpecificationError(
                    f"cyclic or dangling parent references involving: {bad}"
                )
            remaining = rest
        return ordered

    def _validate_rules(self):
        for var, parents, rule in self.endogenous:
            expected = tuple(self._vars[p].arity for p in parents)
            if rule.table.shape != expected:
                raise SpecificationError(
                    f"rule table for {var.name!r} has shape {rule.table.shape}, "
                    f"expected {expected}"
                )
            if rule.table.size and (
                rule.table.min() < 0 or rule.table.max() >= var.arity
            ):
                raise SpecificationError(
                    f"rule table for {var.name!r} assigns values outside "
                    f"[0, {var.arity})"
                )

    @property
    def variables(self) -> Mapping[str, VariableId]:
        return self._vars

    def is_exogenous(self, name: str) -> bool:
        return name in self._exo_names

    def arity(self, name: str) -> int:
        return self._vars[name].arity


def _check_assignment(spec: ScmSpec, assignment: Mapping[str, int], role: str):
    for name, value in assignment.items():
        if name not in spec.variables:
            raise UsageError(f"{role} on unknown variable {name!r}")
        if not 0 <= int(value) < spec.arity(name):
            raise UsageError(
                f"{role} value {value} out of range for {name!r} "
                f"(arity {spec.arity(name)})"
            )


def sample_worlds(spec: ScmSpec, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Vectorized forward sampling; returns one integer array per variable."""
    if n < 1:
        raise UsageError("n must be >= 1")
    return _evaluate(spec, {var.name: cdf_index(prior.cdf[0], rng.random(n))
                            for var, prior in spec.exogenous})


def _evaluate(spec: ScmSpec, world: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every variable's value per world, gathering through the rule tables
    from ``world``'s exogenous index arrays; each value is broadcast to their
    common shape, so even a constant has one entry per world."""
    shape = np.broadcast_shapes(*(v.shape for v in world.values()))
    world = {name: np.broadcast_to(v, shape) for name, v in world.items()}
    for var, parents, rule in spec.endogenous:
        world[var.name] = np.broadcast_to(
            rule.table[tuple(world[p] for p in parents)], shape)
    return world


def mutilate(spec: ScmSpec, intervention: Intervention) -> ScmSpec:
    """Apply do(X=x): replace each intervened rule by a constant, cut its edges."""
    _check_assignment(spec, intervention, "intervention")
    for name in intervention:
        if spec.is_exogenous(name):
            raise UsageError(f"cannot intervene on exogenous variable {name!r}")
    endo = []
    for var, parents, rule in spec.endogenous:
        if var.name in intervention:
            endo.append(
                (var, (), DeterministicRule(np.int64(intervention[var.name])))
            )
        else:
            endo.append((var, parents, rule))
    return ScmSpec(spec.exogenous, endo)


def _query_setup(spec, target, evidence, intervention):
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
    mutated = mutilate(spec, intervention) if intervention else spec
    return mutated, evidence


def exact_query(
    spec: ScmSpec,
    target: str,
    evidence: Evidence | None = None,
    intervention: Intervention | None = None,
    *,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> Dist:
    """Posterior of ``target`` by exhaustive enumeration of exogenous worlds.

    Mutilates by the intervention, sums prior weight over every exogenous
    assignment consistent with the evidence, and normalizes.  The worlds are
    broadcast index arrays, each weight is the prior product taken left to
    right, and the sum runs in ``itertools.product`` order.  Time and memory
    are O(worlds), the product of exogenous arities, which
    ``enumeration_limit`` bounds.
    """
    m, evidence = _query_setup(spec, target, evidence, intervention)
    arities = tuple(var.arity for var, _ in m.exogenous)
    size = math.prod(arities)
    if size > enumeration_limit:
        raise CapacityError(
            f"enumeration over {size} exogenous worlds exceeds limit "
            f"{enumeration_limit}"
        )
    index = np.indices(arities, sparse=True)
    weight = np.ones(())
    for idx, (_, prior) in zip(index, m.exogenous):
        weight = weight * prior.values[0][idx]
    world = _evaluate(m, {var.name: idx for idx, (var, _) in zip(index, m.exogenous)})
    acc = _target_mass(m, world, target, evidence, weight)
    total = float(acc.sum())
    if total <= 0.0:
        raise ZeroProbabilityEvidenceError(
            f"evidence {evidence} has zero probability under the model"
        )
    return Dist(tuple(range(len(acc))), acc / total)


def importance_query(
    spec: ScmSpec,
    target: str,
    evidence: Evidence | None = None,
    intervention: Intervention | None = None,
    *,
    n_particles: int,
    rng: np.random.Generator,
) -> Dist:
    """Self-normalized importance estimate of the same posterior.

    The proposal is the mutilated prior (likelihood weighting); with fully
    deterministic assignments the evidence likelihood is a 0/1 indicator, so
    the estimate is the empirical target distribution over accepted particles.
    Converges to :func:`exact_query` as ``n_particles`` grows.
    """
    if n_particles < 1:
        raise UsageError("n_particles must be >= 1")
    m, evidence = _query_setup(spec, target, evidence, intervention)
    counts = _target_mass(m, sample_worlds(m, n_particles, rng), target, evidence)
    accepted = int(counts.sum())
    if accepted == 0:
        raise DegenerateEvidenceError(
            f"all {n_particles} particles have zero weight under evidence {evidence}"
        )
    return Dist(tuple(range(len(counts))), counts / accepted)


def _target_mass(spec: ScmSpec, world, target: str, evidence, weights=None) -> np.ndarray:
    """Per category of ``target``, the summed ``weights`` (or the count) of
    the worlds that agree with ``evidence``, added in the worlds' C order."""
    keep = np.ones(world[target].shape, dtype=bool)
    for name, value in evidence.items():
        keep &= world[name] == value
    return np.bincount(world[target][keep], None if weights is None else weights[keep],
                       minlength=spec.arity(target))


def _coerce_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, Dist) or isinstance(q, Dist):
        if not (isinstance(p, Dist) and isinstance(q, Dist)):
            raise UsageError("cannot mix Dist and raw array arguments")
        if p.support != q.support:
            raise UsageError("distributions have different supports")
        return p.probs, q.probs
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise UsageError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a.ravel(), b.ravel()


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats, with 0*ln(0/q) = 0; +inf where p > 0 but q = 0."""
    a, b = _coerce_pair(p, q)
    mask = a > 0
    if np.any(b[mask] == 0):
        return math.inf
    return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

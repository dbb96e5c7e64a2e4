"""Offline fitting of the confounder prior and relative-transition tables.

Records come from a privileged setting where the confounder is observable, so
counting recovers the interventional mechanism directly; the closed-form
smoothed estimator below is the exact optimum of a Dirichlet-prior categorical
fit.  File formats (dataset CSV, parameter text) are documented in the README.
"""

from __future__ import annotations

import copy
import itertools
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .model import TransitionMode, UcPomdpModel
from .scm import CapacityError, CategoricalTable, SpecificationError, UsageError, kl_divergence


# records per block of dataset generation and fitting: a block's float
# draws (256 KiB) and keys stay in cache instead of streaming whole columns
_BLOCK = 1 << 15


@dataclass(frozen=True)
class DatasetMeta:
    seed: int
    model_name: str
    n_records: int
    n_u: int
    n_a: int
    n_ds: int


def _category_column(name: str, values, arity: int) -> np.ndarray:
    """``values`` in the smallest unsigned type holding ``[0, arity)``; a
    non-integer column or a value outside that range is a usage error, so
    the cast never wraps.  A column already of that type is not copied."""
    column = np.asarray(values)
    if column.dtype.kind not in "biu":
        raise UsageError(f"dataset column {name} is not integer")
    if len(column) and ((column.dtype.kind == "i" and column.min() < 0)
                        or column.max() >= arity):
        raise UsageError(f"dataset column {name} has a value outside [0, {arity})")
    return column.astype(np.min_scalar_type(arity - 1), copy=False)


class Dataset:
    """Columnar store of privileged records: region flag, confounder,
    action and relative outcome, one array each; the three category
    columns are held in the smallest unsigned type of their arity."""

    def __init__(self, uc: np.ndarray, u: np.ndarray, a: np.ndarray,
                 ds: np.ndarray, meta: DatasetMeta):
        n = len(uc)
        if not (len(u) == len(a) == len(ds) == n == meta.n_records):
            raise UsageError("dataset columns disagree on length")
        self.uc = np.asarray(uc, dtype=bool)
        self.u = _category_column("u", u, meta.n_u)
        self.a = _category_column("a", a, meta.n_a)
        self.ds = _category_column("ds", ds, meta.n_ds)
        self.meta = meta

    def __len__(self) -> int:
        return self.meta.n_records


@dataclass(frozen=True)
class FitMeta:
    n_records: int
    smoothing: float
    u_count: np.ndarray          # total confounder draws
    uc_row_counts: np.ndarray    # records per (a, u) row, region only
    free_row_counts: np.ndarray  # records per action row, outside the region


@dataclass(frozen=True)
class LearnedParams:
    p_u: CategoricalTable
    p_uc: CategoricalTable
    p_0: CategoricalTable
    meta: FitMeta


def _inverse_cdf(cdf: np.ndarray, rows, draws: np.ndarray) -> np.ndarray:
    """Category of ``draws[i]`` under CDF row ``cdf[rows[i]]`` (``rows`` may
    be a scalar), as :func:`~causalplan.scm.cdf_index` counts it.  Rows end
    at 1.0, so counting the first ``width - 1`` columns gives the clamped
    count, one column at a time and without an (n, width) gather, in the
    smallest unsigned type that holds ``width - 1``."""
    width = cdf.shape[1]
    rows = np.asarray(rows).astype(np.intp, copy=False)
    out = np.zeros(len(draws), dtype=np.min_scalar_type(width - 1))
    for j in range(width - 1):
        out += np.take(cdf[:, j], rows) <= draws
    return out


def generate_dataset(model: UcPomdpModel, n: int, seed: int) -> Dataset:
    """Sample ``n`` privileged records from the ground-truth model.

    Per record: confounder from its prior, a starting cell uniform over the
    ordinary states, the reactive action (reflexive inside the region,
    uniform outside), and the relative outcome from the matching mechanism
    table.  Fully determined by ``seed``.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if n * 8 > sys.maxsize:  # the bytes of the (n,) int64 cells; numpy's array limit
        raise CapacityError(f"{n} records exceed the largest array")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    n_ordinary = model.n_states - 2
    n_u, n_a = model.n_confounder, model.n_actions

    # The (seed, 10) stream holds n confounder draws, the cells, n action
    # draws and n outcome draws.  Each float64 takes exactly one 64-bit
    # draw, so every float column reads its own generator, set to that
    # column's start by a copy of the stream moved on with ``advance``.  The
    # cells column's draw count varies with rejection, so it is drawn whole
    # and freed once the region flags are read from it.
    seq = np.random.SeedSequence((seed, 10))
    u_rng = np.random.default_rng(seq)
    stream = np.random.PCG64(seq).advance(n)
    cells = np.random.Generator(stream).integers(0, n_ordinary, size=n)
    a_rng = np.random.Generator(copy.deepcopy(stream))
    ds_rng = np.random.Generator(stream.advance(n))
    region_mask = np.zeros(n_ordinary, dtype=bool)
    region_mask[list(model.confounded_states)] = True
    uc = region_mask[cells]
    del cells

    u = np.empty(n, dtype=np.min_scalar_type(n_u - 1))
    a = np.empty(n, dtype=np.min_scalar_type(n_a - 1))
    ds = np.empty(n, dtype=np.min_scalar_type(model.n_ds - 1))
    uniform_cdf = np.arange(1, n_a + 1)[None, :] / n_a
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        u_block, a_block, ds_block = u[block], a[block], ds[block]
        size = len(u_block)
        u_block[:] = _inverse_cdf(model.confounder_prior.cdf, 0, u_rng.random(size))
        # every record takes the out-of-region branch, then the region's
        # records are inverted again from the same draws
        region = np.flatnonzero(uc[block])
        u_region = u_block.take(region)

        action_draws = a_rng.random(size)
        a_block[:] = _inverse_cdf(uniform_cdf, 0, action_draws)
        a_region = _inverse_cdf(model.reactive_policy.cdf, u_region,
                                action_draws.take(region))
        a_block[region] = a_region

        ds_draws = ds_rng.random(size)
        ds_block[:] = _inverse_cdf(model.p_0.cdf, a_block, ds_draws)
        # widened first: the narrow columns would wrap under either numpy's promotion
        ds_block[region] = _inverse_cdf(model.p_uc.cdf,
                                        a_region.astype(np.intp) * n_u + u_region,
                                        ds_draws.take(region))

    meta = DatasetMeta(
        seed=seed,
        model_name=model.name,
        n_records=n,
        n_u=n_u,
        n_a=n_a,
        n_ds=model.n_ds,
    )
    return Dataset(uc, u, a, ds, meta)


def fit(dataset: Dataset, smoothing: float = 1.0) -> LearnedParams:
    """Smoothed-count estimate of the three categorical tables.

    Each row is (count + smoothing) / (row total + arity * smoothing), the
    posterior mode of a symmetric Dirichlet prior; smoothing > 0 keeps every
    row well defined even with no data.
    """
    if len(dataset) < 1:
        raise UsageError("dataset is empty")
    if not smoothing > 0:
        raise UsageError("smoothing must be positive")
    m = dataset.meta
    n_u, n_a, n_ds = m.n_u, m.n_a, m.n_ds
    # the largest row denominator, records + arity * smoothing
    if not math.isfinite(len(dataset) + max(n_u, n_ds) * smoothing):
        raise UsageError(f"smoothing {smoothing!r} overflows a row's total")

    # one count over (region flag, action, confounder, outcome), keyed in
    # the smallest type of its cells and summed block by block; every table
    # below sums it in integers
    n_cells = 2 * n_a * n_u * n_ds
    cell = np.min_scalar_type(n_cells - 1).type
    joint = np.zeros(n_cells, dtype=np.intp)
    for lo in range(0, len(dataset), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        key = dataset.uc[block].astype(cell)
        for column, arity in ((dataset.a, n_a), (dataset.u, n_u), (dataset.ds, n_ds)):
            key *= cell(arity)
            key += column[block]
        joint += np.bincount(key, minlength=n_cells)
    joint = joint.reshape(2, n_a, n_u, n_ds)
    u_counts = joint.sum(axis=(0, 1, 3)).astype(float)
    p_u = (u_counts + smoothing) / (u_counts.sum() + n_u * smoothing)
    # (action, confounder or n_u outside the region, outcome)
    counts = np.concatenate([joint[1], joint[0].sum(axis=1, keepdims=True)],
                            axis=1).astype(float)
    row_totals = counts.sum(axis=2)
    probs = (counts + smoothing) / (row_totals[..., None] + n_ds * smoothing)

    meta = FitMeta(
        n_records=len(dataset),
        smoothing=float(smoothing),
        u_count=u_counts,
        uc_row_counts=row_totals[:, :n_u].ravel(),
        free_row_counts=row_totals[:, n_u],
    )
    return LearnedParams(
        p_u=CategoricalTable((), p_u),
        p_uc=CategoricalTable((n_a, n_u), probs[:, :n_u].reshape(n_a * n_u, n_ds)),
        p_0=CategoricalTable((n_a,), probs[:, n_u]),
        meta=meta,
    )


def assemble_model(structure: UcPomdpModel, params: LearnedParams) -> UcPomdpModel:
    """The structural model with the three learned tables swapped in; tables
    whose shapes do not fit the structure are a ``UsageError``."""
    try:
        return structure.with_tables(params.p_u, params.p_uc, params.p_0,
                                     name=f"{structure.name}+learned")
    except SpecificationError as exc:
        raise UsageError(f"learned tables do not match the structure: {exc}") from None


def eval_kl_full_transition(learned: UcPomdpModel, truth: UcPomdpModel) -> float:
    """Mean KL over (state, action, confounder) contexts of the true full
    transition row against the learned one, uniformly weighted, over the
    successor slots that the two models must share."""
    if not np.array_equal(learned.successor_table, truth.successor_table):
        raise UsageError("models disagree on states or successors")
    if (learned.n_actions, learned.n_confounder) != (truth.n_actions, truth.n_confounder):
        raise UsageError("models disagree on the actions or the confounder")
    # one KL per (s, a, u) context, added left to right in that order, so
    # the mean does not move in its last bits
    kl = kl_divergence(truth.mechanism_rows, learned.mechanism_rows)
    total = 0.0
    for value in kl.ravel().tolist():
        total += value
    return total / kl.size


def max_abs_table_error(
    learned: UcPomdpModel, truth: UcPomdpModel, mode: TransitionMode
) -> float:
    """Largest absolute deviation across the confounded-region relative
    transition table (action x outcome), the quantity the learning method is
    judged on.  Models whose tables differ in shape are a usage error."""
    t, l = truth.region_rows(mode), learned.region_rows(mode)
    if t.shape != l.shape:
        raise UsageError(f"models disagree on the region rows' shape: {l.shape} vs {t.shape}")
    return float(np.abs(t - l).max())


# -- file formats ----------------------------------------------------------------


def save_dataset_csv(dataset: Dataset, path) -> None:
    m = dataset.meta
    with open(path, "w") as fh:
        fh.write(f"# seed={m.seed} model={m.model_name} n={m.n_records} "
                 f"n_u={m.n_u} n_a={m.n_a} n_ds={m.n_ds}\n")
        fh.write("uc,u,a,ds\n")
        np.savetxt(fh, np.column_stack([dataset.uc, dataset.u, dataset.a, dataset.ds]),
                   fmt="%d", delimiter=",")


def save_params(params: LearnedParams, path) -> None:
    meta = params.meta
    n_a, n_u = params.p_uc.parent_arities
    lines = [
        f"# n_records={meta.n_records} smoothing={meta.smoothing!r}",
        "[p_u]",
        "# count=" + ",".join(repr(float(c)) for c in meta.u_count),
        " ".join(repr(float(v)) for v in params.p_u.values[0]),
    ]
    uc_names, free_names = _section_names(n_a, n_u)
    for names, counts, table in ((uc_names, meta.uc_row_counts, params.p_uc),
                                 (free_names, meta.free_row_counts, params.p_0)):
        for name, count, row in zip(names, counts, table.values):
            lines += [name, f"# count={float(count)!r}",
                      " ".join(repr(float(v)) for v in row)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _section_names(n_a: int, n_u: int):
    """Headers of the ``p_uc`` and ``p_0`` sections, in file order, each
    made when it is asked for."""
    return ((f"[p_uc a={a} u={u}]" for a in range(n_a) for u in range(n_u)),
            (f"[p_0 a={a}]" for a in range(n_a)))


_SECTION = re.compile(r"\[(p_u|p_uc a=(\d+) u=(\d+)|p_0 a=(\d+))\]")
# each field of a parameter file's comments, with its parser
_FIELDS = {"n_records": int, "smoothing": float,
           "count": lambda v: np.array([float(c) for c in v.split(",")])}


def load_params(path) -> LearnedParams:
    """Read a parameter file; malformed input, such as a repeated section,
    a section with two rows of values or a field given twice, raises
    :class:`UsageError` naming the file and the line, or the section that
    is missing."""
    n_a = 1
    sections: dict[str, np.ndarray] = {}
    # n_records and smoothing under their names, each count under its section
    fields: dict[str, object] = {}
    current, where = None, "line 0"
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                where = f"line {lineno}"
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    for token in line[1:].split():
                        field, eq, value = token.partition("=")
                        key = current if field == "count" else field
                        if eq and field in _FIELDS and key is not None:
                            if key in fields:
                                raise ValueError(f"a second {field}= in "
                                                 f"{current if field == 'count' else 'the file'}")
                            fields[key] = _FIELDS[field](value)
                    continue
                if line.startswith("["):
                    match = _SECTION.fullmatch(line)
                    if match is None:
                        raise ValueError(f"unknown section {line}")
                    if line in sections:
                        raise ValueError(f"repeated section {line}")
                    current = line
                    action = match.group(2) or match.group(4)
                    if action is not None:
                        n_a = max(n_a, int(action) + 1)
                    continue
                if current is None:
                    raise ValueError("values before the first [section]")
                if current in sections:
                    raise ValueError(f"a second row of values in {current}")
                sections[current] = np.array([float(v) for v in line.split()])
        where = f"end of file after {where}"
        if "[p_u]" not in sections:
            raise ValueError("no [p_u] section")
        # [p_u] fixes n_u and the largest action index (at least 0) fixes
        # n_a; every (a, u) pair and every a needs its own section.  The
        # first missing name stops the check, so a huge action index costs
        # no more names than the file has sections.
        p_u = sections["[p_u]"]
        n_u = len(p_u)
        for key in itertools.chain(*_section_names(n_a, n_u)):
            if key not in sections:
                raise ValueError(f"no {key} section")
        uc_keys, free_keys = map(list, _section_names(n_a, n_u))
        extra = sorted(sections.keys() - {"[p_u]", *uc_keys, *free_keys})
        if extra:
            raise ValueError(f"{extra[0]} lies outside the {n_u} categories of [p_u]")
        p_uc = np.stack([sections[k] for k in uc_keys])
        p_0 = np.stack([sections[k] for k in free_keys])
    except ValueError as exc:
        raise UsageError(f"{path}, {where}: {exc}") from None
    meta = FitMeta(
        n_records=fields.get("n_records", 0),
        smoothing=fields.get("smoothing", 1.0),
        u_count=fields.get("[p_u]", np.zeros(n_u)),
        uc_row_counts=np.array([float(fields.get(k, [0.0])[0]) for k in uc_keys]),
        free_row_counts=np.array([float(fields.get(k, [0.0])[0]) for k in free_keys]),
    )
    return LearnedParams(
        p_u=CategoricalTable((), p_u),
        p_uc=CategoricalTable((n_a, n_u), p_uc),
        p_0=CategoricalTable((n_a,), p_0),
        meta=meta,
    )

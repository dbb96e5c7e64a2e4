"""Offline fitting of the confounder prior and relative-transition tables.

Records come from a privileged setting where the confounder is observable, so
counting recovers the interventional mechanism directly; the closed-form
smoothed estimator below is the exact optimum of a Dirichlet-prior categorical
fit.  File formats (dataset CSV, parameter text) are documented in the README.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .model import TransitionMode, UcPomdpModel
from .scm import CategoricalTable, UsageError, kl_divergence


@dataclass(frozen=True)
class DatasetMeta:
    seed: int
    model_name: str
    n_records: int
    n_u: int
    n_a: int
    n_ds: int


class Dataset:
    """Columnar store of privileged records: region flag, confounder,
    action and relative outcome, one array each."""

    def __init__(self, uc: np.ndarray, u: np.ndarray, a: np.ndarray,
                 ds: np.ndarray, meta: DatasetMeta):
        n = len(uc)
        if not (len(u) == len(a) == len(ds) == n == meta.n_records):
            raise UsageError("dataset columns disagree on length")
        self.uc = np.asarray(uc, dtype=bool)
        self.u = np.asarray(u, dtype=np.int64)
        self.a = np.asarray(a, dtype=np.int64)
        self.ds = np.asarray(ds, dtype=np.int64)
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
    count, one column at a time and without an (n, width) gather."""
    out = np.zeros(len(draws), dtype=np.int64)
    for j in range(cdf.shape[1] - 1):
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
    if seed < 0:
        raise UsageError("seed must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 10)))
    n_ordinary = model.n_states - 2
    n_a = model.n_actions

    u = _inverse_cdf(model.confounder_prior.cdf, 0, rng.random(n))
    cells = rng.integers(0, n_ordinary, size=n)
    region_mask = np.zeros(n_ordinary, dtype=bool)
    region_mask[list(model.confounded_states)] = True
    uc = region_mask[cells]
    # every record takes the out-of-region branch, then the region's records
    # are inverted again from the same draws
    region = np.flatnonzero(uc)
    u_region = u.take(region)

    action_draws = rng.random(n)
    a = _inverse_cdf(np.arange(1, n_a + 1)[None, :] / n_a, 0, action_draws)
    a_region = _inverse_cdf(model.reactive_policy.cdf, u_region,
                            action_draws.take(region))
    a[region] = a_region

    ds_draws = rng.random(n)
    ds = _inverse_cdf(model.p_0.cdf, a, ds_draws)
    ds[region] = _inverse_cdf(model.p_uc.cdf, a_region * model.n_confounder + u_region,
                              ds_draws.take(region))

    meta = DatasetMeta(
        seed=seed,
        model_name=model.name,
        n_records=n,
        n_u=model.n_confounder,
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

    u_counts = np.bincount(dataset.u, minlength=n_u).astype(float)
    p_u = (u_counts + smoothing) / (u_counts.sum() + n_u * smoothing)
    # one count over (action, confounder or n_u outside the region, outcome)
    u_or_free = np.where(dataset.uc, dataset.u, n_u)
    counts = np.bincount(
        (dataset.a * (n_u + 1) + u_or_free) * n_ds + dataset.ds,
        minlength=n_a * (n_u + 1) * n_ds,
    ).astype(float).reshape(n_a, n_u + 1, n_ds)
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
    """The structural model with the three learned tables swapped in."""
    if params.p_u.n_categories != structure.n_confounder:
        raise UsageError("learned P(U) arity does not match the structure")
    if params.p_uc.parent_arities != (structure.n_actions, structure.n_confounder):
        raise UsageError("learned P_UC parents do not match the structure")
    if params.p_0.parent_arities != (structure.n_actions,):
        raise UsageError("learned P_0 parents do not match the structure")
    if (params.p_uc.n_categories != structure.n_ds
            or params.p_0.n_categories != structure.n_ds):
        raise UsageError("learned outcome arity does not match the structure")
    return structure.with_tables(
        params.p_u, params.p_uc, params.p_0, name=f"{structure.name}+learned"
    )


def eval_kl_full_transition(learned: UcPomdpModel, truth: UcPomdpModel) -> float:
    """Mean KL over (state, action, confounder) contexts of the true full
    transition row against the learned one, uniformly weighted."""
    if learned.n_states != truth.n_states or learned.n_actions != truth.n_actions:
        raise UsageError("models disagree on state or action spaces")
    if learned.n_confounder != truth.n_confounder:
        raise UsageError("models disagree on the confounder")
    # one KL per (s, a, u) context, added in that order: each context keeps
    # its own np.sum grouping, so the mean does not move in its last bits
    n = truth.n_states
    truth_rows = truth.mechanism_rows.reshape(-1, n)
    total = 0.0
    for t, l in zip(truth_rows, learned.mechanism_rows.reshape(-1, n)):
        total += kl_divergence(t, l)
    return total / len(truth_rows)


def max_abs_table_error(
    learned: UcPomdpModel, truth: UcPomdpModel, mode: TransitionMode
) -> float:
    """Largest absolute deviation across the confounded-region relative
    transition table (action x outcome), the quantity the learning method is
    judged on."""
    worst = 0.0
    for a in range(truth.n_actions):
        t = truth.relative_transition_dist(True, a, mode).probs
        l = learned.relative_transition_dist(True, a, mode).probs
        worst = max(worst, float(np.abs(t - l).max()))
    return worst


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


def load_params(path) -> LearnedParams:
    """Read a parameter file; malformed input raises :class:`UsageError`
    naming the file and the line, or the section that is missing."""
    n_records, smoothing, n_a = 0, 1.0, 1
    sections: dict[str, np.ndarray] = {}
    counts: dict[str, np.ndarray] = {}
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
                        if token.startswith("n_records="):
                            n_records = int(token.split("=", 1)[1])
                        elif token.startswith("smoothing="):
                            smoothing = float(token.split("=", 1)[1])
                        elif token.startswith("count=") and current is not None:
                            counts[current] = np.array(
                                [float(v) for v in token.split("=", 1)[1].split(",")]
                            )
                    continue
                if line.startswith("["):
                    match = _SECTION.fullmatch(line)
                    if match is None:
                        raise ValueError(f"unknown section {line}")
                    current = line
                    action = match.group(2) or match.group(4)
                    if action is not None:
                        n_a = max(n_a, int(action) + 1)
                    continue
                if current is None:
                    raise ValueError("values before the first [section]")
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
        n_records=n_records,
        smoothing=smoothing,
        u_count=counts.get("[p_u]", np.zeros(n_u)),
        uc_row_counts=np.array([float(counts.get(k, [0.0])[0]) for k in uc_keys]),
        free_row_counts=np.array([float(counts.get(k, [0.0])[0]) for k in free_keys]),
    )
    return LearnedParams(
        p_u=CategoricalTable((), p_u),
        p_uc=CategoricalTable((n_a, n_u), p_uc),
        p_0=CategoricalTable((n_a,), p_0),
        meta=meta,
    )

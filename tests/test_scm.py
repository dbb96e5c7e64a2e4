"""Causal-engine unit tests: sampling, interventions, inference, divergence."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from causalplan import scm
from causalplan.scm import (
    CapacityError,
    CategoricalTable,
    DegenerateEvidenceError,
    DeterministicRule,
    ScmSpec,
    SpecificationError,
    UsageError,
    VariableId,
    ZeroProbabilityEvidenceError,
    exact_query,
    importance_query,
    kl_divergence,
    sample_worlds,
)

from helpers import (
    exact_query_loop,
    free_spec,
    hand_confounded_tables,
    mutilate,
    specs_equal,
    total_variation,
)


def single_prior_spec():
    return ScmSpec(
        exogenous=[(VariableId("U", 3), CategoricalTable((), [0.1, 0.8, 0.1]))],
        endogenous=[],
    )


class TestCategoricalTable:
    def test_rejects_unnormalized_rows(self):
        with pytest.raises(SpecificationError):
            CategoricalTable((), [0.5, 0.6])

    def test_rejects_negative_entries(self):
        with pytest.raises(SpecificationError):
            CategoricalTable((), [-0.1, 1.1])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(SpecificationError):
            CategoricalTable((2,), [[0.5, 0.5]])

    def test_tolerates_decimal_literal_rows(self):
        CategoricalTable((), [0.1, 0.2, 0.7])  # should not raise


class TestSampleWorld:
    def test_prior_frequencies_match(self, rng):
        spec = single_prior_spec()
        draws = sample_worlds(spec, 1_000_000, rng)["U"]
        freq = np.bincount(draws, minlength=3) / len(draws)
        assert np.all(np.abs(freq - [0.1, 0.8, 0.1]) <= 0.005)

    def test_identity_assignment(self, rng):
        spec = ScmSpec(
            exogenous=[(VariableId("U", 3), CategoricalTable((), [0.2, 0.5, 0.3]))],
            endogenous=[(VariableId("V", 3), ("U",), DeterministicRule([0, 1, 2]))],
        )
        worlds = sample_worlds(spec, 10_000, rng)
        assert np.array_equal(worlds["V"], worlds["U"])

    def test_fragment_joint_matches_enumeration(self, confounded_fragment, rng):
        worlds = sample_worlds(confounded_fragment, 1_000_000, rng)
        counts = np.zeros((3, 4, 4))
        np.add.at(counts, (worlds["U"], worlds["A"], worlds["DS"]), 1)
        empirical = counts / counts.sum()

        # exact enumeration oracle over every (u, a, ds) triple
        prior = np.array([0.1, 0.8, 0.1])
        exact = np.zeros((3, 4, 4))
        for u, a, ds in itertools.product(range(3), range(4), range(4)):
            p_a = exact_query(confounded_fragment, "A", evidence={"U": u})[a]
            p_ds = exact_query(
                confounded_fragment, "DS", evidence={"U": u, "A": a}
            )[ds] if p_a > 0 else 0.0
            exact[u, a, ds] = prior[u] * p_a * p_ds
        assert np.all(np.abs(empirical - exact) <= 0.01)


class TestMutilate:
    """``helpers.mutilate``, the graph-surgery oracle of the queries' do()."""

    def test_removes_incoming_edges(self, confounded_fragment):
        cut = mutilate(confounded_fragment, {"A": 1})
        (_, a_parents, a_rule) = next(
            e for e in cut.endogenous if e[0].name == "A"
        )
        assert a_parents == ()
        assert a_rule.table[()] == 1

    def test_empty_intervention_is_identity(self, confounded_fragment):
        assert specs_equal(mutilate(confounded_fragment, {}), confounded_fragment)

    def test_idempotent(self, confounded_fragment):
        once = mutilate(confounded_fragment, {"A": 2})
        twice = mutilate(once, {"A": 2})
        assert specs_equal(once, twice)

    def test_commutes_over_disjoint_interventions(self, confounded_fragment):
        ab = mutilate(mutilate(confounded_fragment, {"A": 0}), {"DS": 3})
        ba = mutilate(mutilate(confounded_fragment, {"DS": 3}), {"A": 0})
        assert specs_equal(ab, ba)

    @pytest.mark.parametrize("do, match", [({"U": 0}, "exogenous"), ({"A": 7}, "out of range"),
                                           ({"A": [0, 7]}, "out of range")])
    def test_queries_reject_an_invalid_intervention(self, confounded_fragment, rng, do, match):
        with pytest.raises(UsageError, match=match):
            exact_query(confounded_fragment, "DS", intervention=do)
        if np.ndim(do.get("A")) == 0:
            with pytest.raises(UsageError, match=match):
                importance_query(confounded_fragment, "DS", intervention=do,
                                 n_particles=10, rng=rng)


@st.composite
def small_queries(draw):
    """A random small SCM with a query on it: 1-3 exogenous variables whose
    priors may hold zeros, endogenous variables with deterministic or
    stochastic (desugared) rules over up to two earlier variables, a target,
    and evidence and an intervention on other variables."""
    weight = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0])

    def rows(n_rows, width):
        vals = np.array(draw(st.lists(
            st.lists(weight, min_size=width, max_size=width).filter(any),
            min_size=n_rows, max_size=n_rows)))
        return vals / vals.sum(axis=1, keepdims=True)

    known, exogenous, endogenous = [], [], []
    for i in range(draw(st.integers(1, 3))):
        var = VariableId(f"E{i}", draw(st.integers(1, 3)))
        exogenous.append((var, CategoricalTable((), rows(1, var.arity))))
        known.append(var)
    for i in range(draw(st.integers(1, 3))):
        var = VariableId(f"V{i}", draw(st.integers(1, 3)))
        parents = draw(st.lists(st.sampled_from(known), max_size=2, unique=True))
        arities = tuple(p.arity for p in parents)
        n_rows = math.prod(arities)
        if draw(st.booleans()):
            rule = CategoricalTable(arities, rows(n_rows, var.arity))
        else:
            rule = DeterministicRule(np.array(draw(st.lists(
                st.integers(0, var.arity - 1), min_size=n_rows, max_size=n_rows
            ))).reshape(arities))
        endogenous.append((var, [p.name for p in parents], rule))
        known.append(var)
    spec = ScmSpec(exogenous, endogenous)
    target = draw(st.sampled_from(known))
    evidence, intervention = {}, {}
    for var in known:
        roles = ["free", "evidence"] + ["intervention"] * var.name.startswith("V")
        role = "free" if var == target else draw(st.sampled_from(roles))
        if role == "evidence":
            evidence[var.name] = draw(st.integers(0, var.arity - 1))
        elif role == "intervention":
            intervention[var.name] = draw(st.integers(0, var.arity - 1))
    return spec, target.name, evidence, intervention


@st.composite
def batched_queries(draw, role):
    """A :func:`small_queries` case in which one variable other than the
    target takes 1-4 values, possibly repeated, as ``role`` ("evidence" or
    "intervention"), in place of its drawn role; returns the case and the
    variable's name."""
    spec, target, evidence, intervention = draw(small_queries())
    names = [name for name in spec.variables if name != target
             and (role == "evidence" or not spec.is_exogenous(name))]
    assume(names)
    name = draw(st.sampled_from(names))
    evidence.pop(name, None)
    intervention.pop(name, None)
    given = evidence if role == "evidence" else intervention
    given[name] = draw(st.lists(st.integers(0, spec.arity(name) - 1),
                                min_size=1, max_size=4))
    return (spec, target, evidence, intervention), name


@st.composite
def do_queries(draw):
    """A :func:`small_queries` case re-aimed so that its intervention can
    matter: the target is an endogenous variable, and a variable among its
    endogenous parents takes 1-3 values; the case's other interventions and
    evidence stay.  Returns the case and the parent's name.  (In 300
    ``small_queries`` cases no intervention changes the result.)"""
    spec, _, evidence, intervention = draw(small_queries())
    edges = [(var.name, parent) for var, parents, _ in spec.endogenous
             for parent in parents if not spec.is_exogenous(parent)]
    assume(edges)
    target, name = draw(st.sampled_from(edges))
    evidence = {k: v for k, v in evidence.items() if k not in (target, name)}
    intervention = {k: v for k, v in intervention.items() if k != target}
    intervention[name] = draw(st.lists(st.integers(0, spec.arity(name) - 1),
                                       min_size=1, max_size=3))
    return (spec, target, evidence, intervention), name


@st.composite
def one_do_queries(draw):
    """A :func:`do_queries` case with one of the parent's values."""
    (spec, target, evidence, intervention), name = draw(do_queries())
    intervention[name] = draw(st.sampled_from(intervention[name]))
    return spec, target, evidence, intervention


class TestExactQuery:
    def test_confounded_cell_do_up(self, confounded_fragment):
        do_tables, _ = hand_confounded_tables()
        dist = exact_query(confounded_fragment, "DS", intervention={"A": 1})
        assert dist == pytest.approx(do_tables["UP"], abs=1e-12)
        assert dist[0] == pytest.approx(0.73, abs=1e-12)

    def test_confounded_cell_observational_up(self, confounded_fragment):
        _, obs_tables = hand_confounded_tables()
        dist = exact_query(confounded_fragment, "DS", evidence={"A": 1})
        assert dist == pytest.approx(obs_tables["UP"], abs=1e-12)
        assert dist[0] == pytest.approx(89 / 420, abs=1e-12)

    def test_root_marginal_is_prior(self, confounded_fragment):
        dist = exact_query(confounded_fragment, "U")
        assert dist == pytest.approx([0.1, 0.8, 0.1], abs=1e-12)

    def test_zero_probability_evidence(self):
        spec = ScmSpec(
            exogenous=[(VariableId("U", 2), CategoricalTable((), [1.0, 0.0]))],
            endogenous=[(VariableId("V", 2), ("U",), DeterministicRule([0, 1]))],
        )
        with pytest.raises(ZeroProbabilityEvidenceError):
            exact_query(spec, "U", evidence={"V": 1})

    @given(st.one_of(small_queries(), one_do_queries()))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_world_by_world_loop(self, case):
        spec, target, evidence, intervention = case
        acc = exact_query_loop(spec, target, evidence, intervention)
        if acc.sum() <= 0.0:
            with pytest.raises(ZeroProbabilityEvidenceError):
                exact_query(spec, target, evidence, intervention)
            return
        dist = exact_query(spec, target, evidence, intervention)
        assert np.array_equal(dist, acc / float(acc.sum()))

    @pytest.mark.parametrize("role", ["evidence", "intervention"])
    @given(data=st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_batched_rows_equal_single_queries(self, role, data):
        (spec, target, evidence, intervention), name = data.draw(batched_queries(role))
        values = (evidence if role == "evidence" else intervention)[name]
        singles = []
        for value in values:
            one = {"evidence": dict(evidence), "intervention": dict(intervention)}
            one[role][name] = value
            acc = exact_query_loop(spec, target, **one)
            if acc.sum() <= 0.0:
                with pytest.raises(ZeroProbabilityEvidenceError):
                    exact_query(spec, target, evidence, intervention)
                return
            singles.append((exact_query(spec, target, **one), acc / float(acc.sum())))
        rows = exact_query(spec, target, evidence, intervention)
        assert rows.shape == (len(values), spec.arity(target))
        assert not rows.flags.writeable
        for row, (single, loop) in zip(rows, singles):
            assert np.array_equal(row, single)
            assert np.array_equal(row, loop)

    def test_batched_query_checks_every_value(self, confounded_fragment):
        with pytest.raises(UsageError, match="out of range"):
            exact_query(confounded_fragment, "DS", intervention={"A": [0, 4]})
        with pytest.raises(UsageError, match="lists no values"):
            exact_query(confounded_fragment, "DS", evidence={"A": []})
        with pytest.raises(UsageError, match="one variable"):
            exact_query(confounded_fragment, "DS", evidence={"U": [0, 1]},
                        intervention={"A": [0, 1]})

    @pytest.mark.parametrize("value", [1.5, 1.0, np.float64(1.0), float("nan"), "x",
                                       None, [0, 1.5], [0, "x"], np.array([0.0, 1.0])])
    @pytest.mark.parametrize("role", ["evidence", "intervention"])
    def test_only_integer_values_are_categories(self, confounded_fragment, role, value):
        # int() truncated 1.5 to 1, so do(A=1.5) was do(A=1) and A=1.5 as
        # evidence matched no world
        with pytest.raises(UsageError, match="not an integer"):
            exact_query(confounded_fragment, "DS", **{role: {"A": value}})

    @pytest.mark.parametrize("value", [1, np.int64(1), np.uint8(1), np.array(1)])
    def test_integer_types_are_categories(self, confounded_fragment, value):
        for role in ("evidence", "intervention"):
            single = exact_query(confounded_fragment, "DS", **{role: {"A": 1}})
            assert np.array_equal(
                exact_query(confounded_fragment, "DS", **{role: {"A": value}}), single)
            rows = exact_query(confounded_fragment, "DS", **{role: {"A": [0, value]}})
            assert np.array_equal(rows[1], single)

    def test_enumeration_limit_counts_rows(self, confounded_fragment, monkeypatch):
        # 3 confounder values x 7 action buckets x 5 outcome buckets: 105
        # worlds a row
        monkeypatch.setattr(scm, "ENUMERATION_LIMIT", 210)
        exact_query(confounded_fragment, "DS", evidence={"A": [0, 1]})
        with pytest.raises(CapacityError):
            exact_query(confounded_fragment, "DS", evidence={"A": [0, 1, 2]})

    def test_result_is_read_only(self, confounded_fragment):
        dist = exact_query(confounded_fragment, "DS", intervention={"A": 1})
        with pytest.raises(ValueError):
            dist[0] = 1.0

    def test_enumeration_limit(self, confounded_fragment, monkeypatch):
        monkeypatch.setattr(scm, "ENUMERATION_LIMIT", 2)
        with pytest.raises(CapacityError):
            exact_query(confounded_fragment, "DS")

    def test_target_must_not_be_intervened(self, confounded_fragment):
        with pytest.raises(UsageError):
            exact_query(confounded_fragment, "A", intervention={"A": 1})

    def test_evidence_intervention_overlap_rejected(self, confounded_fragment):
        with pytest.raises(UsageError):
            exact_query(
                confounded_fragment, "DS", evidence={"A": 1}, intervention={"A": 1}
            )


class TestImportanceQuery:
    def test_target_fixed_by_intervention(self, rng):
        # every parent of V is intervened on, so each particle holds one constant
        spec = ScmSpec(
            exogenous=[(VariableId("U", 2), CategoricalTable((), [0.5, 0.5]))],
            endogenous=[(VariableId("A", 2), ("U",), DeterministicRule([0, 1])),
                        (VariableId("V", 2), ("A",), DeterministicRule([1, 0]))],
        )
        dist = importance_query(spec, "V", intervention={"A": 1}, n_particles=10, rng=rng)
        assert np.array_equal(dist, [1.0, 0.0])

    def test_result_is_read_only(self, confounded_fragment, rng):
        dist = importance_query(confounded_fragment, "DS", n_particles=10, rng=rng)
        with pytest.raises(ValueError):
            dist[0] = 1.0

    def test_interventional_convergence_at_5000_particles(self, confounded_fragment):
        exact = exact_query(confounded_fragment, "DS", intervention={"A": 1})
        tvs = []
        for seed in range(20):
            approx = importance_query(
                confounded_fragment, "DS", intervention={"A": 1},
                n_particles=5000, rng=np.random.default_rng(seed),
            )
            tvs.append(total_variation(exact, approx))
        assert np.mean(tvs) <= 0.02

    def test_no_evidence_reduces_to_forward_sampling(self, confounded_fragment, rng):
        exact = exact_query(confounded_fragment, "DS")
        approx = importance_query(
            confounded_fragment, "DS", n_particles=5000, rng=rng
        )
        assert total_variation(exact, approx) <= 0.02

    def test_million_particle_accuracy(self, confounded_fragment):
        exact = exact_query(confounded_fragment, "DS", intervention={"A": 1})
        tvs = [
            total_variation(
                exact,
                importance_query(
                    confounded_fragment, "DS", intervention={"A": 1},
                    n_particles=1_000_000, rng=np.random.default_rng(100 + s),
                ),
            )
            for s in range(3)
        ]
        assert np.mean(tvs) <= 0.002

    def test_degenerate_evidence(self, rng):
        spec = ScmSpec(
            exogenous=[(VariableId("U", 2), CategoricalTable((), [1.0, 0.0]))],
            endogenous=[(VariableId("V", 2), ("U",), DeterministicRule([0, 1]))],
        )
        with pytest.raises(DegenerateEvidenceError):
            importance_query(spec, "U", evidence={"V": 1}, n_particles=500, rng=rng)


def outcome(query, spec, target, evidence, intervention, **kwargs):
    """A query's array, or the type of the zero-mass error it raised."""
    try:
        return query(spec, target, evidence, intervention, **kwargs)
    except (ZeroProbabilityEvidenceError, DegenerateEvidenceError) as err:
        return type(err)


def assert_do_views_agree(spec, target, evidence, do):
    """A query's do() on ``spec`` and the same query on ``mutilate(spec,
    do)`` give equal arrays bit for bit, or fail alike: ``exact_query``,
    and ``importance_query`` with equal seeds.  A family of values is
    compared row by row with one mutilated spec per value."""
    family = next((name for name, value in do.items() if np.ndim(value) == 1), None)
    ones = [do] if family is None else [{**do, family: v} for v in do[family]]
    got = outcome(exact_query, spec, target, evidence, do)
    want = [outcome(exact_query, mutilate(spec, one), target, evidence, {}) for one in ones]
    if isinstance(got, type):
        assert any(one is got for one in want)
    else:
        assert np.array_equal(np.reshape(got, (len(ones), -1)), np.stack(want))
    if family is None:
        got, want = (outcome(importance_query, m, target, evidence, one, n_particles=300,
                             rng=np.random.default_rng(5))
                     for m, one in ((spec, do), (mutilate(spec, do), {})))
        assert got is want if isinstance(got, type) else np.array_equal(got, want)


class TestDoViews:
    """The queries' do(), which fixes the intervened values in the worlds,
    against graph surgery (``helpers.mutilate``): equal arrays, bit for bit."""

    @given(do_queries())
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_random_specs_with_an_intervened_parent(self, drawn):
        (spec, target, evidence, intervention), name = drawn
        assert_do_views_agree(spec, target, evidence, intervention)
        for value in intervention[name]:
            assert_do_views_agree(spec, target, evidence, {**intervention, name: value})

    @pytest.mark.parametrize("which", ["region", "free"])
    @pytest.mark.parametrize("evidence", [{}, {"U": 0}, {"U": 2}])
    def test_shipped_model_specs(self, truth, which, evidence):
        spec = truth._spec_region if which == "region" else free_spec(truth)
        for do in [{"A": a} for a in range(truth.n_actions)] + [{"A": [3, 0, 1, 1]}]:
            assert_do_views_agree(spec, "DS", evidence, do)


class TestKlDivergence:
    def test_self_divergence_is_zero(self):
        p = np.array([0.2, 0.5, 0.3])
        assert kl_divergence(p, p) == 0.0

    def test_two_point_example(self):
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            expected, abs=1e-12
        )

    def test_infinite_divergence_signal(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_support_mismatch(self):
        with pytest.raises(UsageError):
            kl_divergence([[0.5, 0.5]], [0.5, 0.5])
        with pytest.raises(UsageError):
            kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(1000):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_divergence(p, q) >= 0.0

    def test_zero_times_log_zero_is_zero(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_subnormal_q_entry_stays_finite(self):
        # 0.5 / 1e-320 overflows, but ln 0.5 - ln 1e-320 does not
        got = kl_divergence([0.5, 0.5], [1.0, 1e-320])
        expected = 0.5 * math.log(0.5) + 0.5 * (math.log(0.5) - math.log(1e-320))
        assert math.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-9)


    def test_rows_give_an_array_of_one_value_each(self, rng):
        p = rng.dirichlet(np.ones(4), size=(2, 3))
        q = rng.dirichlet(np.ones(4), size=(2, 3))
        kl = kl_divergence(p, q)
        assert kl.shape == (2, 3)
        assert all(kl[i, j] == kl_divergence(p[i, j], q[i, j])
                   for i, j in itertools.product(range(2), range(3)))
        assert isinstance(kl_divergence(p[0, 0], q[0, 0]), float)

    @pytest.mark.parametrize("width", range(1, 8))
    def test_rows_equal_the_one_row_loop(self, width, rng):
        # zeros in p and q, a subnormal q whose ratio overflows, and a
        # subnormal p whose ratio underflows to 0
        pool = np.array([0.0, 5e-324, 1e-320, 0.05, 0.25, 0.5, 0.9, 1.0])
        p = rng.choice(pool, size=(400, width))
        q = rng.choice(pool, size=(400, width))
        want = np.array([_kl_one_row(a, b) for a, b in zip(p, q)])
        assert np.isinf(want).any() and np.isfinite(want).any()
        assert np.array_equal(kl_divergence(p, q), want)


def _kl_one_row(p, q) -> float:
    """KL(p || q) of one row as the one-row-at-a-time function computed it:
    the terms at p > 0, summed as one vector."""
    mask = p > 0
    a, b = p[mask], q[mask]
    with np.errstate(divide="ignore", over="ignore"):
        logs = np.log(a / b)
        bad = np.isinf(logs)
        if bad.any():
            logs[bad] = np.log(a[bad]) - np.log(b[bad])
    return float(np.sum(a * logs))


@st.composite
def shuffled_dags(draw):
    """A random DAG of 1-5 ``DeterministicRule`` variables over 1-2
    exogenous roots with drawn priors, each over up to three earlier
    variables; returns the exogenous declarations and the endogenous ones
    in topological order and in a drawn order."""
    known, exogenous, endogenous = [], [], []
    for i in range(draw(st.integers(1, 2))):
        var = VariableId(f"E{i}", draw(st.integers(1, 3)))
        weights = np.array(draw(st.lists(st.integers(1, 4), min_size=var.arity,
                                         max_size=var.arity)), dtype=float)
        exogenous.append((var, CategoricalTable((), weights / weights.sum())))
        known.append(var)
    for i in range(draw(st.integers(1, 5))):
        var = VariableId(f"V{i}", draw(st.integers(1, 3)))
        parents = draw(st.lists(st.sampled_from(known), max_size=3, unique=True))
        arities = tuple(p.arity for p in parents)
        n_rows = math.prod(arities)
        table = np.array(draw(st.lists(st.integers(0, var.arity - 1),
                                       min_size=n_rows, max_size=n_rows)))
        endogenous.append((var, tuple(p.name for p in parents),
                           DeterministicRule(table.reshape(arities))))
        known.append(var)
    return exogenous, endogenous, draw(st.permutations(endogenous))


class TestSpecValidation:
    U = (VariableId("U", 2), CategoricalTable((), [0.5, 0.5]))

    @pytest.mark.parametrize("exogenous, endogenous, name", [
        pytest.param([], [(VariableId("X", 2), ("W",), DeterministicRule([0, 1]))], "X",
                     id="dangling-parent"),
        pytest.param([], [(VariableId("A", 2), (), CategoricalTable((), [0.5, 0.5])),
                          (VariableId("A~u", 1), (), DeterministicRule(0))], "A~u",
                     id="noise-name-declared-after"),
        pytest.param([], [(VariableId("A~u", 1), (), DeterministicRule(0)),
                          (VariableId("A", 2), (), CategoricalTable((), [0.5, 0.5]))], "A~u",
                     id="noise-name-declared-before"),
        pytest.param([U], [(VariableId("U", 2), (), DeterministicRule(0))], "U",
                     id="exogenous-and-endogenous-name"),
        pytest.param([(VariableId("U", 2), CategoricalTable((2,), [[0.5, 0.5]] * 2))], [], "U",
                     id="prior-with-a-parent"),
        pytest.param([(VariableId("U", 3), CategoricalTable((), [0.5, 0.5]))], [], "U",
                     id="prior-arity"),
        pytest.param([U], [(VariableId("X", 3), ("U",),
                            CategoricalTable((2,), [[0.5, 0.5]] * 2))], "X",
                     id="table-width"),
        pytest.param([U], [(VariableId("X", 2), ("U",), DeterministicRule([0, 1, 1]))], "X",
                     id="rule-shape"),
        pytest.param([U], [(VariableId("X", 2), ("U",), DeterministicRule([0, 2]))], "X",
                     id="rule-value-above"),
        pytest.param([U], [(VariableId("X", 2), ("U",), DeterministicRule([-1, 0]))], "X",
                     id="rule-value-below"),
        pytest.param([U], [(VariableId("X", 2), ("U",), [0, 1])], "X",
                     id="rule-of-neither-type"),
    ])
    def test_rejection_names_the_variable(self, exogenous, endogenous, name):
        with pytest.raises(SpecificationError, match=rf"(?<![\w~]){re.escape(name)}(?![\w~])"):
            ScmSpec(exogenous, endogenous)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(shuffled_dags(), st.integers(0, 2**32 - 1), st.data())
    def test_declaration_order_does_not_matter(self, dag, seed, data):
        exogenous, ordered, shuffled = dag
        spec, reference = ScmSpec(exogenous, shuffled), ScmSpec(exogenous, ordered)
        placed = {var.name for var, _ in spec.exogenous}
        for var, parents, _ in spec.endogenous:
            assert placed.issuperset(parents)
            placed.add(var.name)
        assert placed == set(reference.variables)
        worlds = sample_worlds(spec, 20, np.random.default_rng(seed))
        expected = sample_worlds(reference, 20, np.random.default_rng(seed))
        assert worlds.keys() == expected.keys()
        for name, values in expected.items():
            assert np.array_equal(worlds[name], values)
        target = data.draw(st.sampled_from(sorted(placed)))
        assert np.array_equal(exact_query(spec, target), exact_query(reference, target))
        assert specs_equal(ScmSpec(spec.exogenous, spec.endogenous), spec)

    def test_cycle_detection(self):
        with pytest.raises(SpecificationError):
            ScmSpec(
                exogenous=[],
                endogenous=[
                    (VariableId("X", 2), ("Y",), DeterministicRule([0, 1])),
                    (VariableId("Y", 2), ("X",), DeterministicRule([0, 1])),
                ],
            )

    def test_duplicate_names(self):
        with pytest.raises(SpecificationError):
            ScmSpec(
                exogenous=[
                    (VariableId("U", 2), CategoricalTable((), [0.5, 0.5])),
                    (VariableId("U", 2), CategoricalTable((), [0.5, 0.5])),
                ],
                endogenous=[],
            )

    def test_desugaring_preserves_joint(self, rng):
        # stochastic node with a parent: P(V | U) rows
        spec = ScmSpec(
            exogenous=[(VariableId("U", 2), CategoricalTable((), [0.3, 0.7]))],
            endogenous=[
                (VariableId("V", 3), ("U",),
                 CategoricalTable((2,), [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]))
            ],
        )
        marginal = exact_query(spec, "V")
        expected = 0.3 * np.array([0.2, 0.5, 0.3]) + 0.7 * np.array([0.6, 0.1, 0.3])
        assert marginal == pytest.approx(expected, abs=1e-12)
        given_u = exact_query(spec, "V", evidence={"U": 1})
        assert given_u == pytest.approx([0.6, 0.1, 0.3], abs=1e-12)

    def test_desugaring_keeps_a_sub_ulp_segment(self):
        # the rows' first CDF values are one ulp apart, so the noise segment
        # between them is too narrow for a midpoint lookup: it selects 0
        # under P=1 and 1 under P=0
        spec = ScmSpec(
            exogenous=[(VariableId("P", 2), CategoricalTable((), [0.5, 0.5]))],
            endogenous=[
                (VariableId("X", 2), ("P",),
                 CategoricalTable((2,), [[0.3, 0.7], [0.30000000000000004, 0.7]]))
            ],
        )
        assert exact_query(spec, "X", evidence={"P": 0})[0] == 0.3
        assert exact_query(spec, "X", evidence={"P": 1})[0] == 0.30000000000000004

"""Causal-engine unit tests: sampling, mutilation, inference, divergence."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalplan.scm import (
    CapacityError,
    CategoricalTable,
    DegenerateEvidenceError,
    DeterministicRule,
    Dist,
    ScmSpec,
    SpecificationError,
    UsageError,
    VariableId,
    ZeroProbabilityEvidenceError,
    exact_query,
    importance_query,
    kl_divergence,
    mutilate,
    sample_worlds,
)

from helpers import exact_query_loop, hand_confounded_tables, specs_equal, total_variation


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

    def test_row_indexing_is_mixed_radix(self):
        t = CategoricalTable((2, 3), np.tile([0.25, 0.75], (6, 1)))
        assert t.row_index((1, 2)) == 5
        assert t.row_index((0, 1)) == 1

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
            p_a = exact_query(confounded_fragment, "A", evidence={"U": u}).probs[a]
            p_ds = exact_query(
                confounded_fragment, "DS", evidence={"U": u, "A": a}
            ).probs[ds] if p_a > 0 else 0.0
            exact[u, a, ds] = prior[u] * p_a * p_ds
        assert np.all(np.abs(empirical - exact) <= 0.01)


class TestMutilate:
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

    def test_rejects_exogenous_target(self, confounded_fragment):
        with pytest.raises(UsageError):
            mutilate(confounded_fragment, {"U": 0})

    def test_rejects_out_of_range_value(self, confounded_fragment):
        with pytest.raises(UsageError):
            mutilate(confounded_fragment, {"A": 7})


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


class TestExactQuery:
    def test_confounded_cell_do_up(self, confounded_fragment):
        do_tables, _ = hand_confounded_tables()
        dist = exact_query(confounded_fragment, "DS", intervention={"A": 1})
        assert dist.probs == pytest.approx(do_tables["UP"], abs=1e-12)
        assert dist.probs[0] == pytest.approx(0.73, abs=1e-12)

    def test_confounded_cell_observational_up(self, confounded_fragment):
        _, obs_tables = hand_confounded_tables()
        dist = exact_query(confounded_fragment, "DS", evidence={"A": 1})
        assert dist.probs == pytest.approx(obs_tables["UP"], abs=1e-12)
        assert dist.probs[0] == pytest.approx(89 / 420, abs=1e-12)

    def test_root_marginal_is_prior(self, confounded_fragment):
        dist = exact_query(confounded_fragment, "U")
        assert dist.probs == pytest.approx([0.1, 0.8, 0.1], abs=1e-12)

    def test_zero_probability_evidence(self):
        spec = ScmSpec(
            exogenous=[(VariableId("U", 2), CategoricalTable((), [1.0, 0.0]))],
            endogenous=[(VariableId("V", 2), ("U",), DeterministicRule([0, 1]))],
        )
        with pytest.raises(ZeroProbabilityEvidenceError):
            exact_query(spec, "U", evidence={"V": 1})

    @given(small_queries())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_world_by_world_loop(self, case):
        spec, target, evidence, intervention = case
        acc = exact_query_loop(spec, target, evidence, intervention)
        if acc.sum() <= 0.0:
            with pytest.raises(ZeroProbabilityEvidenceError):
                exact_query(spec, target, evidence, intervention)
            return
        dist = exact_query(spec, target, evidence, intervention)
        assert np.array_equal(dist.probs, acc / float(acc.sum()))

    def test_enumeration_limit(self, confounded_fragment):
        with pytest.raises(CapacityError):
            exact_query(confounded_fragment, "DS", enumeration_limit=2)

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
        assert np.array_equal(dist.probs, [1.0, 0.0])

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


class TestKlDivergence:
    def test_self_divergence_is_zero(self):
        p = Dist((0, 1, 2), [0.2, 0.5, 0.3])
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
            kl_divergence(Dist((0, 1), [0.5, 0.5]), Dist((1, 2), [0.5, 0.5]))
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


class TestSpecValidation:
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
        assert marginal.probs == pytest.approx(expected, abs=1e-12)
        given_u = exact_query(spec, "V", evidence={"U": 1})
        assert given_u.probs == pytest.approx([0.6, 0.1, 0.3], abs=1e-12)

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
        assert exact_query(spec, "X", evidence={"P": 0}).probs[0] == 0.3
        assert exact_query(spec, "X", evidence={"P": 1}).probs[0] == 0.30000000000000004

"""Learning tests: dataset generation, fitting, assembly, fit evaluation."""

import numpy as np
import pytest

from causalplan.learning import (
    Dataset,
    DatasetMeta,
    assemble_model,
    eval_kl_full_transition,
    fit,
    generate_dataset,
    load_params,
    max_abs_table_error,
    save_dataset_csv,
    save_params,
)
from causalplan.model import TransitionMode
from causalplan.scm import UsageError

from helpers import (
    generate_dataset_two_branch,
    load_dataset_csv,
    permuted,
    two_state_model,
)

RIGHT, UP, LEFT, DOWN = 0, 1, 2, 3
INT = TransitionMode.INTERVENTIONAL
OBS = TransitionMode.OBSERVATIONAL


@pytest.fixture(scope="module")
def dataset_100k(truth):
    return generate_dataset(truth, 100_000, seed=0)


class TestGenerateDataset:
    def test_confounder_marginal(self, dataset_100k):
        freq = np.bincount(dataset_100k.u, minlength=3) / len(dataset_100k)
        assert np.all(np.abs(freq - [0.1, 0.8, 0.1]) <= 0.01)

    def test_reactive_up_rare_under_zero_error(self, dataset_100k):
        sel = dataset_100k.uc & (dataset_100k.u == 1)
        p_up = np.mean(dataset_100k.a[sel] == UP)
        assert abs(p_up - 0.05) <= 0.01

    def test_region_frequency_matches_uniform_cells(self, truth, dataset_100k):
        expected = len(truth.confounded_states) / (truth.n_states - 2)
        assert abs(dataset_100k.uc.mean() - expected) <= 0.01

    @pytest.mark.parametrize("seed", [0, 7, 123, 999])
    @pytest.mark.parametrize("n", [1, 7, 100_000])
    def test_matches_two_branch_reference(self, truth, seed, n):
        # two_state_model has no confounded cells, so no record takes the region branch
        for model in (truth, two_state_model()):
            got = generate_dataset(model, n, seed)
            want = generate_dataset_two_branch(model, n, seed)
            for col in ("uc", "u", "a", "ds"):
                assert np.array_equal(getattr(got, col), getattr(want, col)), col

    def test_deterministic_given_seed(self, truth):
        a = generate_dataset(truth, 5_000, seed=7)
        b = generate_dataset(truth, 5_000, seed=7)
        for col in ("uc", "u", "a", "ds"):
            assert np.array_equal(getattr(a, col), getattr(b, col))


class TestFit:
    def test_hand_counted_confounder_prior(self):
        meta = DatasetMeta(seed=0, model_name="hand", n_records=8,
                           n_u=3, n_a=4, n_ds=4)
        ds = Dataset(
            uc=np.zeros(8, dtype=bool),
            u=np.ones(8, dtype=np.int64),
            a=np.zeros(8, dtype=np.int64),
            ds=np.zeros(8, dtype=np.int64),
            meta=meta,
        )
        params = fit(ds, smoothing=1.0)
        assert params.p_u.values[0] == pytest.approx([1 / 11, 9 / 11, 1 / 11])

    def test_smoothing_lower_bounds_every_entry(self, dataset_100k):
        params = fit(dataset_100k, smoothing=1.0)
        for table, counts in (
            (params.p_uc, params.meta.uc_row_counts),
            (params.p_0, params.meta.free_row_counts),
        ):
            for row, total in zip(table.values, counts):
                floor = 1.0 / (total + table.n_categories)
                assert np.all(row >= floor - 1e-12)

    def test_permutation_invariance(self, truth):
        ds = generate_dataset(truth, 5_000, seed=1)
        params_a = fit(ds)
        params_b = fit(permuted(ds, np.random.default_rng(0).permutation(len(ds))))
        assert np.array_equal(params_a.p_u.values, params_b.p_u.values)
        assert np.array_equal(params_a.p_uc.values, params_b.p_uc.values)
        assert np.array_equal(params_a.p_0.values, params_b.p_0.values)

    def test_desk_scale_fidelity(self, truth, dataset_100k):
        learned = assemble_model(truth, fit(dataset_100k))
        assert eval_kl_full_transition(learned, truth) <= 0.01
        assert max_abs_table_error(learned, truth, INT) <= 0.03

    def test_fitted_rows_track_mechanism_not_mixture(self, truth):
        ds = generate_dataset(truth, 800_000, seed=2)
        params = fit(ds)
        row = params.p_uc.row((UP, 1))  # a=UP, zero orientation error
        mechanism = truth.p_uc.row((UP, 1))
        mixture = truth.relative_transition_dist(True, UP, OBS).probs
        assert np.abs(row - mechanism).max() <= 0.02
        assert np.abs(row - mixture).max() > 0.3

    def test_rejects_empty_or_bad_smoothing(self, dataset_100k):
        with pytest.raises(UsageError):
            fit(dataset_100k, smoothing=0.0)


class TestAssembleModel:
    def test_round_trip_with_truth_tables(self, truth):
        rebuilt = truth.with_tables(truth.confounder_prior, truth.p_uc, truth.p_0)
        for mode in (INT, OBS):
            assert np.abs(
                rebuilt.transition_matrix(mode) - truth.transition_matrix(mode)
            ).max() <= 1e-12
        assert eval_kl_full_transition(rebuilt, truth) == pytest.approx(0.0, abs=1e-12)

    def test_assembled_model_is_valid(self, truth, dataset_100k):
        learned = assemble_model(truth, fit(dataset_100k))
        for mode in (INT, OBS):
            T = learned.transition_matrix(mode)
            assert np.allclose(T.sum(axis=2), 1.0, atol=1e-9)
        assert learned.confounded_states == truth.confounded_states
        assert np.array_equal(learned.successor_table, truth.successor_table)

    def test_arity_mismatch_rejected(self, truth):
        from causalplan.learning import LearnedParams, FitMeta
        from causalplan.scm import CategoricalTable

        bad = LearnedParams(
            p_u=CategoricalTable((), [0.5, 0.5]),  # arity 2, model has 3
            p_uc=truth.p_uc,
            p_0=truth.p_0,
            meta=FitMeta(1, 1.0, np.zeros(2), np.zeros(12), np.zeros(4)),
        )
        with pytest.raises(UsageError):
            assemble_model(truth, bad)


class TestFileFormats:
    def test_dataset_round_trip(self, truth, tmp_path):
        ds = generate_dataset(truth, 500, seed=11)
        path = tmp_path / "dataset.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        for col in ("uc", "u", "a", "ds"):
            assert np.array_equal(getattr(ds, col), getattr(loaded, col))
        assert loaded.meta.n_u == 3 and loaded.meta.n_a == 4 and loaded.meta.n_ds == 4

    def test_params_round_trip(self, truth, tmp_path):
        params = fit(generate_dataset(truth, 2_000, seed=4))
        path = tmp_path / "params.txt"
        save_params(params, path)
        loaded = load_params(path)
        assert np.array_equal(loaded.p_u.values, params.p_u.values)
        assert np.array_equal(loaded.p_uc.values, params.p_uc.values)
        assert np.array_equal(loaded.p_0.values, params.p_0.values)
        assert loaded.meta.n_records == params.meta.n_records
        assert loaded.meta.smoothing == params.meta.smoothing
        assert np.array_equal(loaded.meta.uc_row_counts, params.meta.uc_row_counts)

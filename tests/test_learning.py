"""Learning tests: dataset generation, fitting, assembly, fit evaluation."""

import tracemalloc

import numpy as np
import pytest

from causalplan.learning import (
    _BLOCK,
    Dataset,
    DatasetMeta,
    _inverse_cdf,
    assemble_model,
    eval_kl_full_transition,
    fit,
    generate_dataset,
    load_params,
    max_abs_table_error,
    save_dataset_csv,
    save_params,
)
from causalplan.model import TransitionMode, UcPomdpModel
from causalplan.scm import CategoricalTable, UsageError, cdf_index

from helpers import (
    generate_dataset_two_branch,
    load_dataset_csv,
    permuted,
    transition_matrix,
    two_state_inputs,
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
    @pytest.mark.parametrize("n", [1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7,
                                   100_000])
    def test_matches_two_branch_reference(self, truth, seed, n):
        # the reference draws each column in one pass, so the sizes at and
        # around a block edge check the block-wise generators against it;
        # two_state_model has no confounded cells, so no record takes the region branch
        for model in (truth, two_state_model()):
            got = generate_dataset(model, n, seed)
            want = generate_dataset_two_branch(model, n, seed)
            for col in ("uc", "u", "a", "ds"):
                assert np.array_equal(getattr(got, col), getattr(want, col)), col

    def test_shipped_map_columns_are_uint8(self, dataset_100k):
        for col in ("u", "a", "ds"):
            assert getattr(dataset_100k, col).dtype == np.uint8, col

    def test_inverse_cdf_matches_cdf_index_over_300_categories(self):
        rng = np.random.default_rng(5)
        table = CategoricalTable((6,), rng.dirichlet(np.full(300, 0.3), size=6))
        rows = rng.integers(0, 6, size=5_000)
        draws = rng.random(5_000)
        got = _inverse_cdf(table.cdf, rows, draws)
        assert got.dtype == np.uint16
        want = [cdf_index(table.cdf[r], d) for r, d in zip(rows, draws)]
        assert np.array_equal(got, want)

    def test_traced_peak_stays_under_16_bytes_per_record(self, truth):
        # the columns (4 bytes a record) and the whole int64 cells column
        # (8) fit; any whole-length float64 temporary on top would not
        n = 400_000
        tracemalloc.start()
        try:
            generate_dataset(truth, n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n, f"{peak / n:.1f} bytes per record"

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

    def test_joint_count_with_a_16_bit_key_matches_add_at(self):
        n_u, n_a, n_ds, n = 5, 9, 4, 20_000  # 360 cells
        rng = np.random.default_rng(3)
        uc = rng.random(n) < 0.4
        u, a, ds = (rng.integers(0, k, size=n) for k in (n_u, n_a, n_ds))
        meta = DatasetMeta(seed=0, model_name="wide", n_records=n,
                           n_u=n_u, n_a=n_a, n_ds=n_ds)
        params = fit(Dataset(uc, u, a, ds, meta), smoothing=0.5)
        region = np.zeros((n_a, n_u, n_ds), dtype=np.int64)
        free = np.zeros((n_a, n_ds), dtype=np.int64)
        np.add.at(region, (a[uc], u[uc], ds[uc]), 1)
        np.add.at(free, (a[~uc], ds[~uc]), 1)
        u_count = np.zeros(n_u, dtype=np.int64)
        np.add.at(u_count, u, 1)
        assert np.array_equal(params.meta.u_count, u_count)
        assert np.array_equal(params.meta.uc_row_counts, region.sum(axis=2).ravel())
        assert np.array_equal(params.meta.free_row_counts, free.sum(axis=1))
        region_rows = region.reshape(n_a * n_u, n_ds)
        assert np.array_equal(params.p_uc.values, (region_rows + 0.5)
                              / (region_rows.sum(axis=1, keepdims=True) + n_ds * 0.5))
        assert np.array_equal(params.p_0.values, (free + 0.5)
                              / (free.sum(axis=1, keepdims=True) + n_ds * 0.5))

    def test_joint_over_several_blocks_matches_one_bincount(self):
        n_u, n_a, n_ds, n = 3, 4, 4, 3 * _BLOCK + 7
        rng = np.random.default_rng(8)
        uc = rng.random(n) < 0.3
        u, a, ds = (rng.integers(0, k, size=n) for k in (n_u, n_a, n_ds))
        meta = DatasetMeta(seed=0, model_name="blocks", n_records=n,
                           n_u=n_u, n_a=n_a, n_ds=n_ds)
        params = fit(Dataset(uc, u, a, ds, meta), smoothing=1.0)
        key = ((uc * n_a + a) * n_u + u) * n_ds + ds
        joint = np.bincount(key, minlength=2 * n_a * n_u * n_ds).reshape(2, n_a, n_u, n_ds)
        region = joint[1].reshape(n_a * n_u, n_ds)
        free = joint[0].sum(axis=1)
        assert np.array_equal(params.meta.u_count, joint.sum(axis=(0, 1, 3)))
        assert np.array_equal(params.meta.uc_row_counts, region.sum(axis=1))
        assert np.array_equal(params.meta.free_row_counts, free.sum(axis=1))
        assert np.array_equal(params.p_uc.values, (region + 1.0)
                              / (region.sum(axis=1, keepdims=True) + n_ds))
        assert np.array_equal(params.p_0.values, (free + 1.0)
                              / (free.sum(axis=1, keepdims=True) + n_ds))

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
        row = params.p_uc.values[UP * truth.n_confounder + 1]  # zero orientation error
        mechanism = truth.p_uc.values[UP * truth.n_confounder + 1]
        mixture = truth.region_rows(OBS)[UP]
        assert np.abs(row - mechanism).max() <= 0.02
        assert np.abs(row - mixture).max() > 0.3

    def test_rejects_empty_or_bad_smoothing(self, dataset_100k):
        with pytest.raises(UsageError):
            fit(dataset_100k, smoothing=0.0)


class TestDatasetColumns:
    @pytest.mark.parametrize("col, value", [("u", 3), ("a", 4), ("ds", 7), ("u", -1),
                                            ("a", -200)])
    def test_value_outside_arity_is_a_usage_error(self, col, value):
        meta = DatasetMeta(seed=0, model_name="hand", n_records=4,
                           n_u=3, n_a=4, n_ds=4)
        columns = {"u": np.zeros(4, dtype=np.int64), "a": np.zeros(4, dtype=np.int64),
                   "ds": np.zeros(4, dtype=np.int64)}
        columns[col][2] = value
        with pytest.raises(UsageError, match=f"column {col}"):
            Dataset(np.zeros(4, dtype=bool), meta=meta, **columns)

    def test_column_of_floats_is_a_usage_error(self):
        meta = DatasetMeta(seed=0, model_name="hand", n_records=2,
                           n_u=3, n_a=4, n_ds=4)
        with pytest.raises(UsageError, match="not integer"):
            Dataset(np.zeros(2, dtype=bool), np.zeros(2), np.zeros(2, dtype=np.int64),
                    np.zeros(2, dtype=np.int64), meta)

    def test_narrow_column_is_not_copied(self, dataset_100k):
        rebuilt = Dataset(dataset_100k.uc, dataset_100k.u, dataset_100k.a,
                          dataset_100k.ds, dataset_100k.meta)
        for col in ("uc", "u", "a", "ds"):
            assert getattr(rebuilt, col) is getattr(dataset_100k, col), col


class TestAssembleModel:
    def test_round_trip_with_truth_tables(self, truth):
        rebuilt = truth.with_tables(truth.confounder_prior, truth.p_uc, truth.p_0)
        for mode in (INT, OBS):
            assert np.abs(
                transition_matrix(rebuilt, mode) - transition_matrix(truth, mode)
            ).max() <= 1e-12
        assert eval_kl_full_transition(rebuilt, truth) == pytest.approx(0.0, abs=1e-12)

    def test_assembled_model_is_valid(self, truth, dataset_100k):
        learned = assemble_model(truth, fit(dataset_100k))
        for mode in (INT, OBS):
            T = transition_matrix(learned, mode)
            assert np.allclose(T.sum(axis=2), 1.0, atol=1e-9)
        assert learned.confounded_states == truth.confounded_states
        assert np.array_equal(learned.successor_table, truth.successor_table)

    def test_kl_rejects_models_with_other_successors(self):
        # the rows are over successor slots, which only match between
        # models with one successor table
        model = two_state_model()
        other = UcPomdpModel(**{**two_state_inputs(),
                                "successor_table": np.array([[1, 0], [0, 1]])})
        assert eval_kl_full_transition(model, model) == 0.0
        with pytest.raises(UsageError, match="successors"):
            eval_kl_full_transition(other, model)

    @pytest.mark.parametrize("mode", [INT, OBS])
    def test_table_error_rejects_models_of_other_shapes(self, truth, mode):
        # (4, 4) against (2, 2) rows, and (1, 2) rows that would broadcast
        # against (2, 2) ones
        two_state = two_state_model()
        rows = [[0.7, 0.3]]
        one_action = UcPomdpModel(**{
            **two_state_inputs(), "actions": ("hold",),
            "reactive_policy": CategoricalTable((1,), [[1.0]]),
            "p_uc": CategoricalTable((1, 1), rows), "p_0": CategoricalTable((1,), rows),
            "rewards": two_state_inputs()["rewards"][:1]})
        assert max_abs_table_error(two_state, two_state, mode) == 0.0
        for learned, model in ((two_state, truth), (one_action, two_state)):
            with pytest.raises(UsageError, match="shape"):
                max_abs_table_error(learned, model, mode)

    @pytest.mark.parametrize("field, table", [
        ("p_u", CategoricalTable((), [0.5, 0.5])),               # arity 2, model has 3
        ("p_uc", CategoricalTable((4, 2), np.full((8, 4), 0.25))),  # parents (A, 2)
        ("p_0", CategoricalTable((3,), np.full((3, 4), 0.25))),     # parents (3,)
        ("p_0", CategoricalTable((4,), np.full((4, 3), 1 / 3))),    # outcome arity 3
    ])
    def test_arity_mismatch_rejected(self, truth, field, table):
        from causalplan.learning import LearnedParams, FitMeta

        tables = {"p_u": truth.confounder_prior, "p_uc": truth.p_uc, "p_0": truth.p_0}
        bad = LearnedParams(**{**tables, field: table},
                            meta=FitMeta(1, 1.0, np.zeros(2), np.zeros(12), np.zeros(4)))
        with pytest.raises(UsageError, match="learned tables do not match"):
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

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse.data import (
    DataError,
    load_dataset,
    load_modality_table,
    make_fold_plan,
)

from conftest import write_csv


def _modality_csv(tmp_path, name, sample_ids, n_features=3, offset=0.0):
    header = ["sample_id"] + [f"{name}_f{j}" for j in range(n_features)]
    rows = [[sid] + [offset + i + j for j in range(n_features)] for i, sid in enumerate(sample_ids)]
    return write_csv(tmp_path / f"{name}.csv", header, rows)


def _labels_csv(tmp_path, pairs):
    return write_csv(tmp_path / "labels.csv", ["sample_id", "class"], pairs)


class TestLoadDataset:
    def test_intersection_semantics(self, tmp_path):
        p1 = _modality_csv(tmp_path, "m1", ["A", "B", "C"])
        p2 = _modality_csv(tmp_path, "m2", ["A", "B", "C", "D"])
        p3 = _modality_csv(tmp_path, "m3", ["A", "B", "C"])
        labels = _labels_csv(tmp_path, [["A", "x"], ["B", "y"], ["C", "x"], ["D", "y"]])
        ds = load_dataset([("m1", p1), ("m2", p2), ("m3", p3)], labels)
        assert ds.sample_ids == ["A", "B", "C"]
        assert all(t.sample_ids == ["A", "B", "C"] for t in ds.modalities)

    def test_single_class_errors(self, tmp_path):
        p1 = _modality_csv(tmp_path, "m1", ["A", "B"])
        labels = _labels_csv(tmp_path, [["A", "x"], ["B", "x"]])
        with pytest.raises(DataError, match="fewer than 2 classes"):
            load_dataset([("m1", p1)], labels)

    def test_cohort_scale_load(self, tmp_path):
        # 9 modalities sharing 106 samples across 4 classes
        common = [f"P{i:03d}" for i in range(106)]
        extra = [f"X{i}" for i in range(16)]
        paths = []
        for m in range(9):
            ids = common + (extra if m % 2 == 0 else [])
            paths.append((f"mod{m}", _modality_csv(tmp_path, f"mod{m}", ids, n_features=4)))
        pairs = [[sid, f"K{i % 4}"] for i, sid in enumerate(common)]
        labels = _labels_csv(tmp_path, pairs)
        ds = load_dataset(paths, labels)
        assert len(ds.modalities) == 9
        assert ds.n_samples == 106
        assert ds.n_classes == 4

    def test_missing_tokens_become_nan(self, tmp_path):
        path = write_csv(
            tmp_path / "m.csv",
            ["sample_id", "a", "b"],
            [["A", "", "1.5"], ["B", "NA", "null"], ["C", "2", "NaN"]],
        )
        table = load_modality_table("m", path)
        assert np.isnan(table.values[0, 0])
        assert np.isnan(table.values[1, 0]) and np.isnan(table.values[1, 1])
        assert table.values[0, 1] == 1.5

    def test_unparseable_cell_errors(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["sample_id", "a"], [["A", "oops"]])
        message = f"{path}:A:a: unparseable cell 'oops'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_modality_table("m", path)

    def test_unparseable_cell_is_the_first_bad_one(self, tmp_path):
        # a row is parsed at once; the error still names its first bad cell,
        # not a missing token or a number before it
        path = write_csv(
            tmp_path / "m.csv", ["sample_id", "a", "b", "c", "d"],
            [["A", "1", "2", "3", "4"], ["B", " NA ", "1.5", " oops ", "bad"]],
        )
        message = f"{path}:B:c: unparseable cell 'oops'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_modality_table("m", path)

    def test_duplicate_sample_id_errors(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["sample_id", "a"], [["A", "1"], ["A", "2"]])
        with pytest.raises(DataError, match="duplicate sample id"):
            load_modality_table("m", path)

    def test_duplicate_feature_errors(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["sample_id", "a", "a"], [["A", "1", "2"]])
        with pytest.raises(DataError, match="duplicate feature"):
            load_modality_table("m", path)

    def test_empty_intersection_errors(self, tmp_path):
        p1 = _modality_csv(tmp_path, "m1", ["A"])
        p2 = _modality_csv(tmp_path, "m2", ["B"])
        labels = _labels_csv(tmp_path, [["A", "x"], ["B", "y"]])
        with pytest.raises(DataError, match="empty sample-id intersection"):
            load_dataset([("m1", p1), ("m2", p2)], labels)

    def test_class_order_is_first_appearance(self, tmp_path):
        p1 = _modality_csv(tmp_path, "m1", ["A", "B", "C"])
        labels = _labels_csv(tmp_path, [["A", "zeta"], ["B", "alpha"], ["C", "zeta"]])
        ds = load_dataset([("m1", p1)], labels)
        assert ds.class_names == ["zeta", "alpha"]
        assert ds.labels.tolist() == [0, 1, 0]

    def test_alignment_is_idempotent(self, tmp_path):
        p1 = _modality_csv(tmp_path, "m1", ["A", "B", "C"])
        p2 = _modality_csv(tmp_path, "m2", ["A", "B", "C"])
        labels = _labels_csv(tmp_path, [["A", "x"], ["B", "y"], ["C", "x"]])
        ds = load_dataset([("m1", p1), ("m2", p2)], labels)
        realigned = ds.subset_modalities(ds.modality_names)
        assert realigned.sample_ids == ds.sample_ids
        for a, b in zip(realigned.modalities, ds.modalities):
            np.testing.assert_array_equal(a.values, b.values)

    def test_empty_rows_skipped_and_header_only_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("sample_id,a,b\n\nA,1,2\n\n\nB,3,NA\n", encoding="utf-8")
        table = load_modality_table("m", path)
        assert table.sample_ids == ["A", "B"]
        np.testing.assert_array_equal(table.values, [[1.0, 2.0], [3.0, np.nan]])
        table.values[0, 0] = 5.0  # the loaded values are an ordinary writable array
        path.write_text("sample_id,a,b\n", encoding="utf-8")
        assert load_modality_table("m", path).values.shape == (0, 2)

    def test_rows_are_parsed_as_they_are_read(self, tmp_path):
        # holding every row's strings would take several times the values
        rows = [[f"S{i}"] + [f"{v:.6f}" for v in np.linspace(i, i + 1, 3000)] for i in range(40)]
        path = write_csv(tmp_path / "m.csv", ["sample_id"] + [f"f{j}" for j in range(3000)], rows)
        tracemalloc.start()
        try:
            table = load_modality_table("m", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.values.shape == (40, 3000)
        assert peak < 3 * table.values.nbytes


class TestFoldPlan:
    def test_perfect_stratification(self):
        labels = np.repeat(np.arange(4), 5)
        plan = make_fold_plan(labels, repeats=1, folds=5, seed=3)
        for f in range(5):
            test = plan.test_indices(0, f)
            assert len(test) == 4
            assert sorted(labels[test].tolist()) == [0, 1, 2, 3]

    def test_determinism(self):
        labels = np.repeat(np.arange(3), 7)
        a = make_fold_plan(labels, repeats=3, folds=3, seed=9)
        b = make_fold_plan(labels, repeats=3, folds=3, seed=9)
        for r in range(3):
            for f in range(3):
                np.testing.assert_array_equal(a.test_indices(r, f), b.test_indices(r, f))

    def test_small_class_errors(self):
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(DataError, match="< 5 folds"):
            make_fold_plan(labels, repeats=1, folds=5, seed=0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 10).flatmap(
            lambda folds: st.tuples(
                st.just(folds),
                st.lists(st.integers(folds, 40), min_size=2, max_size=6),
                st.integers(1, 3),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    def test_fold_plan_property(self, case):
        # in every repeat: the test folds partition the samples, each fold's
        # train rows are the rest, and each class's count differs by at most
        # one between folds
        folds, counts, repeats, seed = case
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        plan = make_fold_plan(labels, repeats=repeats, folds=folds, seed=seed)
        n = len(labels)
        for r in range(repeats):
            tests = [plan.test_indices(r, f) for f in range(folds)]
            assert sorted(np.concatenate(tests).tolist()) == list(range(n))
            for f, test in enumerate(tests):
                train = plan.train_indices(r, f, n)
                assert set(train.tolist()).isdisjoint(test.tolist())
                assert len(train) + len(test) == n
            per_fold = np.array([np.bincount(labels[t], minlength=len(counts)) for t in tests])
            assert (per_fold.max(axis=0) - per_fold.min(axis=0) <= 1).all()

    def test_train_test_disjoint(self):
        labels = np.repeat(np.arange(2), 10)
        plan = make_fold_plan(labels, repeats=1, folds=4, seed=1)
        train = plan.train_indices(0, 2, len(labels))
        test = plan.test_indices(0, 2)
        assert set(train) & set(test) == set()
        assert len(train) + len(test) == len(labels)

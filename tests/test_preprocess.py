import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse import preprocess
from latefuse.integrators import IntegratorSpec, fit_integrator
from latefuse.learners import GbmParams, fit_gbm
from latefuse.preprocess import (
    PreprocessConfig,
    PreprocessError,
    filter_sparse,
    fit_preprocessor,
    impute_knn,
    _smote_plan,
    _train_scale,
    normalize,
    prepare_fold,
    prune_correlated,
    smote_balance_tables,
    variance_topk,
)

from conftest import make_dataset, make_table

CFG = PreprocessConfig()


class TestFilterSparse:
    def test_majority_missing_dropped(self):
        col = np.array([np.nan] * 6 + [1.0] * 4)
        table = make_table(values=np.column_stack([col, np.arange(10.0) + 1]))
        out = filter_sparse(table, CFG)
        assert out.feature_names == [table.feature_names[1]]

    def test_zero_fraction_boundary_is_strict(self):
        # 9/10 observed zeros == 0.9, not strictly above the threshold
        col = np.array([0.0] * 9 + [1.0])
        table = make_table(values=np.column_stack([col, np.arange(10.0) + 1]))
        out = filter_sparse(table, CFG)
        assert out.n_features == 2

    def test_dense_nonzero_kept(self):
        table = make_table(values=np.arange(20.0).reshape(10, 2) + 1)
        assert filter_sparse(table, CFG).n_features == 2

    def test_all_dropped_errors(self):
        table = make_table(values=np.full((10, 2), np.nan))
        with pytest.raises(PreprocessError, match="empty modality after sparsity filter"):
            filter_sparse(table, CFG)


class TestPruneCorrelated:
    def test_identical_columns_drop_second(self):
        x = np.arange(10.0)
        table = make_table(values=np.column_stack([x, x]))
        out = prune_correlated(table, CFG)
        assert out.feature_names == [table.feature_names[0]]

    def test_anticorrelated_drop_second(self):
        x = np.arange(10.0)
        table = make_table(values=np.column_stack([x, -x]))
        out = prune_correlated(table, CFG)
        assert out.feature_names == [table.feature_names[0]]

    def test_three_mutually_correlated_keep_first(self, rng):
        # greedy trace: b dropped against a, c dropped against a
        x = rng.normal(size=30)
        table = make_table(
            values=np.column_stack([x, x + 0.01 * rng.normal(size=30), x * 1.001])
        )
        out = prune_correlated(table, CFG)
        assert out.feature_names == [table.feature_names[0]]

    def test_pairwise_complete_with_missing(self, rng):
        x = rng.normal(size=40)
        y = x.copy()
        y[:5] = np.nan  # correlation computed on the complete pairs
        z = rng.normal(size=40)
        table = make_table(values=np.column_stack([x, y, z]))
        out = prune_correlated(table, CFG)
        assert out.feature_names == [table.feature_names[0], table.feature_names[2]]

    def test_uncorrelated_untouched(self, rng):
        table = make_table(values=rng.normal(size=(50, 4)))
        assert prune_correlated(table, CFG).n_features == 4


def _exact_column(values):
    """A column's cells as integers over one power-of-two denominator, which
    every float has and r does not depend on; None at a missing cell."""
    ratios = [None if np.isnan(v) else Fraction(v).as_integer_ratio() for v in values]
    scale = max((q for _, q in filter(None, ratios)), default=1)
    return [None if pq is None else pq[0] * (scale // pq[1]) for pq in ratios]


def exact_r_squared(x, y):
    """Pearson r^2 of x and y as a Fraction: cov^2 / (var_x * var_y), and 0
    below 3 cells or at a variance of 0."""
    k = len(x)
    if k < 3:
        return Fraction(0)
    sx, sy = sum(x), sum(y)
    cov = k * sum(u * v for u, v in zip(x, y)) - sx * sy
    var_x = k * sum(u * u for u in x) - sx * sx
    var_y = k * sum(v * v for v in y) - sy * sy
    return Fraction(cov * cov, var_x * var_y) if var_x and var_y else Fraction(0)


def reference_prune_correlated(table, cfg):
    """The greedy pass over exact pairwise-complete |r|, one pair at a time,
    kept as the oracle."""
    cols = [_exact_column(table.values[:, j]) for j in range(table.n_features)]
    t2 = Fraction(cfg.correlation_threshold) ** 2

    def high(i, j):
        shared = [(u, v) for u, v in zip(cols[i], cols[j]) if u is not None and v is not None]
        return exact_r_squared([u for u, _ in shared], [v for _, v in shared]) > t2

    keep = []
    for j in range(table.n_features):
        if not any(high(i, j) for i in keep):
            keep.append(j)
    return table.take_columns(np.array(keep))


COLUMN_KINDS = (
    "normal", "scaled", "rounded", "duplicate", "negated", "offset", "constant", "near_constant",
)


def _correlated(base, rho, rng):
    """A column whose r with base is rho up to rounding: base's centred
    direction plus noise made orthogonal to it."""
    b = base - base.mean()
    e = rng.normal(size=len(base))
    e -= e.mean()
    norm = np.sqrt(b @ b)
    if norm == 0.0 or len(base) < 3:
        return base.copy()
    b /= norm
    e -= (e @ b) * b
    return rho * b + np.sqrt(1.0 - rho**2) * e / np.sqrt(e @ e)


def _column(kind, cols, n, threshold, rng):
    x = rng.normal(size=n)
    if kind == "offset":
        return x + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 8)
    if kind == "scaled":
        return x * 10.0 ** rng.uniform(-6, 6)
    if kind == "rounded":
        return np.round(x * rng.integers(1, 4))  # few values, many ties
    if kind in ("duplicate", "negated") and cols:
        base = cols[rng.integers(len(cols))]
        # an exact multiple, |r| = threshold up to rounding, or |r| near it
        rho = rng.choice([1.0, threshold, threshold * rng.uniform(0.98, 1.0)])
        if rho == 1.0:
            out = base * rng.choice([0.5, 1.0, 2.0])
        else:
            out = _correlated(base, rho, rng) * rng.uniform(0.5, 2.0)
        out = -out if kind == "negated" else out
        return out + rng.choice([0.0, 1.0, 1e6])
    if kind == "constant":
        return np.full(n, rng.choice([0.0, 0.1, 1e6]))
    if kind == "near_constant":
        return rng.choice([0.0, 5.0, 1e6]) + 10.0 ** rng.uniform(-15, -8) * x
    return x


def _prune_table(n, kinds, threshold, rng):
    cols: list = []
    for kind in kinds:
        cols.append(_column(kind, cols, n, threshold, rng))
    return make_table(values=np.column_stack(cols))


def _near_threshold_pair(rng, offset, n_features, at):
    """A table whose columns 2 and `at` have an exact |r| that the returned
    threshold is rounded from."""
    values = rng.normal(size=(40, n_features))
    values[:, at] = values[:, 2] + 0.5 * rng.normal(size=40)
    values += offset
    r2 = exact_r_squared(_exact_column(values[:, 2]), _exact_column(values[:, at]))
    return values, float(r2) ** 0.5


def _fixed_prune_tables():
    """Tables that once checked which path pruning took, each with its
    threshold."""
    rng = np.random.default_rng(20)
    block = preprocess._PRUNE_BLOCK
    dense = rng.normal(size=(60, 30))
    dense[:, 7] = 2.0 * dense[:, 2] + 0.01 * rng.normal(size=60)
    dense[:, 9] = 3.0 - dense[:, 2] + 0.01 * rng.normal(size=60)
    dense[:, 11] = 2.0 * dense[:, 3]  # |r| = 1 exactly, which threshold 1 keeps
    missing = rng.normal(size=(40, 3))
    missing[4, 0] = np.nan
    cases = {"dense-0.9": (dense, 0.9), "dense-1.0": (dense, 1.0), "missing-cell": (missing, 0.9)}
    # r = 1/2 exactly: cov = 1, var_x = var_y = 2 in units of 1/3
    cases["at-threshold-0.5"] = (np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]), 0.5)
    for offset in (0.0, 1e4):
        cases[f"near-threshold-{offset:g}"] = _near_threshold_pair(rng, offset, 3, 1)
        cases[f"near-threshold-later-block-{offset:g}"] = _near_threshold_pair(
            rng, offset, block + 3, block + 1
        )
    for level, spread in [(5.0, 1e-12), (0.0, 0.0), (0.1, 0.0)]:
        values = rng.normal(size=(40, 3))
        values[:, 1] = level + spread * rng.normal(size=40)
        cases[f"near-constant-{level:g}-{spread:g}"] = (values, 0.9)
    return cases


FIXED_PRUNE_TABLES = _fixed_prune_tables()


class TestPruneCorrelatedExact:
    """Pruning keeps exactly the columns of the greedy pass over exact
    pairwise-complete |r| > threshold, whichever block or table it is."""

    @settings(max_examples=250, deadline=None)
    @given(
        block=st.one_of(st.none(), st.integers(1, 7)),
        n=st.integers(2, 80),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=2, max_size=32),
        threshold=st.sampled_from([0.5, 0.9, 0.95, 1.0]),
        missing=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_keeps_the_exact_columns(self, block, n, kinds, threshold, missing, seed):
        # blocks of 1-7 rows of |r| make the greedy pass cross block edges
        rng = np.random.default_rng(seed)
        table = _prune_table(n, kinds, threshold, rng)
        if missing:
            table.values[rng.uniform(size=table.values.shape) < 0.05] = np.nan
        cfg = PreprocessConfig(correlation_threshold=threshold)
        with pytest.MonkeyPatch.context() as monkeypatch:
            if block is not None:
                monkeypatch.setattr(preprocess, "_PRUNE_BLOCK", block)
            out = prune_correlated(table, cfg)
        assert out.feature_names == reference_prune_correlated(table, cfg).feature_names

    @pytest.mark.parametrize("case", sorted(FIXED_PRUNE_TABLES))
    def test_fixed_tables_keep_the_exact_columns(self, case, monkeypatch):
        # only a pair at the threshold is left to the exact test
        exact, exceeds = [], preprocess._exceeds_exactly

        def recorded(x, y, threshold):
            exact.append(len(x))
            return exceeds(x, y, threshold)

        monkeypatch.setattr(preprocess, "_exceeds_exactly", recorded)
        values, threshold = FIXED_PRUNE_TABLES[case]
        table = make_table(values=values)
        cfg = PreprocessConfig(correlation_threshold=threshold)
        assert prune_correlated(table, cfg).feature_names == (
            reference_prune_correlated(table, cfg).feature_names
        )
        at_threshold = case.startswith(("near-threshold", "at-threshold"))
        assert exact == ([len(values)] if at_threshold else [])

    def test_table_wider_than_a_block(self, rng):
        # copies and negated copies of columns in the first block, placed on
        # both sides of later block edges
        block = preprocess._PRUNE_BLOCK
        values = rng.normal(size=(50, 3 * block + 40))
        for src, dst, sign in [(3, block - 1, 1.0), (3, block, -1.0), (5, 2 * block - 1, 2.0),
                               (block + 2, 2 * block, -0.5), (7, 3 * block + 1, 1.0)]:
            values[:, dst] = sign * values[:, src] + 0.01 * rng.normal(size=50)
        values[:, 2 * block + 1] = values[:, 2 * block] + 0.01 * rng.normal(size=50)
        table = make_table(values=values)
        dropped = {block - 1, block, 2 * block - 1, 2 * block, 2 * block + 1, 3 * block + 1}
        assert prune_correlated(table, CFG).feature_names == [
            name for j, name in enumerate(table.feature_names) if j not in dropped
        ]

    def test_independent_offset_columns_are_kept(self):
        # raw sums cancel at this offset: Sxy - Sx * Sy / n once put |r|
        # above 0.9 for independent columns
        for seed in range(200):
            rng = np.random.default_rng(seed)
            values = 1e7 + 0.3 * rng.normal(size=(60, 2))
            values[rng.integers(60), rng.integers(2)] = np.nan
            assert prune_correlated(make_table(values=values), CFG).n_features == 2, seed

    def test_columns_with_few_observed_cells_are_kept_without_warnings(self, rng):
        x, y = rng.normal(size=12), rng.normal(size=12)
        values = np.column_stack([x, x, x, x, y, 2.0 * x, y])
        values[2:, 1] = np.nan  # 2 observed cells
        values[1:, 2] = np.nan  # 1
        values[:, 3] = np.nan  # 0
        values[6:, 4] = np.nan  # 6 observed cells, 2 of them shared with column 6
        values[:4, 6] = np.nan
        table = make_table(values=values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = prune_correlated(table, CFG)
        # column 5 is 2x column 0; columns 1-4 and 6 have r = 0 with it
        assert out.feature_names == [table.feature_names[i] for i in (0, 1, 2, 3, 4, 6)]
        assert out.feature_names == reference_prune_correlated(table, CFG).feature_names


class TestVarianceTopK:
    def test_cap_applies_over_trigger(self, rng):
        table = make_table(values=rng.normal(size=(10, 5100)) * rng.uniform(0.1, 3.0, 5100))
        out = variance_topk(table, n_samples=10, cfg=PreprocessConfig(variance_cap=500))
        assert out.n_features == 500

    def test_under_trigger_unchanged(self, rng):
        table = make_table(values=rng.normal(size=(100, 400)))
        out = variance_topk(table, n_samples=100, cfg=CFG)
        assert out.n_features == 400

    def test_keeps_highest_variance(self):
        cols = [
            np.array([0.0, 6.0, 0.0, 6.0]),  # var 9
            np.array([0.0, 2.0, 0.0, 2.0]),  # var 1
            np.array([0.0, 4.0, 0.0, 4.0]),  # var 4
        ]
        table = make_table(values=np.column_stack(cols))
        cfg = PreprocessConfig(variance_cap=2, dimensionality_ratio_trigger=0.1)
        out = variance_topk(table, n_samples=4, cfg=cfg)
        assert out.feature_names == [table.feature_names[0], table.feature_names[2]]


def reference_impute_knn(train, apply_to, cfg):
    """Per-cell donor loop that impute_knn replaced, kept as the exact oracle."""
    tv = train.values
    train_observed = ~np.isnan(tv)
    out = apply_to.values.copy()
    scale = _train_scale(tv)
    t_scaled = np.where(train_observed, tv / scale, 0.0)
    train_mean = np.nanmean(tv, axis=0)
    for i in np.flatnonzero(np.isnan(out).any(axis=1)):
        row = out[i]
        row_observed = ~np.isnan(row)
        r_scaled = np.where(row_observed, row / scale, 0.0)
        shared = train_observed & row_observed
        n_shared = shared.sum(axis=1)
        diff = (t_scaled - r_scaled) * shared
        dist = np.sqrt((diff * diff).sum(axis=1))
        dist[n_shared == 0] = np.inf
        order = np.argsort(dist, kind="stable")
        for j in np.flatnonzero(~row_observed):
            donors = order[train_observed[order, j] & np.isfinite(dist[order])]
            if len(donors) == 0:
                out[i, j] = train_mean[j]
            else:
                out[i, j] = tv[donors[: cfg.knn_k], j].mean()
    return out


def with_missing(values, rate, rng):
    values = values.copy()
    values[rng.uniform(size=values.shape) < rate] = np.nan
    return values


def assert_matches_reference(train, apply_to, cfg):
    out = impute_knn(train, apply_to, cfg)
    np.testing.assert_array_equal(out.values, reference_impute_knn(train, apply_to, cfg))
    assert not np.isnan(out.values).any()


def _gram_path_table(n, n_features, rate, stress, rng):
    """Rows built to stress the Gram screen: columns at scales 10^-3..10^3
    and, each with probability `stress`, a trap column: shifted up to 10^9
    spreads from zero (so A + B - 2 r.t^T cancels), constant, few-valued
    (tied distances), signed zeros or mostly missing; plus duplicated rows
    and rows one ulp away from another."""
    traps = ["offset", "constant", "rounded", "zeros", "sparse"]
    cols = []
    for _ in range(n_features):
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        kind = rng.choice(traps) if rng.uniform() < stress else "normal"
        if kind == "offset":
            x += np.abs(x).max() * 10.0 ** rng.uniform(0, 9)
        elif kind == "constant":
            x[:] = rng.choice([0.0, -0.0, 3.0])
        elif kind == "rounded":
            x = np.round(x / np.abs(x).max() * 2)
        elif kind == "zeros":
            x = np.where(rng.uniform(size=n) < 0.5, 0.0, -0.0)
        elif kind == "sparse":
            x[rng.uniform(size=n) < 0.85] = np.nan
        cols.append(x)
    tv = with_missing(np.column_stack(cols), rate, rng)
    dup = rng.uniform(size=n) < 0.2 * stress
    tv[dup] = tv[rng.integers(n, size=int(dup.sum()))]
    near = rng.uniform(size=n) < 0.2 * stress
    tv[near] = np.nextafter(tv[rng.integers(n, size=int(near.sum()))], np.inf)
    return tv


class TestImputeKnn:
    def test_mean_of_donors(self):
        # six training rows identical in observed coordinates; donor mean is 3.0
        train = make_table(
            values=np.array(
                [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0], [0.0, 5.0], [9.0, 9.0]]
            )
        )
        target = make_table(values=np.array([[0.0, np.nan]]))
        out = impute_knn(train, target, CFG)
        assert out.values[0, 1] == pytest.approx(3.0)

    def test_identity_when_complete(self, rng):
        train = make_table(values=rng.normal(size=(8, 3)))
        out = impute_knn(train, train, CFG)
        np.testing.assert_array_equal(out.values, train.values)

    def test_matches_bruteforce_oracle(self, rng):
        # brute-force oracle: all-pairs scaled euclidean distances by hand
        tv = rng.normal(size=(6, 4))
        train = make_table(values=tv)
        row = rng.normal(size=4)
        row[2] = np.nan
        target = make_table(values=row.reshape(1, 4))
        cfg = PreprocessConfig(knn_k=3)
        out = impute_knn(train, target, cfg)

        sd = tv.std(axis=0)
        dist = np.sqrt((((tv - row) / sd)[:, [0, 1, 3]] ** 2).sum(axis=1))
        nearest = np.argsort(dist, kind="stable")[:3]
        assert out.values[0, 2] == pytest.approx(tv[nearest, 2].mean())

    def test_exact_with_duplicate_training_rows(self, rng):
        base = rng.normal(size=(4, 5))
        tv = np.vstack([base, base, base])
        tv[:, 0] = rng.normal(size=12)  # rows i, i+4, i+8 tie on every other column
        apply_to = with_missing(rng.normal(size=(10, 5)), 0.3, rng)
        apply_to[:, 0] = np.nan  # so the k-th donor of column 0 falls inside a tie
        assert_matches_reference(make_table(values=tv), make_table(values=apply_to), CFG)

    def test_exact_when_donors_are_few_or_far(self, rng):
        tv = rng.normal(size=(40, 4))
        tv[30:, :2] += 50.0  # rows 30-39 are the farthest candidates
        tv[:30, 2] = np.nan  # so every donor of column 2 lies beyond the nearest 20
        tv[2:, 3] = np.nan  # two donors for column 3, knn_k is 5
        apply_to = rng.normal(size=(6, 4))
        apply_to[:, 2:] = np.nan
        apply_to[::2, 0] = np.nan
        assert_matches_reference(make_table(values=tv), make_table(values=apply_to), CFG)

    def test_exact_train_mean_fallback(self, rng):
        tv = np.full((12, 4), np.nan)
        tv[:4, :2] = rng.normal(size=(4, 2))  # rows 0-3 observe only columns 0-1
        tv[4:, 2:] = rng.normal(size=(8, 2))  # rows 4-11 observe only columns 2-3
        apply_to = np.array([[0.5, 0.1, np.nan, np.nan], [np.nan, -1.0, 2.0, np.nan]])
        train = make_table(values=tv)
        out = impute_knn(train, make_table(values=apply_to), CFG)
        # the first row shares no observed feature with rows 4-11, the only
        # donors for columns 2 and 3, so both fall back to the training mean
        np.testing.assert_array_equal(out.values[0, 2:], np.nanmean(tv, axis=0)[2:])
        assert_matches_reference(train, make_table(values=apply_to), CFG)

    def test_exact_when_applied_to_train(self, rng):
        train = make_table(values=with_missing(rng.normal(size=(30, 8)), 0.2, rng))
        assert_matches_reference(train, train, CFG)

    def test_exact_on_random_table(self, rng):
        train = make_table(values=with_missing(rng.normal(size=(60, 40)), 0.2, rng))
        apply_to = make_table(values=with_missing(rng.normal(size=(60, 40)), 0.2, rng))
        assert_matches_reference(train, apply_to, CFG)
        assert_matches_reference(train, train, CFG)

    @settings(max_examples=60, deadline=None)
    @given(
        n_train=st.integers(2, 30),
        n_apply=st.integers(1, 12),
        n_features=st.integers(1, 12),
        knn_k=st.integers(1, 12),
        rate=st.floats(0.0, 0.6),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_property(
        self, n_train, n_apply, n_features, knn_k, rate, ties, seed
    ):
        rng = np.random.default_rng(seed)
        n_train = max(n_train, knn_k + 1)
        tv = rng.normal(size=(n_train, n_features)) * 10.0 ** rng.uniform(-3, 3, n_features)
        if ties:
            tv = np.round(tv, 0)  # repeated values and tied distances
        tv = with_missing(tv, rate, rng)
        empty = np.isnan(tv).all(axis=0)
        tv[0, empty] = 1.0  # every training column keeps an observed cell
        apply_to = with_missing(rng.normal(size=(n_apply, n_features)), rate, rng)
        cfg = PreprocessConfig(knn_k=knn_k)
        assert_matches_reference(make_table(values=tv), make_table(values=apply_to), cfg)

    def test_gram_path_matches_reference_property(self, monkeypatch):
        """More training rows than 4 * knn_k, so the first pass screens each
        row's nearest 4 * knn_k candidates; over the run, some rows are
        settled by it and some widen to every candidate in the second."""
        counts = {"widened": 0, "rows": 0, "bounds-ordered": 0, "exact-ordered": 0}
        screen, by_bounds = preprocess._impute_screened, preprocess._ordered_by_bounds

        def counted(out, rows, donors, k, m):
            left = screen(out, rows, donors, k, m)
            if m < len(donors.values):
                counts["widened"] += len(left)
            return left

        def counted_order(*args):
            cands, ordered = by_bounds(*args)
            counts["bounds-ordered"] += int(ordered.sum())
            counts["exact-ordered"] += int((~ordered).sum())
            return cands, ordered

        monkeypatch.setattr(preprocess, "_impute_screened", counted)
        monkeypatch.setattr(preprocess, "_ordered_by_bounds", counted_order)

        @settings(max_examples=80, deadline=None)
        @given(
            knn_k=st.one_of(st.integers(1, 7), st.integers(8, 12)),
            extra=st.integers(1, 80),
            n_apply=st.integers(1, 70),
            n_features=st.integers(1, 24),
            rate=st.floats(0.0, 0.5),
            stress=st.floats(0.0, 1.0),
            copies=st.floats(0.0, 1.0),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(knn_k, extra, n_apply, n_features, rate, stress, copies, seed):
            rng = np.random.default_rng(seed)
            n_train = 4 * knn_k + extra
            values = _gram_path_table(n_train + n_apply, n_features, rate, stress, rng)
            tv, apply_to = values[:n_train], values[n_train:]
            tv[0, np.isnan(tv).all(axis=0)] = 1.0  # every column keeps a training cell
            # some apply rows copy a training row (distance 0)
            copied = rng.uniform(size=n_apply) < copies
            apply_to[copied] = tv[rng.integers(n_train, size=int(copied.sum()))]
            apply_to = with_missing(apply_to, 0.1, rng)
            train, target = make_table(values=tv), make_table(values=apply_to)
            cfg = PreprocessConfig(knn_k=knn_k)
            counts["rows"] += int(np.isnan(apply_to).any(axis=1).sum())
            out = impute_knn(train, target, cfg)
            assert out.values.tobytes() == reference_impute_knn(train, target, cfg).tobytes()

        check()
        assert 0 < counts["widened"] < counts["rows"]
        # the screen's candidates come in both orders: from the bounds alone,
        # and from exact distances where the bounds overlap
        assert counts["bounds-ordered"] > 0 and counts["exact-ordered"] > 0

    @pytest.mark.parametrize("distinct, copies", [(14, 3), (1, 42)])
    def test_gram_path_settles_ties_at_the_last_candidate(
        self, rng, monkeypatch, distinct, copies
    ):
        # every training row comes `copies` times, so the 20th nearest
        # (4 * knn_k) sits inside a tie; the screen keeps the whole tie (at
        # 42 copies, every row, in several slices) and the first pass
        # settles every row
        calls, screen = [], preprocess._impute_screened

        def recorded(out, rows, donors, k, m):
            left = screen(out, rows, donors, k, m)
            calls.append((m, len(left)))
            return left

        monkeypatch.setattr(preprocess, "_impute_screened", recorded)
        tv = np.repeat(rng.normal(size=(distinct, 6)), copies, axis=0)
        apply_to = rng.normal(size=(40, 6))
        apply_to[:, :3] = with_missing(apply_to[:, :3], 0.5, rng)
        apply_to[:, 0] = np.nan  # columns 3-5 stay observed, so every row has candidates
        train, target = make_table(values=tv), make_table(values=apply_to)
        out = impute_knn(train, target, CFG)
        assert calls == [(20, 0), (20, 0)]
        assert out.values.tobytes() == reference_impute_knn(train, target, CFG).tobytes()

    @pytest.mark.parametrize("twins", [None, "duplicated", "one ulp apart"])
    def test_exact_distances_only_where_bounds_overlap(self, rng, monkeypatch, twins):
        # distinct training rows: the Gram bounds order every row's
        # candidates; a training row repeated, or repeated one ulp up, has
        # the same bounds as its twin, so exact distances must order them
        tv = with_missing(rng.normal(size=(30, 8)), 0.1, rng)
        twin = {
            None: with_missing(rng.normal(size=(30, 8)), 0.1, rng),
            "duplicated": tv,
            "one ulp apart": np.nextafter(tv, np.inf),
        }[twins]
        train = make_table(values=np.vstack([tv, twin]))
        target = make_table(values=with_missing(rng.normal(size=(40, 8)), 0.2, rng))
        calls, screened = [], []
        exact, screen = preprocess._exact_nearest, preprocess._impute_screened

        def recorded(donors, kept, real, r, observed, m):
            calls.append(len(kept))
            return exact(donors, kept, real, r, observed, m)

        def recorded_screen(out, rows, donors, k, m):
            left = screen(out, rows, donors, k, m)
            screened.append((m, len(left)))
            return left

        monkeypatch.setattr(preprocess, "_exact_nearest", recorded)
        monkeypatch.setattr(preprocess, "_impute_screened", recorded_screen)
        out = impute_knn(train, target, CFG)
        # the first pass returns no row, so there is no second
        assert screened and all(m == 20 and left == 0 for m, left in screened)
        assert (calls == []) == (twins is None)
        assert out.values.tobytes() == reference_impute_knn(train, target, CFG).tobytes()

    @staticmethod
    def _overflowing_tables(rng):
        # a constant training column at 2^516 (about 2.7e155) has scale 1, so
        # its scaled square overflows and every row observing it has a
        # non-finite Gram bound; a row at -2^516 or 1.0 there is at an
        # infinite exact distance from each training row observing the
        # column, so those are never its donors
        big = 2.0**516
        tv = with_missing(rng.normal(size=(60, 5)), 0.15, rng)
        tv[:, 0] = big
        tv[rng.uniform(size=60) < 0.2, 0] = np.nan
        tv[:, 4] = np.nan
        tv[3, 4] = big  # one training row observes column 4
        apply_to = with_missing(rng.normal(size=(60, 5)), 0.25, rng)
        apply_to[:, 0] = rng.choice([big, -big, 1.0, np.nan], size=60)
        # every candidate, or the only one, at an infinite distance
        apply_to[:2] = np.nan
        apply_to[0, 0] = apply_to[1, 4] = -big
        assert _train_scale(tv)[[0, 4]].tolist() == [1.0, 1.0]
        return make_table(values=tv), make_table(values=apply_to)

    def test_overflowing_bounds_order_by_exact_distance(self, rng, monkeypatch):
        train, target = self._overflowing_tables(rng)
        tv, apply_to = train.values, target.values
        calls, exact = [], preprocess._exact_nearest

        def recorded(donors, kept, real, r, observed, m):
            calls.append(len(kept))
            return exact(donors, kept, real, r, observed, m)

        monkeypatch.setattr(preprocess, "_exact_nearest", recorded)
        with np.errstate(over="ignore"):
            expected = reference_impute_knn(train, target, CFG)
        out = impute_knn(train, target, CFG)
        # at least every row that observes column 0 or 4
        unbounded = (~np.isnan(apply_to[:, [0, 4]])).any(axis=1).sum()
        assert unbounded > 2 and sum(calls) >= unbounded
        assert out.values.tobytes() == expected.tobytes()
        # rows 0 and 1 have no donor, so every missing cell takes the training mean
        mean = np.nanmean(tv, axis=0)
        np.testing.assert_array_equal(out.values[:2, 1:4], [mean[1:4], mean[1:4]])

    def test_overflowing_scaled_square_does_not_warn(self, rng):
        train, target = self._overflowing_tables(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            donors = preprocess.KnnDonors(train, CFG)
            assert np.isinf(donors.scaled_sq[:, 0]).any()
            out = impute_knn(train, target, CFG, donors)
        with np.errstate(over="ignore"):
            expected = reference_impute_knn(train, target, CFG)
        assert out.values.tobytes() == expected.tobytes()

    def test_all_missing_training_feature_errors(self):
        train = make_table(values=np.column_stack([np.full(6, np.nan), np.arange(6.0)]))
        target = make_table(values=np.array([[1.0, np.nan]]))
        with pytest.raises(PreprocessError, match="missing in every training row"):
            impute_knn(train, target, CFG)

    def test_too_few_training_samples_errors(self):
        train = make_table(values=np.arange(6.0).reshape(3, 2))
        with pytest.raises(PreprocessError, match="training samples"):
            impute_knn(train, train, CFG)


_DONOR_STATS = ("values", "observed", "scale", "scaled", "scaled_sq", "observed_f", "mean")


def _fold_state(dataset, train_idx, test_idx, monkeypatch):
    """prepare_fold's fit tables and labels, and what each fitted
    preprocessor holds once the test rows have been transformed, as bytes."""
    fitted = []
    fit = preprocess.fit_preprocessor

    def recorded(table, cfg):
        fitted.append(fit(table, cfg))
        return fitted[-1]

    monkeypatch.setattr(preprocess, "fit_preprocessor", recorded)
    train_p, y_train, _, _ = prepare_fold(dataset, train_idx, test_idx, CFG, smote_seed=3)
    state = [[t.values.tobytes() for t in train_p], y_train.tobytes()]
    for p in fitted:
        state.append(p.kept_feature_names)
        state.append(p.train_transformed.values.tobytes())
        state.extend(getattr(p.knn_donors, name).tobytes() for name in _DONOR_STATS)
    return state


class TestNoLeakFromTestRows:
    @settings(max_examples=40, deadline=None)
    @given(
        n_train=st.integers(24, 60),
        n_test=st.integers(1, 40),
        rate=st.floats(0.05, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_test_rows_leave_the_fit_unchanged(self, n_train, n_test, rate, seed):
        """More than 4 * knn_k training rows with missing cells, so the
        training rows are imputed through the Gram screen; the test rows are
        redrawn at another scale, with another missing pattern and labels."""
        rng = np.random.default_rng(seed)
        n = n_train + n_test
        test_idx = np.sort(rng.choice(n, size=n_test, replace=False))
        train_idx = np.setdiff1d(np.arange(n), test_idx)
        y = np.zeros(n, dtype=np.intp)
        y[train_idx] = rng.permutation(np.arange(n_train) % 3)
        tables = [make_table(name, with_missing(rng.normal(size=(n, f)), rate, rng))
                  for name, f in (("A", 12), ("B", 7))]

        def state():
            with pytest.MonkeyPatch.context() as monkeypatch:
                return _fold_state(make_dataset(tables, y), train_idx, test_idx, monkeypatch)

        before = state()
        for t in tables:
            t.values[test_idx] = with_missing(
                rng.normal(size=(n_test, t.n_features)) * 1e3, 0.5, rng
            )
        y[test_idx] = rng.integers(0, 3, size=n_test)
        assert state() == before


class TestNormalize:
    def test_standardize_self(self):
        train = make_table(values=np.array([[2.0], [4.0], [6.0]]))
        out = normalize(train, train, "standardize")
        assert out.values.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.values.std() == pytest.approx(1.0, abs=1e-12)

    def test_cpm_log_row(self):
        train = make_table(values=np.array([[1.0, 0.0, 3.0]]))
        out = normalize(train, train, "cpm_log")
        expected = [np.log2(250001.0), 0.0, np.log2(750001.0)]
        np.testing.assert_allclose(out.values[0], expected, rtol=1e-12)

    def test_constant_column_maps_to_zero(self):
        train = make_table(values=np.full((4, 1), 7.0))
        out = normalize(train, make_table(values=np.array([[9.0]])), "standardize")
        assert out.values[0, 0] == 0.0

    def test_cpm_log_negative_errors(self):
        train = make_table(values=np.array([[1.0, -2.0]]))
        with pytest.raises(PreprocessError, match="nonnegative"):
            normalize(train, train, "cpm_log")

    def test_zero_row_sum_maps_to_zero(self):
        train = make_table(values=np.array([[0.0, 0.0], [1.0, 2.0]]))
        out = normalize(train, train, "cpm_log")
        np.testing.assert_array_equal(out.values[0], [0.0, 0.0])


def _smote_one_table(X, y, k=5, seed=0):
    """smote_balance_tables on one table, as (values, labels)."""
    (table,), yb = smote_balance_tables([make_table("M", X)], y, k=k, seed=seed)
    return table.values, yb


class TestSmote:
    def test_balanced_is_identity(self, rng):
        X = rng.normal(size=(40, 3))
        y = np.repeat(np.arange(4), 10)
        Xb, yb = _smote_one_table(X, y, seed=0)
        np.testing.assert_array_equal(Xb, X)
        np.testing.assert_array_equal(yb, y)

    def test_minority_balanced_to_majority(self, rng):
        X = rng.normal(size=(15, 3))
        y = np.array([0] * 10 + [1] * 5)
        Xb, yb = _smote_one_table(X, y, seed=0)
        assert len(yb) == 20
        assert int(np.sum(yb == 0)) == 10 and int(np.sum(yb == 1)) == 10
        np.testing.assert_array_equal(Xb[:15], X)  # originals first, untouched

    def test_synthetic_on_segment(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0], [5.1, 5.1], [4.9, 4.9]])
        y = np.array([0, 0, 1, 1, 1])
        Xb, yb = _smote_one_table(X, y, k=1, seed=3)
        synth = Xb[5:]
        assert (yb[5:] == 0).all()
        for row in synth:
            assert row[0] == pytest.approx(row[1])  # both coordinates equal
            assert 0.0 <= row[0] <= 2.0

    def test_singleton_class_errors(self, rng):
        X = rng.normal(size=(5, 2))
        y = np.array([0, 0, 0, 0, 1])
        with pytest.raises(PreprocessError, match=">=2 samples"):
            _smote_one_table(X, y, seed=0)

    def test_convex_hull_property(self, rng):
        X = rng.normal(size=(30, 4))
        y = np.array([0] * 20 + [1] * 10)
        Xb, yb = _smote_one_table(X, y, seed=7)
        minority = X[20:]
        lo, hi = minority.min(axis=0), minority.max(axis=0)
        for row in Xb[30:]:
            assert (row >= lo - 1e-12).all() and (row <= hi + 1e-12).all()

    def test_multimodal_plan_is_shared(self, rng):
        a = make_table("A", rng.normal(size=(12, 3)))
        b = make_table("B", rng.normal(size=(12, 2)))
        y = np.array([0] * 8 + [1] * 4)
        (a2, b2), y2 = smote_balance_tables([a, b], y, seed=5)
        assert a2.n_samples == b2.n_samples == 16
        assert a2.sample_ids == b2.sample_ids
        # each synthetic row interpolates the same source pair in both tables:
        # the concatenated synthetic rows must interpolate concatenated originals
        concat = np.hstack([a.values, b.values])
        concat_synth = np.hstack([a2.values[12:], b2.values[12:]])
        minority = concat[y == 1]
        for row in concat_synth:
            d = np.linalg.norm(minority[:, None, :] - minority[None, :, :], axis=2)
            # the row lies on a segment between two minority points
            found = False
            for i in range(len(minority)):
                for j in range(len(minority)):
                    if i == j:
                        continue
                    ab = minority[j] - minority[i]
                    denom = float(ab @ ab)
                    if denom == 0:
                        continue
                    u = float((row - minority[i]) @ ab) / denom
                    if -1e-9 <= u <= 1 + 1e-9:
                        if np.allclose(minority[i] + u * ab, row, atol=1e-9):
                            found = True
            assert found


def reference_smote_plan(y, reference, k, rng):
    """`_smote_plan` as it was when it broadcast every class's (m, m, F)
    differences at once, kept as the exact oracle."""
    classes, counts = np.unique(y, return_counts=True)
    majority = int(counts.max())
    base: list[int] = []
    neighbor: list[int] = []
    u: list[float] = []
    labels: list[int] = []
    for cls in classes:
        members = np.flatnonzero(y == cls)
        deficit = majority - len(members)
        if deficit == 0:
            continue
        if len(members) < 2:
            raise PreprocessError("SMOTE requires >=2 samples per class")
        pts = reference[members]
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        kk = min(k, len(members) - 1)
        neighbor_lists = np.argsort(d2, axis=1, kind="stable")[:, :kk]
        for _ in range(deficit):
            b = int(rng.integers(len(members)))
            nb = int(neighbor_lists[b, int(rng.integers(kk))])
            base.append(int(members[b]))
            neighbor.append(int(members[nb]))
            u.append(float(rng.uniform()))
            labels.append(int(cls))
    return (
        np.array(base, dtype=np.intp),
        np.array(neighbor, dtype=np.intp),
        np.array(u, dtype=np.float64),
        np.array(labels, dtype=np.intp),
    )


def assert_same_plan(y, reference, k, seed):
    plan = _smote_plan(y, reference, k, np.random.default_rng(seed))
    expected = reference_smote_plan(y, reference, k, np.random.default_rng(seed))
    for got, want in zip(plan, expected, strict=True):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestSmotePlan:
    """Squared distances come from blocks of row differences and give the
    plan of the (m, m, F) broadcast, array for array."""

    @settings(max_examples=100, deadline=None)
    @given(
        block=st.sampled_from([1, 2, 3, 5, 8, 64, 1 << 17]),
        sizes=st.lists(st.integers(2, 25), min_size=2, max_size=4),
        n_features=st.integers(1, 12),
        duplicates=st.floats(0.0, 0.6),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_plan_as_reference(self, block, sizes, n_features, duplicates, k, seed):
        rng = np.random.default_rng(seed)
        y = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        x = rng.normal(size=(len(y), n_features)) * 10.0 ** rng.uniform(-3, 3, n_features)
        # copied rows tie at distance 0, and the stable argsort orders the ties
        copied = rng.uniform(size=len(y)) < duplicates
        x[copied] = x[rng.integers(len(y), size=int(copied.sum()))]
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(preprocess, "_SMOTE_BLOCK_CELLS", block)
            for cls in range(len(sizes)):
                pts = x[y == cls]
                expected = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
                assert preprocess._squared_distances(pts).tobytes() == expected.tobytes()
            assert_same_plan(y, x, k, seed)

    @pytest.mark.parametrize("m,n_features", [(2, 1), (2, 6), (7, 1)])
    @pytest.mark.parametrize("block", [1, 3, 1 << 17])
    def test_two_rows_or_one_feature(self, rng, monkeypatch, m, n_features, block):
        monkeypatch.setattr(preprocess, "_SMOTE_BLOCK_CELLS", block)
        y = np.array([0] * (m + 4) + [1] * m)
        assert_same_plan(y, rng.normal(size=(len(y), n_features)), 5, 11)

    def test_moe_one_vs_rest_plans(self, rng, monkeypatch):
        # MOE balances each class against the rest before fitting its expert
        monkeypatch.setattr(preprocess, "_SMOTE_BLOCK_CELLS", 7)
        calls = []
        plan = preprocess._smote_plan

        def checked(y, reference, k, plan_rng):
            state = plan_rng.bit_generator.state
            out = plan(y, reference, k, plan_rng)
            expected_rng = np.random.default_rng()
            expected_rng.bit_generator.state = state
            for got, want in zip(out, reference_smote_plan(y, reference, k, expected_rng)):
                assert got.tobytes() == want.tobytes()
            calls.append(len(out[0]))
            return out

        monkeypatch.setattr(preprocess, "_smote_plan", checked)
        y = np.array([0] * 14 + [1] * 9 + [2] * 5)
        tables = [make_table("A", rng.normal(size=(28, 6))),
                  make_table("B", rng.normal(size=(28, 3)))]
        spec = IntegratorSpec(kind="MOE-COMBN", base=GbmParams(n_rounds=2, max_depth=1))
        fit_integrator(tables, y, spec, 3, seed=4)
        assert calls == [0, 10, 18]  # the rest's count minus the class's, per class


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    """tracemalloc sees numpy's buffers; these bounds fail for the F x F and
    (m, m, F) temporaries that pruning and SMOTE no longer build, and for a
    weight cumsum per column in the split states of an unweighted GBM."""

    def test_dense_pruning_holds_blocks_not_f_by_f(self, rng):
        table = make_table(values=rng.normal(size=(60, 3000)))
        assert _traced_peak_mb(lambda: prune_correlated(table, CFG)) < 24.0

    def test_pruning_with_a_missing_cell_holds_blocks_not_f_by_f(self, rng):
        values = rng.normal(size=(60, 3000))
        values[7, 1234] = np.nan
        table = make_table(values=values)
        assert _traced_peak_mb(lambda: prune_correlated(table, CFG)) < 24.0

    def test_smote_plan_holds_no_cubic_difference(self, rng):
        reference = rng.normal(size=(410, 400))
        y = np.array([0] * 210 + [1] * 200)
        assert _traced_peak_mb(lambda: _smote_plan(y, reference, 5, rng)) < 8.0

    def test_default_gbm_keeps_one_weight_cumsum_row(self, rng):
        # 80 x 200, K = 4, 100 rounds of depth 3: 4.0 MB, and 6.2 MB with an
        # (F, m) weight cumsum in every state
        X, y = rng.normal(size=(80, 200)), rng.integers(0, 4, 80)
        assert _traced_peak_mb(lambda: fit_gbm(X, y, params=GbmParams())) < 4.5

    def test_knn_rows_with_every_candidate_hold_few_rows_of_distances(self, rng):
        # column 0 is observed only in the 10 farthest training rows, so every
        # apply row widens to all 1000 candidates; column 1 is a constant
        # 2^516, whose square overflows, so in both passes every row keeps
        # every candidate and orders them by exact distance: about 3 MB, and
        # 13 MB for each (32, 1000, 50) temporary of 32 rows at once
        tv = rng.normal(size=(1000, 50))
        tv[:-10, 0] = np.nan
        tv[-10:, 2:] += 50.0
        tv[:, 1] = 2.0**516
        apply_to = rng.normal(size=(64, 50))
        apply_to[:, 0] = np.nan
        apply_to[:, 1] = 2.0**516
        train, target = make_table(values=tv), make_table(values=apply_to)
        donors = preprocess.KnnDonors(train, CFG)
        donors.scaled_sq, donors.observed_f, donors.mean  # computed outside the bound
        assert _traced_peak_mb(lambda: impute_knn(train, target, CFG, donors)) < 8.0

class TestFittedPreprocessor:
    def test_train_transform_is_clean_and_standard(self, rng):
        values = rng.normal(size=(20, 6))
        values[rng.uniform(size=values.shape) < 0.1] = np.nan
        values[:, 5] = values[:, 0] * 2.0 + 1e-9  # correlated duplicate column
        table = make_table(values=values)
        fitted = fit_preprocessor(table, CFG)
        out = fitted.transform(table)
        assert not np.isnan(out.values).any()
        np.testing.assert_allclose(out.values.mean(axis=0), 0.0, atol=1e-9)
        sds = out.values.std(axis=0)
        for sd in sds:
            assert sd == pytest.approx(1.0, abs=1e-9) or sd == pytest.approx(0.0, abs=1e-9)

    def test_fit_ignores_test_rows(self, rng):
        train = make_table(values=rng.normal(size=(15, 4)))
        fitted1 = fit_preprocessor(train, CFG)
        fitted2 = fit_preprocessor(train, CFG)
        test_a = make_table(values=rng.normal(size=(5, 4)))
        test_b = make_table(values=rng.normal(size=(5, 4)) * 100.0)
        fitted1.transform(test_a)
        fitted2.transform(test_b)
        assert fitted1.kept_feature_names == fitted2.kept_feature_names
        np.testing.assert_array_equal(
            fitted1.train_imputed.values, fitted2.train_imputed.values
        )

    @pytest.mark.parametrize("kind", ["standardize", "cpm_log"])
    def test_train_transformed_equals_transform_of_train(self, rng, kind):
        values = rng.poisson(20.0, size=(40, 12)).astype(np.float64)
        values[rng.uniform(size=values.shape) < 0.15] = np.nan
        values[:, 11] = np.nan  # dropped by the sparsity filter
        values[:3, 11] = 1.0
        table = make_table(values=values)
        fitted = fit_preprocessor(table, PreprocessConfig(default_normalization=kind))
        expected = fitted.transform(table)
        out = fitted.train_transformed
        assert out.modality_name == expected.modality_name
        assert out.sample_ids == expected.sample_ids
        assert out.feature_names == expected.feature_names
        assert out.values.tobytes() == expected.values.tobytes()

    def test_imputation_training_state_is_computed_once(self, rng, monkeypatch):
        scales = []
        scale = preprocess._train_scale
        monkeypatch.setattr(preprocess, "_train_scale", lambda v: scales.append(1) or scale(v))
        table = make_table(values=with_missing(rng.normal(size=(30, 6)), 0.15, rng))
        fitted = fit_preprocessor(table, CFG)
        assert fitted.kept_feature_names == table.feature_names
        tests = [make_table(values=with_missing(rng.normal(size=(8, 6)), 0.3, rng))
                 for _ in range(2)]
        for test in tests:
            fitted.transform(test)
        assert scales == [1]  # at fit, for the training rows; reused for both tables
        train = fitted.train_filtered
        np.testing.assert_array_equal(
            fitted.train_imputed.values, reference_impute_knn(train, train, CFG)
        )
        for test in tests:
            out = impute_knn(train, test, CFG, fitted.knn_donors)
            np.testing.assert_array_equal(out.values, reference_impute_knn(train, test, CFG))

    def test_pipeline_deterministic(self, rng):
        values = rng.normal(size=(18, 5))
        values[rng.uniform(size=values.shape) < 0.15] = np.nan
        table = make_table(values=values)
        out1 = fit_preprocessor(table, CFG).transform(table)
        out2 = fit_preprocessor(table, CFG).transform(table)
        np.testing.assert_array_equal(out1.values, out2.values)

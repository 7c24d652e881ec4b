import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse import learners
from latefuse.integrators import FitContext
from latefuse.learners import (
    DecisionTree,
    GbmModel,
    GbmParams,
    LearnerError,
    RandomForestParams,
    TreeParams,
    _SplitState,
    _TreeBuilder,
    fit_gbm,
    fit_random_forest,
    fit_tree,
    log_loss,
    log_loss_gradient,
    one_hot,
    softmax,
)


class TestTree:
    def test_two_point_split(self):
        tree = fit_tree(
            np.array([[0.0], [1.0]]),
            np.array([0.0, 1.0]),
            params=TreeParams(max_depth=1, min_leaf=1),
        )
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(0.5)
        leaves = sorted(tree.leaf_values[tree.feature == -1].tolist())
        assert leaves == [0.0, 1.0]

    def test_constant_targets_single_leaf(self):
        tree = fit_tree(np.arange(6.0).reshape(6, 1), np.full(6, 5.0))
        assert tree.n_nodes == 1
        assert tree.raw_importance.sum() == 0.0

    def test_xor_depth_two(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = fit_tree(
            X, y, params=TreeParams(max_depth=2, min_leaf=1, task="classification", n_classes=2)
        )
        assert (np.argmax(tree.predict(X), axis=1) == y).all()

    def test_tie_breaks_to_lower_feature(self):
        # identical columns give identical gains; feature 0 must win
        x = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(
            np.column_stack([x, x]), np.array([0.0, 0.0, 1.0, 1.0]),
            params=TreeParams(max_depth=1, min_leaf=1),
        )
        assert tree.feature[0] == 0

    def test_min_leaf_respected(self):
        X = np.arange(10.0).reshape(10, 1)
        y = (X[:, 0] > 8).astype(float)  # best split would isolate one sample
        tree = fit_tree(X, y, params=TreeParams(max_depth=1, min_leaf=3))
        if tree.n_nodes > 1:
            left = int(np.sum(X[:, 0] <= tree.threshold[0]))
            assert left >= 3 and 10 - left >= 3

    def test_empty_errors(self):
        with pytest.raises(LearnerError):
            fit_tree(np.empty((0, 2)), np.empty(0))

    def test_weighted_split_moves_with_weights(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        heavy_right = np.array([0.01, 0.01, 10.0, 10.0])
        t = fit_tree(X, y, heavy_right, TreeParams(max_depth=1, min_leaf=1))
        assert t.threshold[0] == pytest.approx(1.5)


class TestGbm:
    def test_separable_reaches_perfect_accuracy(self, rng):
        X = rng.normal(size=(40, 1))
        y = (X[:, 0] > 0).astype(int)
        model = fit_gbm(X, y, params=GbmParams(n_rounds=50, max_depth=2), seed=1)
        assert (model.predict_proba(X).labels == y).mean() == 1.0

    def test_zero_rounds_predicts_prior(self, rng):
        X = rng.normal(size=(20, 2))
        y = np.array([0] * 12 + [1] * 8)
        model = fit_gbm(X, y, params=GbmParams(n_rounds=0))
        probs = model.predict_proba(X).probabilities
        np.testing.assert_allclose(probs, np.tile([0.6, 0.4], (20, 1)), atol=1e-9)

    def test_weight_doubling_invariance(self, rng):
        X = rng.normal(size=(32, 3))
        y = rng.integers(0, 3, 32)
        w = rng.uniform(0.5, 2.0, 32)
        a = fit_gbm(X, y, w, GbmParams(n_rounds=10), seed=2)
        b = fit_gbm(X, y, 2 * w, GbmParams(n_rounds=10), seed=2)
        np.testing.assert_array_equal(a.decision_scores(X), b.decision_scores(X))

    def test_gradient_matches_finite_differences(self, rng):
        # 8 samples, 3 classes: central differences of the total log-loss
        n, k = 8, 3
        scores = rng.normal(size=(n, k))
        y = rng.integers(0, k, n)
        w = rng.uniform(0.5, 2.0, n)
        grad = log_loss_gradient(scores, y, w)
        eps = 1e-6
        for i in range(n):
            for j in range(k):
                up = scores.copy()
                down = scores.copy()
                up[i, j] += eps
                down[i, j] -= eps
                fd = (log_loss(up, y, w) - log_loss(down, y, w)) / (2 * eps)
                assert abs(fd - grad[i, j]) <= 1e-5 * max(1.0, abs(fd))

    def test_loss_monotone_nonincreasing(self):
        for s in range(3):
            r = np.random.default_rng(s)
            X = r.normal(size=(50, 4))
            y = r.integers(0, 3, 50)
            model = fit_gbm(X, y, params=GbmParams(n_rounds=60, max_depth=3), seed=s)
            diffs = np.diff(model.train_losses_)
            assert (diffs <= 1e-9).all()

    def test_importances_normalized(self, rng):
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 2, 30)
        model = fit_gbm(X, y, params=GbmParams(n_rounds=10))
        imp = model.feature_importances_
        assert (imp >= 0).all()
        assert imp.sum() == pytest.approx(1.0)

    def test_deterministic(self, rng):
        X = rng.normal(size=(25, 3))
        y = rng.integers(0, 2, 25)
        a = fit_gbm(X, y, params=GbmParams(n_rounds=15, subsample=0.8), seed=5)
        b = fit_gbm(X, y, params=GbmParams(n_rounds=15, subsample=0.8), seed=5)
        np.testing.assert_array_equal(a.decision_scores(X), b.decision_scores(X))

    def test_probability_rows_sum_to_one(self, rng):
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 4, 20)
        model = fit_gbm(X, y, params=GbmParams(n_rounds=5))
        rows = model.predict_proba(rng.normal(size=(7, 3))).probabilities
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_column_mismatch_errors(self, rng):
        model = fit_gbm(rng.normal(size=(10, 3)), rng.integers(0, 2, 10),
                        params=GbmParams(n_rounds=2))
        with pytest.raises(LearnerError, match="columns"):
            model.predict_proba(rng.normal(size=(4, 5)))

    def test_weight_length_mismatch_errors(self, rng):
        with pytest.raises(LearnerError):
            fit_gbm(rng.normal(size=(10, 2)), rng.integers(0, 2, 10), np.ones(5))


class TestRandomForest:
    def test_single_unbootstrapped_tree_equals_cart(self, rng):
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, 30)
        forest = fit_random_forest(
            X, y,
            RandomForestParams(n_trees=1, bootstrap=False, max_features=None, max_depth=4),
            seed=3,
        )
        tree = fit_tree(
            X, y, params=TreeParams(max_depth=4, min_leaf=1, task="classification", n_classes=3)
        )
        np.testing.assert_allclose(forest.predict_proba(X).probabilities, tree.predict(X))

    def test_pure_training_accuracy(self, rng):
        X = np.vstack([rng.normal(size=(15, 3)) + 4, rng.normal(size=(15, 3)) - 4])
        y = np.array([0] * 15 + [1] * 15)
        forest = fit_random_forest(X, y, RandomForestParams(n_trees=20), seed=0)
        assert (forest.predict_proba(X).labels == y).mean() == 1.0

    def test_deterministic(self, rng):
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        a = fit_random_forest(X, y, RandomForestParams(n_trees=7), seed=11)
        b = fit_random_forest(X, y, RandomForestParams(n_trees=7), seed=11)
        np.testing.assert_array_equal(
            a.predict_proba(X).probabilities, b.predict_proba(X).probabilities
        )

    def test_one_hot_rows_from_pure_leaves(self):
        X = np.array([[0.0], [1.0]] * 4)
        y = np.array([0, 1] * 4)
        forest = fit_random_forest(
            X, y, RandomForestParams(n_trees=1, bootstrap=False, max_features=None), seed=1
        )
        probs = forest.predict_proba(X).probabilities
        assert set(np.unique(probs).tolist()) == {0.0, 1.0}

    def test_importances_normalized(self, rng):
        X = rng.normal(size=(25, 4))
        y = rng.integers(0, 2, 25)
        forest = fit_random_forest(X, y, RandomForestParams(n_trees=5), seed=2)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)


class TestHelpers:
    def test_softmax_rows(self, rng):
        p = softmax(rng.normal(size=(6, 4)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        assert (p > 0).all()

    def test_one_hot(self):
        np.testing.assert_array_equal(
            one_hot(np.array([0, 2]), 3), np.array([[1.0, 0, 0], [0, 0, 1.0]])
        )


class TestParams:
    @pytest.mark.parametrize("bad", [
        {"n_rounds": -1}, {"learning_rate": 0.0}, {"learning_rate": -1.0},
        {"max_depth": 0}, {"min_leaf": 0}, {"subsample": 0.0}, {"subsample": 1.5},
    ])
    def test_gbm_params_rejected(self, bad):
        with pytest.raises(LearnerError, match=f"^{next(iter(bad))}: "):
            GbmParams(**bad)

    @pytest.mark.parametrize("bad", [
        {"n_trees": 0}, {"max_depth": 0}, {"min_leaf": 0}, {"max_features": "log2"},
    ])
    def test_forest_params_rejected(self, bad):
        with pytest.raises(LearnerError, match=f"^{next(iter(bad))}: "):
            RandomForestParams(**bad)

    @pytest.mark.parametrize("bad", [
        {"max_depth": 0}, {"min_leaf": 0}, {"task": "Classification"},
        {"max_features": 0}, {"max_features": -1},
    ])
    def test_tree_params_rejected(self, bad):
        with pytest.raises(LearnerError, match=f"^{next(iter(bad))}: "):
            TreeParams(**bad)


# ---------------------------------------------------------------------------
# the input contract: every fit entry rejects the same bad inputs
# ---------------------------------------------------------------------------


def _spoiled(case):
    """A 6x2 matrix, labels in [0, 3) and unit weights, spoiled as `case` says."""
    X = np.arange(12, dtype=np.float64).reshape(6, 2)
    y = np.array([0, 1, 2, 0, 1, 2], dtype=np.float64)
    w = np.ones(6)
    if case == "nan weight":
        w[2] = np.nan
    elif case == "inf weight":
        w[2] = np.inf
    elif case == "negative weight":
        w[2] = -1.0
    elif case == "all-zero weights":
        w[:] = 0.0
    elif case == "nan target":
        y[2] = np.nan
    elif case == "label -1":
        y[2] = -1
    elif case == "label >= K":
        y[2] = 3
    elif case == "weight length mismatch":
        w = w[:5]
    elif case == "length mismatch":  # y against X, with default weights
        y, w = y[:5], None
    elif case == "nan in X":
        X[2, 1] = np.nan
    elif case == "inf in X":
        X[2, 1] = -np.inf
    return X, y, w


_WEIGHT_CASES = (
    "nan weight", "inf weight", "negative weight", "all-zero weights", "weight length mismatch",
)
_LABEL_CASES = ("label -1", "label >= K")
_SHARED_CASES = ("nan target", "length mismatch", "nan in X", "inf in X")

# (name, fit of (X, y, w), the bad inputs that apply to it)
_FIT_ENTRIES = (
    ("fit_tree classification",
     lambda X, y, w: fit_tree(X, y, w, TreeParams(task="classification", n_classes=3)),
     _WEIGHT_CASES + _LABEL_CASES + _SHARED_CASES),
    ("fit_tree regression", lambda X, y, w: fit_tree(X, y, w),
     _WEIGHT_CASES + _SHARED_CASES),
    ("fit_gbm", lambda X, y, w: fit_gbm(X, y, w, GbmParams(n_rounds=2), n_classes=3),
     _WEIGHT_CASES + _LABEL_CASES + _SHARED_CASES),
    ("fit_random_forest",  # takes no weights
     lambda X, y, w: fit_random_forest(X, y, RandomForestParams(n_trees=2), n_classes=3),
     _LABEL_CASES + _SHARED_CASES),
    ("FitContext.gbm",
     lambda X, y, w: FitContext().gbm(X, y, w, GbmParams(n_rounds=2), 0, 3),
     _WEIGHT_CASES + _LABEL_CASES + _SHARED_CASES),
)


class TestInputContract:
    @pytest.mark.parametrize("entry, case", [
        pytest.param(fit, case, id=f"{name}-{case}")
        for name, fit, cases in _FIT_ENTRIES for case in cases
    ])
    def test_bad_input_raises_learner_error(self, entry, case):
        with pytest.raises(LearnerError):
            entry(*_spoiled(case))

    @pytest.mark.parametrize("entry", [
        pytest.param(fit, id=name) for name, fit, cases in _FIT_ENTRIES if "nan target" in cases
    ])
    def test_nan_target_raises_before_any_warning(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LearnerError, match="non-finite target"):
                entry(*_spoiled("nan target"))

    @pytest.mark.parametrize("predict", ["gbm proba", "gbm scores", "forest proba"])
    @pytest.mark.parametrize("case", ["1-D", "nan", "inf"])
    def test_bad_prediction_input_raises_learner_error(self, predict, case):
        X, y, _ = _spoiled("none")  # clean input
        if predict == "forest proba":
            model = fit_random_forest(X, y, RandomForestParams(n_trees=2), n_classes=3)
            call = model.predict_proba
        else:
            model = fit_gbm(X, y, params=GbmParams(n_rounds=2), n_classes=3)
            call = model.predict_proba if predict == "gbm proba" else model.decision_scores
        if case == "1-D":
            X_bad = X[0]
        else:
            X_bad = X.copy()
            X_bad[1, 0] = np.nan if case == "nan" else np.inf
        with pytest.raises(LearnerError):
            call(X_bad)


def test_gbm_residual_is_the_negative_log_loss_gradient(monkeypatch):
    # test_criterion_03_boosting_correctness checks log_loss_gradient by
    # finite differences; this pins that the fit's residual is that
    # function's output, at unit weights
    calls = []
    real = learners.log_loss_gradient

    def spy(scores, y, sample_weight):
        calls.append(sample_weight)
        return real(scores, y, sample_weight)

    X = np.arange(24, dtype=np.float64).reshape(12, 2)
    y = np.array([0, 1, 2] * 4)
    w = np.linspace(0.5, 2.0, 12)
    params = GbmParams(n_rounds=4, max_depth=2, min_leaf=1)
    monkeypatch.setattr(learners, "log_loss_gradient", spy)
    model = fit_gbm(X, y, w, params)
    assert len(calls) == params.n_rounds
    for unit in calls:
        np.testing.assert_array_equal(unit, np.ones(12))
    # a zero gradient leaves nothing to fit: every leaf step is 0
    monkeypatch.setattr(learners, "log_loss_gradient", lambda s, y, w: np.zeros_like(s))
    flat = fit_gbm(X, y, w, params)
    assert all((t.leaf_values == 0).all() for r in flat.trees for t in r)
    assert any((t.leaf_values != 0).any() for r in model.trees for t in r)


# ---------------------------------------------------------------------------
# exactness: the shared-root, leaf-returning fit against the per-tree walk
# ---------------------------------------------------------------------------


def reference_fit_gbm(X, y, sample_weight=None, params=GbmParams(), seed=0, n_classes=None):
    """fit_gbm as it was before the root state was shared: every class tree
    is a `fit_tree` on the round's rows, then `apply` finds each fitted
    row's leaf and `predict` walks every row again for the scores."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    K = int(n_classes) if n_classes is not None else int(np.max(y)) + 1
    n = len(y)
    priors = np.zeros(K)
    np.add.at(priors, y, w)
    priors /= w.sum()
    init_scores = np.log(np.clip(priors, 1e-12, None))
    y_oh = one_hot(y, K)
    scores = np.tile(init_scores, (n, 1))
    tree_params = TreeParams(max_depth=params.max_depth, min_leaf=params.min_leaf)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    trees, importance = [], np.zeros(X.shape[1])
    losses = [log_loss(scores, y, w) / w.sum()]
    for _ in range(params.n_rounds):
        residual = y_oh - softmax(scores)
        if params.subsample < 1.0:
            rows = rng.choice(n, size=max(1, int(round(params.subsample * n))), replace=False)
        else:
            rows = np.arange(n)
        X_round = X[rows]
        round_trees = []
        for k in range(K):
            r_sub, w_sub = residual[rows, k], w[rows]
            if w_sub.sum() > 0:
                tree = fit_tree(X_round, r_sub, w_sub, tree_params)
            else:  # fit_tree rejects all-zero weights; fit_gbm grows one leaf
                one = np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1])
                tree = DecisionTree(*one, None, np.zeros(X.shape[1]))
            leaves_sub = tree.apply(X_round)
            num, den = np.zeros(tree.n_nodes), np.zeros(tree.n_nodes)
            np.add.at(num, leaves_sub, w_sub * r_sub)
            np.add.at(den, leaves_sub, w_sub * np.abs(r_sub) * (1.0 - np.abs(r_sub)))
            with np.errstate(divide="ignore", invalid="ignore"):
                gamma = (K - 1.0) / K * num / den
            gamma[~np.isfinite(gamma)] = 0.0
            gamma[np.abs(den) < 1e-150] = 0.0
            tree.leaf_values = gamma
            scores[:, k] += params.learning_rate * tree.predict(X)
            importance += tree.raw_importance
            round_trees.append(tree)
        trees.append(round_trees)
        losses.append(log_loss(scores, y, w) / w.sum())
    total = importance.sum()
    return GbmModel(params, K, X.shape[1], init_scores, trees,
                    importance / total if total > 0 else importance, losses)


def reference_decision_scores(model, X):
    """Scores summed tree by tree, each tree walked on its own."""
    scores = np.tile(model.init_scores, (len(X), 1))
    for round_trees in model.trees:
        for k, tree in enumerate(round_trees):
            scores[:, k] += model.params.learning_rate * tree.predict(X)
    return scores


def reference_walk(tree, X, root=0):
    """One row at a time, node by node."""
    out = []
    for x in X:
        node = root
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out.append(node)
    return np.array(out, dtype=np.intp)


_TREE_ARRAYS = ("feature", "threshold", "left", "right", "leaf_values", "raw_importance")


def assert_same_gbm(new, ref, X):
    assert len(new.trees) == len(ref.trees)
    for new_round, ref_round in zip(new.trees, ref.trees):
        assert len(new_round) == len(ref_round)
        for a, b in zip(new_round, ref_round):
            for name in _TREE_ARRAYS:
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    np.testing.assert_array_equal(new.init_scores, ref.init_scores)
    np.testing.assert_array_equal(new.feature_importances_, ref.feature_importances_)
    np.testing.assert_array_equal(new.train_losses_, ref.train_losses_)
    np.testing.assert_array_equal(new.decision_scores(X), reference_decision_scores(ref, X))


@st.composite
def _gbm_case(draw):
    n, F, K = draw(st.integers(2, 120)), draw(st.integers(1, 40)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, F))
    columns = draw(st.sampled_from(["real", "rounded", "integer"]))
    if columns == "rounded":
        X = np.round(X, 1)  # many ties
    elif columns == "integer":
        X = rng.integers(0, 4, size=(n, F)).astype(float)
    y = rng.integers(0, K, n)
    weights = draw(st.sampled_from(["none", "exponential", "with_zeros"]))
    w = None if weights == "none" else rng.exponential(size=n)
    if weights == "with_zeros":
        w[rng.random(n) < 0.5] = 0.0
        w[rng.integers(n)] = 1.0  # not all zero
    params = GbmParams(
        n_rounds=draw(st.integers(0, 8)),
        max_depth=draw(st.integers(1, 4)),
        min_leaf=draw(st.integers(1, 3)),
        subsample=draw(st.sampled_from([1.0, 0.5])),
    )
    return X, y, w, params, K, draw(st.integers(0, 1000))


class TestGbmExactness:
    @settings(max_examples=60, deadline=None)
    @given(_gbm_case())
    def test_fit_matches_per_tree_reference(self, case):
        X, y, w, params, K, seed = case
        new = fit_gbm(X, y, w, params, seed=seed, n_classes=K)
        ref = reference_fit_gbm(X, y, w, params, seed=seed, n_classes=K)
        X_query = np.vstack([X, X[::-1] + 0.25])
        assert_same_gbm(new, ref, X_query)

    def test_midpoint_rounding_onto_upper_value(self):
        # (a + b) / 2 rounds to b, so the threshold is a: the row at 1.0
        # walks right, where the sorted partition scored it
        x = np.array([1 - 2**-53, 1.0])
        X = np.column_stack([x, [0.0, 1.0]])
        w = np.ones(2)
        root = _SplitState.of_rows(X, w, None, 1, True)
        params = TreeParams(max_depth=1, min_leaf=1)
        tree, leaves = _TreeBuilder(X, np.array([0.0, 1.0]), w, params, root=root).build()
        assert tree.feature[0] == 0 and tree.threshold[0] == 1 - 2**-53
        np.testing.assert_array_equal(leaves, tree.apply(X))
        np.testing.assert_array_equal(leaves, [1, 2])
        y = np.array([0, 1])
        for subsample in (1.0, 0.5):
            p = GbmParams(n_rounds=3, max_depth=2, min_leaf=1, subsample=subsample)
            assert_same_gbm(fit_gbm(X, y, params=p), reference_fit_gbm(X, y, params=p), X)

    def test_forest_leaf_values_come_from_the_rows_routed_there(self):
        # the same midpoint: the threshold is the lower value, so each row
        # walks to the leaf it was scored in, and each leaf holds the class
        # of its one row
        X = np.array([[1 - 2**-53], [1.0]])
        y = np.array([0, 1])
        forest = fit_random_forest(
            X, y,
            RandomForestParams(n_trees=1, max_depth=1, bootstrap=False, max_features=None),
        )
        (tree,) = forest.trees
        assert tree.threshold[0] == 1 - 2**-53
        np.testing.assert_array_equal(tree.leaf_values, [[0, 0], [1, 0], [0, 1]])
        np.testing.assert_array_equal(
            forest.predict_proba(np.array([[0.0], [1.0], [2.0]])).probabilities,
            [[1, 0], [0, 1], [0, 1]],
        )
        params = TreeParams(max_depth=1, min_leaf=1, task="classification", n_classes=2)
        np.testing.assert_array_equal(oracle_tree(X, y, None, params).leaf_values, tree.leaf_values)

    def test_multi_root_apply_matches_per_tree_walks(self, rng):
        X = np.round(rng.normal(size=(40, 5)), 1)
        y = rng.integers(0, 3, 40)
        trees = [t for r in fit_gbm(X, y, params=GbmParams(n_rounds=4)).trees for t in r]
        trees += fit_random_forest(X, y, RandomForestParams(n_trees=4), seed=1).trees
        for group in (trees[:12], trees[12:]):
            flat, roots = DecisionTree.stack(group)
            X_query = np.vstack([X, rng.normal(size=(7, 5))])
            leaves = flat.apply(X_query, roots)
            assert leaves.shape == (len(X_query), len(group))
            for t, (tree, root) in enumerate(zip(group, roots)):
                np.testing.assert_array_equal(leaves[:, t], tree.apply(X_query) + root)
                np.testing.assert_array_equal(tree.apply(X_query), reference_walk(tree, X_query))
                np.testing.assert_array_equal(leaves[:, t], reference_walk(flat, X_query, root))

    def test_forest_proba_is_the_per_tree_mean(self, rng):
        X = rng.normal(size=(30, 6))
        y = rng.integers(0, 3, 30)
        forest = fit_random_forest(X, y, RandomForestParams(n_trees=9), seed=4)
        X_query = rng.normal(size=(11, 6))
        acc = np.zeros((11, 3))
        for tree in forest.trees:
            acc += tree.predict(X_query)
        acc /= len(forest.trees)
        np.testing.assert_array_equal(forest.predict_proba(X_query).probabilities, acc)

    @settings(max_examples=30, deadline=None)
    @given(_gbm_case(), st.integers(0, 2**32 - 1))
    def test_seed_is_unused_without_subsampling(self, case, other_seed):
        # a fit context shares full-sample fits across seeds on this ground
        X, y, w, params, K, seed = case
        params = replace(params, subsample=1.0)
        a = fit_gbm(X, y, w, params, seed=seed, n_classes=K)
        b = fit_gbm(X, y, w, params, seed=other_seed, n_classes=K)
        assert_same_gbm(a, b, X)

    @settings(max_examples=60, deadline=None)
    @given(_gbm_case(), st.data())
    def test_first_rounds_are_the_shorter_fit(self, case, data):
        # a fit context serves a request for fewer rounds on this ground
        X, y, w, params, K, seed = case
        n = data.draw(st.integers(0, params.n_rounds))
        fresh = fit_gbm(X, y, w, replace(params, n_rounds=n), seed=seed, n_classes=K)
        longest = fit_gbm(X, y, w, params, seed=seed, n_classes=K)
        fits = FitContext()
        fits.gbm(X, y, w, params, seed, K)
        for served in (longest.first_rounds(n), fits.gbm(X, y, w, fresh.params, seed, K)):
            assert served.params == fresh.params
            assert_same_gbm(served, fresh, X)
            np.testing.assert_array_equal(served.decision_scores(X), fresh.decision_scores(X))
        with pytest.raises(LearnerError, match="first_rounds"):
            longest.first_rounds(params.n_rounds + 1)

    def test_trees_are_stacked_once_per_model(self, rng, monkeypatch):
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, 30)
        gbm = fit_gbm(X, y, params=GbmParams(n_rounds=3))
        forest = fit_random_forest(X, y, RandomForestParams(n_trees=3), seed=2)
        first = [gbm.predict_proba(X).probabilities, forest.predict_proba(X).probabilities]
        stacks = []
        stack = DecisionTree.stack
        monkeypatch.setattr(DecisionTree, "stack",
                            classmethod(lambda cls, trees: stacks.append(1) or stack(trees)))
        again = [gbm.predict_proba(X).probabilities, forest.predict_proba(X).probabilities]
        assert stacks == []
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# an independent split search: every node sorted again from scratch
# ---------------------------------------------------------------------------


def oracle_tree(X, y, w, params, rng=None):
    """Greedy CART that shares no code with `_TreeBuilder` or `_SplitState`.

    Each node sorts its rows again, column by column (stably, rows in index
    order, as a stable partition of the stably sorted root keeps them), and
    scans 1-D cumsums of the sorted weights and weighted targets (w * y, or
    w * onehot_k for each class k) with the same gain formula,
    sum_k (SL_k^2 / WL + SR_k^2 / WR - S_k^2 / W). The left child takes the
    rows sorted at or below the chosen position; nodes are numbered in
    pre-order. Leaf values are
    weighted means over the rows `reference_walk` routes to each leaf, added
    one row at a time in row order; inner nodes, and a leaf that no weight
    reaches, hold 0."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=np.float64)
    n, F = X.shape
    classification = params.task == "classification"
    if classification:
        K = params.n_classes if params.n_classes is not None else int(np.max(y)) + 1
        onehot = np.zeros((n, K))
        onehot[np.arange(n), y.astype(np.intp)] = 1.0
    targets = onehot if classification else y[:, None]
    if params.max_features is not None and rng is None:
        rng = np.random.default_rng(0)
    nodes, importance = [], np.zeros(F)

    def impurity(idx):
        """Of the rows idx, taken in column 0's order."""
        wi = w[idx]
        total = wi.sum()
        if total <= 0:
            return 0.0
        if classification:
            s = (wi[:, None] * onehot[idx]).sum(axis=0)
            return float(total - np.dot(s, s) / total)
        yi = y[idx]
        s, q = np.dot(wi, yi), np.dot(wi, yi**2)
        return float(q - s * s / total)

    def column_gain(order, j):
        xs, ws = X[order, j], w[order]
        cw = np.cumsum(ws)
        WL = cw[:-1]
        WR = cw[-1] - WL
        sq_l, sq_r, sq = 0.0, 0.0, 0.0
        for target in targets.T:
            c = np.cumsum(ws * target[order])
            SL, SR = c[:-1], c[-1] - c[:-1]
            sq_l = sq_l + SL * SL
            sq_r = sq_r + SR * SR
            sq = sq + c[-1] * c[-1]
        gain = sq_l / WL + sq_r / WR - sq / cw[-1]
        pos = np.arange(len(order) - 1)
        valid = (xs[:-1] < xs[1:]) & (WL > 0) & (WR > 0)
        valid &= (pos >= params.min_leaf - 1) & (pos < len(order) - params.min_leaf)
        return np.where(valid, gain, -np.inf), xs

    def grow(rows, depth):
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1])
        if depth >= params.max_depth or len(rows) < 2 * params.min_leaf:
            return node
        if impurity(rows[np.argsort(X[rows, 0], kind="stable")]) <= 1e-12:
            return node
        k = params.max_features
        cands = range(F) if k is None or k >= F else np.sort(rng.choice(F, size=k, replace=False))
        best = None
        for j in cands:
            order = rows[np.argsort(X[rows, j], kind="stable")]
            gain, xs = column_gain(order, j)
            i = int(np.argmax(gain))
            if np.isfinite(gain[i]) and (best is None or gain[i] > best[0]):
                best = (gain[i], int(j), i, order, xs)
        if best is None:
            return node
        gain, j, i, order, xs = best
        mid = float((xs[i] + xs[i + 1]) / 2.0)
        nodes[node][:2] = j, (float(xs[i]) if mid >= xs[i + 1] else mid)
        importance[j] += float(max(gain, 0.0))
        in_left = np.isin(rows, order[: i + 1])
        nodes[node][2] = grow(rows[in_left], depth + 1)
        nodes[node][3] = grow(rows[~in_left], depth + 1)
        return node

    with np.errstate(divide="ignore", invalid="ignore"):
        grow(np.arange(n), 0)
    feature, threshold, left, right = zip(*nodes)
    tree = DecisionTree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        leaf_values=None,
        raw_importance=importance,
    )
    sums, total = np.zeros((len(nodes), targets.shape[1])), np.zeros(len(nodes))
    for i, leaf in enumerate(reference_walk(tree, X)):
        sums[leaf] += w[i] * targets[i]
        total[leaf] += w[i]
    reached = total > 0
    sums[reached] /= total[reached, None]
    tree.leaf_values = sums if classification else sums[:, 0]
    return tree


def oracle_fit_gbm(*args, **kwargs):
    """`reference_fit_gbm` with every tree grown by `oracle_tree`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[__name__], "fit_tree", oracle_tree)
        return reference_fit_gbm(*args, **kwargs)


@st.composite
def _tree_case(draw):
    n, F, K = draw(st.integers(2, 60)), draw(st.integers(1, 12)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, F))
    columns = draw(st.sampled_from(["real", "rounded", "integer"]))
    if columns == "rounded":
        X = np.round(X, 1)  # many ties
    elif columns == "integer":
        X = rng.integers(0, 4, size=(n, F)).astype(float)
    task = draw(st.sampled_from(["regression", "classification"]))
    if task == "regression":
        y = np.round(rng.normal(size=n), draw(st.sampled_from([1, 8])))
    else:
        y = rng.integers(0, K, n).astype(float)
    weights = draw(st.sampled_from(["none", "exponential", "with_zeros"]))
    w = None if weights == "none" else rng.exponential(size=n)
    if weights == "with_zeros":
        w[rng.random(n) < 0.5] = 0.0
        w[rng.integers(n)] = 1.0  # not all zero
    params = TreeParams(
        max_depth=draw(st.integers(1, 5)),
        min_leaf=draw(st.integers(1, 3)),
        task=task,
        n_classes=K if task == "classification" else None,
        max_features=draw(st.sampled_from([None, 1, max(1, F // 2)])),
    )
    return X, y, w, params, draw(st.integers(0, 1000))


class TestIndependentSplitSearch:
    @settings(max_examples=150, deadline=None)
    @given(_tree_case())
    def test_fit_tree_matches_oracle(self, case):
        X, y, w, params, seed = case
        tree = fit_tree(X, y, w, params, rng=np.random.default_rng(seed))
        ref = oracle_tree(X, y, w, params, rng=np.random.default_rng(seed))
        for name in _TREE_ARRAYS:
            np.testing.assert_array_equal(getattr(tree, name), getattr(ref, name), err_msg=name)

    @settings(max_examples=60, deadline=None)
    @given(_gbm_case().filter(lambda case: case[3].max_depth >= 2 and case[3].n_rounds >= 3))
    def test_fit_gbm_matches_oracle(self, case):
        X, y, w, params, K, seed = case
        new = fit_gbm(X, y, w, params, seed=seed, n_classes=K)
        ref = oracle_fit_gbm(X, y, w, params, seed=seed, n_classes=K)
        assert_same_gbm(new, ref, np.vstack([X, X[::-1] + 0.25]))

    def test_wide_fit_gbm_matches_reference_and_oracle(self):
        # 60 x 200 nodes; duplicated and rounded columns tie, and late
        # rounds leave small residuals
        rng = np.random.default_rng(11)
        X = np.round(rng.normal(size=(60, 200)), 1)
        X[:, 100:150] = X[:, :50]
        y = rng.integers(0, 3, 60)
        w = rng.exponential(size=60)
        params = GbmParams(n_rounds=4, max_depth=3)
        model = fit_gbm(X, y, w, params)
        assert_same_gbm(model, reference_fit_gbm(X, y, w, params), X)
        assert_same_gbm(model, oracle_fit_gbm(X, y, w, params), X)


# ---------------------------------------------------------------------------
# child split states kept across GBM rounds
# ---------------------------------------------------------------------------


class _StateLog:
    """Tags each `_SplitState` with the round it was built in and the last
    round a split search used it; records, for each tree, the rounds in
    which the states its builder could reuse were last used, and for each
    search on a child state, (round, round the state was built)."""

    def __init__(self, monkeypatch, K):
        self.builds, self.built, self.held, self.searched = 0, [], [], []
        init, build = _SplitState.__init__, _TreeBuilder.build
        best_split = _TreeBuilder._best_split
        log = self

        def tagged_init(state, *args):
            init(state, *args)
            state.round = log.builds // K
            log.built.append(state)

        def logged_build(builder):
            log.held.append((log.builds // K, [s.used for s in builder.states.values()]))
            tree_and_leaves = build(builder)
            log.builds += 1
            return tree_and_leaves

        def logged_search(builder, state):
            state.used = log.builds // K
            if state is not builder.root:
                log.searched.append((state.used, state.round))
            return best_split(builder, state)

        monkeypatch.setattr(_SplitState, "__init__", tagged_init)
        monkeypatch.setattr(_TreeBuilder, "build", logged_build)
        monkeypatch.setattr(_TreeBuilder, "_best_split", logged_search)


class TestChildStateReuse:
    def test_repeated_root_split_builds_fewer_states_than_nodes(self, monkeypatch):
        # one strong column: every round's class trees split the root on it
        # at the same place, so their children's rows repeat
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 6))
        y = (X[:, 2] + 0.5 * rng.normal(size=60) > 0).astype(int)
        params = GbmParams(n_rounds=8, max_depth=3)
        log = _StateLog(monkeypatch, K=2)
        model = fit_gbm(X, y, params=params)
        grown = sum(int((t.feature[1:] >= 0).sum()) for r in model.trees for t in r)
        child_states = len(log.built) - 1  # one root state for the fit
        assert {t.feature[0] for r in model.trees for t in r} == {2}
        assert 0 < child_states < grown
        monkeypatch.undo()
        assert_same_gbm(model, reference_fit_gbm(X, y, params=params), X)

    @pytest.mark.parametrize("subsample", [1.0, 0.5])
    def test_states_held_were_used_this_round_or_the_last(self, rng, monkeypatch, subsample):
        X = np.round(rng.normal(size=(50, 5)), 1)
        y = rng.integers(0, 3, 50)
        params = GbmParams(n_rounds=10, max_depth=3, min_leaf=1, subsample=subsample)
        log = _StateLog(monkeypatch, K=3)
        fit_gbm(X, y, params=params, seed=3)
        assert len(log.held) == 30
        for r, used in log.held:
            assert len(used) <= 2 * 3 * (2**3 - 2)
            assert set(used) <= {r - 1, r}
        reused = any(built < r for r, built in log.searched)
        assert reused == (subsample == 1.0)

    def test_subsampled_fit_never_reuses_a_state_across_rounds(self, rng, monkeypatch):
        X = rng.integers(0, 3, size=(40, 4)).astype(float)
        y = rng.integers(0, 2, 40)
        params = GbmParams(n_rounds=12, max_depth=3, min_leaf=1, subsample=0.5)
        log = _StateLog(monkeypatch, K=2)
        fit_gbm(X, y, params=params, seed=1)
        assert log.searched
        assert all(built == r for r, built in log.searched)
        # the class trees of one round still share their states
        assert len(log.searched) > len(log.built) - 12


# ---------------------------------------------------------------------------
# the split kernel against the textbook gain, parent minus children
# ---------------------------------------------------------------------------

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def textbook_gain(state, y, w, K=None):
    """Every position's gain at `state` with the operations, in their
    order, of the split search before the one kernel: the node's impurity
    minus both sides', (Q - S^2/W) - ((QR - SR^2/WR) + (QL - SL^2/WL)) for
    regression, and over K one-hot targets with Q = W for Gini; -inf where
    no threshold may fall. Also returns the terms of the rounding bound
    between it and the kernel: Q, the largest P = S^2/W and the largest
    T = SL^2/WL + SR^2/WR over valid positions."""
    S, cw = state.S, np.broadcast_to(state.cw, state.S.shape)
    W = cw[:, -1:]
    WR = W - cw
    if K is None:
        wy = w * y
        SL, QL = wy.take(S).cumsum(axis=1), (wy * y).take(S).cumsum(axis=1)
        S_tot, Q_tot = SL[:, -1:], QL[:, -1:]
        a, b = SL * SL / cw, (S_tot - SL) ** 2 / WR
        P = S_tot[:, 0] ** 2 / W[:, 0]
        gain = (Q_tot[:, 0] - P)[:, None] - (((Q_tot - QL) - b) + (QL - a))
        Q = (wy * y).take(S[0]).sum()
    else:
        sq_l, sq_r, sq = np.zeros_like(cw), np.zeros_like(cw), np.zeros(len(S))
        for k in range(K):
            SL = (w * (y == k)).take(S).cumsum(axis=1)
            SR = SL[:, -1:] - SL
            sq += SL[:, -1] ** 2
            sq_l += SL * SL
            sq_r += SR * SR
        a, b = sq_l / cw, sq_r / WR
        P = sq / W[:, 0]
        gain = (W[:, 0] - P)[:, None] - ((cw - a) + (WR - b))
        Q = W[0, 0]
    gain[state.invalid] = -np.inf
    T = np.where(state.invalid, -np.inf, a + b)
    return gain, Q, P.max(), T.max()


def assert_within_bound_of_the_textbook_best(X, y, w, min_leaf, rows=None, K=None):
    """The split `_best_split` picks has a textbook gain within
    E = 8 eps (Q + P + T) + 16 tiny of the best textbook gain: the kernel and
    the textbook formula share SL^2/WL, SR^2/WR and S^2/W bit for bit and
    differ only in the rounding of their additions, at most 3.5 eps
    (Q + P + T) at each position, whatever the cumsum order."""
    task = "regression" if K is None else "classification"
    builder = _TreeBuilder(X, y, w, TreeParams(min_leaf=min_leaf, task=task, n_classes=K))
    state = _SplitState.of_rows(X, w, rows, min_leaf, builder.uniform)
    with np.errstate(divide="ignore", invalid="ignore"):
        split = builder._best_split(state)
        gain, Q, P, T = textbook_gain(state, y, w, K)
    if split is None:
        assert not np.isfinite(gain).any()
        return
    feat, _, _, n_left, _ = split
    E = 8 * _EPS * (Q + P + T) + 16 * _TINY
    assert np.isfinite(E)
    assert gain[feat, n_left - 1] >= gain.max() - E


_WEIGHT_LEVELS = np.array([0.0, 1e-300, 1e-150, 1e-12, 1.0, 1e6])


def _reordered_copies(rng, x, copies):
    """Columns that cut the rows as x does at its median, each side in a
    new random order: at that cut their sums are the same sums taken in
    other orders, so their gains differ by rounding alone."""
    low = x <= np.median(x)
    return np.column_stack(
        [np.where(low, rng.uniform(0, 1, len(x)), rng.uniform(2, 3, len(x))) for _ in range(copies)]
    )


@st.composite
def _split_case(draw):
    """A regression or Gini node with near-tied columns: exact duplicates
    (equal scores), reordered copies of column 0's median cut, coarsened
    copies and few-valued columns; regression targets at scales from 1e-12
    to 1e100, where no w * y * y overflows, and weights from 0 and 1e-300
    to 1e6."""
    n, F = draw(st.integers(4, 60)), draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, F))
    for j, kind in enumerate(rng.integers(0, 5, F)):
        if kind == 1:
            X[:, j] = rng.integers(0, 3, n)
        elif kind == 2 and j:
            X[:, j] = X[:, rng.integers(j)]
        elif kind == 3 and j:
            X[:, j] = np.floor(2 * X[:, rng.integers(j)])
        elif kind == 4 and j:
            X[:, j] = _reordered_copies(rng, X[:, 0], 1)[:, 0]
    step = X[:, 0] > np.median(X[:, 0])  # column 0's cut
    target = draw(st.sampled_from(["step", "residual", "few-valued", "classes"]))
    K = None
    if target == "step":  # on an offset
        y = step + 0.3 * rng.normal(size=n)
        y += draw(st.sampled_from([0.0, 1e3]))
    elif target == "residual":
        y = rng.uniform(-1, 1, n)
    elif target == "few-valued":
        y = rng.integers(-1, 2, n).astype(float)
    else:  # the cut's two classes, some rows relabelled at random
        K = draw(st.integers(2, 4))
        y = np.where(rng.random(n) < 0.3, rng.integers(0, K, n), step).astype(np.intp)
    if K is None:
        y *= draw(st.sampled_from([1.0, 1e-6, 1e-12, 1e100]))
    weights = draw(st.sampled_from(["ones", "exponential", "levels"]))
    w = np.ones(n) if weights == "ones" else rng.exponential(size=n)
    if weights == "levels":
        w = _WEIGHT_LEVELS[rng.integers(0, len(_WEIGHT_LEVELS), n)]
        w[rng.integers(n)] = 1.0  # not all zero
    min_leaf = draw(st.integers(1, 3))
    rows = None
    if draw(st.booleans()):  # a node below the root
        rows = np.sort(rng.choice(n, size=draw(st.integers(2, n)), replace=False))
    return X, y, w, min_leaf, rows, K


class TestSplitKernel:
    @settings(max_examples=300, deadline=None)
    @given(_split_case())
    def test_chosen_split_is_within_the_bound_of_the_textbook_best(self, case):
        assert_within_bound_of_the_textbook_best(*case)

    def test_same_cut_summed_in_other_orders(self):
        # the near-ties the bound is there for, at fixed seeds so that every
        # run meets some: ten reordered copies of the cut that wins
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 61))
            X = rng.normal(size=(n, 20))
            X[:, 1:11] = _reordered_copies(rng, X[:, 0], 10)
            y = 1e3 + (X[:, 0] > np.median(X[:, 0])) + 0.3 * rng.normal(size=n)
            w = rng.exponential(size=n)
            assert_within_bound_of_the_textbook_best(X, y, w, 1)


# ---------------------------------------------------------------------------
# one weight-cumsum row when a fit's weights are all equal
# ---------------------------------------------------------------------------


@st.composite
def _uniform_weight_case(draw):
    """A node under one constant weight c from 1e-300 to 1e6: rounded X, so
    values tie within and across columns; regression or class targets; some
    of the rows, and a forest-style subset of the columns."""
    n, F = draw(st.integers(2, 50)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.normal(size=(n, F)), draw(st.integers(0, 1)))
    K = draw(st.sampled_from([None, 2, 3]))
    y = rng.normal(size=n) if K is None else rng.integers(0, K, n)
    w = np.full(n, draw(st.sampled_from([1e-300, 1e-12, 1.0, 3.0, 1e6])))
    min_leaf = draw(st.integers(1, 3))
    rows = None
    if draw(st.booleans()):
        rows = np.sort(rng.choice(n, size=draw(st.integers(1, n)), replace=False))
    cols = np.arange(F)
    if draw(st.booleans()):
        cols = np.sort(rng.choice(F, size=draw(st.integers(1, F)), replace=False))
    return X, y, w, K, min_leaf, rows, cols


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def assert_same_split(got, want):
    """Two `_best_split` results agree on every field, floats to the bit."""
    if want is None:
        assert got is None
        return
    (feat, thr, gain, n_left, in_left), (feat_, thr_, gain_, n_left_, in_left_) = got, want
    assert (feat, n_left) == (feat_, n_left_)
    assert (_bits(thr), _bits(gain)) == (_bits(thr_), _bits(gain_))
    np.testing.assert_array_equal(in_left, in_left_)


class TestUniformWeightCumsum:
    @settings(max_examples=300, deadline=None)
    @given(_uniform_weight_case())
    def test_one_row_state_splits_as_the_full_state(self, case):
        X, y, w, K, min_leaf, rows, cols = case
        task = "regression" if K is None else "classification"
        builder = _TreeBuilder(X, y, w, TreeParams(min_leaf=min_leaf, task=task, n_classes=K))
        S = _SplitState.of_rows(X, w, rows, min_leaf, False).S
        one, full = (_SplitState(X, w, S, cols, min_leaf, uniform) for uniform in (True, False))
        assert one.cw.shape == (1, S.shape[1]) and full.cw.shape == (len(cols), S.shape[1])
        assert np.broadcast_to(one.cw, full.cw.shape).tobytes() == full.cw.tobytes()
        np.testing.assert_array_equal(one.invalid, full.invalid)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert_same_split(builder._best_split(one), builder._best_split(full))

    @staticmethod
    def _state_shapes(monkeypatch) -> list:
        """(cw.shape, S.shape) of every state built from now on."""
        shapes, init = [], _SplitState.__init__

        def recorded(state, *args):
            init(state, *args)
            shapes.append((state.cw.shape, state.S.shape))

        monkeypatch.setattr(_SplitState, "__init__", recorded)
        return shapes

    def test_fits_under_equal_weights_keep_one_row(self, rng, monkeypatch):
        X = np.round(rng.normal(size=(60, 9)), 1)
        y = rng.integers(0, 3, 60)
        shapes = self._state_shapes(monkeypatch)
        for subsample in (1.0, 0.5):
            fit_gbm(X, y, params=GbmParams(n_rounds=4, max_depth=3, subsample=subsample))
        fit_random_forest(X, y, RandomForestParams(n_trees=4, max_depth=4))
        fit_tree(X, y, np.full(60, 3.0), TreeParams(task="classification"))
        assert len(shapes) > 10
        assert all(cw == (1, S[1]) for cw, S in shapes)

    def test_weighted_fits_keep_every_row(self, rng, monkeypatch):
        X = np.round(rng.normal(size=(60, 9)), 1)
        y = rng.integers(0, 3, 60)
        w = np.ones(60)
        w[7] = 2.0
        shapes = self._state_shapes(monkeypatch)
        fit_gbm(X, y, w, params=GbmParams(n_rounds=4, max_depth=3))
        fit_tree(X, y, w, TreeParams(task="classification"))
        assert len(shapes) > 10
        assert all(cw == S for cw, S in shapes)


# ---------------------------------------------------------------------------
# one kernel pass over every target
# ---------------------------------------------------------------------------


def reference_best_split(builder, state):
    """`_best_split` as a loop over the targets, each gathered and
    cumsummed on its own and added to running sums, with a per-column
    argmax and then one over the columns' best gains."""
    S, cw = state.S, state.cw
    sq_l = sq_r = None
    for t in builder.w_targets:
        SL = t.take(S).cumsum(axis=1)
        SR = SL[:, -1:] - SL
        if sq_l is None:
            sq_l, sq_r = SL * SL, SR * SR
        else:
            sq_l += SL * SL
            sq_r += SR * SR
    sq_l /= cw
    sq_r /= cw[:, -1:] - cw
    gain = sq_r + sq_l - sq_l[:, -1:]
    gain[state.invalid] = -np.inf
    best_pos = gain.argmax(axis=1)
    best_gain = gain[np.arange(len(S)), best_pos]
    if not np.isfinite(best_gain).any():
        return None
    j = int(best_gain.argmax())
    i = int(best_pos[j])
    feat = int(state.cols[j])
    lo, hi = builder.X[S[j, i : i + 2], feat]
    thr = float((lo + hi) / 2.0)
    if thr >= hi:
        thr = float(lo)
    in_left = np.zeros(len(builder.X), dtype=bool)
    in_left[S[j, : i + 1]] = True
    return feat, thr, float(max(best_gain[j], 0.0)), i + 1, in_left


def _kernel_split(X, y, w, K, min_leaf, rows=None, cols=None):
    """`_best_split` and `reference_best_split` at one node."""
    task = "regression" if K is None else "classification"
    builder = _TreeBuilder(X, y, w, TreeParams(min_leaf=min_leaf, task=task, n_classes=K))
    S = _SplitState.of_rows(X, w, rows, min_leaf, builder.uniform).S
    cols = np.arange(X.shape[1]) if cols is None else cols
    state = _SplitState(X, w, S, cols, min_leaf, builder.uniform)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return builder._best_split(state), reference_best_split(builder, state)


@st.composite
def _kernel_case(draw):
    """A regression node, or a Gini node of 1 to 12 classes, under equal
    weights or unequal ones (some zero), with values tied within and
    across columns; some of the rows, and a subset of the columns."""
    n, F = draw(st.integers(2, 50)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.normal(size=(n, F)), draw(st.integers(0, 2)))
    K = draw(st.one_of(st.none(), st.integers(1, 12)))
    if K is None:
        y = rng.normal(size=n) * draw(st.sampled_from([1.0, 1e-12, 1e100]))
    else:
        y = rng.integers(0, K, n)
    weights = draw(st.sampled_from(["equal", "exponential", "levels"]))
    if weights == "equal":
        w = np.full(n, draw(st.sampled_from([1e-300, 1.0, 3.0, 1e6])))
    elif weights == "exponential":
        w = rng.exponential(size=n)
    else:
        w = _WEIGHT_LEVELS[rng.integers(0, len(_WEIGHT_LEVELS), n)]
        w[rng.integers(n)] = 1.0  # not all zero
    min_leaf = draw(st.integers(1, 3))
    rows = None
    if draw(st.booleans()):
        rows = np.sort(rng.choice(n, size=draw(st.integers(1, n)), replace=False))
    cols = None
    if draw(st.booleans()):
        cols = np.sort(rng.choice(F, size=draw(st.integers(1, F)), replace=False))
    return X, y, w, K, min_leaf, rows, cols


class TestOnePassKernel:
    @settings(max_examples=300, deadline=None)
    @given(_kernel_case())
    def test_matches_the_per_target_loop(self, case):
        assert_same_split(*_kernel_split(*case))

    def test_no_valid_position(self, rng):
        # constant columns: no threshold may fall anywhere
        X = np.ones((10, 3))
        for K in (None, 3):
            y = rng.normal(size=10) if K is None else rng.integers(0, 3, 10)
            got, want = _kernel_split(X, y, np.ones(10), K, 1)
            assert got is None and want is None

    def test_squares_that_overflow(self, rng):
        X = rng.normal(size=(8, 4))
        w = np.ones(8)
        # S^2 overflows in every column, so every valid gain is inf - inf
        got, want = _kernel_split(X, np.full(8, 1e200), w, None, 1)
        assert got is None and want is None
        # partial sums of +-1e154 stay below overflow in column 0, whose
        # signs alternate, and overflow where column 1 puts two of one sign
        # first: a split of infinite gain in column 1
        y = np.array([1e154, -1e154, 1e154, -1e154, 0.5, 0.25, 0.0, 0.0])
        X[:, 0] = np.arange(8)
        X[:, 1] = [0, 2, 1, 3, 4, 5, 6, 7]
        got, want = _kernel_split(X, y, w, None, 1)
        assert want is not None and want[0] == 1 and want[2] == np.inf
        assert_same_split(got, want)
        # with unequal weights too
        got, want = _kernel_split(X, y, w + np.arange(8) / 8, None, 1)
        assert_same_split(got, want)

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latefuse import integrators
from latefuse.integrators import (
    INTEGRATOR_KINDS,
    FitContext,
    FittedIntegrator,
    IntegrationError,
    IntegratorSpec,
    _expert_outputs,
    adaboost_high_confidence,
    fit_adaboost_mm,
    fit_concat,
    fit_integrator,
    fit_meta_learner,
    fit_moe,
    fit_pbmvboost,
    fit_vote,
    incremental_select,
    moe_gate,
    vote_hard,
    vote_soft,
)
from latefuse.learners import (
    GbmParams,
    LearnerError,
    PredictionSet,
    RandomForestParams,
    fit_gbm,
)
from latefuse.preprocess import PreprocessConfig
from latefuse.synth import ModalitySpec, SynthSpec, generate

from conftest import make_table

FAST = GbmParams(n_rounds=12, max_depth=2)


def _pred(labels, n_classes):
    labels = np.asarray(labels)
    probs = np.zeros((len(labels), n_classes))
    probs[np.arange(len(labels)), labels] = 1.0
    return PredictionSet(labels=labels, probabilities=probs)


def _prob_pred(rows):
    return PredictionSet.from_probabilities(np.asarray(rows, dtype=np.float64))


class TestVoteHard:
    def test_majority_wins(self):
        out = vote_hard([_pred([0], 3), _pred([1], 3), _pred([1], 3)])
        assert out.labels.tolist() == [1]

    def test_tie_goes_to_first_modality(self):
        out = vote_hard([_pred([0], 2), _pred([1], 2)])
        assert out.labels.tolist() == [0]

    def test_single_modality_identity(self):
        out = vote_hard([_pred([2, 0, 1], 3)])
        assert out.labels.tolist() == [2, 0, 1]

    def test_probabilities_are_vote_fractions(self):
        out = vote_hard([_pred([0], 2), _pred([0], 2), _pred([1], 2)])
        np.testing.assert_allclose(out.probabilities[0], [2 / 3, 1 / 3])

    def test_tie_set_excludes_minority_vote(self):
        # votes (A,B,B,C,C): tied {B,C}; earliest tied vote is B (modality 2)
        out = vote_hard([_pred([0], 3), _pred([1], 3), _pred([1], 3),
                         _pred([2], 3), _pred([2], 3)])
        assert out.labels.tolist() == [1]

    def test_empty_errors(self):
        with pytest.raises(IntegrationError, match="empty"):
            vote_hard([])


def _loop_vote_hard_labels(votes, counts):
    """The per-row tie rule: on a tied row, the earliest modality's vote
    among the tied classes; otherwise the class with the most votes."""
    max_count = counts.max(axis=1)
    labels = np.argmax(counts, axis=1)
    tied = (counts == max_count[:, None]).sum(axis=1) > 1
    for i in np.flatnonzero(tied):
        for vote in votes[i]:
            if counts[i, vote] == max_count[i]:
                labels[i] = vote
                break
    return labels


@settings(max_examples=200, deadline=None)
@given(
    n_modalities=st.integers(1, 7),
    n_classes=st.integers(2, 5),
    data=st.data(),
)
def test_vote_hard_is_the_per_row_tie_loop(n_modalities, n_classes, data):
    # a few votes over a few classes tie often: two classes at an even
    # modality count, or votes spread evenly over three or more classes
    n_samples = data.draw(st.integers(1, 12))
    row = st.lists(
        st.integers(0, n_classes - 1), min_size=n_modalities, max_size=n_modalities
    )
    votes = np.array(data.draw(st.lists(row, min_size=n_samples, max_size=n_samples)))
    parts = [_pred(votes[:, m], n_classes) for m in range(n_modalities)]
    counts = np.stack([np.bincount(v, minlength=n_classes) for v in votes]).astype(float)
    out = vote_hard(parts)
    np.testing.assert_array_equal(out.labels, _loop_vote_hard_labels(votes, counts))
    np.testing.assert_array_equal(out.probabilities, counts / n_modalities)


class TestVoteSoft:
    def test_mean_and_argmax(self):
        out = vote_soft([_prob_pred([[0.6, 0.4]]), _prob_pred([[0.3, 0.7]])])
        np.testing.assert_allclose(out.probabilities[0], [0.45, 0.55])
        assert out.labels.tolist() == [1]

    def test_idempotent_on_identical_rows(self):
        rows = [[0.2, 0.5, 0.3]]
        out = vote_soft([_prob_pred(rows), _prob_pred(rows), _prob_pred(rows)])
        np.testing.assert_allclose(out.probabilities, rows)

    def test_matches_hand_mean_four_class(self, rng):
        rows = [rng.dirichlet(np.ones(4), size=6) for _ in range(3)]
        out = vote_soft([_prob_pred(r) for r in rows])
        expected = np.mean(rows, axis=0)
        np.testing.assert_allclose(out.probabilities, expected, atol=1e-12)
        np.testing.assert_array_equal(out.labels, np.argmax(expected, axis=1))

    def test_permutation_equivariance(self, rng):
        parts = [_prob_pred(rng.dirichlet(np.ones(3), size=5)) for _ in range(4)]
        a = vote_soft(parts)
        b = vote_soft(list(reversed(parts)))
        np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n_modalities=st.integers(1, 6),
        n_samples=st.integers(1, 8),
        n_classes=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_invariant_to_modality_order(self, n_modalities, n_samples, n_classes, seed, data):
        rng = np.random.default_rng(seed)
        parts = [
            _prob_pred(rng.dirichlet(np.ones(n_classes), size=n_samples))
            for _ in range(n_modalities)
        ]
        order = data.draw(st.permutations(range(n_modalities)))
        a = vote_soft(parts)
        b = vote_soft([parts[i] for i in order])
        np.testing.assert_allclose(a.probabilities, b.probabilities, rtol=0, atol=1e-12)

    def test_bad_probability_rows_error(self):
        bad = PredictionSet(labels=np.array([0]), probabilities=np.array([[0.9, 0.3]]))
        with pytest.raises(IntegrationError, match="summing"):
            vote_soft([bad])


class TestHighConfidence:
    def test_hard_half_agreement_correct(self):
        # 4 modalities, predictions (A,A,B,C), truth A: 2/4 agree -> confident
        parts = [_pred([0], 3), _pred([0], 3), _pred([1], 3), _pred([2], 3)]
        out = adaboost_high_confidence(parts, np.array([0]), "hard")
        assert out.tolist() == [True]

    def test_soft_ratio_below_double_misclassified(self):
        parts = [_prob_pred([[0.5, 0.3, 0.2]])]
        out = adaboost_high_confidence(parts, np.array([0]), "soft", 2.0)
        assert out.tolist() == [False]  # 0.5 < 2 * 0.3 despite correct argmax

    def test_unanimous_correct_under_all_aggregators(self):
        parts = [_pred([1], 3)] * 3
        truth = np.array([1])
        for kind in ("hard", "soft"):
            assert adaboost_high_confidence(parts, truth, kind).tolist() == [True]
        agg = vote_hard(parts)
        assert adaboost_high_confidence(parts, truth, "meta", aggregated=agg).tolist() == [True]

    def test_confident_but_wrong_is_misclassified(self):
        parts = [_pred([0], 2)] * 3
        out = adaboost_high_confidence(parts, np.array([1]), "hard")
        assert out.tolist() == [False]

    def test_agreement_threshold_is_ceil_half(self):
        # M=5: 2 agreeing is not enough, 3 is
        parts2 = [_pred([0], 4), _pred([0], 4), _pred([1], 4), _pred([2], 4), _pred([3], 4)]
        assert adaboost_high_confidence(parts2, np.array([0]), "hard").tolist() == [False]
        parts3 = [_pred([0], 4), _pred([0], 4), _pred([0], 4), _pred([1], 4), _pred([2], 4)]
        assert adaboost_high_confidence(parts3, np.array([0]), "hard").tolist() == [True]

    def test_meta_requires_aggregated(self):
        with pytest.raises(IntegrationError, match="meta"):
            adaboost_high_confidence([_pred([0], 2)], np.array([0]), "meta")


def _two_modality_data(rng, n=48, n_classes=3, sep=2.0):
    y = rng.integers(0, n_classes, n)
    a = rng.normal(size=(n, 5))
    b = rng.normal(size=(n, 4))
    for k in range(n_classes):
        a[:, k % 5] += np.where(y == k, sep, 0.0)
        b[:, k % 4] += np.where(y == k, -sep, 0.0)
    return [make_table("A", a), make_table("B", b)], y


class TestConcat:
    def test_column_counts_add_up(self, rng):
        tables, y = _two_modality_data(rng)
        spec = IntegratorSpec(kind="CONCAT", base=FAST)
        fitted = fit_concat(tables, y, spec, 3, seed=0)
        assert fitted.predict_values.keywords["model"].n_features == 9
        assert len(fitted.feature_scores()) == 9

    def test_single_modality_equals_plain_gbm(self, rng):
        tables, y = _two_modality_data(rng)
        spec = IntegratorSpec(kind="CONCAT", base=FAST)
        fitted = fit_concat(tables[:1], y, spec, 3, seed=4)
        plain = fit_gbm(tables[0].values, y, np.ones(len(y)), FAST, seed=4, n_classes=3)
        np.testing.assert_array_equal(
            fitted.predict(tables[:1]).probabilities,
            plain.predict_proba(tables[0].values).probabilities,
        )

    def test_xor_across_modalities(self, rng):
        # class = XOR of one bit per modality: only the joint model can win
        n = 120
        xa = rng.integers(0, 2, n).astype(float)
        xb = rng.integers(0, 2, n).astype(float)
        y = (xa.astype(int) ^ xb.astype(int))
        ta = make_table("A", xa.reshape(-1, 1))
        tb = make_table("B", xb.reshape(-1, 1))
        spec = IntegratorSpec(kind="CONCAT", base=GbmParams(n_rounds=30, max_depth=2))
        both = fit_concat([ta, tb], y, spec, 2, seed=1)
        acc_both = (both.predict([ta, tb]).labels == y).mean()
        acc_single = []
        for t in (ta, tb):
            single = fit_concat([t], y, spec, 2, seed=1)
            acc_single.append((single.predict([t]).labels == y).mean())
        assert acc_both == 1.0
        assert max(acc_single) <= 0.6


class TestVotingIntegrators:
    def test_feature_scores_keyed_by_modality(self, rng):
        tables, y = _two_modality_data(rng)
        fitted = fit_vote(tables, y, IntegratorSpec(kind="ENS-S", base=FAST), 3, seed=0)
        keys = set(fitted.feature_scores())
        assert all(k[0] in ("A", "B") for k in keys)
        assert len(keys) == 9

    @pytest.mark.parametrize(
        "ens_kind, ada_kind", [("ENS-S", "ADA-S"), ("ENS-H", "ADA-H")], ids=["ADA-S", "ADA-H"]
    )
    def test_ada_soft_one_round_equals_soft_vote(self, rng, ens_kind, ada_kind):
        # one kept round combines its models by the ensemble's own rule; ADA-H
        # scores that round's labels only, so it matches ENS-H on labels
        tables, y = _two_modality_data(rng)
        ens = fit_vote(tables, y, IntegratorSpec(kind=ens_kind, base=FAST), 3, seed=9)
        ada = fit_adaboost_mm(
            tables, y, IntegratorSpec(kind=ada_kind, base=FAST, boosting_rounds=1), 3, seed=9
        )
        assert len(ada.extras["round_weights"]) == 1
        ens_pred, ada_pred = ens.predict(tables), ada.predict(tables)
        np.testing.assert_array_equal(ens_pred.labels, ada_pred.labels)
        if ada_kind == "ADA-S":
            np.testing.assert_allclose(
                ens_pred.probabilities, ada_pred.probabilities, atol=1e-12
            )


def _samme_oracle(X, y, n_classes, base, rounds, seed):
    """Independent single-view SAMME loop (Zhu et al. style)."""
    n = len(y)
    w = np.ones(n)
    models, alphas = [], []
    for t in range(rounds):
        model = fit_gbm(X, y, w, base, seed=seed + 1009 * t, n_classes=n_classes)
        pred = model.predict_proba(X).labels
        correct = pred == y
        eps = float(w[~correct].sum() / w.sum())
        if eps <= 0.0:
            models.append(model)
            alphas.append(np.log(1e10) + np.log(n_classes - 1))
            break
        if eps >= 1 - 1 / n_classes:
            w = np.ones(n)
            continue
        alpha = np.log((1 - eps) / eps) + np.log(n_classes - 1)
        models.append(model)
        alphas.append(alpha)
        w = w * np.where(correct, 1.0, np.exp(alpha))
        w = w * (n / w.sum())

    def predict(Xq):
        scores = np.zeros((len(Xq), n_classes))
        for alpha, model in zip(alphas, models):
            lab = model.predict_proba(Xq).labels
            scores[np.arange(len(Xq)), lab] += alpha
        return np.argmax(scores, axis=1)

    return predict


class TestAdaboost:
    def test_single_view_matches_samme_oracle(self, rng):
        n = 40
        y = rng.integers(0, 3, n)
        X = rng.normal(size=(n, 4))
        for k in range(3):
            X[:, k] += np.where(y == k, 1.0, 0.0)  # weak signal so boosting matters
        table = make_table("M", X)
        base = GbmParams(n_rounds=3, max_depth=1)
        spec = IntegratorSpec(kind="ADA-H", base=base, boosting_rounds=5)
        fitted = fit_adaboost_mm([table], y, spec, 3, seed=21)
        oracle = _samme_oracle(X, y, 3, base, 5, seed=21)
        Xq = rng.normal(size=(25, 4))
        np.testing.assert_array_equal(fitted.predict([make_table("M", Xq)]).labels, oracle(Xq))
        np.testing.assert_array_equal(fitted.predict([table]).labels, oracle(X))

    def test_zero_error_stops_early(self, rng):
        tables, y = _two_modality_data(rng, sep=6.0)
        spec = IntegratorSpec(kind="ADA-H", base=GbmParams(n_rounds=40, max_depth=3),
                              boosting_rounds=10)
        fitted = fit_adaboost_mm(tables, y, spec, 3, seed=2)
        assert len(fitted.extras["round_weights"]) == 1
        assert (fitted.predict(tables).labels == y).mean() == 1.0

    def test_samme_weight_ratio(self):
        # eps=0.25, K=4: alpha = ln 3 + ln 3, so the misclassified/correct
        # weight ratio after one update is exp(alpha) = 9
        eps, k = 0.25, 4
        alpha = np.log((1 - eps) / eps) + np.log(k - 1)
        assert np.exp(alpha) == pytest.approx(9.0, rel=1e-12)

    def test_round_weights_positive_and_finite(self, rng):
        tables, y = _two_modality_data(rng, sep=1.0)
        spec = IntegratorSpec(kind="ADA-S", base=FAST, boosting_rounds=4)
        fitted = fit_adaboost_mm(tables, y, spec, 3, seed=3)
        for alpha in fitted.extras["round_weights"]:
            assert np.isfinite(alpha) and alpha >= 0

    def test_ada_meta_round_trip(self, rng):
        tables, y = _two_modality_data(rng, n=60)
        spec = IntegratorSpec(kind="ADA-M", base=FAST, boosting_rounds=2, ada_inner_folds=3)
        fitted = fit_adaboost_mm(tables, y, spec, 3, seed=5)
        pred = fitted.predict(tables)
        assert pred.n_samples == 60
        np.testing.assert_allclose(pred.probabilities.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("bootstrap", [False, True])
    def test_ada_meta_forest_honours_bootstrap(self, rng, monkeypatch, bootstrap):
        forests = []
        fit_forest = integrators.fit_random_forest
        monkeypatch.setattr(integrators, "fit_random_forest",
                            lambda X, y, params, **kw: forests.append(params)
                            or fit_forest(X, y, params, **kw))
        tables, y = _two_modality_data(rng, n=60)
        meta_forest = RandomForestParams(n_trees=3, bootstrap=bootstrap)
        spec = IntegratorSpec(kind="ADA-M", base=FAST, boosting_rounds=2, ada_inner_folds=3,
                              meta_forest=meta_forest)
        fit_adaboost_mm(tables, y, spec, 3, seed=5)
        assert forests and all(params == meta_forest for params in forests)


class TestMetaLearner:
    def test_meta_importance_concentrates_on_signal(self):
        hits = 0
        for s in range(10):
            rng = np.random.default_rng(100 + s)
            n = 60
            y = rng.integers(0, 2, n)
            signal = rng.normal(size=(n, 4))
            signal[:, 0] += np.where(y == 1, 3.0, -3.0)
            noise = rng.normal(size=(n, 4))
            tables = [make_table("SIG", signal), make_table("NOISE", noise)]
            spec = IntegratorSpec(
                kind="ML", base=FAST, inner_folds=3,
                meta_forest=RandomForestParams(n_trees=40),
            )
            fitted = fit_meta_learner(tables, y, spec, 2, seed=s)
            rel = fitted.extras["modality_relevance"]
            if rel["SIG"] > 0.7:
                hits += 1
        assert hits >= 8

    def test_self_stacking_does_not_hurt(self, rng):
        n = 80
        y = rng.integers(0, 2, n)
        X = rng.normal(size=(n, 5))
        X[:, 0] += np.where(y == 1, 2.0, -2.0)
        table = make_table("M", X)
        train, test = np.arange(0, 60), np.arange(60, 80)
        base_model = fit_gbm(X[train], y[train], np.ones(60), FAST, seed=0, n_classes=2)
        base_acc = (base_model.predict_proba(X[test]).labels == y[test]).mean()
        spec = IntegratorSpec(kind="ML", base=FAST, inner_folds=3)
        fitted = fit_meta_learner([table.take_rows(train)], y[train], spec, 2, seed=0)
        ml_acc = (fitted.predict([table.take_rows(test)]).labels == y[test]).mean()
        assert ml_acc >= base_acc - 0.05

    def test_constant_meta_features_predict_prior(self, rng):
        n = 30
        y = np.array([0] * 18 + [1] * 12)
        table = make_table("M", rng.normal(size=(n, 3)))
        spec = IntegratorSpec(
            kind="ML",
            base=GbmParams(n_rounds=0),  # base outputs are the constant prior
            inner_folds=3,
            meta_forest=RandomForestParams(n_trees=1, bootstrap=False, max_features=None),
        )
        fitted = fit_meta_learner([table], y, spec, 2, seed=0)
        probs = fitted.predict([table]).probabilities
        np.testing.assert_allclose(probs, np.tile([0.6, 0.4], (n, 1)), atol=1e-9)

    def test_inner_fold_infeasible_errors(self, rng):
        y = np.array([0] * 20 + [1] * 3)  # class 1 smaller than inner_folds=5
        table = make_table("M", rng.normal(size=(23, 3)))
        with pytest.raises(IntegrationError, match="inner fold infeasible"):
            fit_meta_learner([table], y, IntegratorSpec(kind="ML", base=FAST), 2, seed=0)


class TestPbmv:
    def test_identical_views_get_symmetric_weights(self, rng):
        n = 40
        y = rng.integers(0, 2, n)
        X = rng.normal(size=(n, 4))
        X[:, 0] += np.where(y == 1, 1.5, -1.5)
        tables = [make_table("A", X.copy()), make_table("B", X.copy())]
        spec = IntegratorSpec(kind="PBMV", base=GbmParams(n_rounds=5, max_depth=2),
                              boosting_rounds=3)
        fitted = fit_pbmvboost(tables, y, spec, 2, seed=0)
        w = fitted.extras["view_weights"]
        assert w["A"] == pytest.approx(0.5, abs=0.05)
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)

    def test_signal_view_outweighs_noise(self):
        wins = 0
        for s in range(10):
            rng = np.random.default_rng(200 + s)
            n = 50
            y = rng.integers(0, 2, n)
            sig = rng.normal(size=(n, 4))
            sig[:, 0] += np.where(y == 1, 2.0, -2.0)
            noise = rng.normal(size=(n, 4))
            tables = [make_table("SIG", sig), make_table("NOISE", noise)]
            spec = IntegratorSpec(kind="PBMV", base=GbmParams(n_rounds=5, max_depth=2),
                                  boosting_rounds=3)
            fitted = fit_pbmvboost(tables, y, spec, 2, seed=s)
            w = fitted.extras["view_weights"]
            if w["SIG"] > w["NOISE"]:
                wins += 1
        assert wins >= 9

    def test_simplex_invariant(self, rng):
        tables, y = _two_modality_data(rng)
        spec = IntegratorSpec(kind="PBMV", base=GbmParams(n_rounds=4, max_depth=2),
                              boosting_rounds=3)
        fitted = fit_pbmvboost(tables, y, spec, 3, seed=7)
        w = fitted.extras["view_weights"]
        assert all(v >= 0 for v in w.values())
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_fallback_is_q_weighted_view_average(self, rng, monkeypatch):
        tables, y = _two_modality_data(rng)
        spec = IntegratorSpec(kind="PBMV", base=GbmParams(n_rounds=4, max_depth=2),
                              boosting_rounds=2)
        # the bound minimizer reports non-convergence, so the fit falls back
        monkeypatch.setattr(
            integrators, "_minimize_view_bound", lambda risks, dis: (np.array([0.9, 0.1]), False)
        )
        fitted = fit_pbmvboost(tables, y, spec, 3, seed=8)
        assert fitted.extras["uniform_fallback"] is True
        assert fitted.extras["view_weights"] == {"A": 0.5, "B": 0.5}
        pred = fitted.predict(tables)
        n = len(y)
        scores = np.zeros((n, 3))
        state = fitted.predict_values.keywords
        for v, (models, q) in enumerate(zip(state["models"], state["q"])):
            for t, model in enumerate(models):
                lab = model.predict_proba(tables[v].values).labels
                scores[np.arange(n), lab] += 0.5 * q[t]
        np.testing.assert_allclose(pred.probabilities,
                                   scores / scores.sum(axis=1, keepdims=True), atol=1e-12)

    def test_needs_two_views(self, rng):
        tables, y = _two_modality_data(rng)
        spec = IntegratorSpec(kind="PBMV", base=FAST)
        with pytest.raises(IntegrationError, match="at least 2"):
            fit_pbmvboost(tables[:1], y, spec, 3, seed=0)

    def test_view_bound_is_fit_once_after_the_last_round(self, rng, monkeypatch):
        tables, y = _two_modality_data(rng)
        spec = IntegratorSpec(kind="PBMV", base=GbmParams(n_rounds=4, max_depth=2),
                              boosting_rounds=4)
        calls = []
        real = integrators._minimize_view_bound

        def spy(risks, dis):
            calls.append((risks.copy(), dis.copy()))
            return real(risks, dis)

        monkeypatch.setattr(integrators, "_minimize_view_bound", spy)
        fitted = fit_pbmvboost(tables, y, spec, 3, seed=2)
        assert len(calls) == 1
        rho, _ = real(*calls[0])
        assert fitted.extras["view_weights"] == {"A": float(rho[0]), "B": float(rho[1])}

    def test_uniform_fallback_agrees_with_view_weights(self, rng, monkeypatch):
        # the first minimization fails and every later one succeeds: the flag
        # must describe the weights that are reported, fit after fit
        tables, y = _two_modality_data(rng)
        spec = IntegratorSpec(kind="PBMV", base=GbmParams(n_rounds=4, max_depth=2),
                              boosting_rounds=3)
        calls = []

        def flaky(risks, dis):
            calls.append(None)
            if len(calls) == 1:
                return np.full(2, 0.5), False
            return np.array([0.7, 0.3]), True

        monkeypatch.setattr(integrators, "_minimize_view_bound", flaky)
        for _ in range(2):
            extras = fit_pbmvboost(tables, y, spec, 3, seed=8).extras
            uniform = extras["view_weights"] == {"A": 0.5, "B": 0.5}
            assert extras["uniform_fallback"] is uniform
        assert extras["view_weights"] == {"A": 0.7, "B": 0.3}


def _loop_disagreement(qn, preds):
    """The pairwise double loop that `_q_disagreement` replaces."""
    dis = 0.0
    for a in range(len(qn)):
        for b in range(len(qn)):
            if a == b:
                continue
            dis += qn[a] * qn[b] * float(np.mean(preds[a] != preds[b]))
    return dis


@st.composite
def _rounds(draw):
    t = draw(st.integers(1, 12))
    n = draw(st.integers(1, 40))
    k = draw(st.integers(2, 4))
    rows = [draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)) for _ in range(t)]
    for i in range(1, t):  # some rounds repeat an earlier one exactly
        if draw(st.booleans()):
            rows[i] = rows[draw(st.integers(0, i - 1))]
    q = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 20.0)), min_size=t, max_size=t,
    )))
    qn = q / q.sum() if q.sum() > 0 else q
    return qn, np.array(rows, dtype=np.intp)


@given(_rounds())
@example((np.array([1.0]), np.array([[0, 1, 2]])))  # T = 1
@example((np.zeros(3), np.array([[0], [1], [0]])))  # all-zero q, n = 1
@example((np.array([0.0, 0.25, 0.75]), np.array([[0, 1], [1, 1], [0, 0]])))  # partly zero q
@example((np.array([0.5, 0.5]), np.array([[2, 0, 1], [2, 0, 1]])))  # identical rounds
@settings(max_examples=300, deadline=None)
def test_q_disagreement_is_the_double_loop_bit_for_bit(case):
    qn, preds = case
    assert integrators._q_disagreement(qn, preds) == _loop_disagreement(qn, preds)


class TestMoe:
    def test_gate_sole_claimant(self):
        decision = moe_gate([
            (np.array([0.8]), np.array([True])),
            (np.array([0.4]), np.array([False])),
            (np.array([0.3]), np.array([False])),
        ])
        assert decision.chosen.tolist() == [0]

    def test_gate_highest_confidence_wins(self):
        decision = moe_gate([
            (np.array([0.2]), np.array([False])),
            (np.array([0.9]), np.array([True])),
            (np.array([0.3]), np.array([False])),
            (np.array([0.7]), np.array([True])),
        ])
        assert decision.chosen.tolist() == [1]

    def test_gate_all_rest_is_unknown(self):
        decision = moe_gate([
            (np.array([0.2]), np.array([False])),
            (np.array([0.1]), np.array([False])),
        ])
        assert decision.chosen.tolist() == [-1]

    def test_gate_tie_goes_to_lower_class(self):
        decision = moe_gate([
            (np.array([0.7]), np.array([True])),
            (np.array([0.7]), np.array([True])),
        ])
        assert decision.chosen.tolist() == [0]

    def test_gate_totality(self, rng):
        n = 50
        per_expert = [
            (rng.uniform(size=n), rng.uniform(size=n) > 0.5) for _ in range(4)
        ]
        decision = moe_gate(per_expert)
        assert ((decision.chosen >= -1) & (decision.chosen < 4)).all()

    def test_four_experts_for_four_classes(self, rng):
        tables, y = _two_modality_data(rng, n=60, n_classes=4, sep=2.5)
        spec = IntegratorSpec(kind="MOE-COMBN", base=FAST)
        fitted = fit_moe(tables, y, spec, 4, seed=0)
        experts = fitted.predict_values.keywords["experts"]
        assert len(experts) == 4
        for models in experts:
            assert all(m.n_classes == 2 for m in models)

    def test_experts_recognize_own_class(self, rng):
        tables, y = _two_modality_data(rng, n=80, n_classes=3, sep=4.0)
        spec = IntegratorSpec(kind="MOE-COMBN", base=GbmParams(n_rounds=25, max_depth=2))
        fitted = fit_moe(tables, y, spec, 3, seed=1)
        experts = fitted.predict_values.keywords["experts"]
        outputs = _expert_outputs([t.values for t in tables], experts)
        for cls in range(3):
            own_prob, claims = outputs[cls]
            members = y == cls
            assert claims[members].mean() >= 0.9

    def test_two_class_gate_matches_manual_rule(self, rng):
        tables, y = _two_modality_data(rng, n=20, n_classes=2, sep=2.0)
        spec = IntegratorSpec(kind="MOE-COMBN", base=FAST)
        fitted = fit_moe(tables, y, spec, 2, seed=2)
        experts = fitted.predict_values.keywords["experts"]
        outputs = _expert_outputs([t.values for t in tables], experts)
        decision = moe_gate(outputs)
        np.testing.assert_array_equal(fitted.predict(tables).labels, decision.chosen)
        for i in range(20):
            claimants = [c for c in range(2) if outputs[c][1][i]]
            if not claimants:
                assert decision.chosen[i] == -1
            elif len(claimants) == 1:
                assert decision.chosen[i] == claimants[0]
            else:
                best = max(claimants, key=lambda c: (outputs[c][0][i], -c))
                assert decision.chosen[i] == best

    def test_missing_class_errors(self, rng):
        tables, y = _two_modality_data(rng, n_classes=3)
        y = np.where(y == 2, 1, y)  # drop class 2 from the training labels
        with pytest.raises(IntegrationError, match="absent"):
            fit_moe(tables, y, IntegratorSpec(kind="MOE-COMBN", base=FAST), 3, seed=0)

    def test_unknowns_carry_probability_rows(self, rng):
        tables, y = _two_modality_data(rng, n=30)
        spec = IntegratorSpec(kind="MOE-COMBN", base=FAST)
        fitted = fit_moe(tables, y, spec, 3, seed=3)
        pred = fitted.predict(tables)
        np.testing.assert_allclose(pred.probabilities.sum(axis=1), 1.0, atol=1e-9)


def _noise_plus_signal_dataset(seed, n=60):
    return generate(
        SynthSpec(
            n_samples=n,
            n_classes=3,
            modalities=(
                ModalitySpec(name="good1", n_features=8, n_informative=4, separation=2.0,
                             informative_classes=(0, 1)),
                ModalitySpec(name="good2", n_features=8, n_informative=4, separation=2.0,
                             informative_classes=(1, 2)),
                ModalitySpec(name="junk", n_features=8, n_informative=0),
            ),
            seed=seed,
        )
    )[0]


class TestIncremental:
    def test_noise_modality_removed_first(self):
        removed_first = []
        for s in range(2):
            ds = _noise_plus_signal_dataset(seed=400 + s)
            result = incremental_select(
                ds, PreprocessConfig(), base=GbmParams(n_rounds=10, max_depth=2),
                inner_folds=3, seed=s,
            )
            removed_first.append(result.trace[1].removed)
        assert removed_first == ["junk", "junk"]

    def test_trace_shape(self):
        ds = _noise_plus_signal_dataset(seed=404)
        result = incremental_select(
            ds, PreprocessConfig(), base=GbmParams(n_rounds=8, max_depth=2),
            inner_folds=3, seed=0,
        )
        assert result.trace[0].step == 0 and result.trace[0].removed is None
        steps = [t.step for t in result.trace]
        assert steps == list(range(len(steps)))
        assert len(result.best_subset) >= 1
        removed = {t.removed for t in result.trace if t.removed}
        assert removed | set(result.best_subset) == set(ds.modality_names)

    def test_needs_two_modalities(self):
        ds = _noise_plus_signal_dataset(seed=405).subset_modalities(["good1"])
        with pytest.raises(IntegrationError, match="at least 2"):
            incremental_select(ds, PreprocessConfig(), seed=0)


class TestFitContext:
    def test_methods_of_one_context_share_base_models(self, rng):
        tables, y = _two_modality_data(rng)
        fits = FitContext()
        fitted = {}
        for i, kind in enumerate(("ENS-H", "ENS-S", "ML", "ADA-H", "ADA-S", "ADA-M", "PBMV")):
            spec = IntegratorSpec(kind=kind, base=FAST, boosting_rounds=2, ada_inner_folds=2)
            fitted[kind] = fit_integrator(tables, y, spec, 3, seed=131 * i, fits=fits)
            alone = fit_integrator(tables, y, spec, 3, seed=131 * i)
            np.testing.assert_array_equal(
                fitted[kind].predict(tables).probabilities, alone.predict(tables).probabilities
            )
        models_of = {kind: f.predict_values.keywords for kind, f in fitted.items()}
        ens_h = models_of["ENS-H"]["models"]
        shared = [
            models_of["ENS-S"]["models"],
            models_of["ML"]["models"],
            *(models_of[kind]["rounds"][0][1] for kind in ("ADA-H", "ADA-S", "ADA-M")),
            [view[0] for view in models_of["PBMV"]["models"]],
        ]
        assert len(ens_h) == 2
        for models in shared:
            assert len(models) == 2 and all(a is b for a, b in zip(ens_h, models))

    def test_seeded_fits_are_never_shared(self, rng):
        tables, y = _two_modality_data(rng)
        X, w = tables[0].values, np.ones(len(y))
        fits = FitContext()
        half = GbmParams(n_rounds=4, max_depth=2, subsample=0.5)
        a, b, again = (fits.gbm(X, y, w, half, seed, 3) for seed in (1, 2, 1))
        assert a is not b and a is not again
        assert not np.array_equal(a.decision_scores(X), b.decision_scores(X))
        np.testing.assert_array_equal(a.decision_scores(X), again.decision_scores(X))
        spec = IntegratorSpec(kind="ENS-S", base=half)
        one, two = (
            fit_integrator(tables, y, spec, 3, seed=s, fits=fits).predict_values.keywords["models"]
            for s in (1, 2)
        )
        assert all(m is not n for m in one for n in two)

    def test_reuse_needs_the_same_request(self, rng):
        tables, y = _two_modality_data(rng)
        X, w = tables[0].values, np.ones(len(y))
        fits = FitContext()
        first = fits.gbm(X, y, w, FAST, 0, 3)
        assert fits.gbm(X, y.copy(), w.copy(), FAST, 99, 3) is first  # seed unread
        y2, w2 = y.copy(), w.copy()
        y2[0], w2[0] = (y[0] + 1) % 3, 2.0
        others = [
            fits.gbm(X.copy(), y, w, FAST, 0, 3),  # equal values, another array
            fits.gbm(X, y2, w, FAST, 0, 3),
            fits.gbm(X, y, w2, FAST, 0, 3),
            fits.gbm(X, y, w, FAST, 0, 4),
        ]
        assert all(m is not first for m in others)

    @pytest.fixture
    def fitted_rounds(self, monkeypatch):
        """The `n_rounds` of each `fit_gbm` call that a fit context makes."""
        rounds = []
        fit = integrators.fit_gbm

        def counted(X, y, w, params, **kwargs):
            rounds.append(params.n_rounds)
            return fit(X, y, w, params, **kwargs)

        monkeypatch.setattr(integrators, "fit_gbm", counted)
        return rounds

    def test_a_shorter_request_is_served_from_the_longest_fit(self, rng, fitted_rounds):
        tables, y = _two_modality_data(rng)
        X, w = tables[0].values, np.ones(len(y))
        short = replace(FAST, n_rounds=6)
        # 12 rounds then 6: one fit, and the 6 are its first rounds
        fits = FitContext()
        longest = fits.gbm(X, y, w, FAST, 0, 3)
        served = fits.gbm(X, y, w, short, 0, 3)
        assert fitted_rounds == [12]
        assert served.params == short and served.trees == longest.trees[:6]
        assert fits.gbm(X, y.copy(), w.copy(), short, 99, 3) is served  # a repeat: the same object
        five = fits.gbm(X, y, w, replace(FAST, n_rounds=5), 0, 3)
        assert five is not served and five.trees == longest.trees[:5]
        assert fitted_rounds == [12]
        # 6 then 12: two fits, and the longer one serves later requests
        fits = FitContext()
        first = fits.gbm(X, y, w, short, 0, 3)
        longest = fits.gbm(X, y, w, FAST, 0, 3)
        assert fitted_rounds == [12, 6, 12]
        assert fits.gbm(X, y, w, short, 0, 3) is first
        assert fits.gbm(X, y, w, replace(FAST, n_rounds=9), 0, 3).trees == longest.trees[:9]
        assert fitted_rounds == [12, 6, 12]

    def test_only_fewer_rounds_of_the_same_request_is_served(self, rng, fitted_rounds):
        tables, y = _two_modality_data(rng)
        X, w = tables[0].values, np.ones(len(y))
        y2, w2 = y.copy(), w.copy()
        y2[0], w2[0] = (y[0] + 1) % 3, 2.0
        short = replace(FAST, n_rounds=6)
        halves = replace(FAST, subsample=0.5)
        requests = [
            (X, y, w, replace(short, learning_rate=0.2), 3),
            (X, y, w, replace(short, max_depth=3), 3),
            (X, y, w, replace(short, min_leaf=3), 3),
            (X, y, w, short, 4),
            (X, y, w2, short, 3),
            (X, y2, w, short, 3),
            (X.copy(), y, w, short, 3),  # equal values, another array
            (X, y, w, halves, 3),
            (X, y, w, replace(halves, n_rounds=6), 3),
        ]
        fits = FitContext()
        fits.gbm(X, y, w, FAST, 0, 3)
        for X_r, y_r, w_r, params, K in requests:
            fits.gbm(X_r, y_r, w_r, params, 0, K)
        assert len(fitted_rounds) == 1 + len(requests)

    def test_a_rejected_request_stores_nothing(self, rng, fitted_rounds):
        tables, y = _two_modality_data(rng)
        X, w = tables[0].values, np.ones(len(y))
        nan_labels = y.astype(np.float64)
        nan_labels[0] = np.nan
        fits = FitContext()
        with pytest.raises(LearnerError, match="non-finite target"):
            fits.gbm(X, nan_labels, w, FAST, 0, 3)
        model = fits.gbm(X, y, w, FAST, 0, 3)
        assert fitted_rounds == [12, 12]  # the valid request on the same X is fitted
        assert fits.gbm(X, y, None, FAST, 0, 3) is model  # no weights are ones
        np.testing.assert_array_equal(
            model.decision_scores(X), fit_gbm(X, y, w, FAST, n_classes=3).decision_scores(X)
        )
        with pytest.raises(LearnerError, match="non-finite target"):
            fits.gbm(X, nan_labels, w, FAST, 0, 3)
        assert fitted_rounds == [12, 12, 12]

    def test_pbmv_view_that_fits_exactly_keeps_one_model(self, rng):
        tables, y = _two_modality_data(rng, sep=4.0)
        spec = IntegratorSpec(kind="PBMV", base=GbmParams(n_rounds=20, max_depth=3),
                              boosting_rounds=4)
        fitted = fit_pbmvboost(tables, y, spec, 3, seed=0)
        for models, table in zip(fitted.predict_values.keywords["models"], tables):
            assert (models[0].predict_proba(table.values).labels == y).all()
            assert len(models) == 4 and all(m is models[0] for m in models)

    def test_pbmv_predicts_a_shared_model_once(self, rng, monkeypatch):
        class Unshared(FitContext):
            def gbm(self, X, y, w, params, seed, K):
                return fit_gbm(X, y, w, params, seed=seed, n_classes=K)

        tables, y = _two_modality_data(rng, sep=4.0)
        spec = IntegratorSpec(kind="PBMV", base=GbmParams(n_rounds=20, max_depth=3),
                              boosting_rounds=4)
        calls = {"n": 0}
        predict = integrators.GbmModel.predict_proba

        def counted(self, X):
            calls["n"] += 1
            return predict(self, X)

        monkeypatch.setattr(integrators.GbmModel, "predict_proba", counted)
        # every round a fresh model: one prediction per (view, round) in fit and predict
        unshared = fit_pbmvboost(tables, y, spec, 3, seed=0, fits=Unshared())
        expected = unshared.predict(tables).probabilities
        assert calls["n"] == 2 * 2 * 4
        calls["n"] = 0
        shared = fit_pbmvboost(tables, y, spec, 3, seed=0)
        np.testing.assert_array_equal(shared.predict(tables).probabilities, expected)
        assert shared.extras == unshared.extras
        assert calls["n"] == 2 * 2  # each view's one model, once in fit and once in predict


class TestDispatch:
    def test_all_kinds_fit_and_predict(self, rng):
        tables, y = _two_modality_data(rng, n=48)
        small = GbmParams(n_rounds=6, max_depth=2)
        pairs = {(t.modality_name, f) for t in tables for f in t.feature_names}
        meta_pairs = {(m, f"meta_proba_{k}") for m in ("A", "B") for k in range(3)}
        for kind in INTEGRATOR_KINDS:
            spec = IntegratorSpec(kind=kind, base=small, boosting_rounds=2, inner_folds=3)
            fitted = fit_integrator(tables, y, spec, 3, seed=0)
            assert isinstance(fitted, FittedIntegrator)
            pred = fitted.predict(tables)
            assert pred.n_samples == 48
            scores = fitted.feature_scores()
            assert scores and all(v >= 0 for v in scores.values())
            assert set(scores) == (meta_pairs if kind == "ML" else pairs)
            json.dumps(fitted.extras)

    def test_modality_subset_restriction(self, rng):
        tables, y = _two_modality_data(rng)
        spec = IntegratorSpec(kind="CONCAT", base=FAST, modalities=("B",))
        fitted = fit_integrator(tables, y, spec, 3, seed=0)
        assert fitted.modality_names == ["B"]
        assert spec.label == "CONCAT[B]"

    def test_unknown_kind_rejected(self):
        with pytest.raises(IntegrationError, match="unknown integrator kind"):
            IntegratorSpec(kind="NOPE")

    def test_repeated_modality_rejected(self):
        with pytest.raises(IntegrationError, match=r"modalities: repeated modality name.*'A'"):
            IntegratorSpec(kind="ENS-S", modalities=("A", "B", "A"))

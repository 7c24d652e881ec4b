from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from latefuse import evaluation
from latefuse.data import make_fold_plan
from latefuse.evaluation import (
    EvaluationError,
    MetricSet,
    PerClassMetrics,
    _average_ranks,
    _student_t_two_sided,
    auc_per_class,
    compute_metrics,
    confusion_counts,
    corrected_ttest,
    macro_f1,
    run_cv_benchmark,
)
from latefuse.integrators import INTEGRATOR_KINDS, IntegrationError, IntegratorSpec
from latefuse.learners import GbmParams, PredictionSet, RandomForestParams
from latefuse.preprocess import PreprocessConfig
from latefuse.synth import ModalitySpec, SynthSpec, generate

FAST = GbmParams(n_rounds=8, max_depth=2)


def _macro_auc(probabilities, truth):
    """compute_metrics' macro AUC: the mean over classes with both labels present."""
    return compute_metrics(PredictionSet.from_probabilities(probabilities), truth).macro_auc


def _preds(labels, n_classes, probabilities=None):
    labels = np.asarray(labels)
    if probabilities is None:
        probabilities = np.full((len(labels), n_classes), 1.0 / n_classes)
        ok = labels >= 0
        probabilities[ok] = 0.0
        probabilities[np.flatnonzero(ok), labels[ok]] = 1.0
    return PredictionSet(labels=labels, probabilities=np.asarray(probabilities, dtype=float))


def _reference_safe_div(num, den):
    if den == 0:
        return 0.0, True
    return num / den, False


def reference_compute_metrics(predictions, truth):
    """compute_metrics as a loop over classes and Python scalars: the oracle
    the vectorised version must equal bit for bit."""
    truth = np.asarray(truth, dtype=np.intp)
    labels = np.asarray(predictions.labels, dtype=np.intp)
    n_classes = predictions.n_classes
    n = len(truth)
    aucs, auc_valid = auc_per_class(predictions.probabilities, truth, n_classes)
    per_class = []
    for k in range(n_classes):
        pred_pos = labels == k
        true_pos = truth == k
        tp = int(np.sum(pred_pos & true_pos))
        fp = int(np.sum(pred_pos & ~true_pos))
        fn = int(np.sum(~pred_pos & true_pos))
        tn = n - tp - fp - fn
        flags = []
        sens, fl = _reference_safe_div(tp, tp + fn)
        if fl:
            flags.append("sensitivity")
        spec, fl = _reference_safe_div(tn, tn + fp)
        if fl:
            flags.append("specificity")
        prec, fl = _reference_safe_div(tp, tp + fp)
        if fl:
            flags.append("precision")
        f1, fl = _reference_safe_div(2 * prec * sens, prec + sens)
        if fl:
            flags.append("f1")
        per_class.append(
            PerClassMetrics(
                class_index=k, tp=tp, fp=fp, tn=tn, fn=fn, accuracy=(tp + tn) / n,
                sensitivity=sens, specificity=spec, precision=prec, recall=sens, f1=f1,
                auc=float(aucs[k]), auc_valid=bool(auc_valid[k]), zero_division_flags=flags,
            )
        )
    return MetricSet(
        accuracy=float(np.sum(predictions.labels == truth) / n),
        per_class=per_class,
        macro_sensitivity=float(np.mean([c.sensitivity for c in per_class])),
        macro_specificity=float(np.mean([c.specificity for c in per_class])),
        macro_precision=float(np.mean([c.precision for c in per_class])),
        macro_recall=float(np.mean([c.recall for c in per_class])),
        macro_f1=float(np.mean([c.f1 for c in per_class])),
        macro_auc=float(aucs[auc_valid].mean()) if auc_valid.any() else 0.0,
        unknown_rate=float(np.mean(predictions.labels == -1)),
    )


def _assert_same_fields(got, want):
    """Every dataclass field equal with ==, and of the same type, so the
    report writes the same bytes."""
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b) and a == b, (f.name, a, b)


@st.composite
def _prediction_cases(draw):
    """Labels over K classes drawn from random subsets of the classes (plus
    the abstention -1), so some classes are absent from the truth or the
    predictions and every zero-denominator flag fires."""
    k = draw(st.integers(2, 10))
    n = draw(st.integers(1, 60))
    truth_pool = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    pred_pool = draw(st.lists(st.integers(-1, k - 1), min_size=1, max_size=k + 1, unique=True))
    truth = draw(st.lists(st.sampled_from(truth_pool), min_size=n, max_size=n))
    pred = draw(st.lists(st.sampled_from(pred_pool), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    return k, np.array(truth), np.array(pred), seed


class TestComputeMetrics:
    @settings(max_examples=300, deadline=None)
    @given(case=_prediction_cases())
    # one class is the whole truth and nothing is predicted: all four flags fire
    @example(case=(2, np.zeros(5, dtype=int), np.full(5, -1), 0))
    def test_equals_reference_loop(self, case):
        k, truth, pred, seed = case
        # probabilities on a coarse grid, so AUC ranks tie
        probs = np.random.default_rng(seed).integers(0, 4, size=(len(truth), k)) / 4.0
        predictions = PredictionSet(labels=pred, probabilities=probs)
        got = compute_metrics(predictions, truth)
        want = reference_compute_metrics(predictions, truth)
        _assert_same_fields(got, want)
        assert len(got.per_class) == len(want.per_class) == k
        for c_got, c_want in zip(got.per_class, want.per_class):
            _assert_same_fields(c_got, c_want)
        f1 = macro_f1(pred, truth, k)
        assert type(f1) is float and f1 == want.macro_f1

    def test_tabulated_counts(self):
        # one-vs-rest counts tp=3, fp=1, tn=5, fn=1 for class 0 over 10 samples
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
        pred = np.array([0, 0, 0, 1, 0, 1, 1, 1, 1, 1])
        m = compute_metrics(_preds(pred, 2), truth)
        c0 = m.per_class[0]
        assert (c0.tp, c0.fp, c0.tn, c0.fn) == (3, 1, 5, 1)
        assert c0.precision == pytest.approx(0.75)
        assert c0.recall == pytest.approx(0.75)
        assert c0.f1 == pytest.approx(0.75)
        assert c0.accuracy == pytest.approx(0.8)
        assert c0.specificity == pytest.approx(5 / 6)

    def test_perfect_predictions(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        m = compute_metrics(_preds(truth, 3), truth)
        assert m.accuracy == 1.0
        assert m.macro_f1 == 1.0
        assert m.macro_auc == 1.0

    def test_all_one_class_on_balanced_data(self):
        truth = np.repeat(np.arange(4), 5)
        pred = np.zeros(20, dtype=int)
        m = compute_metrics(_preds(pred, 4), truth)
        assert m.accuracy == pytest.approx(0.25)
        flagged = [c for c in m.per_class if "precision" in c.zero_division_flags]
        assert len(flagged) == 3
        assert all(c.precision == 0.0 for c in flagged)

    def test_recall_equals_sensitivity(self, rng):
        truth = rng.integers(0, 3, 30)
        pred = rng.integers(0, 3, 30)
        m = compute_metrics(_preds(pred, 3), truth)
        for c in m.per_class:
            assert c.recall == c.sensitivity

    def test_unknown_label_counts_as_wrong_everywhere(self):
        truth = np.array([0, 1])
        pred = np.array([-1, -1])
        m = compute_metrics(_preds(pred, 2), truth)
        assert m.accuracy == 0.0
        assert m.unknown_rate == 1.0
        for c in m.per_class:
            assert c.tp == 0 and c.fp == 0

    def test_length_mismatch_errors(self):
        with pytest.raises(EvaluationError):
            compute_metrics(_preds([0], 2), np.array([0, 1]))

    def test_oracle_equivalence_random_instances(self):
        # brute-force confusion-matrix oracle on random prediction sets
        for s in range(20):
            rng = np.random.default_rng(s)
            n = int(rng.integers(8, 50))
            truth = rng.integers(0, 4, n)
            pred = rng.integers(0, 4, n)
            m = compute_metrics(_preds(pred, 4), truth)
            assert m.accuracy == pytest.approx(np.mean(pred == truth))
            f1s = []
            for k in range(4):
                tp = np.sum((pred == k) & (truth == k))
                fp = np.sum((pred == k) & (truth != k))
                fn = np.sum((pred != k) & (truth == k))
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f1s.append(2 * p * r / (p + r) if p + r else 0.0)
            assert m.macro_f1 == pytest.approx(np.mean(f1s), abs=1e-12)
            assert macro_f1(pred, truth, 4) == pytest.approx(np.mean(f1s), abs=1e-12)


class TestAuc:
    def test_one_hot_truth_is_perfect(self):
        truth = np.array([0, 1, 2])
        probs = np.eye(3)
        assert _macro_auc(probs, truth) == 1.0

    def test_constant_scores_give_half(self):
        truth = np.array([0, 0, 1, 1])
        probs = np.full((4, 2), 0.5)
        assert _macro_auc(probs, truth) == pytest.approx(0.5)

    def test_six_sample_toy(self):
        scores = np.array([0.9, 0.8, 0.7, 0.4, 0.3, 0.2])
        labels = np.array([1, 1, 0, 1, 0, 0])
        probs = np.column_stack([1 - scores, scores])
        aucs_truth = 8 / 9
        # exhaustive pair counting for the positive class
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert wins / (len(pos) * len(neg)) == pytest.approx(aucs_truth)
        from latefuse.evaluation import auc_per_class

        aucs, valid = auc_per_class(probs, labels, 2)
        assert aucs[1] == pytest.approx(aucs_truth, abs=1e-12)

    def test_monotone_transform_invariance(self, rng):
        truth = rng.integers(0, 3, 40)
        probs = rng.dirichlet(np.ones(3), size=40)
        a = _macro_auc(probs, truth)
        b = _macro_auc(np.exp(3 * probs), truth)  # strictly monotone transform
        assert a == pytest.approx(b, abs=1e-12)

    def test_exhaustive_pair_counting_oracle(self, rng):
        for s in range(10):
            r = np.random.default_rng(s)
            n = int(r.integers(6, 30))
            truth = r.integers(0, 3, n)
            if len(np.unique(truth)) < 2:
                continue
            probs = r.dirichlet(np.ones(3), size=n)
            from latefuse.evaluation import auc_per_class

            aucs, valid = auc_per_class(probs, truth, 3)
            for k in range(3):
                pos = probs[truth == k, k]
                neg = probs[truth != k, k]
                if len(pos) == 0 or len(neg) == 0:
                    assert not valid[k]
                    continue
                wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
                assert aucs[k] == pytest.approx(wins / (len(pos) * len(neg)), abs=1e-12)


class TestAverageRanks:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 60),
        distinct=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_scipy_rankdata(self, n, distinct, seed):
        # `distinct` below n forces ties; at or above it most values are unique
        rng = np.random.default_rng(seed)
        pool = np.concatenate([rng.normal(size=distinct), [0.0, -0.0]])
        x = rng.choice(pool, size=n)
        np.testing.assert_array_equal(_average_ranks(x), stats.rankdata(x, method="average"))

    def test_untied_and_all_tied(self, rng):
        x = rng.permutation(20).astype(float)
        np.testing.assert_array_equal(_average_ranks(x), x + 1.0)
        np.testing.assert_array_equal(_average_ranks(np.full(5, 0.3)), np.full(5, 3.0))


def _exact_two_sided_p(mpmath, t, df):
    """P(|T| >= |t|) as 50-digit mpmath computes it, from the exact double t."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        x = df / (df + t * t)
        return mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)


class TestCorrectedTTest:
    # scipy's stdtr is Boost's t_cdf, itself 3e-9 off at df = 1 and
    # |t| = 1e-8, so the tail is held to the exact value, not to scipy's bits

    def test_p_value_is_two_sided_student_t(self, rng):
        for j in (2, 3, 5, 10, 25):
            for _ in range(20):
                a, b = rng.uniform(size=j), rng.uniform(size=j)
                r = corrected_ttest(a, b, n_train=80, n_test=20)
                expected = 2.0 * float(stats.t.sf(abs(r.t), j - 1))
                assert r.p_value == pytest.approx(expected, rel=1e-12, abs=0)

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.floats(min_value=1e-8, max_value=1e3),
        negative=st.booleans(),
        df=st.integers(min_value=1, max_value=1000),
    )
    @example(t=1.727095594054686, negative=False, df=917)  # 2.3e-13 off with x^a uncorrected
    @example(t=1e-8, negative=True, df=1)  # where scipy's stdtr is 3e-9 off
    def test_p_value_matches_mpmath(self, t, negative, df):
        mpmath = pytest.importorskip("mpmath")
        exact = _exact_two_sided_p(mpmath, t, df)
        assume(exact >= mpmath.mpf("1e-300"))
        p = _student_t_two_sided(-t if negative else t, df)
        assert abs(mpmath.mpf(p) - exact) <= 2e-13 * exact

    @pytest.mark.parametrize(
        "t, df",
        [(1.7514984040041974, 696), (1.8334046725242192, 972),
         (1.9191598609997378, 1000), (1.8196770916387957, 999)],
    )
    def test_p_value_near_the_branch_point(self, t, df):
        # just below x = (a + 1)/(a + 5/2), the textbook odd continued-fraction
        # steps, 1 - k*x, cancel and lose 9e-14 to 1e-13 at these points
        mpmath = pytest.importorskip("mpmath")
        exact = _exact_two_sided_p(mpmath, t, df)
        assert abs(mpmath.mpf(_student_t_two_sided(t, df)) - exact) <= 2e-14 * exact

    def test_p_value_closed_forms(self):
        for t in np.concatenate([np.geomspace(1e-8, 1e3, 200), [1.0, 2.0, 3.0]]):
            s = np.sqrt(2.0 + t * t)
            closed = {
                1: 2.0 / np.pi * np.arctan(1.0 / t),
                2: 2.0 / (s * (s + t)),  # 1 - t/s without its cancellation
            }
            for df, expected in closed.items():
                assert _student_t_two_sided(t, df) == pytest.approx(expected, rel=2e-13, abs=0)

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 999, 1000])
    def test_p_value_edges(self, df):
        assert _student_t_two_sided(0.0, df) == 1.0
        assert _student_t_two_sided(-0.0, df) == 1.0
        assert _student_t_two_sided(np.inf, df) == 0.0
        assert _student_t_two_sided(-np.inf, df) == 0.0
        assert np.isnan(_student_t_two_sided(np.nan, df))
        for t in (1e-8, 0.3, 1.7, 2.5, 40.0, 1e3):
            assert _student_t_two_sided(-t, df) == _student_t_two_sided(t, df)

    def test_identical_series(self):
        r = corrected_ttest([0.5, 0.6, 0.7], [0.5, 0.6, 0.7], 80, 20)
        assert r.t == 0.0 and r.p_value == 1.0 and r.degenerate

    def test_shrink_factor_five_by_five(self, rng):
        a = rng.uniform(size=25)
        b = rng.uniform(size=25)
        d = a - b
        naive_t = d.mean() / np.sqrt(d.var(ddof=1) / 25)
        r = corrected_ttest(a, b, n_train=80, n_test=20)
        assert r.t / naive_t == pytest.approx(np.sqrt(0.04 / 0.29), abs=1e-3)

    def test_constant_difference_degenerate(self):
        r = corrected_ttest([0.8] * 4, [0.6] * 4, 80, 20)
        assert r.degenerate and r.p_value == 0.0

    def test_corrected_never_exceeds_naive(self, rng):
        for _ in range(10):
            a = rng.uniform(size=15)
            b = rng.uniform(size=15)
            d = a - b
            if d.var(ddof=1) == 0:
                continue
            naive_t = abs(d.mean() / np.sqrt(d.var(ddof=1) / 15))
            r = corrected_ttest(a, b, 60, 20)
            assert abs(r.t) <= naive_t + 1e-12

    def test_errors(self):
        with pytest.raises(EvaluationError):
            corrected_ttest([1.0], [1.0], 10, 5)
        with pytest.raises(EvaluationError):
            corrected_ttest([1.0, 2.0], [1.0], 10, 5)


def _bench_dataset(seed=0):
    return generate(
        SynthSpec(
            n_samples=60,
            n_classes=3,
            modalities=(
                ModalitySpec(name="A", n_features=10, n_informative=4, separation=1.5),
                ModalitySpec(name="B", n_features=8, n_informative=3, separation=1.0),
            ),
            seed=seed,
        )
    )[0]


class TestBenchmark:
    def test_record_counts(self):
        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=2, folds=3, seed=1)
        methods = [IntegratorSpec(kind="ENS-S", base=FAST)]
        report = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=7)
        m = report.methods["ENS-S"]
        assert len(m.fold_records) == 6
        assert len(m.class_records) == 6 * 3

    def test_macro_aggregates_match_record_means(self):
        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=1, folds=3, seed=2)
        methods = [IntegratorSpec(kind="CONCAT", base=FAST)]
        report = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=7)
        m = report.methods["CONCAT"]
        f1s = [r["f1"] for r in m.class_records]
        assert m.aggregates["macro_f1_mean"] == pytest.approx(np.mean(f1s), abs=1e-9)

    def test_byte_identical_reports(self):
        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=1, folds=3, seed=3)
        methods = [IntegratorSpec(kind="ENS-H", base=FAST)]
        a = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=9)
        b = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=9)
        assert a.to_json() == b.to_json()

    @given(
        kinds=st.lists(st.sampled_from(INTEGRATOR_KINDS), min_size=1, max_size=3, unique=True),
        seed=st.integers(0, 2**16),
    )
    @example(kinds=["ENS-S", "ENS-H", "PBMV"], seed=5)  # these share base models in a cell
    @settings(max_examples=6, deadline=None)
    def test_parallel_equals_sequential(self, kinds, seed):
        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=1, folds=3, seed=4)
        methods = [
            IntegratorSpec(kind=k, base=FAST, boosting_rounds=2, inner_folds=3,
                           meta_forest=RandomForestParams(n_trees=10))
            for k in kinds
        ]
        seq = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=seed, n_jobs=1)
        par = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=seed, n_jobs=2)
        assert seq.to_json() == par.to_json()

    def test_method_failure_is_isolated(self):
        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=1, folds=3, seed=5)
        methods = [
            IntegratorSpec(kind="ENS-S", base=FAST),
            IntegratorSpec(kind="PBMV", base=FAST, modalities=("A",), name="bad_pbmv"),
        ]
        report = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=5)
        assert len(report.methods["bad_pbmv"].failures) == 3
        assert not report.methods["ENS-S"].failures
        assert report.methods["ENS-S"].aggregates

    def test_meta_learner_stability_is_exactly_one(self):
        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=1, folds=3, seed=6)
        methods = [IntegratorSpec(kind="ML", base=FAST, inner_folds=3)]
        report = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=6)
        stab = report.methods["ML"].stability
        assert stab.cw_rel == 1.0
        assert stab.caveat is not None

    def test_single_modality_baselines_run(self):
        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=1, folds=3, seed=8)
        methods = [
            IntegratorSpec(kind="CONCAT", base=FAST, modalities=("A",), name="only_A"),
            IntegratorSpec(kind="CONCAT", base=FAST, modalities=("B",), name="only_B"),
        ]
        report = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=8)
        assert set(report.methods) == {"only_A", "only_B"}
        assert all(m.aggregates for m in report.methods.values())

    def test_significance_entries_cover_both_metrics(self):
        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=1, folds=3, seed=9)
        methods = [
            IntegratorSpec(kind="ENS-S", base=FAST),
            IntegratorSpec(kind="ENS-H", base=FAST),
        ]
        report = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=9)
        metrics = {e.metric for e in report.significance}
        assert metrics == {"macro_f1", "macro_auc"}

    def test_significance_pairs_the_cells_both_methods_scored(self, monkeypatch):
        # X fails on fold 0 and Y on fold 1: only folds 2 and 3 pair up
        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=1, folds=4, seed=9)
        methods = [
            IntegratorSpec(kind="ENS-S", base=FAST, name="X"),
            IntegratorSpec(kind="ENS-H", base=FAST, name="Y"),
        ]
        calls = {"X": 0, "Y": 0}
        fit = evaluation.fit_integrator

        def failing(tables, labels, spec, n_classes, **kwargs):
            fold = calls[spec.label]
            calls[spec.label] += 1
            if (spec.label, fold) in (("X", 0), ("Y", 1)):
                raise IntegrationError("injected")
            return fit(tables, labels, spec, n_classes, **kwargs)

        monkeypatch.setattr(evaluation, "fit_integrator", failing)
        report = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=9)
        x, y = report.methods["X"], report.methods["Y"]
        assert [r["fold"] for r in x.fold_records] == [1, 2, 3]
        assert [r["fold"] for r in y.fold_records] == [0, 2, 3]
        assert [e.metric for e in report.significance] == ["macro_f1", "macro_auc"]
        n_test = ds.n_samples / 4
        for e in report.significance:
            expected = corrected_ttest(
                [r[e.metric] for r in x.fold_records[1:]],
                [r[e.metric] for r in y.fold_records[1:]],
                ds.n_samples - n_test,
                n_test,
            )
            assert (e.t, e.p_value, e.degenerate) == (
                expected.t, expected.p_value, expected.degenerate
            )

    def test_duplicate_labels_rejected(self):
        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=1, folds=3, seed=9)
        methods = [IntegratorSpec(kind="ENS-S"), IntegratorSpec(kind="ENS-S")]
        with pytest.raises(EvaluationError, match="duplicate"):
            run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=1)

    def test_no_leakage_of_test_labels(self):
        # scrambling the labels of one fold's test samples must not change
        # the model fitted on that fold (same plan, same training rows)
        from latefuse.data import MultiModalDataset

        ds = _bench_dataset()
        plan = make_fold_plan(ds.labels, repeats=1, folds=3, seed=10)
        test_idx = plan.test_indices(0, 0)
        scrambled = ds.labels.copy()
        scrambled[test_idx] = (scrambled[test_idx] + 1) % ds.n_classes
        ds2 = MultiModalDataset(
            modalities=ds.modalities,
            labels=scrambled,
            class_names=list(ds.class_names),
            sample_ids=list(ds.sample_ids),
        )
        methods = [IntegratorSpec(kind="ENS-S", base=FAST)]
        a = run_cv_benchmark(ds, plan, methods, PreprocessConfig(), seed=11)
        b = run_cv_benchmark(ds2, plan, methods, PreprocessConfig(), seed=11)
        # fold (0,0): its training rows are identical in both datasets
        assert a.methods["ENS-S"].per_fold_scores[0] == b.methods["ENS-S"].per_fold_scores[0]
        assert a.methods["ENS-S"].selected_sets[0] == b.methods["ENS-S"].selected_sets[0]

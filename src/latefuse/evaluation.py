"""Confusion-matrix metrics, one-vs-rest AUC, the corrected resampled paired
t-test, and the repeated-CV benchmark driver.

Zero-division cells (e.g. no predicted positives) score 0 rather than
propagating NaN, so aggregates stay defined on tiny folds.
An abstention label (-1) never matches any class: it counts against every
metric and is additionally reported as unknown_rate.

The t-test's two-sided p-value is computed here, in floats, from the
incomplete-beta form of the Student t tail (a continued fraction on one
side, a positive series on the other), so that a run loads neither scipy
nor anything else beyond numpy and the standard library. It is within 2e-13
relative of the exact value for up to 1000 degrees of freedom.

The report is typed: `EvaluationReport` and the dataclasses it holds have
the report's keys as their fields, so `config._echo` writes report.json and
`config._build` reads it back, with the config's key-path errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from itertools import combinations
from typing import Any, Optional, Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig, _echo
from .data import FoldPlan, MultiModalDataset
from .feature_selection import (
    SignatureEntry,
    StabilityReport,
    select_signature,
    stability_cwrel,
)
from .integrators import FitContext, IntegratorSpec, fit_integrator
from .learners import PredictionSet
from .preprocess import PreprocessConfig, prepare_fold

REPORT_VERSION = 1

META_STABILITY_CAVEAT = (
    "meta-learner scores every meta-feature on every fold, so its "
    "modality-level stability is 1.0 by construction"
)


class EvaluationError(Exception):
    pass


# ---------------------------------------------------------------------------
# confusion metrics
# ---------------------------------------------------------------------------


def confusion_counts(pred_labels: np.ndarray, truth: np.ndarray, n_classes: int) -> np.ndarray:
    """One-vs-rest (tp, fp, tn, fn) per class. Abstentions (label -1) predict
    no class, so they land in fn/tn columns only."""
    pred_labels = np.asarray(pred_labels, dtype=np.intp)
    truth = np.asarray(truth, dtype=np.intp)
    if len(pred_labels) != len(truth):
        raise EvaluationError("prediction/truth length mismatch")
    tp = np.bincount(truth[pred_labels == truth], minlength=n_classes)
    fp = np.bincount(pred_labels[pred_labels >= 0], minlength=n_classes) - tp
    fn = np.bincount(truth, minlength=n_classes) - tp
    return np.stack([tp, fp, len(truth) - tp - fp - fn, fn], axis=1)


def _class_rates(counts: np.ndarray) -> np.ndarray:
    """Sensitivity, specificity, precision and F1 of every class from the
    (K, 4) counts, as the rows of a (4, K) array; a rate whose denominator
    is 0 scores 0."""

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(len(den)), where=den != 0)

    tp, fp, tn, fn = counts.T
    sens, spec, prec = ratio(tp, tp + fn), ratio(tn, tn + fp), ratio(tp, tp + fp)
    f1 = ratio(2 * prec * sens, prec + sens)
    # each macro is np.mean over one contiguous row, which adds in the
    # same order as a mean over a list of the per-class values
    return np.array([sens, spec, prec, f1])


def macro_f1(pred_labels: np.ndarray, truth: np.ndarray, n_classes: int) -> float:
    """Unweighted mean of per-class one-vs-rest F1 scores."""
    rates = _class_rates(confusion_counts(pred_labels, truth, n_classes))
    return float(np.mean(rates[3]))


@dataclass
class PerClassMetrics:
    class_index: int
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    recall: float
    f1: float
    auc: float
    auc_valid: bool


@dataclass
class MetricSet:
    accuracy: float  # overall fraction of correct predictions
    per_class: list  # list[PerClassMetrics]
    macro_sensitivity: float
    macro_specificity: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    macro_auc: float
    unknown_rate: float


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, tied values sharing their average rank: the
    ranks of scipy.stats.rankdata(x, method="average")."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc_per_class(
    probabilities: np.ndarray, truth: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-sum (Mann-Whitney) one-vs-rest AUC per class with tie correction.

    Classes without both a positive and a negative sample are marked invalid.
    """
    truth = np.asarray(truth, dtype=np.intp)
    aucs = np.zeros(n_classes, dtype=np.float64)
    valid = np.zeros(n_classes, dtype=bool)
    for k in range(n_classes):
        pos = truth == k
        n_pos = int(pos.sum())
        n_neg = len(truth) - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = _average_ranks(probabilities[:, k])
        r_pos = ranks[pos].sum()
        aucs[k] = (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        valid[k] = True
    return aucs, valid


def compute_metrics(predictions: PredictionSet, truth: np.ndarray) -> MetricSet:
    """Evaluate one prediction set: per-class one-vs-rest metrics plus macro
    averages, overall accuracy and the abstention rate."""
    truth = np.asarray(truth, dtype=np.intp)
    if predictions.n_samples != len(truth):
        raise EvaluationError("prediction/truth length mismatch")
    n_classes = predictions.n_classes
    n = len(truth)
    counts = confusion_counts(predictions.labels, truth, n_classes)
    rates = _class_rates(counts)
    aucs, auc_valid = auc_per_class(predictions.probabilities, truth, n_classes)
    per_class = [
        PerClassMetrics(
            class_index=k,
            tp=tp, fp=fp, tn=tn, fn=fn,
            accuracy=(tp + tn) / n,
            sensitivity=sens,
            specificity=spec,
            precision=prec,
            recall=sens,
            f1=f1,
            auc=float(aucs[k]),
            auc_valid=bool(auc_valid[k]),
        )
        for k, ((tp, fp, tn, fn), (sens, spec, prec, f1)) in enumerate(
            zip(counts.tolist(), rates.T.tolist())
        )
    ]
    sens, spec, prec, f1 = rates
    macro_auc = float(aucs[auc_valid].mean()) if auc_valid.any() else 0.0
    return MetricSet(
        accuracy=float(np.sum(predictions.labels == truth) / n),
        per_class=per_class,
        macro_sensitivity=float(np.mean(sens)),
        macro_specificity=float(np.mean(spec)),
        macro_precision=float(np.mean(prec)),
        macro_recall=float(np.mean(sens)),
        macro_f1=float(np.mean(f1)),
        macro_auc=macro_auc,
        unknown_rate=float(np.mean(predictions.labels == -1)),
    )


# ---------------------------------------------------------------------------
# corrected resampled paired t-test
# ---------------------------------------------------------------------------


@dataclass
class TTestResult:
    t: float
    p_value: float
    degenerate: bool = False


def corrected_ttest(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    n_train: float,
    n_test: float,
) -> TTestResult:
    """Paired t-test with the variance inflated by n_test/n_train to correct
    for overlapping CV training sets (Nadeau & Bengio, 2003). Two-sided p,
    J-1 degrees of freedom, from `_student_t_two_sided`: within 2e-13
    relative of the exact tail for J - 1 up to 1000 and 1e-8 <= |t| <= 1e3
    wherever p >= 1e-300."""
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if len(a) != len(b):
        raise EvaluationError("score series length mismatch")
    j = len(a)
    if j < 2:
        raise EvaluationError("need at least 2 paired scores")
    d = a - b
    mean = float(d.mean())
    var = float(d.var(ddof=1))
    if var == 0.0:
        return TTestResult(t=0.0, p_value=1.0 if mean == 0.0 else 0.0, degenerate=True)
    t = mean / np.sqrt((1.0 / j + n_test / n_train) * var)
    return TTestResult(t=float(t), p_value=_student_t_two_sided(float(t), j - 1))


def _student_t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with `df` degrees of freedom: the
    regularized incomplete beta I_x(a, 1/2) at a = df/2, x = df/(df + t^2).

    x and y = t^2/(df + t^2) are each rounded once from exact rationals, and
    x^a is corrected for the rounding of x. B(a, 1/2) is the recurrence
    B(a + 1, 1/2) = B(a, 1/2) * a/(a + 1/2), from B(1/2, 1/2) = pi or
    B(1, 1/2) = 2, taken as one quotient of exact integer products.

    Below x = (a + 1)/(a + 5/2), I_x comes from the continued fraction of
    Numerical Recipes 6.4 (Press et al.), by modified Lentz. Its odd steps
    compute 1 - k*x (k near 1 once a is large) as (1 - k) + k*y from exact
    products, because 1 - k*x cancels there: the textbook steps lose up to
    1e-13 near that point at df ~ 700. Above it, p = 1 - I_y(1/2, a), and
    I_y comes from its hypergeometric series, whose terms are positive and
    shrink at least geometrically on that side.

    Against 50-digit mpmath the relative error measured below 1e-14 for df
    up to 1000 and 1e-8 <= |t| <= 1e3 (`tests/test_evaluation.py` holds it
    to 2e-13). Where x underflows, above |t| ~ 1e154, p comes out 0."""
    from fractions import Fraction  # loaded only by a run that makes a t-test

    t = abs(t)
    if t == 0.0:
        return 1.0
    if math.isnan(t):
        return t
    if math.isinf(t):
        return 0.0
    a = df / 2.0
    t2 = Fraction(t) ** 2
    x_exact = df / (df + t2)
    x = float(x_exact)
    y = float(t2 / (df + t2))  # directly: 1 - x would cancel
    beta = (math.pi if df % 2 else 2.0) * (
        math.prod(range(df - 2, 0, -2)) / math.prod(range(df - 1, 0, -2))
    )
    front = x**a * math.sqrt(y) / beta  # x^a (1 - x)^(1/2) / B(a, 1/2)
    if front:  # undo the rounding of x in x^a (where x^a underflowed, nothing to undo)
        front *= math.exp(a * float((x_exact - Fraction(x)) / x_exact))

    if x >= (a + 1.0) / (a + 2.5):
        # I_y(1/2, a) = 2 front * sum_n (a + 1/2)_n / (3/2)_n * y^n
        term = total = 1.0
        n = 0
        while term > 1e-17 * total:
            term *= (a + 0.5 + n) * y / (1.5 + n)
            total += term
            n += 1
        return 1.0 - 2.0 * front * total

    # I_x(a, 1/2) = front / a * (1 / (1 + d_1 / (1 + d_2 / (1 + ...)))), with
    # d_2m = m (1/2 - m) x / ((a + 2m - 1)(a + 2m)) and d_2m+1 = -k x,
    # k = (a + m)(a + 1/2 + m) / ((a + 2m)(a + 2m + 1)); d and c are Lentz's
    # D and C after each odd step, h their running product
    d = (a + 1.0) / (0.5 + (a + 0.5) * y)
    c = 1.0
    h = d
    for m in range(1, 10_000):
        e = m * (0.5 - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d_even = 1.0 / (1.0 + e * d)
        c_even = 1.0 + e / c
        num = (a + m) * (a + 0.5 + m)  # exact: multiples of 1/4 far below 2^53
        den = (a + 2 * m) * (a + 2 * m + 1.0)
        k, rest = num / den, (den - num) / den
        # 1 - k x D_even and 1 - k x / C_even, with D_even - 1 and
        # 1 - 1/C_even written through the even step's own terms
        d = 1.0 / (rest + k * d_even * (y + e * d))
        c = rest + k * (y + e / c) / c_even
        delta = d_even * c_even * d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return front * h / a
    raise EvaluationError(f"Student t tail did not converge (t={t}, df={df})")


# ---------------------------------------------------------------------------
# benchmark driver
# ---------------------------------------------------------------------------


@dataclass
class FoldRecord:
    """One method's scores on one (repeat, fold) cell."""

    method: str
    repeat: int
    fold: int
    n_test: int
    accuracy: float
    macro_f1: float
    macro_auc: float
    unknown_rate: float


@dataclass
class ClassRecord:
    """One method's one-vs-rest metrics for one class on one cell. The field
    order is the column order of records.csv."""

    method: str
    repeat: int
    fold: int
    class_index: int
    class_name: str
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    recall: float
    f1: float
    auc: float
    auc_valid: bool


@dataclass
class Aggregates:
    """Means and population SDs over a method's scored cells: accuracy and
    the abstention rate over its fold records, the macro metrics over its
    class records (AUC over the classes where it is defined)."""

    accuracy_mean: float
    accuracy_sd: float
    unknown_rate_mean: float
    n_folds_scored: int
    macro_sensitivity_mean: float
    macro_sensitivity_sd: float
    macro_specificity_mean: float
    macro_specificity_sd: float
    macro_precision_mean: float
    macro_precision_sd: float
    macro_recall_mean: float
    macro_recall_sd: float
    macro_f1_mean: float
    macro_f1_sd: float
    macro_auc_mean: float
    macro_auc_sd: float

    def __getitem__(self, key: str) -> float:
        """An aggregate by its report.json key, e.g. `aggregates["macro_f1_mean"]`."""
        return getattr(self, key)


@dataclass
class Failure:
    repeat: int
    fold: int
    error: str  # "Type: message"


@dataclass
class MethodResult:
    """One method's section of the report."""

    kind: str
    aggregates: Optional[Aggregates]  # None when the method scored no cell
    fold_records: list[FoldRecord]
    class_records: list[ClassRecord]
    signature: list[SignatureEntry]
    stability: Optional[StabilityReport]
    extras: dict[str, Any]  # the fitted integrator's extras, per "repeat:fold"
    failures: list[Failure]


@dataclass
class SignificanceEntry:
    metric: str
    method_a: str
    method_b: str
    t: float
    p_value: float
    degenerate: bool


@dataclass
class EvaluationReport:
    """report.json: its fields are the report's keys. `to_json` writes it,
    and `config._build(EvaluationReport, data, "report")` reads it back."""

    report_version: int
    seed: int
    class_names: list[str]
    modality_names: list[str]
    repeats: int
    folds: int
    config: Optional[ExperimentConfig]  # the resolved config of the run, if any
    methods: dict[str, MethodResult]
    significance: list[SignificanceEntry]

    def __post_init__(self) -> None:
        if self.report_version != REPORT_VERSION:
            raise ConfigError(f"report_version: is {self.report_version}, not {REPORT_VERSION}")

    def to_json(self) -> str:
        return json.dumps(_echo(self), sort_keys=True, indent=2)


def _cell_seed(seed: int, repeat: int, fold: int) -> int:
    return int(
        np.random.SeedSequence(entropy=seed, spawn_key=(repeat, fold)).generate_state(1)[0]
    )


def _run_cell(args) -> dict:
    """Prepare one (repeat, fold) cell and fit and score every method on it.

    Standalone function so cells can run in worker processes; returns, keyed
    by method label, the method's `Failure`, or its fold record, class
    records, feature scores and extras. The methods share one FitContext, so
    a base GBM that several of them fit is fitted once.
    """
    dataset, plan, methods, cfg, seed, repeat, fold = args
    test_idx = plan.test_indices(repeat, fold)
    train_idx = plan.train_indices(repeat, fold, dataset.n_samples)
    cell_seed = _cell_seed(seed, repeat, fold)
    train_fit, y_fit, test_p, y_test = prepare_fold(dataset, train_idx, test_idx, cfg, cell_seed)

    fits = FitContext()
    out: dict = {}
    for mi, spec in enumerate(methods):
        label = spec.label
        try:
            fitted = fit_integrator(
                train_fit, y_fit, spec, dataset.n_classes, seed=cell_seed + 131 * mi, fits=fits
            )
            metrics = compute_metrics(fitted.predict(test_p), y_test)
            scores = fitted.feature_scores()
        except Exception as e:  # method failure must not sink other methods
            out[label] = Failure(repeat, fold, f"{type(e).__name__}: {e}")
            continue
        fold_record = FoldRecord(
            label, repeat, fold, len(test_idx),
            metrics.accuracy, metrics.macro_f1, metrics.macro_auc, metrics.unknown_rate,
        )
        class_records = [
            ClassRecord(
                method=label, repeat=repeat, fold=fold,
                class_name=dataset.class_names[c.class_index], **vars(c),
            )
            for c in metrics.per_class
        ]
        out[label] = (fold_record, class_records, scores, fitted.extras)
    return out


def run_cv_benchmark(
    dataset: MultiModalDataset,
    fold_plan: FoldPlan,
    methods: Sequence[IntegratorSpec],
    preprocess_cfg: PreprocessConfig,
    seed: int = 0,
    n_jobs: int = 1,
    config: Optional[ExperimentConfig] = None,
) -> EvaluationReport:
    """Fit and score every method on every (repeat, fold) cell, then attach
    signatures, stability and pairwise corrected t-tests on the per-fold
    macro-F1 and AUC series. A pair of methods is tested on the (repeat,
    fold) cells that both scored, and only when there are at least two.
    `config`, the run's resolved config, is echoed into the report."""
    labels = [spec.label for spec in methods]
    if len(set(labels)) != len(labels):
        raise EvaluationError("duplicate method labels; set distinct names")

    cells = list(fold_plan.cells())
    args = [
        (dataset, fold_plan, list(methods), preprocess_cfg, seed, r, f) for r, f in cells
    ]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # unused at n_jobs=1

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            cell_results = list(pool.map(_run_cell, args))
    else:
        cell_results = [_run_cell(a) for a in args]

    methods_out = {
        spec.label: _method_result(spec, [r[spec.label] for r in cell_results], dataset)
        for spec in methods
    }
    return EvaluationReport(
        report_version=REPORT_VERSION,
        seed=seed,
        class_names=list(dataset.class_names),
        modality_names=list(dataset.modality_names),
        repeats=fold_plan.repeats,
        folds=fold_plan.folds_per_repeat,
        config=config,
        methods=methods_out,
        significance=_pairwise_significance(methods_out, dataset.n_samples, fold_plan),
    )


def _method_result(spec: IntegratorSpec, cells: list, dataset: MultiModalDataset) -> MethodResult:
    """A method's report section from what `_run_cell` returned for it on
    each plan cell, in cell order. A cell's selected features are the
    (modality, feature) keys of its scores: all of them for ML, whose meta
    features all count, and those scoring above 0 otherwise. Signature
    frequencies are over every plan cell, failed ones included."""
    failures = [c for c in cells if isinstance(c, Failure)]
    fold_records, class_records, per_fold_scores, extras = [], [], [], {}
    for record, records, scores, cell_extras in (c for c in cells if not isinstance(c, Failure)):
        fold_records.append(record)
        class_records.extend(records)
        per_fold_scores.append(scores)
        extras[f"{record.repeat}:{record.fold}"] = cell_extras

    stability = None
    if len(per_fold_scores) >= 2:
        used = spec.modalities if spec.modalities is not None else dataset.modality_names
        if spec.kind == "ML":
            universe = dataset.n_classes * len(used)
            selected = per_fold_scores
            caveat = META_STABILITY_CAVEAT
        else:
            n_features = {t.modality_name: t.n_features for t in dataset.modalities}
            universe = sum(n_features[name] for name in used)
            selected = [[key for key, v in s.items() if v > 0] for s in per_fold_scores]
            caveat = None
        stability = stability_cwrel(selected, universe, caveat=caveat)

    return MethodResult(
        kind=spec.kind,
        aggregates=_aggregates(fold_records, class_records) if fold_records else None,
        fold_records=fold_records,
        class_records=class_records,
        signature=select_signature(per_fold_scores, n_folds=len(cells)),
        stability=stability,
        extras=extras,
        failures=failures,
    )


def _aggregates(fold_records: list, class_records: list) -> Aggregates:
    acc = [r.accuracy for r in fold_records]
    auc = [r.auc for r in class_records if r.auc_valid]
    values = {
        "accuracy_mean": float(np.mean(acc)),
        "accuracy_sd": float(np.std(acc)),
        "unknown_rate_mean": float(np.mean([r.unknown_rate for r in fold_records])),
        "n_folds_scored": len(fold_records),
        "macro_auc_mean": float(np.mean(auc)) if auc else 0.0,
        "macro_auc_sd": float(np.std(auc)) if auc else 0.0,
    }
    for name in ("sensitivity", "specificity", "precision", "recall", "f1"):
        vals = [getattr(r, name) for r in class_records]
        values[f"macro_{name}_mean"] = float(np.mean(vals))
        values[f"macro_{name}_sd"] = float(np.std(vals))
    return Aggregates(**values)


def _pairwise_significance(
    methods_out: dict, n_samples: int, fold_plan: FoldPlan
) -> list:
    n_test = n_samples / fold_plan.folds_per_repeat
    n_train = n_samples - n_test
    entries = []
    for (label_a, a), (label_b, b) in combinations(methods_out.items(), 2):
        b_cells = {(r.repeat, r.fold): r for r in b.fold_records}
        pairs = [
            (r, b_cells[r.repeat, r.fold]) for r in a.fold_records if (r.repeat, r.fold) in b_cells
        ]
        if len(pairs) < 2:
            continue  # fewer than 2 cells that both methods scored
        for metric in ("macro_f1", "macro_auc"):
            sa = [getattr(ra, metric) for ra, _ in pairs]
            sb = [getattr(rb, metric) for _, rb in pairs]
            res = corrected_ttest(sa, sb, n_train, n_test)
            entries.append(
                SignificanceEntry(metric=metric, method_a=label_a, method_b=label_b, **asdict(res))
            )
    return entries

"""Confusion-matrix metrics, one-vs-rest AUC, the corrected resampled paired
t-test, and the repeated-CV benchmark driver.

Zero-division cells (e.g. no predicted positives) score 0 and are flagged
rather than propagating NaN, so aggregates stay defined on tiny folds.
An abstention label (-1) never matches any class: it counts against every
metric and is additionally reported as unknown_rate.

The t-test's two-sided p-value is computed here, in floats, from the
incomplete-beta form of the Student t tail (a continued fraction on one
side, a positive series on the other), so that a run loads neither scipy
nor anything else beyond numpy and the standard library. It is within 2e-13
relative of the exact value for up to 1000 degrees of freedom.

Fold and class records are plain dicts, shaped as report.json writes them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .data import FoldPlan, MultiModalDataset
from .feature_selection import (
    FeatureSignature,
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


_RATE_NAMES = ("sensitivity", "specificity", "precision", "f1")


def _class_rates(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sensitivity, specificity, precision and F1 of every class from the
    (K, 4) counts, as rows of a (4, K) array in _RATE_NAMES order, plus a
    (4, K) mask of the rates whose denominator was 0 and which score 0."""

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(len(den)), where=den != 0)

    tp, fp, tn, fn = counts.T
    sens, spec, prec = ratio(tp, tp + fn), ratio(tn, tn + fp), ratio(tp, tp + fp)
    f1 = ratio(2 * prec * sens, prec + sens)
    zero = np.array([tp + fn == 0, tn + fp == 0, tp + fp == 0, prec + sens == 0])
    # each macro is np.mean over one contiguous row, which adds in the
    # same order as a mean over a list of the per-class values
    return np.array([sens, spec, prec, f1]), zero


def macro_f1(pred_labels: np.ndarray, truth: np.ndarray, n_classes: int) -> float:
    """Unweighted mean of per-class one-vs-rest F1 scores."""
    rates, _ = _class_rates(confusion_counts(pred_labels, truth, n_classes))
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
    zero_division_flags: list = field(default_factory=list)


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
    rates, zero = _class_rates(counts)
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
            zero_division_flags=[name for name, z in zip(_RATE_NAMES, zero[:, k]) if z],
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
class MethodResult:
    label: str
    spec: IntegratorSpec
    fold_records: list = field(default_factory=list)  # one dict per scored cell
    class_records: list = field(default_factory=list)  # one dict per cell and class
    per_fold_scores: list = field(default_factory=list)  # raw importance maps
    selected_sets: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    signature: Optional[FeatureSignature] = None
    stability: Optional[StabilityReport] = None
    aggregates: dict = field(default_factory=dict)


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
    seed: int
    class_names: list
    modality_names: list
    repeats: int
    folds: int
    methods: dict  # label -> MethodResult
    significance: list
    config_echo: Optional[dict] = None
    report_version: int = REPORT_VERSION

    def to_json_dict(self) -> dict:
        out = {
            "report_version": self.report_version,
            "seed": self.seed,
            "class_names": self.class_names,
            "modality_names": self.modality_names,
            "repeats": self.repeats,
            "folds": self.folds,
            "config": self.config_echo,
            "methods": {},
            "significance": [asdict(s) for s in self.significance],
        }
        for label, method in self.methods.items():
            out["methods"][label] = {
                "kind": method.spec.kind,
                "aggregates": method.aggregates,
                "fold_records": method.fold_records,
                "class_records": method.class_records,
                "signature": [asdict(e) for e in method.signature or []],
                "stability": asdict(method.stability) if method.stability else None,
                "extras": method.extras,
                "failures": method.failures,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def records_csv_rows(self) -> list[dict]:
        return [r for m in self.methods.values() for r in m.class_records]


def _cell_seed(seed: int, repeat: int, fold: int) -> int:
    return int(
        np.random.SeedSequence(entropy=seed, spawn_key=(repeat, fold)).generate_state(1)[0]
    )


def _run_cell(args) -> dict:
    """Prepare one (repeat, fold) cell and fit and score every method on it.

    Standalone function so cells can run in worker processes; returns each
    method's fold and class records, as report.json writes them, keyed by
    method label. The methods share one FitContext, so a base GBM that
    several of them fit is fitted once.
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
            if spec.kind == "ML":  # every meta feature counts as selected
                selected = set(scores)
            else:
                selected = {key for key, v in scores.items() if v > 0}
        except Exception as e:  # method failure must not sink other methods
            out[label] = {"failure": f"{type(e).__name__}: {e}"}
            continue
        cell = {"method": label, "repeat": repeat, "fold": fold}
        class_records = [
            {**cell, "class_name": dataset.class_names[c.class_index], **asdict(c)}
            for c in metrics.per_class
        ]
        for record in class_records:
            del record["zero_division_flags"]
        out[label] = {
            "fold_record": {
                **cell,
                "n_test": len(test_idx),
                "accuracy": metrics.accuracy,
                "macro_f1": metrics.macro_f1,
                "macro_auc": metrics.macro_auc,
                "unknown_rate": metrics.unknown_rate,
            },
            "class_records": class_records,
            "scores": scores,
            "selected": selected,
            "extras": fitted.extras,
        }
    return out


def run_cv_benchmark(
    dataset: MultiModalDataset,
    fold_plan: FoldPlan,
    methods: Sequence[IntegratorSpec],
    preprocess_cfg: PreprocessConfig,
    seed: int = 0,
    n_jobs: int = 1,
    config_echo: Optional[dict] = None,
) -> EvaluationReport:
    """Fit and score every method on every (repeat, fold) cell, then attach
    signatures, stability and pairwise corrected t-tests on the per-fold
    macro-F1 and AUC series. A pair of methods is tested on the (repeat,
    fold) cells that both scored, and only when there are at least two."""
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

    methods_out: dict[str, MethodResult] = {
        spec.label: MethodResult(label=spec.label, spec=spec) for spec in methods
    }
    for (repeat, fold), result in zip(cells, cell_results):
        for label, payload in result.items():
            m = methods_out[label]
            if "failure" in payload:
                m.failures.append({"repeat": repeat, "fold": fold, "error": payload["failure"]})
                continue
            m.fold_records.append(payload["fold_record"])
            m.class_records.extend(payload["class_records"])
            m.per_fold_scores.append({k: float(v) for k, v in payload["scores"].items()})
            m.selected_sets.append(payload["selected"])
            m.extras[f"{repeat}:{fold}"] = payload["extras"]

    n_folds_total = fold_plan.repeats * fold_plan.folds_per_repeat
    raw_feature_counts = {t.modality_name: t.n_features for t in dataset.modalities}
    for m in methods_out.values():
        _finalize_method(m, dataset, raw_feature_counts, n_folds_total)

    significance = _pairwise_significance(methods_out, dataset.n_samples, fold_plan)
    return EvaluationReport(
        seed=seed,
        class_names=list(dataset.class_names),
        modality_names=list(dataset.modality_names),
        repeats=fold_plan.repeats,
        folds=fold_plan.folds_per_repeat,
        methods=methods_out,
        significance=significance,
        config_echo=config_echo,
    )


def _finalize_method(
    m: MethodResult,
    dataset: MultiModalDataset,
    raw_feature_counts: dict,
    n_folds_total: int,
) -> None:
    spec = m.spec
    if m.fold_records:
        acc = [r["accuracy"] for r in m.fold_records]
        unk = [r["unknown_rate"] for r in m.fold_records]
        auc_vals = [r["auc"] for r in m.class_records if r["auc_valid"]]
        m.aggregates = {
            "accuracy_mean": float(np.mean(acc)),
            "accuracy_sd": float(np.std(acc)),
            "unknown_rate_mean": float(np.mean(unk)),
            "n_folds_scored": len(m.fold_records),
        }
        for name in ("sensitivity", "specificity", "precision", "recall", "f1"):
            vals = [r[name] for r in m.class_records]
            m.aggregates[f"macro_{name}_mean"] = float(np.mean(vals))
            m.aggregates[f"macro_{name}_sd"] = float(np.std(vals))
        m.aggregates["macro_auc_mean"] = float(np.mean(auc_vals)) if auc_vals else 0.0
        m.aggregates["macro_auc_sd"] = float(np.std(auc_vals)) if auc_vals else 0.0

    if m.per_fold_scores:
        m.signature = select_signature(m.per_fold_scores, n_folds=n_folds_total)

    if len(m.selected_sets) >= 2:
        if spec.kind == "ML":
            universe = dataset.n_classes * len(
                spec.modalities if spec.modalities is not None else dataset.modality_names
            )
            caveat = META_STABILITY_CAVEAT
        else:
            used = spec.modalities if spec.modalities is not None else dataset.modality_names
            universe = sum(raw_feature_counts[name] for name in used)
            caveat = None
        tagged = [{f"{mod}::{feat}" for mod, feat in s} for s in m.selected_sets]
        m.stability = stability_cwrel(tagged, universe, caveat=caveat)


def _pairwise_significance(
    methods_out: dict, n_samples: int, fold_plan: FoldPlan
) -> list:
    n_test = n_samples / fold_plan.folds_per_repeat
    n_train = n_samples - n_test
    entries = []
    for a, b in combinations(methods_out.values(), 2):
        b_cells = {(r["repeat"], r["fold"]): r for r in b.fold_records}
        pairs = [
            (r, b_cells[r["repeat"], r["fold"]])
            for r in a.fold_records
            if (r["repeat"], r["fold"]) in b_cells
        ]
        if len(pairs) < 2:
            continue  # fewer than 2 cells that both methods scored
        for metric in ("macro_f1", "macro_auc"):
            sa = [ra[metric] for ra, _ in pairs]
            sb = [rb[metric] for _, rb in pairs]
            res = corrected_ttest(sa, sb, n_train, n_test)
            entries.append(
                SignificanceEntry(metric=metric, method_a=a.label, method_b=b.label, **asdict(res))
            )
    return entries

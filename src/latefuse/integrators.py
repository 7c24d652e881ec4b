"""Late-integration strategies over aligned per-modality tables.

Nine strategies share one fitted shape, `FittedIntegrator`. Each kind has one
`fit_*` function that trains on preprocessed training tables plus labels and
returns it fully built. `predict` gives a PredictionSet on aligned test
tables, `feature_scores` gives raw per-(modality, feature) importance scores
for downstream signature selection, and `extras` holds the kind's
JSON-ready diagnostics for the report. The incremental modality-subset
selector lives here too.

Every base GBM is fitted through a `FitContext`, and a CV cell makes one
for all of its methods. At `subsample` 1 a GBM fit draws nothing from its
seed, so the context fits each (training matrix, labels, weights, params)
once and hands the same model to every request for it: ENS-H, ENS-S, ML's
full-data base models and the first round of ADA-* and PBMV share one
model per modality, and a PBMV view whose weights stop changing reuses its
fit in every later round. A request for fewer rounds than a fit already made
on the same inputs gets that fit's first rounds, so a PBMV or ADA-* base
shorter than the ensembles' is not boosted again. Seeded fits
(`subsample` < 1) are never shared.

Method kinds (config vocabulary):

    CONCAT     single model on column-wise concatenation
    ENS-H      per-modality models, hard (majority) vote
    ENS-S      per-modality models, soft (mean-probability) vote
    ML         per-modality models, random-forest meta learner on their outputs
    ADA-H/S/M  multi-modal boosting; per-round aggregation by hard vote,
               soft vote, or a per-round meta learner
    PBMV       boosting with learned per-classifier and per-view weights
    MOE-COMBN  one-vs-rest expert ensembles combined by a gating rule
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .data import ModalityTable, MultiModalDataset, make_fold_plan
from .feature_selection import aggregate_boosted_importance
from .learners import (
    GbmModel,
    GbmParams,
    PredictionSet,
    RandomForestParams,
    _fit_inputs,
    fit_gbm,
    fit_random_forest,
)
from .preprocess import PreprocessConfig, prepare_fold, smote_balance_tables

INTEGRATOR_KINDS = (
    "CONCAT",
    "ENS-H",
    "ENS-S",
    "ML",
    "ADA-H",
    "ADA-S",
    "ADA-M",
    "PBMV",
    "MOE-COMBN",
)

UNKNOWN = -1  # gate abstention label

_ALPHA_CAP = math.log(1e10)  # round weight when the weighted error hits zero


class IntegrationError(Exception):
    pass


@dataclass(frozen=True)
class IntegratorSpec:
    """Configuration of one integration method."""

    kind: str
    name: Optional[str] = None  # report label; defaults to kind (+ modality subset)
    modalities: Optional[tuple[str, ...]] = None  # None = all modalities
    base: GbmParams = GbmParams()
    boosting_rounds: int = 20
    soft_confidence_ratio: float = 2.0
    inner_folds: int = 5  # out-of-fold meta features for ML
    ada_inner_folds: int = 3  # per-round meta features for ADA-M
    meta_forest: RandomForestParams = RandomForestParams()
    expert_smote: bool = True  # MOE: balance each one-vs-rest problem
    smote_k: int = 5

    def __post_init__(self) -> None:
        if self.kind not in INTEGRATOR_KINDS:
            raise IntegrationError(f"unknown integrator kind {self.kind!r}")
        if self.boosting_rounds < 1:
            raise IntegrationError("boosting_rounds: must be >= 1")
        if self.soft_confidence_ratio <= 1.0:
            raise IntegrationError("soft_confidence_ratio: must exceed 1")
        if self.modalities is not None and len(self.modalities) == 0:
            raise IntegrationError("empty modality subset")
        if self.inner_folds < 2:
            raise IntegrationError("inner_folds: must be >= 2")
        if self.ada_inner_folds < 2:
            raise IntegrationError("ada_inner_folds: must be >= 2")
        if self.smote_k < 1:
            raise IntegrationError("smote_k: must be >= 1")

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        if self.modalities is not None:
            return f"{self.kind}[{'+'.join(self.modalities)}]"
        return self.kind


def _select_tables(
    tables: Sequence[ModalityTable], names: Sequence[str]
) -> list[ModalityTable]:
    by_name = {t.modality_name: t for t in tables}
    missing = [n for n in names if n not in by_name]
    if missing:
        raise IntegrationError(f"missing modalities at predict time: {missing}")
    return [by_name[n] for n in names]


@dataclass(frozen=True, eq=False)
class FittedIntegrator:
    """A fitted strategy of any kind.

    `feature_names[m]` and `importances[m]` are aligned with modality
    `modality_names[m]`; for ML the features are the meta learner's inputs,
    `meta_proba_k`. `predict_values` maps the value arrays of those
    modalities, in that order, to a PredictionSet. It is a
    `functools.partial` of the kind's predict function, and its keywords hold
    the fitted models.
    """

    spec: IntegratorSpec
    modality_names: list[str]
    feature_names: list[list[str]]
    importances: list[np.ndarray]
    predict_values: Callable[[list[np.ndarray]], PredictionSet]
    extras: dict = field(default_factory=dict)

    def predict(self, tables: Sequence[ModalityTable]) -> PredictionSet:
        used = _select_tables(tables, self.modality_names)
        return self.predict_values([t.values for t in used])

    def feature_scores(self) -> dict:
        return {
            (name, feat): float(imp[i])
            for name, feats, imp in zip(self.modality_names, self.feature_names, self.importances)
            for i, feat in enumerate(feats)
        }


def _fitted(spec, tables, importances, predict_values, extras=None) -> FittedIntegrator:
    """A FittedIntegrator whose features are the tables' own columns."""
    return FittedIntegrator(
        spec=spec,
        modality_names=[t.modality_name for t in tables],
        feature_names=[list(t.feature_names) for t in tables],
        importances=importances,
        predict_values=predict_values,
        extras=extras or {},
    )


class FitContext:
    """The base-GBM fits of one CV cell, shared by all of its methods.

    `gbm` returns the model it already fitted for the same training matrix
    (the same array object), labels, weights, params and class count when
    `params.subsample` is 1: `fit_gbm` then never reads its seed, so the
    seed is not part of the key. A request that differs from an earlier one
    only in asking for fewer rounds is served the first rounds of the
    longest such fit (`GbmModel.first_rounds`), which are the model a fit of
    that many rounds would make; a longer request is fitted afresh and
    becomes the longest. Every model served is stored under its own request,
    so a repeated request returns the same object. Each entry keeps its
    matrix alive, so no id is reused while the context lives; a matrix must
    not be changed in place meanwhile. Fits with `subsample` < 1 depend on
    the seed and are always made afresh.
    """

    def __init__(self) -> None:
        self._fits: dict[tuple, tuple[np.ndarray, GbmModel]] = {}
        self._longest: dict[tuple, GbmModel] = {}  # by the key without n_rounds

    def gbm(self, X, y, w, params: GbmParams, seed: int, K: int) -> GbmModel:
        if params.subsample < 1.0:
            return fit_gbm(X, y, w, params, seed=seed, n_classes=K)
        # check the input before its labels and weights go into the key
        _, w_checked, y_checked, _ = _fit_inputs(X, y, w, K)
        base = (id(X), y_checked.tobytes(), w_checked.tobytes(), replace(params, n_rounds=0), K)
        key = (*base, params.n_rounds)
        entry = self._fits.get(key)
        if entry is None:
            longest = self._longest.get(base)
            if longest is not None and len(longest.trees) >= params.n_rounds:
                model = longest.first_rounds(params.n_rounds)
            else:
                model = self._longest[base] = fit_gbm(X, y, w, params, seed=seed, n_classes=K)
            entry = self._fits[key] = (X, model)
        return entry[1]


def _fit_per_modality(fits, values, labels, weights, base, seed, n_classes) -> list[GbmModel]:
    """One GBM per modality; modality i is seeded seed + 17 * i."""
    return [
        fits.gbm(x, labels, weights, base, seed + 17 * i, n_classes)
        for i, x in enumerate(values)
    ]


def _predict_each(models, values) -> list[PredictionSet]:
    return [m.predict_proba(x) for m, x in zip(models, values)]


def _normalize_rows(scores: np.ndarray, n_classes: int) -> np.ndarray:
    """Rows scaled to sum 1; a row without positive mass becomes uniform."""
    total = scores.sum(axis=1, keepdims=True)
    return np.where(total > 0, scores / np.where(total > 0, total, 1.0), 1.0 / n_classes)


def _weighted_importance(weights, importances) -> np.ndarray:
    """Weight-averaged importance vectors; zeros when no weight is positive."""
    weights = [float(wt) for wt in weights]
    if sum(weights) <= 0:
        return np.zeros(len(importances[0]))
    return aggregate_boosted_importance(list(zip(weights, importances)))


# ---------------------------------------------------------------------------
# voting rules
# ---------------------------------------------------------------------------


def _check_parts(per_modality: Sequence[PredictionSet]) -> None:
    if not per_modality:
        raise IntegrationError("empty prediction list")
    n, n_classes = per_modality[0].n_samples, per_modality[0].n_classes
    if any(p.n_samples != n or p.n_classes != n_classes for p in per_modality):
        raise IntegrationError("prediction sets disagree on shape")


def _vote_counts(per_modality: Sequence[PredictionSet]) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels (n, M) and per-class vote counts (n, K), as float64."""
    votes = np.stack([p.labels for p in per_modality], axis=1)
    counts = np.zeros((votes.shape[0], per_modality[0].n_classes), dtype=np.float64)
    rows = np.repeat(np.arange(votes.shape[0]), votes.shape[1])
    np.add.at(counts, (rows, votes.ravel()), 1.0)
    return votes, counts


def vote_hard(per_modality: Sequence[PredictionSet]) -> PredictionSet:
    """Majority vote over per-modality predicted labels.

    Ties go to the vote of the earliest modality (configuration order) among
    the tied classes. Output probabilities are vote fractions.
    """
    _check_parts(per_modality)
    votes, counts = _vote_counts(per_modality)

    max_count = counts.max(axis=1)
    labels = np.argmax(counts, axis=1)
    tied = (counts == max_count[:, None]).sum(axis=1) > 1
    for i in np.flatnonzero(tied):
        for vote in votes[i]:
            if counts[i, vote] == max_count[i]:
                labels[i] = vote
                break
    return PredictionSet(labels=labels, probabilities=counts / votes.shape[1])


def vote_soft(per_modality: Sequence[PredictionSet]) -> PredictionSet:
    """Arithmetic mean of per-modality probability rows, argmax prediction."""
    _check_parts(per_modality)
    for p in per_modality:
        row_sums = p.probabilities.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > 1e-6:
            raise IntegrationError("probability row not summing to 1")
    mean = np.mean([p.probabilities for p in per_modality], axis=0)
    return PredictionSet.from_probabilities(mean)


def adaboost_high_confidence(
    per_modality: Sequence[PredictionSet],
    truth: np.ndarray,
    aggregator_kind: str,
    soft_confidence_ratio: float = 2.0,
    aggregated: Optional[PredictionSet] = None,
) -> np.ndarray:
    """Per-sample correctness under the high-confidence boosting rule.

    hard/meta: a sample is confidently classified when at least half of the
    modalities (ceil(M/2)) agree on one class. soft: when the top aggregated
    probability is at least soft_confidence_ratio times the second. A sample
    counts as correct only if it is confident AND the aggregated prediction
    matches the truth; everything else is treated as misclassified.
    """
    truth = np.asarray(truth, dtype=np.intp)
    if aggregator_kind not in ("hard", "soft", "meta"):
        raise IntegrationError(f"unknown aggregator {aggregator_kind!r}")
    if aggregated is None:
        if aggregator_kind == "hard":
            aggregated = vote_hard(per_modality)
        elif aggregator_kind == "soft":
            aggregated = vote_soft(per_modality)
        else:
            raise IntegrationError("meta aggregation requires the aggregated predictions")

    if aggregator_kind == "soft":
        top2 = np.sort(aggregated.probabilities, axis=1)[:, -2:]
        high_conf = top2[:, 1] >= soft_confidence_ratio * top2[:, 0]
    else:
        _, counts = _vote_counts(per_modality)
        high_conf = counts.max(axis=1) >= math.ceil(len(per_modality) / 2)
    return high_conf & (aggregated.labels == truth)


# ---------------------------------------------------------------------------
# concatenation
# ---------------------------------------------------------------------------


def _predict_concat(values, *, model):
    return model.predict_proba(np.hstack(values))


def fit_concat(
    tables: Sequence[ModalityTable],
    labels: np.ndarray,
    spec: IntegratorSpec,
    n_classes: int,
    seed: int = 0,
    fits: Optional[FitContext] = None,
) -> FittedIntegrator:
    """Single model over the column-wise concatenation of all modalities."""
    provenance = [(t.modality_name, f) for t in tables for f in t.feature_names]
    if len(set(provenance)) != len(provenance):
        raise IntegrationError("duplicate (modality, feature) pair in concatenation")
    fits = fits or FitContext()
    X = np.hstack([t.values for t in tables])
    model = fits.gbm(X, labels, np.ones(len(labels)), spec.base, seed, n_classes)
    bounds = np.cumsum([t.n_features for t in tables])[:-1]
    return _fitted(
        spec, tables, np.split(model.feature_importances_, bounds),
        partial(_predict_concat, model=model),
    )


# ---------------------------------------------------------------------------
# voting ensembles
# ---------------------------------------------------------------------------


def _predict_vote(values, *, models, vote):
    return vote(_predict_each(models, values))


def fit_vote(
    tables: Sequence[ModalityTable],
    labels: np.ndarray,
    spec: IntegratorSpec,
    n_classes: int,
    seed: int = 0,
    fits: Optional[FitContext] = None,
) -> FittedIntegrator:
    """One model per modality; predictions combined by hard or soft vote."""
    fits = fits or FitContext()
    models = _fit_per_modality(
        fits, [t.values for t in tables], labels, np.ones(len(labels)), spec.base, seed, n_classes
    )
    vote = vote_hard if spec.kind == "ENS-H" else vote_soft
    return _fitted(
        spec, tables, [m.feature_importances_ for m in models],
        partial(_predict_vote, models=models, vote=vote),
    )


# ---------------------------------------------------------------------------
# meta learner
# ---------------------------------------------------------------------------


def _oof_meta_features(
    fits: FitContext,
    values: Sequence[np.ndarray],
    labels: np.ndarray,
    base: GbmParams,
    n_classes: int,
    inner_folds: int,
    seed: int,
    sample_weight: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Out-of-fold class probabilities per modality (K columns per modality).

    Keeps the meta model from learning base-model overfit: each row's meta
    features come from base models that never saw that row.
    """
    try:
        plan = make_fold_plan(labels, repeats=1, folds=inner_folds, seed=seed)
    except Exception as e:
        raise IntegrationError(f"inner fold infeasible: {e}") from None
    n = len(labels)
    meta = np.zeros((n, len(values) * n_classes), dtype=np.float64)
    w = sample_weight if sample_weight is not None else np.ones(n)
    for _, f in plan.cells():
        test_idx = plan.test_indices(0, f)
        train_idx = plan.train_indices(0, f, n)
        for m, x in enumerate(values):
            model = fits.gbm(
                x[train_idx], labels[train_idx], w[train_idx], base,
                seed + 31 * m + 7 * f, n_classes,
            )
            probs = model.predict_proba(x[test_idx]).probabilities
            meta[test_idx, m * n_classes : (m + 1) * n_classes] = probs
    return meta


def _predict_meta(values, *, base_models, forest):
    parts = _predict_each(base_models, values)
    return forest.predict_proba(np.hstack([p.probabilities for p in parts]))


def fit_meta_learner(
    tables: Sequence[ModalityTable],
    labels: np.ndarray,
    spec: IntegratorSpec,
    n_classes: int,
    seed: int = 0,
    fits: Optional[FitContext] = None,
) -> FittedIntegrator:
    """Random-forest meta model on out-of-fold base-model probabilities.

    Its features are the meta inputs (modality, meta_proba_k); extras carry
    each modality's summed meta importance as `modality_relevance`.
    """
    fits = fits or FitContext()
    values = [t.values for t in tables]
    base_models = _fit_per_modality(
        fits, values, labels, np.ones(len(labels)), spec.base, seed, n_classes
    )
    meta = _oof_meta_features(
        fits, values, labels, spec.base, n_classes, spec.inner_folds, seed + 811
    )
    forest = fit_random_forest(meta, labels, spec.meta_forest, seed=seed + 977, n_classes=n_classes)
    names = [t.modality_name for t in tables]
    importances = np.split(forest.feature_importances_, len(tables))
    # cumsum adds left to right; np.sum's pairwise order could move the last bit
    relevance = {name: float(np.cumsum(imp)[-1]) for name, imp in zip(names, importances)}
    return FittedIntegrator(
        spec=spec,
        modality_names=names,
        feature_names=[[f"meta_proba_{k}" for k in range(n_classes)] for _ in names],
        importances=importances,
        predict_values=partial(_predict_meta, base_models=base_models, forest=forest),
        extras={"modality_relevance": relevance},
    )


# ---------------------------------------------------------------------------
# multi-modal Adaboost (SAMME-style round weights)
# ---------------------------------------------------------------------------

_ADA_AGGREGATORS = {"ADA-H": "hard", "ADA-S": "soft", "ADA-M": "meta"}


def _ada_aggregate(aggregator: str, parts, meta_forest) -> PredictionSet:
    """One round's combined prediction: hard or soft vote, or the round's
    meta forest on the stacked per-modality probabilities (ADA-M)."""
    if aggregator == "hard":
        return vote_hard(parts)
    if aggregator == "soft":
        return vote_soft(parts)
    return meta_forest.predict_proba(np.hstack([p.probabilities for p in parts]))


def _predict_ada(values, *, rounds, aggregator, n_classes):
    n = len(values[0])
    scores = np.zeros((n, n_classes), dtype=np.float64)
    for alpha, models, meta_forest in rounds:
        agg = _ada_aggregate(aggregator, _predict_each(models, values), meta_forest)
        if aggregator == "soft":
            scores += alpha * agg.probabilities
        else:
            scores[np.arange(n), agg.labels] += alpha
    return PredictionSet.from_probabilities(_normalize_rows(scores, n_classes))


def fit_adaboost_mm(
    tables: Sequence[ModalityTable],
    labels: np.ndarray,
    spec: IntegratorSpec,
    n_classes: int,
    seed: int = 0,
    fits: Optional[FitContext] = None,
) -> FittedIntegrator:
    """Boost per-modality models under one shared sample-weight vector.

    Each round fits one model per modality on the weighted data, aggregates
    them (hard/soft/meta), and scores samples with the high-confidence rule;
    the weighted error drives the multiclass round weight
    alpha = ln((1-e)/e) + ln(K-1). Misclassified samples are up-weighted by
    exp(alpha). A round with error >= 1 - 1/K is discarded and the weights
    reset to uniform; error zero caps alpha and stops early. Extras carry
    the kept rounds' alphas as `round_weights`.
    """
    fits = fits or FitContext()
    aggregator = _ADA_AGGREGATORS[spec.kind]
    values = [t.values for t in tables]
    n = len(labels)
    K = n_classes
    w = np.ones(n)  # kept normalized to sum n
    rounds: list[tuple] = []  # (alpha, per-modality models, ADA-M meta forest or None)

    for t in range(spec.boosting_rounds):
        models = _fit_per_modality(fits, values, labels, w, spec.base, seed + 1009 * t, K)
        parts = _predict_each(models, values)
        meta_forest = None
        if aggregator == "meta":
            meta_oof = _oof_meta_features(
                fits, values, labels, spec.base, K, spec.ada_inner_folds, seed + 1013 * t, w
            )
            meta_forest = _fit_weighted_forest(
                meta_oof, labels, spec.meta_forest, w, seed + 1019 * t, K
            )
        aggregated = _ada_aggregate(aggregator, parts, meta_forest)

        correct = adaboost_high_confidence(
            parts, labels, aggregator, spec.soft_confidence_ratio, aggregated
        )
        eps = float(w[~correct].sum() / w.sum())

        if eps <= 0.0:
            rounds.append((_ALPHA_CAP + math.log(K - 1), models, meta_forest))
            break
        if eps >= 1.0 - 1.0 / K:
            w = np.ones(n)  # discard round, restart from uniform weights
            continue
        alpha = math.log((1.0 - eps) / eps) + math.log(K - 1)
        rounds.append((alpha, models, meta_forest))
        w = w * np.where(correct, 1.0, math.exp(alpha))
        w = w * (n / w.sum())

    if not rounds:
        raise IntegrationError("no usable boosting round (all rounds were discarded)")
    alphas = [alpha for alpha, _, _ in rounds]
    importances = [
        _weighted_importance(alphas, [models[m].feature_importances_ for _, models, _ in rounds])
        for m in range(len(tables))
    ]
    return _fitted(
        spec, tables, importances,
        partial(_predict_ada, rounds=rounds, aggregator=aggregator, n_classes=K),
        {"round_weights": alphas},
    )


def _fit_weighted_forest(X, y, params, sample_weight, seed, n_classes):
    """Random forest honoring sample weights through one weighted resample
    of the rows; each tree then bootstraps it as `params.bootstrap` says."""
    p = sample_weight / sample_weight.sum()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(404,)))
    n = len(y)
    rows = rng.choice(n, size=n, replace=True, p=p)
    return fit_random_forest(X[rows], y[rows], params, seed=seed, n_classes=n_classes)


# ---------------------------------------------------------------------------
# PB-MVBoost
# ---------------------------------------------------------------------------


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.flatnonzero(u * np.arange(1, len(v) + 1) > (css - 1.0))
    if len(rho) == 0:
        out = np.zeros_like(v)
        out[int(np.argmax(v))] = 1.0
        return out
    r = rho[-1]
    theta = (css[r] - 1.0) / (r + 1.0)
    return np.maximum(v - theta, 0.0)


_BOUND_MAX_STEPS = 200
_BOUND_TOL = 1e-6
_BOUND_STEP_SIZE = 0.05


def _minimize_view_bound(risks: np.ndarray, disagreements: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimize the majority-vote error bound 1 - (1-2r)^2 / (1-2d) over the
    view-weight simplex by projected gradient descent.

    r and d are the rho-weighted view risks and within-view disagreements.
    Returns (rho, converged); callers fall back to uniform on failure.
    """
    v = len(risks)
    rho = np.full(v, 1.0 / v)

    def _grad(r_bar: float, d_bar: float) -> np.ndarray:
        a = 1.0 - 2.0 * r_bar
        b = max(1.0 - 2.0 * d_bar, 1e-6)
        return (4.0 * a * risks * b - 2.0 * a * a * disagreements) / (b * b)

    for _ in range(_BOUND_MAX_STEPS):
        r_bar = float(rho @ risks)
        d_bar = float(rho @ disagreements)
        g = _grad(r_bar, d_bar)
        if not np.isfinite(g).all():
            return np.full(v, 1.0 / v), False
        new_rho = _project_simplex(rho - _BOUND_STEP_SIZE * g)
        if np.abs(new_rho - rho).max() < _BOUND_TOL:
            return new_rho, True
        rho = new_rho
    return rho, True  # hit the step cap; current point is still on the simplex


def _q_disagreement(qn: np.ndarray, preds: np.ndarray) -> float:
    """Sum over round pairs a != b of qn[a] * qn[b] * (share of rows where the
    (T, n) label rows `preds` differ), added in row-major pair order; the
    diagonal adds +0.0, so this is the pairwise double loop bit for bit."""
    pair = np.array([(p != preds).mean(axis=1) for p in preds])  # (T, T)
    return float(np.cumsum(qn[:, None] * qn[None, :] * pair)[-1])


def _predict_pbmv(values, *, models, q, rho, n_classes):
    """Vote of every (view, round) classifier with weight rho[v] * q[v][t].

    A model that several rounds of a view share predicts once."""
    n = len(values[0])
    scores = np.zeros((n, n_classes), dtype=np.float64)
    for v, x in enumerate(values):
        labels: dict[int, np.ndarray] = {}
        for t, model in enumerate(models[v]):
            if q[v][t] <= 0:
                continue
            if id(model) not in labels:
                labels[id(model)] = model.predict_proba(x).labels
            scores[np.arange(n), labels[id(model)]] += rho[v] * q[v][t]
    return PredictionSet.from_probabilities(_normalize_rows(scores, n_classes))


def fit_pbmvboost(
    tables: Sequence[ModalityTable],
    labels: np.ndarray,
    spec: IntegratorSpec,
    n_classes: int,
    seed: int = 0,
    fits: Optional[FitContext] = None,
) -> FittedIntegrator:
    """Two-level boosting: per-view classifier weights from the weighted edge,
    plus view weights on the simplex from bound minimization.

    Each view keeps its own Adaboost-style example weights. After the last
    round the view weights rho are fit once, by minimizing the majority-vote
    error bound from the views' risks and pairwise within-view disagreements.
    Extras carry `view_weights` and whether that fit fell back to uniform
    weights (`uniform_fallback`).
    """
    if len(tables) < 2:
        raise IntegrationError("PBMV needs at least 2 modalities")
    fits = fits or FitContext()
    n = len(labels)
    K = n_classes
    V = len(tables)
    d_v = [np.ones(n) for _ in range(V)]  # per-view example weights
    per_view_models: list[list[GbmModel]] = [[] for _ in range(V)]
    per_view_q: list[list[float]] = [[] for _ in range(V)]
    per_view_eps: list[list[float]] = [[] for _ in range(V)]
    train_labels: list[list[np.ndarray]] = [[] for _ in range(V)]

    for t in range(spec.boosting_rounds):
        for v, table in enumerate(tables):
            model = fits.gbm(table.values, labels, d_v[v], spec.base, seed + 2003 * t + 29 * v, K)
            if t > 0 and model is per_view_models[v][-1]:
                pred = train_labels[v][-1]  # the previous round's model, shared by fits
            else:
                pred = model.predict_proba(table.values).labels
            mis = pred != labels
            eps = float(d_v[v][mis].sum() / d_v[v].sum())
            eps = min(max(eps, 1e-10), 1.0 - 1e-10)
            q = 0.5 * (math.log((1.0 - eps) / eps) + math.log(K - 1))
            q = max(q, 0.0)  # a worse-than-chance voter gets no say
            per_view_models[v].append(model)
            per_view_q[v].append(q)
            per_view_eps[v].append(eps)
            train_labels[v].append(pred)
            d_v[v] = d_v[v] * np.where(mis, math.exp(q), 1.0)
            d_v[v] = d_v[v] * (n / d_v[v].sum())

    # Gibbs risk per view under the Q-posterior, from the boosting-weighted
    # errors: an uninformative view stays near chance under reweighting even
    # when its classifiers memorize the raw training set.
    q_arrays = [np.array(q) for q in per_view_q]
    risks = np.full(V, 0.5)
    disagreements = np.zeros(V)
    for v, q in enumerate(q_arrays):
        if q.sum() > 0:
            qn = q / q.sum()
            risks[v] = float(np.dot(qn, per_view_eps[v]))
            disagreements[v] = _q_disagreement(qn, np.stack(train_labels[v], axis=0))
    rho, converged = _minimize_view_bound(risks, disagreements)
    if not converged:
        rho = np.full(V, 1.0 / V)

    importances = [
        _weighted_importance(q, [m.feature_importances_ for m in models])
        for q, models in zip(q_arrays, per_view_models)
    ]
    extras = {
        "view_weights": {t.modality_name: float(w) for t, w in zip(tables, rho)},
        "uniform_fallback": not converged,
    }
    return _fitted(
        spec, tables, importances,
        partial(_predict_pbmv, models=per_view_models, q=q_arrays, rho=rho, n_classes=K),
        extras,
    )


# ---------------------------------------------------------------------------
# mixture of experts
# ---------------------------------------------------------------------------


@dataclass
class GateDecision:
    """Gate outcome per sample: a class index or UNKNOWN (-1)."""

    chosen: np.ndarray

    @property
    def unknown_mask(self) -> np.ndarray:
        return self.chosen == UNKNOWN


def moe_gate(per_expert: Sequence[tuple[np.ndarray, np.ndarray]]) -> GateDecision:
    """Combine one-vs-rest experts, one per class in class order.

    Each entry is (own-class probability, claims-own-class flag). A sole
    claimant wins; multiple claimants resolve to the highest own-class
    probability (ties to the lower class index); no claimant means UNKNOWN.
    """
    probs = np.stack([p for p, _ in per_expert], axis=1)  # (n, K)
    claims = np.stack([c for _, c in per_expert], axis=1)  # (n, K) bool
    n = probs.shape[0]
    chosen = np.full(n, UNKNOWN, dtype=np.intp)
    any_claim = claims.any(axis=1)
    masked = np.where(claims, probs, -np.inf)
    winners = np.argmax(masked, axis=1)  # first max -> lower class index on ties
    chosen[any_claim] = winners[any_claim]
    return GateDecision(chosen=chosen)


def _expert_outputs(values, experts) -> list[tuple[np.ndarray, np.ndarray]]:
    """(own-class probability, claims-own-class flag) of each class's expert,
    the soft vote of its per-modality binary models, for moe_gate."""
    outputs = []
    for models in experts:
        combined = vote_soft(_predict_each(models, values))
        outputs.append((combined.probabilities[:, 1], combined.labels == 1))
    return outputs


def _predict_moe(values, *, experts, n_classes):
    outputs = _expert_outputs(values, experts)
    own = np.stack([p for p, _ in outputs], axis=1)
    return PredictionSet(
        labels=moe_gate(outputs).chosen, probabilities=_normalize_rows(own, n_classes)
    )


def fit_moe(
    tables: Sequence[ModalityTable],
    labels: np.ndarray,
    spec: IntegratorSpec,
    n_classes: int,
    seed: int = 0,
    fits: Optional[FitContext] = None,
) -> FittedIntegrator:
    """One binary one-vs-rest expert per class, each a soft-voting ensemble.

    Each expert's training split is rebalanced (its own class vs REST) before
    fitting, so minority classes get a fair specialist. A feature's score is
    its importance averaged over the experts.
    """
    present = set(np.unique(labels).tolist())
    missing = [k for k in range(n_classes) if k not in present]
    if missing:
        raise IntegrationError(f"class(es) absent from the training split: {missing}")
    fits = fits or FitContext()
    experts = []  # experts[class] -> per-modality binary GbmModels
    for cls in range(n_classes):
        y_bin = (labels == cls).astype(np.intp)
        expert_tables = list(tables)
        y_fit = y_bin
        if spec.expert_smote:
            expert_tables, y_fit = smote_balance_tables(
                expert_tables, y_bin, k=spec.smote_k, seed=seed + 3001 * cls
            )
        values = [t.values for t in expert_tables]
        w = np.ones(len(y_fit))
        experts.append(_fit_per_modality(fits, values, y_fit, w, spec.base, seed + 3001 * cls, 2))
    importances = [
        sum(models[m].feature_importances_ for models in experts) / n_classes
        for m in range(len(tables))
    ]
    return _fitted(
        spec, tables, importances, partial(_predict_moe, experts=experts, n_classes=n_classes)
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


_FITTERS = {
    "CONCAT": fit_concat,
    "ENS-H": fit_vote,
    "ENS-S": fit_vote,
    "ML": fit_meta_learner,
    "ADA-H": fit_adaboost_mm,
    "ADA-S": fit_adaboost_mm,
    "ADA-M": fit_adaboost_mm,
    "PBMV": fit_pbmvboost,
    "MOE-COMBN": fit_moe,
}


def fit_integrator(
    tables: Sequence[ModalityTable],
    labels: np.ndarray,
    spec: IntegratorSpec,
    n_classes: int,
    seed: int = 0,
    fits: Optional[FitContext] = None,
) -> FittedIntegrator:
    """Fit the strategy named by spec.kind on the given modality subset.

    `fits` is the FitContext shared by the methods of one CV cell; without
    it the method gets a context of its own.
    """
    if spec.modalities is not None:
        tables = _select_tables(tables, spec.modalities)
    labels = np.asarray(labels, dtype=np.intp)
    return _FITTERS[spec.kind](tables, labels, spec, n_classes, seed, fits)


# ---------------------------------------------------------------------------
# incremental modality-subset selection
# ---------------------------------------------------------------------------


@dataclass
class RemovalStep:
    step: int
    removed: Optional[str]  # None marks the all-modalities baseline row
    f1_after_removal: float


@dataclass
class IncrementalResult:
    trace: list[RemovalStep]
    best_subset: list[str]


def score_modality_subset(
    dataset: MultiModalDataset,
    subset: Sequence[str],
    preprocess_cfg: PreprocessConfig,
    base: GbmParams,
    inner_folds: int = 3,
    seed: int = 0,
) -> float:
    """Mean macro-F1 of the soft-voting ensemble over an inner stratified CV,
    with preprocessing and balancing fit per fold."""
    from .evaluation import macro_f1  # deferred: evaluation sits above this module

    sub = dataset.subset_modalities(subset)
    plan = make_fold_plan(sub.labels, repeats=1, folds=inner_folds, seed=seed)
    spec = IntegratorSpec(kind="ENS-S", base=base)
    scores = []
    for r, f in plan.cells():
        train_p, y_fit, test_p, y_test = prepare_fold(
            sub, plan.train_indices(r, f, sub.n_samples), plan.test_indices(r, f),
            preprocess_cfg, seed + 13 * f,
        )
        model = fit_vote(train_p, y_fit, spec, sub.n_classes, seed=seed + 7 * f)
        pred = model.predict(test_p)
        scores.append(macro_f1(pred.labels, y_test, sub.n_classes))
    return float(np.mean(scores))


def incremental_select(
    dataset: MultiModalDataset,
    preprocess_cfg: PreprocessConfig,
    base: GbmParams = GbmParams(),
    margin: float = 0.01,
    inner_folds: int = 3,
    seed: int = 0,
) -> IncrementalResult:
    """Greedy backward elimination of modalities by leave-one-out F1.

    Starting from all modalities, each iteration drops the modality whose
    exclusion gives the highest soft-vote F1, as long as that score stays
    within `margin` of the best seen so far. Ties remove the earliest modality
    in configuration order.
    """
    names = list(dataset.modality_names)
    if len(names) < 2:
        raise IntegrationError("incremental selection needs at least 2 modalities")

    cache: dict[frozenset, float] = {}

    def _score(subset: Sequence[str]) -> float:
        key = frozenset(subset)
        if key not in cache:
            cache[key] = score_modality_subset(
                dataset, subset, preprocess_cfg, base, inner_folds, seed
            )
        return cache[key]

    remaining = list(names)
    best = _score(remaining)
    trace = [RemovalStep(step=0, removed=None, f1_after_removal=best)]
    step = 1
    while len(remaining) > 1:
        candidates = []
        for m in remaining:
            reduced = [x for x in remaining if x != m]
            candidates.append((_score(reduced), m))
        best_f1 = max(f1 for f1, _ in candidates)
        best_m = next(m for f1, m in candidates if f1 == best_f1)
        if best_f1 >= best - margin:
            remaining = [x for x in remaining if x != best_m]
            trace.append(RemovalStep(step=step, removed=best_m, f1_after_removal=best_f1))
            best = max(best, best_f1)
            step += 1
        else:
            break
    return IncrementalResult(trace=trace, best_subset=remaining)

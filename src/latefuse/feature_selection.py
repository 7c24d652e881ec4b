"""All-relevant feature selection, importance aggregation across boosting
rounds and CV folds, and the relative weighted consistency stability index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .learners import GbmParams, fit_gbm

CONFIRMED = "confirmed"
REJECTED = "rejected"
TENTATIVE = "tentative"


class FeatureSelectionError(Exception):
    pass


# ---------------------------------------------------------------------------
# Boruta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorutaParams:
    max_iter: int = 50
    alpha: float = 0.05
    # a weak, heavily row-subsampled learner keeps shadow comparisons honest:
    # chance correlations fluctuate across iterations instead of riding one
    # deterministic fit, and 20 rounds leave shadows room to score
    gbm: GbmParams = GbmParams(n_rounds=20, max_depth=2, subsample=0.3, learning_rate=0.2)


@dataclass
class BorutaResult:
    statuses: list[str]  # per feature: confirmed | rejected | tentative
    hit_counts: np.ndarray
    n_iterations: int


def _binomial_half_tails(n: int) -> tuple[np.ndarray, np.ndarray]:
    """P(X >= h) and P(X <= h) for h = 0..n, X ~ Binomial(n, 1/2), each the
    correctly rounded quotient of exact integer counts over 2**n."""
    below = [0, *itertools.accumulate(math.comb(n, j) for j in range(n + 1))]  # #{X < h}
    total = 2**n
    at_least = np.array([(total - b) / total for b in below[:-1]])
    at_most = np.array([b / total for b in below[1:]])
    return at_least, at_most


def boruta_select(
    X: np.ndarray,
    y: np.ndarray,
    params: BorutaParams = BorutaParams(),
    seed: int = 0,
) -> BorutaResult:
    """All-relevant selection against shuffled shadow copies.

    Each iteration appends one shuffled shadow per surviving real feature,
    fits the boosting learner on the combined matrix and scores a hit for
    every real feature whose importance beats the best shadow. Hits feed a
    two-sided binomial test (p = 0.5) with Bonferroni correction over the
    initial feature count: significantly above confirms, significantly below
    rejects and removes the feature. Whatever is undecided after max_iter
    stays tentative.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    if X.ndim != 2 or X.shape[1] == 0 or len(X) == 0:
        raise FeatureSelectionError("X must be a non-empty 2-D matrix")
    n, f = X.shape
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(303,)))

    decided = np.zeros(f, dtype=np.intp)  # 0 undecided, 1 confirmed, -1 rejected
    hits = np.zeros(f, dtype=np.intp)
    bonferroni_alpha = params.alpha / f
    n_iter = 0

    for it in range(1, params.max_iter + 1):
        active = np.flatnonzero(decided >= 0)
        undecided = np.flatnonzero(decided == 0)
        if len(undecided) == 0:
            break
        n_iter = it

        shadows = X[:, active].copy()
        for col in range(shadows.shape[1]):
            shadows[:, col] = shadows[rng.permutation(n), col]
        combined = np.hstack([X[:, active], shadows])
        model = fit_gbm(combined, y, params=params.gbm, seed=seed * 100003 + it)
        imp = model.feature_importances_
        real_imp = imp[: len(active)]
        shadow_max = imp[len(active):].max() if len(active) else 0.0

        hits[active[real_imp > shadow_max]] += 1

        at_least, at_most = _binomial_half_tails(it)
        up_p = at_least[hits[undecided]]
        down_p = at_most[hits[undecided]]
        decided[undecided[up_p <= bonferroni_alpha]] = 1
        decided[undecided[down_p <= bonferroni_alpha]] = -1

    statuses = [
        CONFIRMED if d == 1 else REJECTED if d == -1 else TENTATIVE for d in decided
    ]
    return BorutaResult(statuses=statuses, hit_counts=hits, n_iterations=n_iter)


# ---------------------------------------------------------------------------
# importance aggregation and the final signature
# ---------------------------------------------------------------------------


def aggregate_boosted_importance(
    per_round_scores: Sequence[tuple[float, np.ndarray]],
) -> np.ndarray:
    """Weight-average raw importance vectors: sum(w_t * s_t) / sum(w_t)."""
    if not per_round_scores:
        raise FeatureSelectionError("no rounds to aggregate")
    weights = np.array([w for w, _ in per_round_scores], dtype=np.float64)
    if (weights < 0).any():
        raise FeatureSelectionError("weights must be nonnegative")
    total = weights.sum()
    if total <= 0:
        raise FeatureSelectionError("all-zero weights")
    stacked = np.stack([np.asarray(s, dtype=np.float64) for _, s in per_round_scores])
    return (weights[:, None] * stacked).sum(axis=0) / total


@dataclass
class SignatureEntry:
    modality: str
    feature: str
    score: float  # mean max-scaled importance over selecting folds, in [0,1]
    frequency: float  # fraction of folds with raw score > 0


SIGNATURE_FREQUENCY_THRESHOLD = 0.75
SIGNATURE_SCORE_THRESHOLD = 0.5


def select_signature(
    per_fold_scores: Sequence[Mapping[tuple[str, str], float]],
    n_folds: int,
) -> list[SignatureEntry]:
    """Reduce per-fold raw importance maps to the final signature.

    Scores are max-scaled to [0,1] per fold per modality (an all-zero
    fold/modality stays zero). A feature's frequency is its number of folds
    with raw score > 0 over `n_folds`; its score is the mean scaled value
    over those folds. Entries must reach both SIGNATURE_FREQUENCY_THRESHOLD
    and SIGNATURE_SCORE_THRESHOLD.
    """
    if n_folds < 1:
        raise FeatureSelectionError("n_folds must be >= 1")

    seen: dict[tuple[str, str], list[float]] = {}
    for fold in per_fold_scores:
        max_per_modality: dict[str, float] = {}
        for (modality, _), raw in fold.items():
            if raw > max_per_modality.get(modality, 0.0):
                max_per_modality[modality] = raw
        for key, raw in fold.items():
            if raw <= 0:
                continue
            top = max_per_modality[key[0]]
            scaled = raw / top if top > 0 else 0.0
            seen.setdefault(key, []).append(scaled)

    entries = []
    for key, scaled_values in seen.items():
        frequency = len(scaled_values) / n_folds
        score = float(np.mean(scaled_values))
        if frequency >= SIGNATURE_FREQUENCY_THRESHOLD and score >= SIGNATURE_SCORE_THRESHOLD:
            entries.append(
                SignatureEntry(modality=key[0], feature=key[1], score=score, frequency=frequency)
            )
    entries.sort(key=lambda e: (-e.score, e.modality, e.feature))
    return entries


# ---------------------------------------------------------------------------
# stability (relative weighted consistency)
# ---------------------------------------------------------------------------


@dataclass
class StabilityReport:
    cw_rel: float
    n_subsets: int
    union_size: int
    universe_size: int
    caveat: Optional[str] = None


def stability_cwrel(
    subsets: Sequence[Iterable],
    universe_size: int,
    caveat: Optional[str] = None,
) -> StabilityReport:
    """Relative weighted consistency of a collection of feature subsets.

    With F_f = number of subsets containing feature f, N = total occurrences
    and n = number of subsets, the weighted consistency is
    CW = sum_f F_f (F_f - 1) / (N (n - 1)). CW is rescaled between the extreme
    values achievable for the same N, n and universe size:
    CWmin = (N^2 - |Y| (N - D) - D^2) / (|Y| N (n - 1)) with D = N mod |Y|,
    CWmax = (H^2 + N (n - 1) - H n) / (N (n - 1)) with H = N mod n.
    """
    sets = [frozenset(s) for s in subsets]
    n = len(sets)
    if n < 2:
        raise FeatureSelectionError("need at least 2 subsets")
    if universe_size < 1:
        raise FeatureSelectionError("universe_size must be >= 1")

    freq: dict = {}
    for s in sets:
        for item in s:
            freq[item] = freq.get(item, 0) + 1
    union_size = len(freq)
    if union_size > universe_size:
        raise FeatureSelectionError(
            f"subsets contain {union_size} distinct features, universe holds {universe_size}"
        )
    total = sum(freq.values())
    if total == 0:
        return StabilityReport(0.0, n, 0, universe_size, caveat)

    counts = np.array(list(freq.values()), dtype=np.float64)
    cw = float((counts * (counts - 1)).sum() / (total * (n - 1)))

    d = total % universe_size
    cw_min = (total**2 - universe_size * (total - d) - d**2) / (
        universe_size * total * (n - 1)
    )
    h = total % n
    cw_max = (h**2 + total * (n - 1) - h * n) / (total * (n - 1))

    denom = cw_max - cw_min
    if denom <= 1e-12:
        identical = all(s == sets[0] for s in sets) and len(sets[0]) > 0
        value = 1.0 if identical else 0.0
    else:
        value = (cw - cw_min) / denom
    value = float(min(1.0, max(0.0, value)))
    return StabilityReport(value, n, union_size, universe_size, caveat)

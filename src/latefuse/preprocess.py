"""Per-modality filtering, imputation, normalization and training-set
balancing.

Everything here is fit on training rows only and then applied to held-out
rows, so repeated use inside cross-validation folds cannot leak test
statistics. Operations are pure functions of (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import ModalityTable, MultiModalDataset

STANDARDIZE = "standardize"
CPM_LOG = "cpm_log"


class PreprocessError(Exception):
    """Invalid preprocessing input or configuration."""


@dataclass(frozen=True)
class PreprocessConfig:
    max_missing_fraction: float = 0.5
    max_zero_fraction: float = 0.9
    correlation_threshold: float = 0.9
    variance_cap: int = 500
    dimensionality_ratio_trigger: float = 10.0
    knn_k: int = 5
    smote_k: int = 5
    smote_enabled: bool = True
    normalization: dict[str, str] = field(default_factory=dict)  # modality name -> kind
    default_normalization: str = STANDARDIZE

    def __post_init__(self) -> None:
        for name in ("max_missing_fraction", "max_zero_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise PreprocessError(f"{name} must be in [0,1]")
        if not 0.0 < self.correlation_threshold <= 1.0:
            raise PreprocessError("correlation_threshold must be in (0,1]")
        if self.variance_cap < 1 or self.knn_k < 1 or self.smote_k < 1:
            raise PreprocessError("counts must be >= 1")
        kinds = set(self.normalization.values()) | {self.default_normalization}
        unknown = kinds - {STANDARDIZE, CPM_LOG}
        if unknown:
            raise PreprocessError(f"unknown normalization kind(s): {sorted(unknown)}")

    def normalization_for(self, modality_name: str) -> str:
        return self.normalization.get(modality_name, self.default_normalization)


# ---------------------------------------------------------------------------
# column filters (fit on training data; they only choose columns)
# ---------------------------------------------------------------------------


def filter_sparse(table: ModalityTable, cfg: PreprocessConfig) -> ModalityTable:
    """Drop features with too many missing cells or too many observed zeros.

    A feature is dropped when its missing fraction exceeds max_missing_fraction
    or when the zero fraction among its observed cells exceeds
    max_zero_fraction (both strictly greater-than).
    """
    values = table.values
    n = len(values)
    missing = np.isnan(values)
    missing_frac = missing.mean(axis=0)
    observed = n - missing.sum(axis=0)
    zeros = ((values == 0) & ~missing).sum(axis=0)
    with np.errstate(invalid="ignore"):
        zero_frac = np.where(observed > 0, zeros / np.maximum(observed, 1), 1.0)
    keep = (missing_frac <= cfg.max_missing_fraction) & (zero_frac <= cfg.max_zero_fraction)
    if not keep.any():
        raise PreprocessError(
            f"empty modality after sparsity filter: {table.modality_name!r}"
        )
    return table.take_columns(np.flatnonzero(keep))


# columns per block of correlation rows, so that pruning holds F x B, not F x F
_PRUNE_BLOCK = 128


def _greedy_pass(high: np.ndarray, a: int, keep: np.ndarray) -> None:
    """The greedy pass over columns a, a+1, ...: column a + l is dropped when
    some kept column before it has high[l, i] set. high is False on and
    above the diagonal, so a column with no high partner before it is
    never visited."""
    for l in np.flatnonzero(high.any(axis=1)):
        j = a + l
        if high[l, :j][keep[:j]].any():
            keep[j] = False


def _exceeds_exactly(x: np.ndarray, y: np.ndarray, threshold: float) -> bool:
    """Whether |Pearson r| of two columns' shared cells exceeds threshold, in
    exact rational arithmetic: |r| > t <=> cov^2 > t^2 * var_x * var_y. Fewer
    than 3 shared cells, or a variance of 0, give r = 0."""
    if len(x) < 3:
        return False
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    k, sx, sy = len(x), sum(x), sum(y)
    cov = k * sum(u * v for u, v in zip(x, y)) - sx * sy
    var_x = k * sum(u * u for u in x) - sx * sx
    var_y = k * sum(v * v for v in y) - sy * sy
    return cov * cov > Fraction(threshold) ** 2 * var_x * var_y


def prune_correlated(table: ModalityTable, cfg: PreprocessConfig) -> ModalityTable:
    """Greedy pass in column order: drop the later column of each highly
    correlated pair, |pairwise-complete Pearson r| > threshold, exactly.

    Columns with fewer than 3 observed cells, or one observed value, have
    r = 0 with every column and are kept, as is every column at threshold
    1. The others are shifted and scaled
    to unit norm, and |r| is formed for _PRUNE_BLOCK columns at a time
    against every column before them: from one Gram product per block when
    no cell is missing, and otherwise from each pair's shared-row count,
    sums and sums of squares, corrected over the rows that hold a missing
    cell. A pair whose |r| lies within the rounding bound of the threshold
    is decided in exact arithmetic. Memory is about n x F plus five
    F x _PRUNE_BLOCK floats."""
    values, f = table.values, table.n_features
    observed = ~np.isnan(values)
    count = observed.sum(axis=0)
    lowest = np.fmin.reduce(values, axis=0, initial=np.inf)  # skips nan
    active = (count >= 3) & (lowest < np.fmax.reduce(values, axis=0, initial=-np.inf))
    threshold = cfg.correlation_threshold
    if active.sum() < 2 or threshold >= 1.0:  # no |r| exceeds 1
        return table
    z = np.where(observed & active, values, 0.0)
    for _ in range(2):  # the second shift takes out most of the first one's rounding
        np.subtract(z, z.sum(axis=0) / np.maximum(count, 1), out=z, where=observed)
    # scaled by the largest |z| first, so that no square over- or underflows
    z /= np.where(active, np.maximum(z.max(axis=0), -z.min(axis=0)), 1.0)
    z /= np.sqrt(np.where(active, np.einsum("ij,ij->j", z, z), 1.0))
    # In units of a unit-norm column, a sum of at most n + 8 terms is off by
    # at most g = (n + 8) * eps times the sum of its terms' magnitudes, which
    # also covers the rounding of the shift and the scale; so a column's sum
    # of squares is 1 within g. The pass takes each column's observed sum as
    # 0, and sigma bounds how far that is off. Then err = 5g + 5 sigma +
    # 4 sigma^2 bounds the error of every pair's covariance and variances,
    # and |r| lies within 2 err (1 / var_j + 1 / var_i) of the exact |r|.
    g = (len(z) + 8) * np.finfo(np.float64).eps
    sigma = np.abs(z.sum(axis=0)).max() + g * np.sqrt(len(z))
    err = 5 * g + 5 * sigma + 4 * sigma**2
    gappy = ~observed.all(axis=1)
    zg, miss = z[gappy], (~observed[gappy]).astype(np.float64)
    zg2 = zg * zg
    lower = np.tri(_PRUNE_BLOCK, _PRUNE_BLOCK, -1, dtype=bool)
    keep = np.ones(f, dtype=bool)
    for a in range(0, f, _PRUNE_BLOCK):
        b = min(a + _PRUNE_BLOCK, f)
        r = z[:, a:b].T @ z[:, :b]
        var_j = var_i = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            if len(zg):
                # k counts a pair's shared rows. Over them, a column's sum is
                # its observed sum (0) less its cells whose partner is
                # missing, and its sum of squares is 1 less theirs; sj and si
                # are minus the sums over sqrt(k). The dels keep at most five
                # blocks alive.
                k = miss[:, a:b].T @ miss[:, :b] + (count[a:b, None] + count[:b] - len(z))
                r[k < 3] = np.nan  # r = 0, which the exact test gives
                np.sqrt(k, out=k)
                sj = zg[:, a:b].T @ miss[:, :b] / k
                si = miss[:, a:b].T @ zg[:, :b] / k
                del k
                r -= sj * si
                var_j = 1.0 - zg2[:, a:b].T @ miss[:, :b] - sj * sj
                del sj
                var_i = 1.0 - miss[:, a:b].T @ zg2[:, :b] - si * si
                del si
                r /= np.sqrt(var_j) * np.sqrt(var_i)  # nan or inf at a variance <= 0
            margin = 2 * err * (1.0 / var_j + 1.0 / var_i)
        np.abs(r, out=r)
        high = r > threshold + margin
        unsure = ~(high | (r <= threshold - margin))  # also where r is nan
        high[:, a:b] &= lower[: b - a, : b - a]
        unsure[:, a:b] &= lower[: b - a, : b - a]
        if unsure.any():
            for l, i in zip(*np.nonzero(unsure)):
                shared = observed[:, a + l] & observed[:, i]
                high[l, i] = _exceeds_exactly(values[shared, a + l], values[shared, i], threshold)
        _greedy_pass(high, a, keep)
    return table.take_columns(np.flatnonzero(keep))


def variance_topk(table: ModalityTable, n_samples: int, cfg: PreprocessConfig) -> ModalityTable:
    """Keep the variance_cap highest-variance features, but only when the
    feature-to-sample ratio exceeds the trigger. Ties keep earlier columns."""
    f = table.n_features
    if n_samples <= 0 or f / n_samples <= cfg.dimensionality_ratio_trigger:
        return table
    if f <= cfg.variance_cap:
        return table
    values = table.values
    observed = (~np.isnan(values)).sum(axis=0)
    with np.errstate(invalid="ignore"):
        var = np.nanvar(values, axis=0)
    var = np.where(observed >= 2, var, 0.0)
    order = np.argsort(-var, kind="stable")[: cfg.variance_cap]
    return table.take_columns(np.sort(order))


# ---------------------------------------------------------------------------
# kNN imputation
# ---------------------------------------------------------------------------


def _train_scale(train_values: np.ndarray) -> np.ndarray:
    sd = np.sqrt(np.nanvar(train_values, axis=0))
    sd[~np.isfinite(sd)] = 0.0
    return np.where(sd > 0, sd, 1.0)


class KnnDonors:
    """The training side of `impute_knn`: the training values and their
    observed mask, checked once, plus each feature's training standard
    deviation (`scale`), the scaled values t (0 where missing), t∘t, the
    mask as floats and the feature means, computed on first use because a
    table with no missing cell needs none of them."""

    def __init__(self, train: ModalityTable, cfg: PreprocessConfig):
        if train.n_samples < cfg.knn_k + 1:
            raise PreprocessError(f"kNN imputation needs >= {cfg.knn_k + 1} training samples")
        self.values = train.values
        self.observed = ~np.isnan(self.values)
        if not self.observed.any(axis=0).all():
            bad = [train.feature_names[j] for j in np.flatnonzero(~self.observed.any(axis=0))]
            raise PreprocessError(f"feature(s) missing in every training row: {bad}")

    @cached_property
    def scale(self) -> np.ndarray:
        return _train_scale(self.values)

    @cached_property
    def scaled(self) -> np.ndarray:
        return np.where(self.observed, self.values / self.scale, 0.0)

    @cached_property
    def scaled_sq(self) -> np.ndarray:
        return self.scaled * self.scaled

    @cached_property
    def observed_f(self) -> np.ndarray:
        return self.observed.astype(np.float64)

    @cached_property
    def mean(self) -> np.ndarray:
        return np.nanmean(self.values, axis=0)


# apply rows screened together; bounds the (rows, n_train) Gram products
_KNN_BLOCK = 32
_EPS = np.finfo(np.float64).eps


def _ordered_by_bounds(kept, real, d2, lo, hi):
    """Each row's kept training rows (`kept` where `real` marks them, in
    ascending index order, then padding) sorted by d2, ties by index,
    padding last; and whether that order is the exact one. It is where
    sqrt(hi_a) < sqrt(lo_b) for every consecutive pair a, b of kept rows:
    lo <= exact squared distance <= hi, and a correctly rounded square root
    is monotone, so the exact distances then rise strictly along the order.
    A negative lo, whose root is NaN, counts as an overlap."""
    key = np.where(real, np.take_along_axis(d2, kept, axis=1), np.inf)
    cands = np.take_along_axis(kept, np.argsort(key, axis=1, kind="stable"), axis=1)
    with np.errstate(invalid="ignore"):
        apart = np.sqrt(np.take_along_axis(hi, cands[:, :-1], axis=1)) < np.sqrt(
            np.take_along_axis(lo, cands[:, 1:], axis=1)
        )
    return cands, (apart | ~real[:, 1:]).all(axis=1)


def _exact_nearest(donors: KnnDonors, kept, real, r, observed, m: int):
    """Each row's nearest `m` kept training rows by (exact distance, index),
    and how many kept rows lie at a finite distance; the others are never
    donors and sort last. `kept` holds each row's kept training rows in
    ascending index order, where `real` marks them, and padding beyond; r
    are the rows' scaled values (0 where missing), `observed` their mask.
    Distances are computed a few rows at a time, so that no more cells are
    held than for m candidates per row of a block."""
    dist = np.empty(kept.shape)
    step = max(1, _KNN_BLOCK * m // kept.shape[1])
    with np.errstate(over="ignore"):
        for s in range(0, len(kept), step):
            p = slice(s, s + step)
            shared = donors.observed[kept[p]] & observed[p, None, :]
            diff = (donors.scaled[kept[p]] - r[p, None, :]) * shared
            dist[p] = np.sqrt((diff * diff).sum(axis=2))
    dist[~real] = np.inf  # a distance is never NaN, and an infinite one sorts with padding
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :m]
    return np.take_along_axis(kept, nearest, axis=1), np.isfinite(dist).sum(axis=1)


def _impute_screened(
    out: np.ndarray, rows: np.ndarray, donors: KnnDonors, k: int, m: int
) -> np.ndarray:
    """Impute in place the `rows` of `out` from each row's nearest `m`
    candidates (the training rows it shares an observed feature with), and
    return the rows where that is not enough: some missing column has fewer
    than k donors among the m, and the row has more candidates than m.

    With r and t the scaled values (0 where missing) and M_r, M_t the
    observed masks, every masked squared distance is
    d2 = A + B - 2 r.t^T, with A = (r∘r).M_t^T and B = M_r.(t∘t)^T. In any
    summation order, d2 differs from the exact sum of squares of the scaled
    differences by at most about (2F + 5) * eps * (A + B), plus 3F smallest
    subnormals for underflow; E = (4F + 16) * (eps * (A + B) + smallest
    subnormal) is at least twice that. The screen keeps every training row
    j with d2_j - E_j <= H, H being the m-th smallest d2 + E raised by
    8 eps and the smallest normal number, so that square-root rounding
    cannot tie a row left out with a kept one. The kept rows, at least m,
    then include every row at or below the m-th exact distance, ties
    included, so the first m of them by (exact distance, index) are the
    nearest m in a stable sort of exact distances. Sorted by d2, the kept
    rows are already in that order when no two consecutive ones have
    overlapping bounds (`_ordered_by_bounds`), and exact distances are
    computed only for the rows where some do (`_exact_nearest`). A row with
    at most m candidates, or with a bound that is not finite, keeps every
    candidate; the latter's are ordered by exact distance, and those at a
    non-finite distance are never donors.
    """
    x = out[rows]
    observed = ~np.isnan(x)
    r = np.where(observed, x / donors.scale, 0.0)
    mask = observed.astype(np.float64)
    shares = (mask @ donors.observed_f.T) > 0
    # overflow makes a bound non-finite, and the row keeps every candidate
    with np.errstate(invalid="ignore", over="ignore"):
        a = (r * r) @ donors.observed_f.T
        b = mask @ donors.scaled_sq.T
        d2 = a + b - 2.0 * (r @ donors.scaled.T)
        err = (4 * x.shape[1] + 16) * (_EPS * (a + b) + np.finfo(np.float64).smallest_subnormal)
        hi = np.where(shares, d2 + err, np.inf)
        lo = np.where(shares, d2 - err, np.inf)
        h = np.partition(hi, m - 1, axis=1)[:, m - 1 : m]
        keep = lo <= h * (1.0 + 8 * _EPS) + np.finfo(np.float64).tiny
    total = shares.sum(axis=1)
    bounded = (np.isfinite(hi) | ~shares).all(axis=1)
    whole = (total <= m) | ~bounded
    keep[whole] = shares[whole]
    # the kept rows, in ascending index order and padded
    n_kept = keep.sum(axis=1)
    real = np.arange(n_kept.max()) < n_kept[:, None]
    kept = np.zeros(real.shape, dtype=np.intp)
    kept[real] = np.nonzero(keep)[1]
    cands, ordered = _ordered_by_bounds(kept, real, d2, lo, hi)
    cands = cands[:, :m]
    exact = np.flatnonzero(~ordered | ~bounded)
    if len(exact):
        cands[exact], n_kept[exact] = _exact_nearest(
            donors, kept[exact], real[exact], r[exact], observed[exact], m
        )
    # each missing cell's candidates, nearest first, by their flat index into
    # the training table, and which of them observe its column
    cell, col = np.nonzero(~observed)
    flat = cands[cell] * donors.values.shape[1] + col[:, None]
    observing = donors.observed.ravel().take(flat)
    if (n_kept < cands.shape[1]).any():  # padding, and rows at an infinite distance, are no donors
        observing &= np.arange(cands.shape[1]) < n_kept[cell, None]
    n_donors = observing.sum(axis=1)
    back = (total > m) & (np.bincount(cell, n_donors < k, minlength=len(rows)) > 0)
    if back.any():
        done = ~back[cell]
        cell, col, flat, observing, n_donors = (
            cell[done], col[done], flat[done], observing[done], n_donors[done]
        )
    take = observing & (np.cumsum(observing, axis=1) <= k)
    n_donors = np.minimum(n_donors, k)
    donor_values = donors.values.ravel().take(flat[take])
    # a cell averages its first <= k donors, nearest first; summing each
    # group of cells with c donors along contiguous rows of c adds them in
    # the same order as the 1-D mean of one cell's donors
    for c in np.flatnonzero(np.bincount(n_donors)):
        group = n_donors == c
        at = rows[cell[group]], col[group]
        if c == 0:
            out[at] = donors.mean[col[group]]
        else:
            values = donor_values if group.all() else donor_values[np.repeat(group, n_donors)]
            out[at] = values.reshape(-1, c).sum(axis=1) / c
    return rows[back]


def impute_knn(
    train: ModalityTable,
    apply_to: ModalityTable,
    cfg: PreprocessConfig,
    donors: KnnDonors | None = None,
) -> ModalityTable:
    """Fill missing cells from the k nearest training rows.

    Distance is Euclidean over mutually observed features, each feature
    scaled by its training standard deviation; rows sharing no observed
    feature are never donors, nor are rows at a non-finite distance, and
    ties keep the earlier training row. A cell's donors are the k nearest
    training rows where that feature is observed, averaged; with no usable
    donor the training feature mean is used. `donors` is
    `KnnDonors(train, cfg)`, passed by a caller that imputes several
    tables from one training split.

    Rows go through `_impute_screened` in blocks, in two passes. The first
    looks for donors among each row's nearest 4 * knn_k candidates: Gram
    products bound every distance, which rules out all but those and a few
    more, ties included, and mostly also fixes their order; exact
    distances are computed only where the bounds overlap. The second takes
    the rows where some column has fewer than knn_k donors among those,
    and looks among every candidate.
    """
    if train.feature_names != apply_to.feature_names:
        raise PreprocessError("train/apply feature mismatch")
    if donors is None:
        donors = KnnDonors(train, cfg)
    out = apply_to.values.copy()
    rows = np.flatnonzero(np.isnan(out).any(axis=1))
    n, k = len(donors.values), cfg.knn_k
    for m in (min(4 * k, n), n):
        # a block of the second pass holds no more candidates than one of the first
        block = max(1, _KNN_BLOCK * min(4 * k, n) // m)
        rows = np.concatenate([
            _impute_screened(out, rows[s : s + block], donors, k, m)
            for s in range(0, len(rows), block)
        ] or [rows])
    return ModalityTable(
        apply_to.modality_name, list(apply_to.sample_ids), list(apply_to.feature_names), out
    )


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize(train: ModalityTable, apply_to: ModalityTable, kind: str) -> ModalityTable:
    """Standardize with training statistics, or row-wise counts-per-million
    followed by log2(x+1). Standard deviation zero maps the column to zero."""
    values = apply_to.values
    if kind == STANDARDIZE:
        mean = np.nanmean(train.values, axis=0)
        sd = np.sqrt(np.nanvar(train.values, axis=0))
        out = np.where(sd > 0, (values - mean) / np.where(sd > 0, sd, 1.0), 0.0)
    elif kind == CPM_LOG:
        if np.nanmin(values) < 0 or np.nanmin(train.values) < 0:
            raise PreprocessError("cpm_log requires nonnegative values")
        row_sum = np.nansum(values, axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log2(1e6 * values / row_sum + 1.0)
        out = np.where(row_sum > 0, out, 0.0)
    else:
        raise PreprocessError(f"unknown normalization kind {kind!r}")
    return ModalityTable(
        apply_to.modality_name, list(apply_to.sample_ids), list(apply_to.feature_names), out
    )


# ---------------------------------------------------------------------------
# fitted per-modality pipeline
# ---------------------------------------------------------------------------


@dataclass
class FittedPreprocessor:
    """Column choice + imputation donors + normalization statistics for one
    modality, all fit on a training split.

    ``knn_donors`` is the imputation's training side, computed once for the
    training rows and every table transformed later.
    ``train_transformed`` is what ``transform`` returns for the training rows,
    computed once at fit time so callers need not impute those rows again.
    """

    modality_name: str
    kept_feature_names: list[str]
    normalization_kind: str
    train_filtered: ModalityTable  # training rows restricted to kept columns
    cfg: PreprocessConfig
    knn_donors: KnnDonors = field(init=False)
    train_imputed: ModalityTable = field(init=False)
    train_transformed: ModalityTable = field(init=False)

    def __post_init__(self) -> None:
        self.knn_donors = KnnDonors(self.train_filtered, self.cfg)
        self.train_imputed = impute_knn(
            self.train_filtered, self.train_filtered, self.cfg, self.knn_donors
        )
        self.train_transformed = normalize(
            self.train_imputed, self.train_imputed, self.normalization_kind
        )

    def transform(self, table: ModalityTable) -> ModalityTable:
        if table.feature_names == self.kept_feature_names:
            selected = table
        else:
            name_to_idx = {n: i for i, n in enumerate(table.feature_names)}
            try:
                idx = [name_to_idx[n] for n in self.kept_feature_names]
            except KeyError as e:
                raise PreprocessError(f"table lacks fitted feature {e.args[0]!r}") from None
            selected = table.take_columns(idx)
        imputed = impute_knn(self.train_filtered, selected, self.cfg, self.knn_donors)
        return normalize(self.train_imputed, imputed, self.normalization_kind)


def fit_preprocessor(
    train: ModalityTable,
    cfg: PreprocessConfig,
) -> FittedPreprocessor:
    """Run the column filters on the training rows and freeze the statistics
    needed to transform any aligned table: sparsity filter, correlation
    pruning, variance cap, then imputation donors and normalization."""
    filtered = filter_sparse(train, cfg)
    filtered = prune_correlated(filtered, cfg)
    filtered = variance_topk(filtered, train.n_samples, cfg)
    return FittedPreprocessor(
        modality_name=train.modality_name,
        kept_feature_names=list(filtered.feature_names),
        normalization_kind=cfg.normalization_for(train.modality_name),
        train_filtered=filtered,
        cfg=cfg,
    )


# ---------------------------------------------------------------------------
# SMOTE balancing
# ---------------------------------------------------------------------------


# float64 cells in one block of SMOTE's row differences: 1 MiB
_SMOTE_BLOCK_CELLS = 1 << 17


def _squared_distances(pts: np.ndarray) -> np.ndarray:
    """Every squared Euclidean distance between rows of pts, from blocks of
    (rows, columns, F) differences of at most _SMOTE_BLOCK_CELLS cells (one
    row pair's F cells when F is larger). Each entry is summed along one
    contiguous row of F squares, so its bits do not depend on the block."""
    m, f = pts.shape
    cols = min(m, max(1, _SMOTE_BLOCK_CELLS // max(f, 1)))
    rows = max(1, _SMOTE_BLOCK_CELLS // max(f * cols, 1))
    d2 = np.empty((m, m))
    for s in range(0, m, rows):
        for t in range(0, m, cols):
            diff = pts[s : s + rows, None, :] - pts[None, t : t + cols, :]
            np.square(diff, out=diff)
            d2[s : s + rows, t : t + cols] = diff.sum(axis=2)
    return d2


def _smote_plan(
    y: np.ndarray,
    reference: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Choose (base row, neighbor row, interpolation coefficient, class) for
    every synthetic sample, one minority class at a time against the majority.

    Neighbors are same-class nearest rows in the reference feature space;
    a class of m rows holds its m x m squared distances and at most 1 MiB of
    row differences (`_squared_distances`), never an (m, m, F) array.
    Returns the four as aligned arrays, one entry per synthetic sample.
    """
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
        d2 = _squared_distances(reference[members])
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


def _synthesize(
    values: np.ndarray, base: np.ndarray, neighbor: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Synthetic rows x + u * (x_nn - x) for every planned (base, neighbor, u)."""
    return values[base] + u[:, None] * (values[neighbor] - values[base])


def smote_balance_tables(
    tables: Sequence[ModalityTable],
    y: np.ndarray,
    k: int = 5,
    seed: int = 0,
) -> tuple[list[ModalityTable], np.ndarray]:
    """Oversample each minority class up to the majority count, in aligned
    modality tables with one shared interpolation plan.

    Synthetic rows are x + u * (x_nn - x) with u uniform in [0,1] and x_nn one
    of x's k same-class nearest neighbors; original rows come first. Neighbor
    structure is computed on the column-wise concatenation so each
    synthetic sample is the same convex combination in every modality, keeping
    the tables aligned for downstream shared-weight boosting.
    """
    y = np.asarray(y, dtype=np.intp)
    concat = np.hstack([t.values for t in tables])
    if np.isnan(concat).any():
        raise PreprocessError("SMOTE requires imputed (non-missing) data")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(202,)))
    base, neighbor, u, labels = _smote_plan(y, concat, k, rng)
    if not len(labels):
        return [t for t in tables], y.copy()
    synth_ids = [f"synthetic_{i}" for i in range(len(labels))]
    out_tables = [
        ModalityTable(
            t.modality_name,
            list(t.sample_ids) + synth_ids,
            list(t.feature_names),
            np.vstack([t.values, _synthesize(t.values, base, neighbor, u)]),
        )
        for t in tables
    ]
    return out_tables, np.concatenate([y, labels])


# ---------------------------------------------------------------------------
# one CV fold, prepared for fitting
# ---------------------------------------------------------------------------


def prepare_fold(
    dataset: MultiModalDataset,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    cfg: PreprocessConfig,
    smote_seed: int,
) -> tuple[list[ModalityTable], np.ndarray, list[ModalityTable], np.ndarray]:
    """Split one CV fold and prepare it for fitting: one preprocessor per
    modality fit on the training rows and applied to the test rows, then,
    when enabled, SMOTE on the prepared training tables.

    Returns (fit tables, fit labels, test tables, test labels)."""
    train_tables, y_train = dataset.take_rows(train_idx)
    test_tables, y_test = dataset.take_rows(test_idx)
    pres = [fit_preprocessor(t, cfg) for t in train_tables]
    train_p = [p.train_transformed for p in pres]
    test_p = [p.transform(t) for p, t in zip(pres, test_tables)]
    if cfg.smote_enabled:
        train_p, y_train = smote_balance_tables(train_p, y_train, k=cfg.smote_k, seed=smote_seed)
    return train_p, y_train, test_p, y_test

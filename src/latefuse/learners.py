"""In-repo base classifiers: CART-style trees, a multiclass softmax gradient
boosting machine, and a random forest.

All learners share the same conventions:

* split search is greedy over (feature, midpoint threshold) candidates with
  ties broken by lower feature index, then lower threshold; where the
  midpoint of two adjacent floats rounds onto the upper one, the threshold
  is the lower one, so the rows go the way the search scored them;
* per-sample weights enter both the split criterion and the leaf values, and
  every fit is invariant to uniform rescaling of the weight vector;
* feature importance is total weighted impurity decrease per feature,
  normalized to sum to 1 (all zero when no split exists);
* fits are deterministic functions of (data, params, seed), and a GBM's
  rounds are fit in order, so `GbmModel.first_rounds(R)` is the model that
  an R-round fit of the same inputs and seed makes;
* every fit checks its input against one contract, `_fit_inputs`: a
  non-empty finite X, one finite target per row (a class index in [0, K)
  for a classifier) and finite, nonnegative weights, not all zero; any
  other input raises `LearnerError`, as does a prediction on anything but
  a finite 2-D X with the trained number of columns.

Split search is exact and has one implementation, `_TreeBuilder`, shared by
`fit_tree`, the forest and the GBM. Its `_SplitState` is feature-major: one
C-contiguous row per candidate column holds the node's rows in that
column's stable sort order, their weight cumsum and where a threshold may
fall. When a fit's weights are all equal, as in every forest tree and every
unweighted GBM, the weight cumsum is the same in every column and is kept
as one row, which every use broadcasts; a fit decides this once, not per
node. One kernel scores every valid position of both tasks: over weighted
targets t (w * y for regression, w * onehot_k for each class k of a Gini
tree), gain = sum_t (SL_t^2/WL + SR_t^2/WR - S_t^2/W), from one gather and
one cumsum over the (targets, columns, rows) stack of all targets. This is
the node's impurity minus both sides', as the weighted SSE (Chen &
Guestrin, KDD 2016, eq. 7) or the Gini decrease of CART; where two
candidates' gains differ by rounding alone, it may pick another split than
the textbook difference would. The GBM does each piece of
tree work once: the class trees of a round share their root's state; and a
child's state, which depends only on the root and the node's path of
(feature, n_left, side) steps, is kept by that path and reused by the trees
of the same round and the next one (older states are dropped, and a
subsampled fit drops them with each new root). The builder returns every
training row's leaf, routed by the same x <= threshold rule as
`DecisionTree.apply`, so fitting walks no tree: the GBM takes its leaf
steps, and `fit_tree` and the forest their leaf means, by `bincount` over
those leaves.
A forest checks its input once and hands each tree's rows to the builder.
`DecisionTree.apply` is the only tree walker and takes several roots. The
GBM and the forest predict through one path, `_TreeEnsemble`: the model
stacks its trees into one flat tree once, on its first prediction, and
each prediction walks them all in one call, then adds the per-tree values
group by group (a GBM round, a forest tree) in fitting order.
"""

from __future__ import annotations

from collections import ChainMap
from collections.abc import MutableMapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

_GAIN_TOL = 1e-12


class LearnerError(Exception):
    """Invalid learner input (non-finite features, shape mismatch, ...)."""


# ---------------------------------------------------------------------------
# prediction containers
# ---------------------------------------------------------------------------


@dataclass
class PredictionSet:
    """Per-sample predicted class index plus a per-class probability row.

    labels[i] is the argmax of probabilities[i] with ties broken toward the
    lower class index. A label of -1 marks an abstention (used by the
    mixture-of-experts gate); the probability row is still a normalized
    distribution in that case.
    """

    labels: np.ndarray
    probabilities: np.ndarray

    @classmethod
    def from_probabilities(cls, probabilities: np.ndarray) -> "PredictionSet":
        probabilities = np.asarray(probabilities, dtype=np.float64)
        return cls(labels=np.argmax(probabilities, axis=1), probabilities=probabilities)

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def n_classes(self) -> int:
        return self.probabilities.shape[1]


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted for stability."""
    scores = np.asarray(scores, dtype=np.float64)
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(y), n_classes), dtype=np.float64)
    out[np.arange(len(y)), y] = 1.0
    return out


def log_loss(scores: np.ndarray, y: np.ndarray, sample_weight: np.ndarray) -> float:
    """Total weighted multiclass log-loss of raw scores (pre-softmax)."""
    p = softmax(scores)
    picked = np.clip(p[np.arange(len(y)), y], 1e-300, None)
    return float(-np.sum(sample_weight * np.log(picked)))


def log_loss_gradient(scores: np.ndarray, y: np.ndarray, sample_weight: np.ndarray) -> np.ndarray:
    """Gradient of log_loss w.r.t. the score matrix: w_i * (p_ik - y_ik)."""
    p = softmax(scores)
    grad = p - one_hot(np.asarray(y), scores.shape[1])
    return sample_weight[:, None] * grad


# ---------------------------------------------------------------------------
# decision trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 3
    min_leaf: int = 2
    task: str = "regression"  # "regression" | "classification"
    n_classes: Optional[int] = None
    max_features: Optional[int] = None  # per-split feature subsampling (forests)

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise LearnerError("max_depth: must be >= 1")
        if self.min_leaf < 1:
            raise LearnerError("min_leaf: must be >= 1")
        if self.task not in ("regression", "classification"):
            raise LearnerError(f"task: must be 'regression' or 'classification', got {self.task!r}")
        if self.max_features is not None and self.max_features < 1:
            raise LearnerError("max_features: must be >= 1 or None")


@dataclass
class DecisionTree:
    """Flat-array binary tree. feature[i] == -1 marks a leaf.

    Rows with x[feature] <= threshold go left. leaf_values holds a value
    per node, set on leaves only (inner nodes hold 0): a scalar for
    regression and a class-frequency row for classification, or a GBM's
    damped step.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_values: np.ndarray
    raw_importance: np.ndarray
    n_features: int
    task: str

    def apply(self, X: np.ndarray, roots: Optional[np.ndarray] = None) -> np.ndarray:
        """Leaf node index for every row. With `roots`, the walk starts at
        each of those nodes and the result is an (n_rows, len(roots)) matrix:
        one call walks every tree of a `stack`."""
        X = np.asarray(X, dtype=np.float64)
        starts = np.zeros(1, dtype=np.intp) if roots is None else np.asarray(roots, dtype=np.intp)
        n_rows = len(X)
        node = np.tile(starts, n_rows)
        row = np.repeat(np.arange(n_rows), len(starts))
        live = np.arange(len(node))
        while len(live):
            at = node[live]
            feat = self.feature[at]
            inner = feat >= 0
            live, at, feat = live[inner], at[inner], feat[inner]
            go_left = X[row[live], feat] <= self.threshold[at]
            node[live] = np.where(go_left, self.left[at], self.right[at])
        return node if roots is None else node.reshape(n_rows, len(starts))

    def predict(self, X: np.ndarray) -> np.ndarray:
        leaves = self.apply(X)
        return self.leaf_values[leaves]

    @classmethod
    def stack(cls, trees: list) -> tuple["DecisionTree", np.ndarray]:
        """All of `trees` as one flat tree, and the node where each starts."""
        sizes = [t.n_nodes for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(roots, sizes)

        def cat(name):
            return np.concatenate([getattr(t, name) for t in trees])

        left, right = cat("left"), cat("right")
        is_leaf = left < 0
        return (
            cls(
                feature=cat("feature"),
                threshold=cat("threshold"),
                left=np.where(is_leaf, -1, left + offset),
                right=np.where(is_leaf, -1, right + offset),
                leaf_values=cat("leaf_values"),
                raw_importance=np.sum([t.raw_importance for t in trees], axis=0),
                n_features=trees[0].n_features,
                task=trees[0].task,
            ),
            roots,
        )

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


class _SplitState:
    """The part of a node's split search that does not depend on its
    targets, feature-major: row j of `S` holds the node's rows in the sorted
    order of candidate column `cols[j]`, `cw` their weight cumsum,
    `cw_right` the weight to the right of each position (cw's end minus
    cw), and `invalid` marks the positions after which a threshold may not
    fall (between equal neighbours, with fewer than `min_leaf` rows or no
    positive weight on a side; the last position always). Each array is
    (len(cols), rows) and C-contiguous, so each column's scan runs along one
    contiguous row and whole-array arithmetic runs as one flat loop; the
    one exception is `cw` and `cw_right` of uniform weights, a single
    (1, rows) row each that equals every column's bit for bit and
    broadcasts against the others.
    """

    def __init__(self, X, w, sorted_idx, cols, min_leaf, uniform):
        """X is C-contiguous; `sorted_idx` holds the node's rows in the
        sorted order of every column of X; cols are ascending; `uniform`
        says that every weight of w is the same."""
        self.cols = cols
        all_cols = len(cols) == X.shape[1]
        self.S = S = sorted_idx if all_cols else sorted_idx[cols]
        flat = S * X.shape[1]
        flat += cols[:, None]
        Xs = X.take(flat)  # X[S, cols]
        self.cw = cw = w.take(S[:1] if uniform else S)
        cw.cumsum(axis=1, out=cw)
        valid = np.zeros(S.shape, dtype=bool)
        np.less(Xs[:, :-1], Xs[:, 1:], out=valid[:, :-1])
        valid &= cw > 0
        self.cw_right = cw[:, -1:] - cw
        valid &= self.cw_right > 0
        valid[:, : max(min_leaf - 1, 0)] = False  # fewer than min_leaf rows on the left
        valid[:, max(S.shape[1] - min_leaf, 0) :] = False  # ... or on the right
        self.invalid = np.logical_not(valid, out=valid)

    @classmethod
    def of_rows(cls, X, w, rows, min_leaf, uniform) -> "_SplitState":
        """The state of a node holding `rows` of X (all of them when None),
        over every column, each sorted stably."""
        if rows is None:
            S = np.argsort(X.T, axis=1, kind="stable")
        else:
            S = rows[np.argsort(X[rows].T, axis=1, kind="stable")]
        return cls(X, w, S, np.arange(X.shape[1], dtype=np.intp), min_leaf, uniform)


class _TreeBuilder:
    """Recursive greedy CART builder over a dense matrix, taking input that
    `_fit_inputs` has checked (for classification: intp labels, and
    `params.n_classes` set). `w_targets` holds one row per weighted target,
    w * y for regression and w * onehot_k for each class k: `_best_split`
    scores every split from its rows, and `_fit_cart` sums them per leaf.

    Columns are sorted once at the root; a child inherits its sorted order by
    a stable mask partition instead of re-sorting, which keeps split search
    O(n * n_features) per level. Only a child that can still split gets the
    partition of every column; a leaf needs at most its first column.

    `build()` is the one entry point. It returns the tree, every node's
    value 0 for the caller to set, and the leaf of every row of X, routed by
    the rule of `DecisionTree.apply`, x <= threshold. It sorts the root's
    columns itself unless the caller gives the root's `_SplitState`, as
    fit_gbm does. It may also take `states`, a mapping from a node's path,
    its (feature, n_left, side) steps from that root, to the node's
    `_SplitState` over every column. Given the root, the path fixes the
    node's rows, so a state found there is used without partitioning, and
    each state built is stored there. `uniform` says that all of w is the
    same, so that states keep one weight-cumsum row; the builder checks w
    itself when the caller, who may build many trees on one w, does not say.
    """

    def __init__(
        self,
        X,
        y,
        w,
        params: TreeParams,
        rng: Optional[np.random.Generator] = None,
        root: Optional[_SplitState] = None,
        states: Optional[MutableMapping] = None,
        uniform: Optional[bool] = None,
    ):
        self.X = X
        self.y = y
        self.w = w
        self.uniform = bool(w.min() == w.max()) if uniform is None else uniform
        self.params = params
        self.rng = rng
        self.root = root
        self.states = states
        if params.task == "classification":
            self.y_onehot = one_hot(y, params.n_classes)
            # row k: w * onehot[:, k], gathered once per split search
            self.w_targets = np.ascontiguousarray((w[:, None] * self.y_onehot).T)
        else:
            self.w_targets = (w * y)[None, :]
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.importance = np.zeros(X.shape[1], dtype=np.float64)
        self.all_cols = np.arange(X.shape[1], dtype=np.intp)

    def build(self) -> tuple[DecisionTree, np.ndarray]:
        S = np.argsort(self.X.T, axis=1, kind="stable") if self.root is None else self.root.S
        self.leaf_of = np.empty(len(self.X), dtype=np.intp)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._grow(S, None, S.shape[1], 0, np.arange(len(self.X)), ())
        return (
            DecisionTree(
                feature=np.array(self.feature, dtype=np.intp),
                threshold=np.array(self.threshold, dtype=np.float64),
                left=np.array(self.left, dtype=np.intp),
                right=np.array(self.right, dtype=np.intp),
                leaf_values=np.zeros(len(self.feature)),
                raw_importance=self.importance,
                n_features=self.X.shape[1],
                task=self.params.task,
            ),
            self.leaf_of,
        )

    def _impurity(self, idx) -> float:
        """Weighted SSE (regression) or weighted Gini mass (classification)."""
        w = self.w[idx]
        total = w.sum()
        if total <= 0:
            return 0.0
        if self.params.task == "regression":
            y = self.y[idx]
            s = np.dot(w, y)
            q = np.dot(w, y**2)
            return float(q - s * s / total)
        s = (w[:, None] * self.y_onehot[idx]).sum(axis=0)
        return float(total - np.dot(s, s) / total)

    def _add_node(self, feat: int, thr: float) -> int:
        node_id = len(self.feature)
        self.feature.append(feat)
        self.threshold.append(thr)
        self.left.append(-1)
        self.right.append(-1)
        return node_id

    def _add_leaf(self, route) -> int:
        node_id = self._add_node(-1, 0.0)
        self.leaf_of[route] = node_id
        return node_id

    def _grow(self, sorted_idx, member, size: int, depth: int, route, path: tuple) -> int:
        """Grow the node whose `size` rows are those of `sorted_idx` (row j:
        rows in column j's sorted order) that `member` marks, or all of them
        when `member` is None. `route` holds the rows of X that reach the
        node by the x <= threshold rule, and `path` is the node's
        (feature, n_left, side) steps from the root."""
        params = self.params
        if depth >= params.max_depth or size < 2 * params.min_leaf:
            return self._add_leaf(route)
        idx = sorted_idx[0]
        if member is not None:
            idx = idx[member[idx]]
        if self._impurity(idx) <= _GAIN_TOL:
            return self._add_leaf(route)

        if depth == 0 and self.root is not None:
            state = self.root
        else:
            state = self.states.get(path) if self.states is not None else None
            if state is None:
                if member is not None:
                    sorted_idx = sorted_idx[member[sorted_idx]].reshape(-1, size)
                state = _SplitState(
                    self.X, self.w, sorted_idx, self._candidate_features(), params.min_leaf,
                    self.uniform,
                )
            if self.states is not None:
                sorted_idx = state.S  # every column: the node's full sorted order
                self.states[path] = state
        split = self._best_split(state)
        if split is None:
            return self._add_leaf(route)
        feat, thr, gain, n_left, in_left = split

        node_id = self._add_node(feat, thr)
        self.importance[feat] += max(gain, 0.0)
        go_left = self.X[route, feat] <= thr
        route_left, route_right = route[go_left], route[~go_left]
        self.left[node_id] = self._grow(
            sorted_idx, in_left, n_left, depth + 1, route_left, path + ((feat, n_left, 0),)
        )
        self.right[node_id] = self._grow(
            sorted_idx, ~in_left, size - n_left, depth + 1, route_right,
            path + ((feat, n_left, 1),),
        )
        return node_id

    def _candidate_features(self) -> np.ndarray:
        n_feat = self.X.shape[1]
        k = self.params.max_features
        if k is None or k >= n_feat:
            return self.all_cols
        chosen = self.rng.choice(n_feat, size=k, replace=False)
        return np.sort(chosen)  # ascending keeps the lowest-index tie-break

    def _best_split(self, state: _SplitState):
        """The state's best split: the first maximum of the gain over every
        valid position (lowest threshold) and column (lowest feature index),
        as (feature, threshold, gain, n_left, in_left), or None.

        One kernel scores both tasks: over the rows of `w_targets`, gain =
        sum_t SL_t^2 / WL + sum_t SR_t^2 / WR - sum_t S_t^2 / W, with SL_t
        the cumsum of target t along a column's sorted rows, SR_t = S_t - SL_t
        and S_t that cumsum's end. This is the parent's impurity minus both
        children's: QL + QR is the node's total Q = sum(w * y^2) for
        regression, and WL + WR = W for Gini. Every target is gathered and
        cumsummed in one call on a (targets, columns, rows) stack, the sums
        over t add the targets in order, and one argmax over the row-major
        (columns, rows) gains takes the first maximum."""
        S = state.S
        SL = self.w_targets.take(S, axis=1)  # (targets, columns, rows)
        SL.cumsum(axis=2, out=SL)
        SR = SL[:, :, -1:] - SL
        SR *= SR
        SL *= SL
        # summed over the targets in order, as a running sum would; a lone
        # target (every GBM tree) is its own sum
        if len(SL) == 1:
            sq_l, sq_r = SL[0], SR[0]
        else:
            sq_l, sq_r = np.add.reduce(SL, axis=0), np.add.reduce(SR, axis=0)
        sq_l /= state.cw  # at the last position, where SL_t = S_t: sum_t S_t^2 / W
        sq_r /= state.cw_right
        gain = sq_r
        gain += sq_l
        gain -= sq_l[:, -1:]
        # every position's gain, in whole rows; the last position is invalid
        np.putmask(gain, state.invalid, -np.inf)
        # the first maximum in row-major order: lowest feature, then lowest threshold
        j, i = divmod(int(gain.argmax()), gain.shape[1])
        best = gain[j, i]
        # argmax puts a NaN first; with a NaN, +inf or only -inf at the top,
        # there is a split only when some column's best gain is finite
        if not np.isfinite(best) and not np.isfinite(gain.max(axis=1)).any():
            return None
        feat = int(state.cols[j])
        lo, hi = self.X[S[j, i : i + 2], feat]
        thr = float((lo + hi) / 2.0)
        if thr >= hi:  # adjacent floats: the midpoint rounds onto hi, which must go right
            thr = float(lo)
        # left membership; children partition every column's order by it (stable)
        in_left = np.zeros(self.X.shape[0], dtype=bool)
        in_left[S[j, : i + 1]] = True
        return feat, thr, float(max(best, 0.0)), i + 1, in_left


def _fit_inputs(X, y, sample_weight=None, n_classes=None, labels=True):
    """The one input contract of every fit: X is a non-empty, finite 2-D
    matrix; y one finite target per row, and with `labels` a class index in
    [0, K), K being `n_classes` or max(y) + 1; sample_weight (ones when None)
    one finite, nonnegative weight per row, not all zero. Returns X
    (C-contiguous), w, y (intp with `labels`) and K (None without)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise LearnerError("X must be a non-empty 2-D matrix")
    if y.shape != (len(X),):
        raise LearnerError("y length mismatch")
    if not np.isfinite(X).all():
        raise LearnerError("non-finite feature value")
    if not np.isfinite(y).all():
        raise LearnerError("non-finite target")
    w = np.ones(len(X)) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if w.shape != y.shape:
        raise LearnerError("sample_weight length mismatch")
    if not (np.isfinite(w).all() and (w >= 0).all() and w.sum() > 0):
        raise LearnerError("weights must be finite, nonnegative and not all zero")
    if not labels:
        return X, w, y, None
    K = int(n_classes) if n_classes is not None else int(y.max()) + 1
    y_int = y.astype(np.intp)
    if (y_int != y).any() or (y_int < 0).any() or (y_int >= K).any():
        raise LearnerError(f"labels must be class indices in [0, {K})")
    return X, w, y_int, K


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: Optional[np.ndarray] = None,
    params: TreeParams = TreeParams(),
    rng: Optional[np.random.Generator] = None,
) -> DecisionTree:
    """Fit one greedy CART tree (regression or classification)."""
    labels = params.task == "classification"
    X, w, y, K = _fit_inputs(X, y, sample_weight, params.n_classes, labels)
    if params.max_features is not None and rng is None:
        rng = np.random.default_rng(0)
    return _fit_cart(X, y, w, replace(params, n_classes=K), rng)


def _fit_cart(X, y, w, params: TreeParams, rng) -> DecisionTree:
    """A tree from checked input whose leaves hold the weighted mean of the
    targets (a class-frequency row for classification) over the rows of X
    routed there, summed in row order; a leaf that no weight reaches, and
    every inner node, holds 0."""
    builder = _TreeBuilder(X, y, w, params, rng)
    tree, leaf = builder.build()
    n = tree.n_nodes
    total = np.bincount(leaf, w, minlength=n)
    sums = np.column_stack([np.bincount(leaf, t, minlength=n) for t in builder.w_targets])
    with np.errstate(divide="ignore", invalid="ignore"):
        values = sums / total[:, None]
    values[total <= 0] = 0.0
    tree.leaf_values = values[:, 0] if params.task == "regression" else values
    return tree


# ---------------------------------------------------------------------------
# gradient boosting machine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GbmParams:
    n_rounds: int = 100  # 0 is the prior-only model
    learning_rate: float = 0.1
    max_depth: int = 3
    min_leaf: int = 2
    subsample: float = 1.0

    def __post_init__(self) -> None:
        if self.n_rounds < 0:
            raise LearnerError("n_rounds: must be >= 0")
        if not self.learning_rate > 0:
            raise LearnerError("learning_rate: must be > 0")
        if self.max_depth < 1:
            raise LearnerError("max_depth: must be >= 1")
        if self.min_leaf < 1:
            raise LearnerError("min_leaf: must be >= 1")
        if not 0 < self.subsample <= 1:
            raise LearnerError("subsample: must be in (0, 1]")


def _normalized_importance(trees, n_features: int) -> np.ndarray:
    """The trees' raw importances, added in fitting order, as shares of
    their total (all zeros when no split gained)."""
    importance = np.zeros(n_features, dtype=np.float64)
    for tree in trees:
        importance += tree.raw_importance
    total = importance.sum()
    return importance / total if total > 0 else importance


class _TreeEnsemble:
    """The one prediction path of the GBM and the forest. `trees` holds one
    group per entry, in fitting order: a round's K class trees, or one
    forest tree; `_all_trees()` lists every tree in that order."""

    @cached_property
    def _stacked(self) -> tuple[DecisionTree, np.ndarray]:
        """All trees as one flat tree, in fitting order; built on first use."""
        return DecisionTree.stack(self._all_trees())

    def _sum_groups(self, X: np.ndarray, start: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """`start` plus `scale` times each group's leaf values, for every row
        of X: one walk of every tree, then the groups added in fitting order."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise LearnerError("X must be a 2-D matrix")
        if X.shape[1] != self.n_features:
            raise LearnerError(
                f"X has {X.shape[1]} columns, model was trained on {self.n_features}"
            )
        if not np.isfinite(X).all():
            raise LearnerError("non-finite feature value")
        out = np.tile(start, (len(X), 1))
        if self.trees:
            flat, roots = self._stacked
            steps = flat.leaf_values[flat.apply(X, roots)].reshape(len(X), len(self.trees), -1)
            for g in range(len(self.trees)):
                out += scale * steps[:, g]
        return out


@dataclass
class GbmModel(_TreeEnsemble):
    """Softmax multiclass gradient boosting over regression trees.

    trees[round][class] holds the round's per-class regression tree whose leaf
    values are already the damped step to add to that class's raw score.
    """

    params: GbmParams
    n_classes: int
    n_features: int
    init_scores: np.ndarray
    trees: list
    feature_importances_: np.ndarray
    train_losses_: list

    def _all_trees(self) -> list:
        return [t for round_trees in self.trees for t in round_trees]

    def first_rounds(self, n: int) -> "GbmModel":
        """The model that `fit_gbm` makes with `n` rounds on the same inputs
        and seed: rounds are fit in order, and each depends only on those
        before it."""
        if not 0 <= n <= len(self.trees):
            raise LearnerError(f"first_rounds: n must be in [0, {len(self.trees)}]")
        trees = self.trees[:n]
        return GbmModel(
            params=replace(self.params, n_rounds=n),
            n_classes=self.n_classes,
            n_features=self.n_features,
            init_scores=self.init_scores,
            trees=trees,
            feature_importances_=_normalized_importance(
                chain.from_iterable(trees), self.n_features
            ),
            train_losses_=self.train_losses_[: n + 1],
        )

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return self._sum_groups(X, self.init_scores, self.params.learning_rate)

    def predict_proba(self, X: np.ndarray) -> PredictionSet:
        return PredictionSet.from_probabilities(softmax(self.decision_scores(X)))


def fit_gbm(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: Optional[np.ndarray] = None,
    params: GbmParams = GbmParams(),
    seed: int = 0,
    n_classes: Optional[int] = None,
) -> GbmModel:
    """Fit the multiclass GBM.

    Per round and class, a regression tree is fit to the negative log-loss
    gradient (one-hot minus softmax, taken as `-log_loss_gradient` at unit
    weights) under the shared sample weights; leaf values take the damped
    multiclass step (K-1)/K * sum(w*r)/sum(w*|r|(1-|r|)) and are scaled by
    the learning rate at prediction time.

    The class trees of a round are fit on the same rows and weights, so they
    share one root `_SplitState` (computed once per fit, or once per round
    when rows are subsampled), and the child states built by this round's
    and the previous round's trees, by path. Each builder returns every
    row's leaf, which gives the leaf sums and the score update without
    walking the tree.
    """
    X, w, y, K = _fit_inputs(X, y, sample_weight, n_classes)
    if K < 2:
        raise LearnerError("need at least 2 classes")

    n = len(y)
    priors = np.zeros(K, dtype=np.float64)
    np.add.at(priors, y, w)
    priors /= w.sum()
    init_scores = np.log(np.clip(priors, 1e-12, None))

    unit = np.ones(n, dtype=np.float64)  # the residual is unweighted; w enters the trees
    scores = np.tile(init_scores, (n, 1))
    tree_params = TreeParams(max_depth=params.max_depth, min_leaf=params.min_leaf)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))

    trees: list[list[DecisionTree]] = []
    losses = [log_loss(scores, y, w) / w.sum()]

    uniform = bool(w.min() == w.max())  # every state then keeps one weight-cumsum row
    rows, root = slice(None), None  # the trees' rows: all, or each round's subsample
    states = ChainMap()  # child states by path: this round's map, then the last round's
    for _ in range(params.n_rounds):
        residual = -log_loss_gradient(scores, y, unit)  # one-hot minus softmax
        if params.subsample < 1.0:
            m = max(1, int(round(params.subsample * n)))
            rows = rng.choice(n, size=m, replace=False)
            root = _SplitState.of_rows(X, w, rows, params.min_leaf, uniform)
            states = ChainMap()  # a new root: no earlier path holds the same rows
        else:
            if root is None:
                root = _SplitState.of_rows(X, w, None, params.min_leaf, uniform)
            states = ChainMap({}, states.maps[0])
        round_trees = []
        for k in range(K):
            r = residual[:, k]
            builder = _TreeBuilder(X, r, w, tree_params, root=root, states=states, uniform=uniform)
            tree, leaf = builder.build()
            # leaf sums over the fitted rows, added in their order
            leaf_fit, r_fit, w_fit = leaf[rows], r[rows], w[rows]
            num = np.bincount(leaf_fit, w_fit * r_fit, minlength=tree.n_nodes)
            den = np.bincount(
                leaf_fit, w_fit * np.abs(r_fit) * (1.0 - np.abs(r_fit)), minlength=tree.n_nodes
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                gamma = (K - 1.0) / K * num / den
            gamma[~np.isfinite(gamma)] = 0.0
            gamma[np.abs(den) < 1e-150] = 0.0
            tree.leaf_values = gamma
            scores[:, k] += params.learning_rate * gamma[leaf]
            round_trees.append(tree)
        trees.append(round_trees)
        losses.append(log_loss(scores, y, w) / w.sum())

    return GbmModel(
        params=params,
        n_classes=K,
        n_features=X.shape[1],
        init_scores=init_scores,
        trees=trees,
        feature_importances_=_normalized_importance(chain.from_iterable(trees), X.shape[1]),
        train_losses_=losses,
    )


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomForestParams:
    n_trees: int = 100
    max_depth: int = 16
    min_leaf: int = 1
    bootstrap: bool = True
    max_features: Optional[str] = "sqrt"  # "sqrt" | None (all features)

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise LearnerError("n_trees: must be >= 1")
        if self.max_depth < 1:
            raise LearnerError("max_depth: must be >= 1")
        if self.min_leaf < 1:
            raise LearnerError("min_leaf: must be >= 1")
        if self.max_features not in ("sqrt", None):
            raise LearnerError(f"max_features: must be 'sqrt' or null, got {self.max_features!r}")


@dataclass
class RandomForestModel(_TreeEnsemble):
    params: RandomForestParams
    n_classes: int
    n_features: int
    trees: list
    feature_importances_: np.ndarray

    def _all_trees(self) -> list:
        return self.trees

    def predict_proba(self, X: np.ndarray) -> PredictionSet:
        acc = self._sum_groups(X, np.zeros(self.n_classes))
        acc /= len(self.trees)
        return PredictionSet.from_probabilities(acc)


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    params: RandomForestParams = RandomForestParams(),
    seed: int = 0,
    n_classes: Optional[int] = None,
) -> RandomForestModel:
    """Fit a random forest of CART classification trees.

    Each tree gets its own seed derived from (seed, tree index), so results
    are independent of any parallel scheduling of tree fits.
    """
    X, w, y, K = _fit_inputs(X, y, None, n_classes)
    n, n_feat = X.shape
    k = max(1, int(np.sqrt(n_feat))) if params.max_features == "sqrt" else None
    tree_params = TreeParams(
        max_depth=params.max_depth,
        min_leaf=params.min_leaf,
        task="classification",
        n_classes=K,
        max_features=k,
    )

    trees = []
    for i in range(params.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        trees.append(_fit_cart(X[rows], y[rows], w[rows], tree_params, rng))
    return RandomForestModel(
        params=params,
        n_classes=K,
        n_features=n_feat,
        trees=trees,
        feature_importances_=_normalized_importance(trees, n_feat),
    )

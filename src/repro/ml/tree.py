"""CART decision trees (the base learner for forests and boosting).

Standard top-down induction with exact split search. Classification splits
minimize Gini impurity; regression splits minimize within-child variance.

Node scan: one pass per node covers every candidate feature. The node's
rows of those features are stably argsorted column by column, targets (or
one-hot classes) are cumulatively summed down each sorted column, and
only the admissible cuts — both children at least ``min_samples_leaf``
rows, distinct neighbouring values — are scored, with the per-cut formula
in the same evaluation order as a scalar loop (squares of sums through C
``pow`` via ``np.float_power``). O(d · n log n) per node, in a fixed
number of numpy calls. Prediction routes row-index arrays down the tree,
one comparison per internal node, instead of walking row by row.

Tie rule, exactly that of a scalar scan: within a feature, cuts are
visited in sorted order and one replaces the incumbent only if its gain
exceeds the incumbent's by more than 1e-12 (the incumbent starts at gain
0); the per-feature winners then compete under the same rule in feature
order. Only strict prefix records of the gain sequence can win, so when
each record clears the one before it by more than 1e-12 the scan settles
on the first argmax (``_scan``); a column holding a closer record is
replayed exactly (``_first_clear``). Ties therefore resolve to the lowest
feature index / smallest threshold, so a fixed dataset always yields the
same tree — bit for bit the one the scalar scan grows, which
``tests/property/test_cart_parity.py`` checks against the scalar kernel
kept in ``tests/reference/cart.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import Classifier, Regressor, subsample_features


@dataclass(slots=True)
class _Node:
    """One tree node; leaves carry a prediction vector."""

    prediction: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    n_samples: int = 0
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(slots=True)
class _GrowthStats:
    """Book-keeping for cost accounting and introspection."""

    node_count: int = 0
    leaf_count: int = 0
    max_depth_seen: int = 0
    split_work: float = 0.0
    importances: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _first_clear(values) -> int:
    """Index the scalar scan ``if v > best + 1e-12: best = v`` settles on,
    with ``best`` starting at 0.0; -1 when no value clears it."""
    best, at = 0.0, -1
    for i, v in enumerate(values):
        if v > best + 1e-12:
            best, at = v, i
    return at


def _scan(gain: np.ndarray) -> np.ndarray:
    """``_first_clear`` down every column of ``gain`` at once.

    Only strict prefix records can update ``best``. When each record
    clears the record before it by more than 1e-12, every record above
    1e-12 updates it and the scan ends on the last record: the first
    argmax. Columns where some record stays within 1e-12 of an earlier
    record above 1e-12 are replayed with ``_first_clear`` itself.
    """
    run = np.maximum.accumulate(gain, axis=0)
    pos = gain.argmax(axis=0)
    pos[run[-1] <= 1e-12] = -1
    before, after = run[:-1], gain[1:]
    near_tie = (after > before) & (after <= before + 1e-12) & (before > 1e-12)
    for j in np.flatnonzero(near_tie.any(axis=0)):
        pos[j] = _first_clear(gain[:, j].tolist())
    return pos


def _sse_gains(ys: np.ndarray, sizes: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Variance-reduction gains of the cuts leaving ``sizes`` rows on the left
    of column ``cols`` of the column-wise sorted targets ``ys``.

    The formula and its evaluation order are the per-cut scalar ones.
    Squares of sums go through ``np.float_power`` (C ``pow``), which rounds
    like the scalar ``s ** 2``; array ``**`` differs in about 0.1% of values.
    """
    n = len(ys)
    prefix = np.cumsum(ys, axis=0)
    prefix_sq = np.cumsum(ys**2, axis=0)
    total, total_sq = prefix[-1, cols], prefix_sq[-1, cols]
    parent_sse = total_sq - np.float_power(total, 2.0) / n
    left, left_sq = prefix[sizes - 1, cols], prefix_sq[sizes - 1, cols]
    left_sse = left_sq - np.float_power(left, 2.0) / sizes
    right_sum = total - left
    right_sse = (total_sq - left_sq) - np.float_power(right_sum, 2.0) / (n - sizes)
    return parent_sse - left_sse - right_sse


def _gini_gains(
    cs: np.ndarray, n_classes: int, sizes: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Gini gains of the cuts leaving ``sizes`` rows on the left of column
    ``cols`` of the column-wise sorted class codes ``cs``."""
    n = len(cs)
    prefix = np.cumsum(cs[..., None] == np.arange(n_classes), axis=0, dtype=float)
    totals = prefix[-1, 0]
    parent_gini = 1.0 - np.sum((totals / n) ** 2)
    left = prefix[sizes - 1, cols]
    gini_l = 1.0 - np.sum((left / sizes[:, None]) ** 2, axis=-1)
    gini_r = 1.0 - np.sum(((totals - left) / (n - sizes)[:, None]) ** 2, axis=-1)
    return parent_gini - (sizes / n) * gini_l - ((n - sizes) / n) * gini_r


class _TreeCore:
    """Shared growth/predict machinery for both tree flavours."""

    def __init__(
        self,
        max_depth: int,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.root_: _Node | None = None
        self.stats_ = _GrowthStats()

    def grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
        classification: bool,
        n_classes: int = 0,
    ) -> None:
        self.stats_ = _GrowthStats(importances=np.zeros(X.shape[1]))
        self.root_ = self._grow_node(
            X, y, np.arange(X.shape[0]), 0, rng, classification, n_classes
        )

    @staticmethod
    def _leaf_value(y: np.ndarray, classification: bool, n_classes: int) -> np.ndarray:
        if classification:
            counts = np.bincount(y.astype(int), minlength=n_classes)
            return counts / counts.sum()
        return np.array([y.sum() / len(y)])  # ``y.mean()``, minus its overhead

    def _grow_node(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        classification: bool,
        n_classes: int,
    ) -> _Node:
        stats = self.stats_
        stats.node_count += 1
        stats.max_depth_seen = max(stats.max_depth_seen, depth)
        y_node = y[idx]
        node = _Node(
            prediction=self._leaf_value(y_node, classification, n_classes),
            n_samples=len(idx),
            depth=depth,
        )
        if (
            depth >= self.max_depth
            or len(idx) < self.min_samples_split
            or (classification and len(np.unique(y_node)) == 1)
            or (not classification and np.ptp(y_node) == 0.0)
        ):
            stats.leaf_count += 1
            return node
        features = subsample_features(X.shape[1], self.max_features, rng)
        stats.split_work += len(idx) * len(features)
        gain, feature, threshold = self._best_split(
            X.take(idx, axis=0).take(features, axis=1),
            y_node,
            features,
            classification,
            n_classes,
        )
        if feature < 0 or not np.isfinite(threshold):
            stats.leaf_count += 1
            return node
        mask = X[idx, feature] <= threshold
        left_idx, right_idx = idx[mask], idx[~mask]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            stats.leaf_count += 1
            return node
        stats.importances[feature] += gain * len(idx)
        node.feature = feature
        node.threshold = float(threshold)
        node.left = self._grow_node(
            X, y, left_idx, depth + 1, rng, classification, n_classes
        )
        node.right = self._grow_node(
            X, y, right_idx, depth + 1, rng, classification, n_classes
        )
        return node

    def _best_split(
        self,
        x: np.ndarray,
        y: np.ndarray,
        features: np.ndarray,
        classification: bool,
        n_classes: int,
    ) -> tuple[float, int, float]:
        """(gain, feature, threshold) of the node's best cut; feature -1 if none.

        ``x`` holds the node's rows of the candidate ``features``. All columns
        are sorted at once and only the admissible cuts — both children at
        least ``min_samples_leaf`` rows, distinct neighbouring values — are
        scored. The tie rule then picks a cut within each column (``_scan``)
        and a column among their winners, in ``features`` order.
        """
        n, d = x.shape
        lo = max(self.min_samples_leaf, 1)
        hi = min(n - self.min_samples_leaf, n - 1)
        if lo > hi:
            return 0.0, -1, np.nan
        order = np.argsort(x, axis=0, kind="stable")
        columns = np.arange(d)
        xs = x[order, columns]
        # row r of the (hi - lo + 1, d) gain matrix: lo + r rows go left
        rows, cols = np.nonzero(xs[lo - 1 : hi] != xs[lo : hi + 1])
        sizes = rows + lo
        if classification:
            scored = _gini_gains(y.astype(int)[order], n_classes, sizes, cols)
        else:
            scored = _sse_gains(y[order], sizes, cols)
        gain = np.full((hi - lo + 1, d), -np.inf)
        # a NaN gain never wins the scalar comparison
        gain[rows, cols] = np.where(np.isnan(scored), -np.inf, scored)
        pos = _scan(gain)
        per_feature = np.where(pos >= 0, gain[pos, columns], 0.0)
        j = _first_clear(per_feature.tolist())
        if j < 0:
            return 0.0, -1, np.nan
        cut = lo - 1 + pos[j]
        return per_feature[j], int(features[j]), (xs[cut, j] + xs[cut + 1, j]) / 2.0

    def predict_values(self, X: np.ndarray) -> np.ndarray:
        """Per-row leaf prediction vectors, stacked (n, k).

        Row-index arrays are routed down the tree, one mask per node.
        """
        out = np.empty((X.shape[0], len(self.root_.prediction)))
        pending = [(self.root_, np.arange(X.shape[0]))]
        while pending:
            node, rows = pending.pop()
            if node.is_leaf:
                out[rows] = node.prediction
                continue
            go_left = X[rows, node.feature] <= node.threshold
            for child, part in ((node.left, rows[go_left]), (node.right, rows[~go_left])):
                if len(part):
                    pending.append((child, part))
        return out

    def normalized_importances(self) -> np.ndarray:
        imp = self.stats_.importances
        total = imp.sum()
        return imp / total if total > 0 else imp


class DecisionTreeRegressor(Regressor):
    """CART regression tree with exact variance-reduction splits."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X, y, rng):
        self._core_ = _TreeCore(
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
            self.max_features,
        )
        self._core_.grow(X, y.astype(float), rng, classification=False)
        self.feature_importances_ = self._core_.normalized_importances()

    def _predict(self, X):
        return self._core_.predict_values(X)[:, 0]

    def _cost(self, n, d):
        return self._core_.stats_.split_work * np.log2(max(n, 2))

    @property
    def node_count(self) -> int:
        return self._core_.stats_.node_count

    @property
    def depth(self) -> int:
        return self._core_.stats_.max_depth_seen


class DecisionTreeClassifier(Classifier):
    """CART classification tree with exact Gini splits."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X, y, rng):
        self._core_ = _TreeCore(
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
            self.max_features,
        )
        self._core_.grow(
            X, y, rng, classification=True, n_classes=len(self.classes_)
        )
        self.feature_importances_ = self._core_.normalized_importances()

    def _predict_proba(self, X):
        return self._core_.predict_values(X)

    def _cost(self, n, d):
        return self._core_.stats_.split_work * np.log2(max(n, 2))

    @property
    def node_count(self) -> int:
        return self._core_.stats_.node_count

    @property
    def depth(self) -> int:
        return self._core_.stats_.max_depth_seen

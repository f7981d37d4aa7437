"""Histogram-based gradient boosting — the LightGBM-style learner for T4.

The paper's Task T4 trains a LightGBM classifier. LightGBM's core trick is
*histogram split finding*: features are quantile-binned once up front (at
most ``max_bins`` bins), and each node aggregates gradient/hessian sums per
bin, so a split costs O(bins) instead of O(n log n). We implement exactly
that: binned leaf-wise trees with second-order (Newton) leaf values, boosted
on logistic loss for classification and squared loss for regression.

Two performance layers sit on top of the basic algorithm:

* **Pre-binned training.** Binning is a pure function of the data, so a
  caller that owns many overlapping training sets (the discovery search,
  which trains the same model on every state of one universal table) can
  quantize *once* and reuse the codes. ``fit``/``predict`` accept a
  :class:`~repro.ml.base.PreBinned` matrix and skip
  :func:`quantile_bin_edges` / :func:`apply_bins` entirely — the
  :class:`~repro.relational.ColumnStore` serves per-state code matrices by
  slicing one shared universal code array.
* **Vectorized trees.** :class:`_HistTree` flattens itself into arrays and
  predicts all rows per level with numpy, and node histograms come from one
  flattened ``bincount`` over all features instead of one per feature. The
  parity suite asserts they produce bit-identical trees, predictions, and
  ``split_work_`` to the pre-vectorization tree, a test oracle in
  ``tests/reference/hist_tree.py`` that ``benchmarks/bench_binned_oracle.py``
  also times as its "legacy full-precision oracle" baseline.

Missing values are first-class: edges are computed over finite values only
(``NaN``-safe quantiles) and ``NaN`` rows are routed to a dedicated null
bin (``len(edges) + 1``, one past the last regular code), so nulls form
their own splittable category instead of poisoning every edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError
from ..rng import spawn_rng
from .base import Classifier, Model, PreBinned, Regressor, sigmoid, softmax


def quantile_bin_edges(X: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """Per-feature bin edges at (max_bins - 1) interior quantiles.

    NaN-safe: quantiles are taken over each column's finite values only
    (``np.quantile`` over a column containing NaN yields NaN edges, and
    ``searchsorted`` against those produces garbage bins). A column with
    no finite values gets no edges — every row lands in its null bin.
    """
    edges = []
    qs = np.linspace(0, 1, max_bins + 1)[1:-1]
    for f in range(X.shape[1]):
        col = X[:, f]
        finite = col[~np.isnan(col)]
        if finite.size == 0:
            edges.append(np.empty(0))
        else:
            edges.append(np.unique(np.quantile(finite, qs)))
    return edges


def null_bin(col_edges: np.ndarray) -> int:
    """The dedicated missing-value code for one feature's edge set.

    Regular codes are ``0 .. len(edges)`` (``searchsorted`` output), so
    the null bin is the next code up — contiguous, and strictly above
    every finite value's bin.
    """
    return len(col_edges) + 1


def apply_bins(X: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """Map raw features to integer bin codes using precomputed edges.

    NaN entries go to the feature's dedicated :func:`null_bin` instead of
    whatever ``searchsorted`` makes of an unordered comparison.
    """
    binned = np.empty(X.shape, dtype=np.int32)
    for f, col_edges in enumerate(edges):
        col = X[:, f]
        codes = np.searchsorted(col_edges, col, side="right")
        nan = np.isnan(col)
        if nan.any():
            codes = np.where(nan, null_bin(col_edges), codes)
        binned[:, f] = codes
    return binned


@dataclass(slots=True)
class _HistNode:
    value: float
    feature: int = -1
    bin_threshold: int = -1
    left: "_HistNode | None" = None
    right: "_HistNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _HistTree:
    """One histogram tree fit to (gradient, hessian) with Newton leaves.

    Vectorized, with bit-identical results to the scalar reference tree
    (``tests/reference/hist_tree.py``):

    * node histograms come from one flattened ``bincount`` per statistic
      (codes offset per feature, row-major) — ``bincount`` accumulates
      each bin's sum in input order, which is row order for both the
      flattened and the per-feature layout, so the floats agree exactly;
    * the gain scan runs over the whole ``(n_features, stride)`` histogram
      at once: row-wise ``cumsum`` prefixes equal the reference's 1-D
      cumsums, padding beyond each feature's local ``n_bins`` is masked to
      ``-inf``, and first-occurrence ``argmax`` per row / across rows
      reproduces the reference's first-max-wins ``argmax`` and strict
      ``>`` cross-feature tie-break;
    * prediction walks all rows one level at a time over the flattened
      node arrays — each row takes the same comparisons to the same leaf
      value as the reference's scalar walk.
    """

    def __init__(
        self,
        max_depth: int,
        min_samples_leaf: int,
        l2: float,
        max_bins: int,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.l2 = l2
        self.max_bins = max_bins
        self.root_: _HistNode | None = None
        self.split_work_ = 0.0
        self.feature_gains_: np.ndarray | None = None
        self._flat_feature: np.ndarray | None = None
        self._flat_threshold: np.ndarray | None = None
        self._flat_left: np.ndarray | None = None
        self._flat_right: np.ndarray | None = None
        self._flat_value: np.ndarray | None = None

    def fit(self, binned: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> None:
        idx = np.arange(binned.shape[0])
        self.feature_gains_ = np.zeros(binned.shape[1])
        self.root_ = self._grow(binned, grad, hess, idx, 0)
        self._flatten()

    def _leaf_value(self, grad, hess, idx) -> float:
        g, h = grad[idx].sum(), hess[idx].sum()
        return float(-g / (h + self.l2))

    def _grow(self, binned, grad, hess, idx, depth) -> _HistNode:
        node = _HistNode(value=self._leaf_value(grad, hess, idx))
        if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
            return node
        if len(idx) == 0:
            return node
        g, h = grad[idx], hess[idx]
        g_total, h_total = g.sum(), h.sum()
        parent_score = g_total**2 / (h_total + self.l2)
        n_features = binned.shape[1]
        sub = binned[idx]
        n_bins_per = sub.max(axis=0).astype(np.int64) + 1
        stride = int(n_bins_per.max())
        splittable = n_bins_per >= 2
        if stride < 2 or not splittable.any():
            return node
        # integer-valued increments: any accumulation order is exact
        self.split_work_ += float((len(idx) + n_bins_per[splittable]).sum())
        offsets = np.arange(n_features, dtype=np.int64) * stride
        flat = (sub + offsets[None, :]).ravel()
        size = stride * n_features
        g_hists = np.bincount(
            flat, weights=np.repeat(g, n_features), minlength=size
        ).reshape(n_features, stride)
        h_hists = np.bincount(
            flat, weights=np.repeat(h, n_features), minlength=size
        ).reshape(n_features, stride)
        c_hists = np.bincount(flat, minlength=size).reshape(
            n_features, stride
        )
        # candidate split after bin b keeps bins [0..b] left; only
        # b < n_bins-1 exists for each feature's local grid
        g_left = np.cumsum(g_hists, axis=1)[:, :-1]
        h_left = np.cumsum(h_hists, axis=1)[:, :-1]
        c_left = np.cumsum(c_hists, axis=1)[:, :-1]
        c_right = len(idx) - c_left
        valid = (c_left >= self.min_samples_leaf) & (
            c_right >= self.min_samples_leaf
        )
        valid &= np.arange(stride - 1)[None, :] < (n_bins_per - 1)[:, None]
        valid &= splittable[:, None]
        gains = (
            g_left**2 / (h_left + self.l2)
            + (g_total - g_left) ** 2 / (h_total - h_left + self.l2)
            - parent_score
        )
        gains[~valid] = -np.inf
        bins = np.argmax(gains, axis=1)
        per_feature = gains[np.arange(n_features), bins]
        best_f = int(np.argmax(per_feature))
        best_gain = float(per_feature[best_f])
        best_bin = int(bins[best_f])
        if not best_gain > 1e-10:
            return node
        self.feature_gains_[best_f] += best_gain
        mask = binned[idx, best_f] <= best_bin
        node.feature = best_f
        node.bin_threshold = best_bin
        node.left = self._grow(binned, grad, hess, idx[mask], depth + 1)
        node.right = self._grow(binned, grad, hess, idx[~mask], depth + 1)
        return node

    def _flatten(self) -> None:
        """Array form of the tree for the level-parallel predict."""
        features: list[int] = []
        thresholds: list[int] = []
        left: list[int] = []
        right: list[int] = []
        values: list[float] = []

        def walk(node: _HistNode) -> int:
            i = len(features)
            features.append(node.feature)
            thresholds.append(node.bin_threshold)
            values.append(node.value)
            left.append(-1)
            right.append(-1)
            if not node.is_leaf:
                left[i] = walk(node.left)
                right[i] = walk(node.right)
            return i

        walk(self.root_)
        self._flat_feature = np.array(features, dtype=np.int64)
        self._flat_threshold = np.array(thresholds, dtype=np.int64)
        self._flat_left = np.array(left, dtype=np.int64)
        self._flat_right = np.array(right, dtype=np.int64)
        self._flat_value = np.array(values, dtype=np.float64)

    def predict(self, binned: np.ndarray) -> np.ndarray:
        n = binned.shape[0]
        position = np.zeros(n, dtype=np.int64)
        rows = np.arange(n)
        while True:
            active = self._flat_left[position] >= 0
            if not active.any():
                break
            at = position[active]
            go_left = (
                binned[rows[active], self._flat_feature[at]]
                <= self._flat_threshold[at]
            )
            position[active] = np.where(
                go_left, self._flat_left[at], self._flat_right[at]
            )
        return self._flat_value[position]


def _as_codes(X: "np.ndarray | PreBinned", edges) -> np.ndarray:
    """The bin-code matrix for a fit/predict input."""
    if isinstance(X, PreBinned):
        return X.codes
    if edges is None:
        raise ModelError(
            "model was fit on pre-binned codes without edges; predict "
            "needs PreBinned input quantized with the same scheme"
        )
    return apply_bins(X, edges)


class _HistBoosting:
    """What the regressor and the classifier share: hyperparameters,
    fit-time binning, tree growth, importances and training cost."""

    _allow_nan = True
    accepts_prebinned = True

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 3,
        l2: float = 1.0,
        max_bins: int = 64,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.l2 = float(l2)
        self.max_bins = int(max_bins)
        self._trees: list = []
        self._edges: list[np.ndarray] | None = None

    def _binned_input(self, X) -> np.ndarray:
        """Fit-time codes: pre-binned pass through, raw X is quantized."""
        if isinstance(X, PreBinned):
            self._edges = list(X.edges) if X.edges is not None else None
            return X.codes
        self._edges = quantile_bin_edges(X, self.max_bins)
        return apply_bins(X, self._edges)

    def _grow_tree(self, binned, grad, hess) -> _HistTree:
        """One histogram tree fit to (gradient, hessian)."""
        tree = _HistTree(
            self.max_depth, self.min_samples_leaf, self.l2, self.max_bins
        )
        tree.fit(binned, grad, hess)
        return tree

    def _all_trees(self) -> list[_HistTree]:
        """Every fitted tree, in boosting order."""
        return self._trees

    @property
    def feature_importances_(self) -> np.ndarray:
        """Split-gain importances summed over all trees, normalized."""
        trees = self._all_trees()
        total = np.zeros_like(trees[0].feature_gains_)
        for tree in trees:
            total += tree.feature_gains_
        s = total.sum()
        return total / s if s > 0 else total

    def _cost(self, n, d):
        return sum(t.split_work_ for t in self._all_trees())


class HistGradientBoostingRegressor(_HistBoosting, Regressor):
    """LightGBM-style regressor: binned features + Newton boosting."""

    init_: float = 0.0

    def _fit(self, X, y, rng):
        y = y.astype(float)
        binned = self._binned_input(X)
        self.init_ = float(y.mean())
        current = np.full(len(y), self.init_)
        hess = np.ones(len(y))
        self._trees = []
        for _ in range(self.n_estimators):
            grad = current - y  # d/df 0.5(f-y)^2
            tree = self._grow_tree(binned, grad, hess)
            current = current + self.learning_rate * tree.predict(binned)
            self._trees.append(tree)

    def _predict(self, X):
        binned = _as_codes(X, self._edges)
        out = np.full(binned.shape[0], self.init_)
        for tree in self._trees:
            out += self.learning_rate * tree.predict(binned)
        return out


class HistGradientBoostingClassifier(_HistBoosting, Classifier):
    """LightGBM-style classifier (logistic loss; softmax for K > 2)."""

    init_raw_: np.ndarray | None = None

    def _fit(self, X, codes, rng):
        n = X.shape[0]
        k = len(self.classes_)
        binned = self._binned_input(X)
        one_hot = np.zeros((n, k))
        one_hot[np.arange(n), codes.astype(int)] = 1.0
        prior = np.clip(one_hot.mean(axis=0), 1e-6, 1.0)
        self.init_raw_ = np.log(prior)
        raw = np.tile(self.init_raw_, (n, 1))
        self._trees = []
        for _ in range(self.n_estimators):
            if k == 2:  # binary: boost a single logit (column 1)
                p1 = sigmoid(raw[:, 1] - raw[:, 0])
                grad = p1 - one_hot[:, 1]
                hess = np.clip(p1 * (1 - p1), 1e-6, None)
                tree = self._grow_tree(binned, grad, hess)
                raw[:, 1] += self.learning_rate * tree.predict(binned)
                self._trees.append([tree])
            else:
                proba = softmax(raw)
                round_trees = []
                for j in range(k):
                    grad = proba[:, j] - one_hot[:, j]
                    hess = np.clip(proba[:, j] * (1 - proba[:, j]), 1e-6, None)
                    tree = self._grow_tree(binned, grad, hess)
                    raw[:, j] += self.learning_rate * tree.predict(binned)
                    round_trees.append(tree)
                self._trees.append(round_trees)

    def _all_trees(self) -> list[_HistTree]:
        return [tree for round_trees in self._trees for tree in round_trees]

    def _raw(self, X) -> np.ndarray:
        binned = _as_codes(X, self._edges)
        raw = np.tile(self.init_raw_, (binned.shape[0], 1))
        for round_trees in self._trees:
            if len(round_trees) == 1:  # binary
                raw[:, 1] += self.learning_rate * round_trees[0].predict(binned)
            else:
                for j, tree in enumerate(round_trees):
                    raw[:, j] += self.learning_rate * tree.predict(binned)
        return raw

    def _predict_proba(self, X):
        raw = self._raw(X)
        if len(self.classes_) == 2:
            p1 = sigmoid(raw[:, 1] - raw[:, 0])
            return np.column_stack([1 - p1, p1])
        return softmax(raw)


class MultiOutputHistGradientBoosting(Model):
    """Multi-output wrapper over histogram boosting, one per output.

    The binned counterpart of
    :class:`~repro.ml.boosting.MultiOutputGradientBoosting`: the surrogate
    backbone :class:`~repro.core.estimator.MOGBEstimator` uses when
    configured with ``surrogate="hist"`` (scenario estimator
    ``"mogb-hist"``). ``fit(X, Y)`` with ``Y`` of shape (n, k);
    ``predict(X)`` returns (n, k). ``X`` may be a raw float matrix or a
    :class:`~repro.ml.base.PreBinned` code matrix.
    """

    _allow_nan = True
    accepts_prebinned = True

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        max_bins: int = 64,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.max_bins = int(max_bins)
        self.estimators_: list[HistGradientBoostingRegressor] = []
        self.n_outputs_: int = 0

    def fit(self, X, Y) -> "MultiOutputHistGradientBoosting":
        if not isinstance(X, PreBinned):
            X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        if Y.ndim != 2 or Y.shape[1] == 0:
            raise ModelError(f"Y must be (n, k) with k >= 1, got shape {Y.shape}")
        if X.shape[0] != Y.shape[0]:
            raise ModelError(f"X rows {X.shape[0]} != Y rows {Y.shape[0]}")
        self.n_outputs_ = Y.shape[1]
        self.estimators_ = []
        for j in range(self.n_outputs_):
            gb = HistGradientBoostingRegressor(
                n_estimators=self.n_estimators,
                learning_rate=self.learning_rate,
                max_depth=self.max_depth,
                max_bins=self.max_bins,
                seed=int(spawn_rng(self.seed, "mo-hgb", j).integers(2**31)),
            )
            gb.fit(X, Y[:, j])
            self.estimators_.append(gb)
        self.training_cost_ = sum(e.training_cost_ for e in self.estimators_)
        self.n_features_in_ = X.shape[1]
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        """(n, n_outputs) predictions — one call covers all measures."""
        X = self._check_fitted_features(X)
        return np.column_stack([e.predict(X) for e in self.estimators_])

    # Model abstract hooks are unused because fit/predict are overridden,
    # but must exist; they delegate to the overridden implementations.
    def _fit(self, X, y, rng):  # pragma: no cover - never called
        raise NotImplementedError

    def _predict(self, X):  # pragma: no cover - never called
        raise NotImplementedError

    def _cost(self, n, d):  # pragma: no cover - never called
        return self.training_cost_

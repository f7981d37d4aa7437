"""Scalar CART kernels: the parity oracle for ``repro.ml.tree``.

These are the node growth with one split scan per feature and the
row-at-a-time predict that ``repro.ml.tree`` shipped before its node scan
was vectorized, kept verbatim, and boosting as it was before its rounds
were grown together: one tree at a time, each grown depth first and
predicted on its own.
The property tests compare every tree against them bit for bit, and
``benchmarks/bench_binned_oracle.py`` times its exact-split baseline on them.

``scalar_cart()`` swaps them in for the duration of a ``with`` block by
patching ``repro.ml.tree._TreeCore``; trees and boosted ensembles fitted
inside the block keep the scalar predict afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.ml import tree
from repro.ml.base import subsample_features


def _best_split_regression(
    x: np.ndarray, y: np.ndarray, min_leaf: int
) -> tuple[float, float]:
    """Best (gain, threshold) for one feature under variance reduction."""
    order = np.argsort(x, kind="mergesort")
    xs, ys = x[order], y[order]
    n = len(ys)
    prefix = np.cumsum(ys)
    prefix_sq = np.cumsum(ys**2)
    total, total_sq = prefix[-1], prefix_sq[-1]
    parent_sse = total_sq - total**2 / n
    best_gain, best_thr = 0.0, np.nan
    for i in range(min_leaf, n - min_leaf + 1):
        if i < 1 or i >= n or xs[i - 1] == xs[i]:
            continue
        left_sse = prefix_sq[i - 1] - prefix[i - 1] ** 2 / i
        right_n = n - i
        right_sum = total - prefix[i - 1]
        right_sse = (total_sq - prefix_sq[i - 1]) - right_sum**2 / right_n
        gain = parent_sse - left_sse - right_sse
        if gain > best_gain + 1e-12:
            best_gain = gain
            best_thr = (xs[i - 1] + xs[i]) / 2.0
    return best_gain, best_thr


def _best_split_classification(
    x: np.ndarray, codes: np.ndarray, n_classes: int, min_leaf: int
) -> tuple[float, float]:
    """Best (gain, threshold) for one feature under Gini impurity."""
    order = np.argsort(x, kind="mergesort")
    xs, cs = x[order], codes[order]
    n = len(cs)
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), cs] = 1.0
    prefix = np.cumsum(one_hot, axis=0)
    totals = prefix[-1]
    parent_gini = 1.0 - np.sum((totals / n) ** 2)
    best_gain, best_thr = 0.0, np.nan
    for i in range(min_leaf, n - min_leaf + 1):
        if i < 1 or i >= n or xs[i - 1] == xs[i]:
            continue
        left = prefix[i - 1]
        right = totals - left
        gini_l = 1.0 - np.sum((left / i) ** 2)
        gini_r = 1.0 - np.sum((right / (n - i)) ** 2)
        gain = parent_gini - (i / n) * gini_l - ((n - i) / n) * gini_r
        if gain > best_gain + 1e-12:
            best_gain = gain
            best_thr = (xs[i - 1] + xs[i]) / 2.0
    return best_gain, best_thr


class ScalarTreeCore(tree._TreeCore):
    """``_TreeCore`` with the scalar node growth and the row-walk predict."""

    def _leaf_value(
        self, y: np.ndarray, idx: np.ndarray, classification: bool, n_classes: int
    ) -> np.ndarray:
        if classification:
            counts = np.bincount(y[idx].astype(int), minlength=n_classes)
            return counts / counts.sum()
        return np.array([y[idx].mean()])

    def _grow_node(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        classification: bool,
        n_classes: int,
    ) -> tree._Node:
        stats = self.stats_
        stats.node_count += 1
        stats.max_depth_seen = max(stats.max_depth_seen, depth)
        node = tree._Node(
            prediction=self._leaf_value(y, idx, classification, n_classes),
            n_samples=len(idx),
            depth=depth,
        )
        if (
            depth >= self.max_depth
            or len(idx) < self.min_samples_split
            or (classification and len(np.unique(y[idx])) == 1)
            or (not classification and np.ptp(y[idx]) == 0.0)
        ):
            stats.leaf_count += 1
            return node
        features = subsample_features(X.shape[1], self.max_features, rng)
        best = (0.0, -1, np.nan)  # (gain, feature, threshold)
        for f in features:
            x_col = X[idx, f]
            stats.split_work += len(idx)
            if classification:
                gain, thr = _best_split_classification(
                    x_col, y[idx].astype(int), n_classes, self.min_samples_leaf
                )
            else:
                gain, thr = _best_split_regression(
                    x_col, y[idx], self.min_samples_leaf
                )
            if gain > best[0] + 1e-12:
                best = (gain, int(f), thr)
        gain, feature, threshold = best
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

    @classmethod
    def grow_round(cls, X, targets, rows, max_depth, min_samples_leaf):
        """Each of the round's trees fitted alone on ``X[rows]``, then
        predicted on all of ``X``."""
        cores, fitted = [], []
        for y in targets:
            core = cls(max_depth, 2, min_samples_leaf, None)
            if rows is None:
                core.grow(X, y, None, classification=False)
            else:
                core.grow(X[rows], y[rows], None, classification=False)
            cores.append(core)
            fitted.append(core.predict_values(X)[:, 0])
        return cores, np.array(fitted)

    @classmethod
    def pack(cls, rounds):
        return ScalarTrees(rounds)

    def predict_values(self, X: np.ndarray) -> np.ndarray:
        """Per-row leaf prediction vectors, stacked (n, k)."""
        out = np.empty((X.shape[0], len(self.root_.prediction)))
        for i in range(X.shape[0]):
            node = self.root_
            while not node.is_leaf:
                node = node.left if X[i, node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out


class ScalarTrees:
    """A (rounds, k) grid of trees, each predicted by its own row walk."""

    def __init__(self, rounds):
        self.rounds = rounds

    def column(self, j: int) -> "ScalarTrees":
        return ScalarTrees([[cores[j]] for cores in self.rounds])

    def stages(self, X: np.ndarray, init: np.ndarray, learning_rate: float) -> np.ndarray:
        """Scores before the first round and after each, one tree at a time."""
        out = np.repeat(init[:, None], X.shape[0], axis=1)
        stages = [out.copy()]
        for cores in self.rounds:
            for j, core in enumerate(cores):
                out[j] += learning_rate * core.predict_values(X)[:, 0]
            stages.append(out.copy())
        return np.array(stages)


@contextmanager
def scalar_cart():
    """Grow (and predict) every tree built in the block with the scalar kernels."""
    original = tree._TreeCore
    tree._TreeCore = ScalarTreeCore
    try:
        yield
    finally:
        tree._TreeCore = original

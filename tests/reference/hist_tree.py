"""Scalar histogram tree: the parity oracle for ``repro.ml.histogram_boosting``.

The histogram tree with one ``bincount`` per feature and the row-at-a-time
predict that ``repro.ml.histogram_boosting`` shipped before its tree was
vectorized, kept verbatim. The parity tests compare every tree against it
bit for bit, and ``benchmarks/bench_binned_oracle.py`` times its legacy
full-precision oracle on it.

``reference_hist_trees()`` swaps it in for the duration of a ``with``
block by patching ``repro.ml.histogram_boosting._HistTree``; models fitted
inside the block keep the scalar trees afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.ml import histogram_boosting
from repro.ml.histogram_boosting import _HistNode


class ReferenceHistTree:
    """The pre-vectorization histogram tree: per-feature histogram loops
    and scalar per-row prediction walks."""

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

    def fit(self, binned: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> None:
        idx = np.arange(binned.shape[0])
        self.feature_gains_ = np.zeros(binned.shape[1])
        self.root_ = self._grow(binned, grad, hess, idx, 0)

    def _leaf_value(self, grad, hess, idx) -> float:
        g, h = grad[idx].sum(), hess[idx].sum()
        return float(-g / (h + self.l2))

    def _grow(self, binned, grad, hess, idx, depth) -> _HistNode:
        node = _HistNode(value=self._leaf_value(grad, hess, idx))
        if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
            return node
        g_total, h_total = grad[idx].sum(), hess[idx].sum()
        parent_score = g_total**2 / (h_total + self.l2)
        best_gain, best_f, best_bin = 1e-10, -1, -1
        n_features = binned.shape[1]
        for f in range(n_features):
            codes = binned[idx, f]
            n_bins = int(codes.max()) + 1 if len(codes) else 1
            if n_bins < 2:
                continue
            self.split_work_ += len(idx) + n_bins
            g_hist = np.bincount(codes, weights=grad[idx], minlength=n_bins)
            h_hist = np.bincount(codes, weights=hess[idx], minlength=n_bins)
            c_hist = np.bincount(codes, minlength=n_bins)
            g_left = np.cumsum(g_hist)[:-1]
            h_left = np.cumsum(h_hist)[:-1]
            c_left = np.cumsum(c_hist)[:-1]
            c_right = len(idx) - c_left
            valid = (c_left >= self.min_samples_leaf) & (
                c_right >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            g_right = g_total - g_left
            h_right = h_total - h_left
            gains = (
                g_left**2 / (h_left + self.l2)
                + g_right**2 / (h_right + self.l2)
                - parent_score
            )
            gains[~valid] = -np.inf
            b = int(np.argmax(gains))
            if gains[b] > best_gain:
                best_gain, best_f, best_bin = float(gains[b]), f, b
        if best_f < 0:
            return node
        self.feature_gains_[best_f] += best_gain
        mask = binned[idx, best_f] <= best_bin
        node.feature = best_f
        node.bin_threshold = best_bin
        node.left = self._grow(binned, grad, hess, idx[mask], depth + 1)
        node.right = self._grow(binned, grad, hess, idx[~mask], depth + 1)
        return node

    def predict(self, binned: np.ndarray) -> np.ndarray:
        out = np.empty(binned.shape[0])
        for i in range(binned.shape[0]):
            node = self.root_
            while not node.is_leaf:
                if binned[i, node.feature] <= node.bin_threshold:
                    node = node.left
                else:
                    node = node.right
            out[i] = node.value
        return out


@contextmanager
def reference_hist_trees():
    """Grow every histogram tree built in the block with the scalar tree."""
    original = histogram_boosting._HistTree
    histogram_boosting._HistTree = ReferenceHistTree
    try:
        yield
    finally:
        histogram_boosting._HistTree = original

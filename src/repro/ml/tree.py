"""CART decision trees (the base learner for forests and boosting).

Standard top-down induction with exact split search. Classification splits
minimize Gini impurity; regression splits minimize within-child variance.

Split scoring (``_best_splits``) takes a batch of nodes: each node's rows
of the candidate features form one lane per feature, padded with ``+inf``
to the batch's largest node. All lanes are stably argsorted together,
targets (or one-hot classes) are cumulatively summed down each sorted
lane, and only the admissible cuts — both children at least
``min_samples_leaf`` rows, distinct neighbouring values — are scored,
with the per-cut formula in the same evaluation order as a scalar loop
(squares of sums through C ``pow`` via ``np.float_power``). Two growers
call it:

* single trees and forests grow depth first, one node per call
  (``_TreeCore._best_split``), because a forest draws each node's
  ``max_features`` subset in that order; prediction routes row-index
  arrays down the tree;
* boosting grows a round's k regression trees together, level by level
  (``grow_round``), scoring every node of a level, in every tree, in one
  call. The fitted (rounds, k) grid is flattened into node arrays
  (``_PackedTrees``) that route all rows through all trees at once and add
  the leaf values in round order.

Tie rule, exactly that of a scalar scan: within a feature, cuts are
visited in sorted order and one replaces the incumbent only if its gain
exceeds the incumbent's by more than 1e-12 (the incumbent starts at gain
0); the per-feature winners then compete under the same rule in feature
order. The scan settles on the first argmax unless an earlier value is
not cleared by the maximum (``_scan``); such a column is replayed exactly
(``_first_clear``). Ties therefore resolve to the lowest feature index /
smallest threshold, so a fixed dataset always yields the same tree — bit
for bit the one the scalar scan grows, which
``tests/property/test_cart_parity.py`` checks against the scalar kernel
kept in ``tests/reference/cart.py``, for single trees, forests and
boosting alike.
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

    Let p be a column's first argmax and M its maximum. If M clears
    (``M > v + 1e-12``) every value v before p, it clears whatever
    incumbent the scan holds at p, and no later value can clear M, so the
    scan ends on p (on -1 when M does not clear 0.0). Columns with an
    earlier value that M does not clear are replayed with ``_first_clear``
    itself.
    """
    top = gain.max(axis=0)
    pos = gain.argmax(axis=0)
    pos[top <= 1e-12] = -1
    held = (gain + 1e-12 >= top) & (np.arange(len(gain))[:, None] < pos)
    for j in np.flatnonzero(held.any(axis=0)):
        pos[j] = _first_clear(gain[:, j].tolist())
    return pos


def _sse_gains(
    ys: np.ndarray, sizes: np.ndarray, cols: np.ndarray, counts=None
) -> np.ndarray:
    """Variance-reduction gains of the cuts leaving ``sizes`` rows on the left
    of column ``cols`` of the column-wise sorted targets ``ys``.

    Columns from several nodes carry their row counts in ``counts`` and
    zero padding past them, which leaves their sums intact; without
    ``counts`` every column holds all ``len(ys)`` rows of one node.
    The formula and its evaluation order are the per-cut scalar ones.
    Squares of sums go through ``np.float_power`` (C ``pow``), which rounds
    like the scalar ``s ** 2``; array ``**`` differs in about 0.1% of values.
    """
    n = len(ys) if counts is None else counts[cols]
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
    cs: np.ndarray, n_classes: int, sizes: np.ndarray, cols: np.ndarray, counts=None
) -> np.ndarray:
    """Gini gains of the cuts leaving ``sizes`` rows on the left of column
    ``cols`` of the column-wise sorted class codes ``cs`` (``counts`` and
    padding, with code -1, as for :func:`_sse_gains`)."""
    prefix = np.cumsum(cs[..., None] == np.arange(n_classes), axis=0, dtype=float)
    if counts is None:  # one node: every column has its class totals
        n, totals = len(cs), prefix[-1, :1]
        parent_gini = 1.0 - ((totals / n) ** 2).sum(axis=-1)
    else:
        n, totals = counts[cols], prefix[-1, cols]
        parent_gini = (1.0 - ((prefix[-1] / counts[:, None]) ** 2).sum(axis=-1))[cols]
    left = prefix[sizes - 1, cols]
    gini_l = 1.0 - ((left / sizes[:, None]) ** 2).sum(axis=-1)
    gini_r = 1.0 - (((totals - left) / (n - sizes)[:, None]) ** 2).sum(axis=-1)
    return parent_gini - (sizes / n) * gini_l - ((n - sizes) / n) * gini_r


def _best_splits(
    x: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    min_samples_leaf: int,
    classification: bool = False,
    n_classes: int = 0,
) -> list:
    """The (gain, feature, threshold) of the best cut of each of m nodes,
    scored at once; None for a node without one.

    Node i's rows are the first ``counts[i]`` of ``x[i]`` (m, d, N), one
    lane per feature, and of ``y[i]`` (m, N), where N is the largest count;
    ``x`` is padded with ``+inf``, which sorts after every finite value,
    and ``y`` with 0 (class codes with -1). All lanes are sorted in one
    stable argsort and only the admissible cuts — both children at least
    ``min_samples_leaf`` rows, distinct neighbouring values — are scored.
    The tie rule then picks a cut within each lane (``_scan``) and a
    feature among each node's lane winners, in feature order.
    """
    m, d, N = x.shape
    lanes = m * d
    lo = max(min_samples_leaf, 1)
    width = N - 2 * lo + 1  # row r of the gain matrix: lo + r rows go left
    if width <= 0:
        return [None] * m
    order = np.argsort(x, axis=-1, kind="stable").reshape(lanes, N)
    flat = order + (np.arange(lanes) * N)[:, None]
    xs = x.reshape(-1)[flat]
    ys = np.repeat(y, d, axis=0).reshape(-1)[flat]
    admissible = xs[:, lo - 1 : lo - 1 + width] != xs[:, lo : lo + width]
    lane_counts = None
    if m > 1:
        lane_counts = np.repeat(counts, d)
        if counts.min() < N:  # padded lanes: no cut past a node's own rows
            admissible &= np.arange(lo, lo + width) <= (lane_counts - lo)[:, None]
    cols, rows = np.nonzero(admissible)
    sizes = rows + lo
    if classification:
        scored = _gini_gains(ys.T, n_classes, sizes, cols, lane_counts)
    else:
        scored = _sse_gains(ys.T, sizes, cols, lane_counts)
    gain = np.full((width, lanes), -np.inf)
    # a NaN gain never wins the scalar comparison
    gain[rows, cols] = np.where(np.isnan(scored), -np.inf, scored)
    pos = _scan(gain)
    per_feature = np.where(pos >= 0, gain[pos, np.arange(lanes)], 0.0)
    if m == 1:  # a depth-first node: a plain loop beats ``_scan``'s set-up
        features = [_first_clear(per_feature.tolist())]
    else:
        features = _scan(per_feature.reshape(m, d).T).tolist()
    best = []
    for i, j in enumerate(features):
        if j < 0:
            best.append(None)
            continue
        lane = i * d + j
        cut = pos[lane] + (lo - 1)
        best.append((per_feature[lane], j, (xs[lane, cut] + xs[lane, cut + 1]) / 2.0))
    return best


#: padded cells (nodes × rows × features) scored in one ``_best_splits`` call
_LEVEL_CELLS = 1 << 18


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
            or (classification and node.prediction.max() == 1.0)  # one class
            or (not classification and np.ptp(y_node) == 0.0)
        ):
            stats.leaf_count += 1
            return node
        features = subsample_features(X.shape[1], self.max_features, rng)
        stats.split_work += len(idx) * len(features)
        gain, feature, threshold = self._best_split(
            X.take(idx, axis=0).T.take(features, axis=0),
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

        ``x`` (len(features), n) holds the candidate ``features`` of the
        node's n rows; this is the one-node call of :func:`_best_splits`.
        """
        (best,) = _best_splits(
            x[None],
            (y.astype(int) if classification else y)[None],
            np.array([len(y)]),
            self.min_samples_leaf,
            classification,
            n_classes,
        )
        if best is None:
            return 0.0, -1, np.nan
        gain, column, threshold = best
        return gain, int(features[column]), threshold

    @classmethod
    def grow_round(
        cls,
        X: np.ndarray,
        targets: np.ndarray,
        rows: np.ndarray | None,
        max_depth: int,
        min_samples_leaf: int,
    ) -> tuple[list["_TreeCore"], np.ndarray]:
        """One boosting round's k regression trees, grown together.

        Tree t fits ``targets[t]`` on the rows ``rows`` of ``X`` (sorted;
        ``None`` for all) with every feature a candidate. Returns the k
        cores — nodes, importances and split work exactly those ``grow``
        leaves on ``X[rows]`` — and their (k, n) leaf values on every row of
        ``X``, the fitted values of the round.

        The trees grow level by level: every node of a level, in every tree,
        is scored by one :func:`_best_splits` call (in blocks of at most
        ``_LEVEL_CELLS`` padded cells). Leaf values are summed node by node,
        since a padded sum would round differently, and each tree's
        importances are added in depth-first order once it is grown.
        """
        k, n = targets.shape
        d = X.shape[1]
        padded_x = np.hstack([X.T, np.full((d, 1), np.inf)])
        padded_y = np.zeros((k, n + 1))
        padded_y[:, :n] = targets
        columns, ys = list(padded_x), list(padded_y)
        cores = [cls(max_depth, 2, min_samples_leaf, None) for _ in range(k)]
        fitted = np.empty((k, n))
        grown = np.arange(n) if rows is None else rows
        routed = grown if rows is None else np.arange(n)
        split_gain: dict[int, float] = {}

        def node(t: int, idx: np.ndarray, depth: int) -> _Node:
            y = ys[t][idx]
            return _Node(
                prediction=np.array([y.sum() / len(y)]), n_samples=len(idx), depth=depth
            )

        # (tree, node, rows it grows on, rows of X it routes)
        level = []
        for t, core in enumerate(cores):
            core.stats_ = _GrowthStats(importances=np.zeros(d))
            core.root_ = node(t, grown, 0)
            level.append((t, core.root_, grown, routed))
        for depth in range(max_depth + 1):
            if depth < max_depth and level:
                split = cls._split_level(padded_x, padded_y, level, min_samples_leaf)
            else:
                split = [None] * len(level)
            below = []
            for (t, parent, idx, reached), cut in zip(level, split):
                stats = cores[t].stats_
                stats.node_count += 1
                stats.max_depth_seen = depth
                if cut is not None:
                    stats.split_work += len(idx) * d
                if cut:
                    gain, feature, threshold = cut
                    go_left = columns[feature][idx] <= threshold
                    left, right = idx[go_left], idx[~go_left]
                    if min(len(left), len(right)) >= min_samples_leaf:
                        split_gain[id(parent)] = gain * len(idx)
                        parent.feature = feature
                        parent.threshold = float(threshold)
                        parent.left = node(t, left, depth + 1)
                        parent.right = node(t, right, depth + 1)
                        if reached is idx:
                            below.append((t, parent.left, left, left))
                            below.append((t, parent.right, right, right))
                        else:
                            go_left = columns[feature][reached] <= threshold
                            below.append((t, parent.left, left, reached[go_left]))
                            below.append((t, parent.right, right, reached[~go_left]))
                        continue
                stats.leaf_count += 1
                fitted[t, reached] = parent.prediction[0]
            level = below
        for core in cores:
            importances, pending = core.stats_.importances, [core.root_]
            while pending:
                parent = pending.pop()
                if not parent.is_leaf:
                    importances[parent.feature] += split_gain[id(parent)]
                    pending += (parent.right, parent.left)
        return cores, fitted

    @staticmethod
    def _split_level(padded_x, padded_y, level, min_samples_leaf) -> list:
        """Per node of ``level``: its (gain, feature, threshold) if it has a
        cut, False if ``_grow_node`` would scan it and find none, None if it
        would not scan it (a leaf by depth, size or constant target).

        ``padded_x`` (d, n + 1) and ``padded_y`` (k, n + 1) carry one padding
        column past the data, which the padded index matrix points at.
        """
        n = padded_x.shape[1] - 1
        counts = np.array([len(idx) for _, _, idx, _ in level])
        index = np.full((len(level), counts.max()), n)
        for i, (_, _, idx, _) in enumerate(level):
            index[i, : len(idx)] = idx
        y = padded_y[np.array([t for t, _, _, _ in level])[:, None], index]
        varied = np.where(index < n, y, -np.inf).max(axis=1) - np.where(
            index < n, y, np.inf
        ).min(axis=1)
        scan = np.flatnonzero((counts >= 2) & (varied != 0.0))
        out: list = [None] * len(level)
        scan = scan[np.argsort(-counts[scan], kind="stable")]
        cells = padded_x.shape[0] * counts[scan]
        start = 0
        while start < len(scan):
            stop = start + 1
            while stop < len(scan) and (stop - start + 1) * cells[start] <= _LEVEL_CELLS:
                stop += 1
            block = scan[start:stop]
            width = counts[block[0]]
            best = _best_splits(
                padded_x[:, index[block, :width]].transpose(1, 0, 2),
                y[block, :width],
                counts[block],
                min_samples_leaf,
            )
            for i, cut in zip(block, best):
                out[i] = cut if cut is not None and np.isfinite(cut[2]) else False
            start = stop
        return out

    @classmethod
    def pack(cls, rounds: list[list["_TreeCore"]]) -> "_PackedTrees":
        """The regression trees of a (rounds, k) grid, ready to predict."""
        return _PackedTrees(rounds)

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


#: trees × rows routed at once by ``_PackedTrees.leaf_values``
_ROUTE_CELLS = 1 << 20


class _PackedTrees:
    """A (rounds, k) grid of fitted regression trees as flat node arrays.

    Node i of a tree has ``feature``/``threshold``/``left``/``right``/
    ``value``; a leaf points back at itself, so routing every row through
    every tree for the deepest tree's depth parks each row at its leaf
    after the same comparisons a single-tree walk makes.
    """

    def __init__(self, rounds: list[list[_TreeCore]]):
        self.shape = (len(rounds), len(rounds[0]) if rounds else 0)
        trees = [core for cores in rounds for core in cores]
        width = max((core.stats_.node_count for core in trees), default=1)
        self.depth = max((core.stats_.max_depth_seen for core in trees), default=0)
        feature, threshold, left, right, value = [], [], [], [], []
        for core in trees:
            nodes = [core.root_]
            for i, node in enumerate(nodes):
                value.append(node.prediction[0])
                if node.is_leaf:
                    feature.append(0)
                    threshold.append(0.0)
                    left.append(i)
                    right.append(i)
                else:
                    feature.append(node.feature)
                    threshold.append(node.threshold)
                    left.append(len(nodes))
                    right.append(len(nodes) + 1)
                    nodes += (node.left, node.right)
            for column in (feature, left, right):
                column += [0] * (width - len(nodes))
            for column in (threshold, value):
                column += [0.0] * (width - len(nodes))
        shape = (len(trees), width)
        self.feature = np.array(feature, dtype=np.int64).reshape(shape)
        self.threshold = np.array(threshold).reshape(shape)
        self.left = np.array(left, dtype=np.int64).reshape(shape)
        self.right = np.array(right, dtype=np.int64).reshape(shape)
        self.value = np.array(value, dtype=float).reshape(shape)

    def column(self, j: int) -> "_PackedTrees":
        """The (rounds, 1) grid of column ``j``'s trees."""
        rounds, k = self.shape
        if not rounds:
            return self
        part = object.__new__(_PackedTrees)
        part.shape, part.depth = (rounds, 1), self.depth
        for name in ("feature", "threshold", "left", "right", "value"):
            setattr(part, name, getattr(self, name)[j::k])
        return part

    def stages(self, X: np.ndarray, init: np.ndarray, learning_rate: float) -> np.ndarray:
        """(rounds + 1, k, n) boosted scores of the rows of ``X`` before the
        first round and after each: ``init`` (k,) plus ``learning_rate``
        times every round's leaf values, added in round order."""
        steps = np.empty((self.shape[0] + 1, len(init), X.shape[0]))
        steps[0] = init[:, None]
        if self.shape[0]:
            steps[1:] = learning_rate * self.leaf_values(X)
        return np.cumsum(steps, axis=0)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(rounds, k, n) leaf value of every row of ``X`` in every tree."""
        n_trees = len(self.value)
        out = np.empty((n_trees, X.shape[0]))
        block = max(1, _ROUTE_CELLS // max(n_trees, 1))
        trees = np.arange(n_trees)[:, None]
        for start in range(0, X.shape[0], block):
            rows = X[start : start + block]
            at = np.arange(len(rows))
            position = np.zeros((n_trees, len(rows)), dtype=np.int64)
            for _ in range(self.depth):
                go_left = rows[at, self.feature[trees, position]] <= self.threshold[
                    trees, position
                ]
                position = np.where(
                    go_left, self.left[trees, position], self.right[trees, position]
                )
            out[:, start : start + len(rows)] = self.value[trees, position]
        return out.reshape(*self.shape, X.shape[0])


def grow_round(X, targets, rows, max_depth, min_samples_leaf):
    """:meth:`_TreeCore.grow_round`, looked up when called so that the
    scalar reference core can stand in for it."""
    return _TreeCore.grow_round(X, targets, rows, max_depth, min_samples_leaf)


def pack_trees(rounds):
    """:meth:`_TreeCore.pack`, looked up when called (see :func:`grow_round`)."""
    return _TreeCore.pack(rounds)


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

    @classmethod
    def _from_core(
        cls, core: _TreeCore, n_rows: int, n_features: int
    ) -> "DecisionTreeRegressor":
        """The fitted tree ``fit`` leaves when it grows ``core`` on
        ``n_rows`` rows of ``n_features`` features."""
        model = cls(
            max_depth=core.max_depth,
            min_samples_split=core.min_samples_split,
            min_samples_leaf=core.min_samples_leaf,
            max_features=core.max_features,
        )
        model._core_ = core
        model.feature_importances_ = core.normalized_importances()
        model.training_cost_ = float(model._cost(n_rows, n_features))
        model.n_features_in_ = n_features
        model._fitted = True
        return model

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

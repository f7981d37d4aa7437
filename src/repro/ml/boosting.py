"""Gradient boosting and the paper's multi-output surrogate (MO-GBM).

``GradientBoostingRegressor`` boosts shallow CART trees on squared loss;
``GradientBoostingClassifier`` boosts on logistic loss (one tree per class
per round, softmax for K > 2). ``MultiOutputGradientBoosting`` mirrors
scikit-learn's ``MultiOutputRegressor(GradientBoostingRegressor)`` — the
estimator the paper adopts ("we use a multi-output Gradient Boosting Model
[34] that allows us to obtain the performance vector by a single call",
Section 2): one boosted ensemble per output dimension behind a single
``predict`` returning the full performance vector.

Every model here grows each round's trees together — the MO outputs, the
classifier's classes, or the regressor's single tree — with one
:func:`~repro.ml.tree.grow_round` call that scores all nodes of a level at
once; X is validated once per fit, not once per tree. After the fit, all
trees are flattened into one :class:`~repro.ml.tree._PackedTrees` grid, so
a predict validates X once, routes every row through every tree level by
level, and adds the leaf values in round order. Trees, predictions,
importances and training costs are bit-identical to fitting and
predicting one ``DecisionTreeRegressor`` at a time, which
``tests/property/test_cart_parity.py`` checks against that reference.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError
from ..rng import spawn_rng
from . import tree
from .base import Classifier, Model, Regressor, check_matrix, sigmoid, softmax
from .tree import DecisionTreeRegressor


def _boost_squared(
    X: np.ndarray,
    Y: np.ndarray,
    n_rounds: int,
    learning_rate: float,
    max_depth: int,
    min_samples_leaf: int,
    sample=None,
):
    """Squared-loss boosting of the k rows of ``Y`` (k, n) side by side.

    Each round grows one tree per output on its residuals, all k in one
    :func:`~repro.ml.tree.grow_round` call, on the rows ``sample(t)``
    (every row when ``sample`` is None). Returns the per-output initial
    scores (k,), the (rounds, k) grid of tree cores and the per-round
    training losses (rounds, k).
    """
    init = np.array([y.mean() for y in Y])
    current = np.repeat(init[:, None], Y.shape[1], axis=1)
    rounds, losses = [], []
    for t in range(n_rounds):
        cores, fitted = tree.grow_round(
            X, Y - current, None if sample is None else sample(t),
            max_depth, min_samples_leaf,
        )
        current = current + learning_rate * fitted
        rounds.append(cores)
        losses.append([float(np.mean((y - c) ** 2)) for y, c in zip(Y, current)])
    return init, rounds, losses


def _importances(trees, n_features: int) -> np.ndarray:
    """The trees' importances, summed in fitting order, then normalized."""
    importances = np.zeros(n_features)
    for t in trees:
        importances += t.feature_importances_
    total = importances.sum()
    return importances / total if total > 0 else importances


class GradientBoostingRegressor(Regressor):
    """Squared-loss gradient boosting over shallow regression trees."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = float(subsample)
        self.estimators_: list[DecisionTreeRegressor] = []
        self.init_: float = 0.0
        self.feature_importances_: np.ndarray | None = None
        self.train_losses_: list[float] = []

    def _fit(self, X, y, rng):
        n = X.shape[0]
        sample = None
        if self.subsample < 1.0:
            size = max(1, int(self.subsample * n))

            def sample(t):
                draw = spawn_rng(self.seed, "gb-tree", t)
                return np.sort(draw.choice(n, size=size, replace=False))

        init, rounds, losses = _boost_squared(
            X, y.astype(float)[None], self.n_estimators, self.learning_rate,
            self.max_depth, self.min_samples_leaf, sample,
        )
        n_rows = n if sample is None else size
        self._adopt(init[0], rounds, [loss[0] for loss in losses], n_rows, X.shape[1])

    def _adopt(self, init, rounds, losses, n_rows, n_features, packed=None):
        """Become the fitted model of one output's boosted trees (``rounds``
        holds one core per round, grown on ``n_rows`` rows)."""
        self.init_ = float(init)
        self.estimators_ = [
            DecisionTreeRegressor._from_core(cores[0], n_rows, n_features)
            for cores in rounds
        ]
        self.train_losses_ = losses
        self.feature_importances_ = _importances(self.estimators_, n_features)
        self._packed = tree.pack_trees(rounds) if packed is None else packed
        self.training_cost_ = float(self._cost(n_rows, n_features))
        self.n_features_in_ = n_features
        self._fitted = True

    def _stages(self, X) -> np.ndarray:
        return self._packed.stages(X, np.array([self.init_]), self.learning_rate)[:, 0]

    def _predict(self, X):
        return self._stages(X)[-1]

    def staged_predict(self, X) -> np.ndarray:
        """(n_estimators, n) predictions after each boosting round."""
        return self._stages(self._check_fitted_features(X))[1:]

    def _cost(self, n, d):
        return sum(t.training_cost_ for t in self.estimators_)


class GradientBoostingClassifier(Classifier):
    """Logistic-loss gradient boosting (binary) / softmax boosting (K>2)."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.estimators_: list[list[DecisionTreeRegressor]] = []
        self.init_raw_: np.ndarray | None = None
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X, codes, rng):
        n, d = X.shape
        k = len(self.classes_)
        one_hot = np.zeros((n, k))
        one_hot[np.arange(n), codes.astype(int)] = 1.0
        prior = np.clip(one_hot.mean(axis=0), 1e-6, 1.0)
        self.init_raw_ = np.log(prior)
        raw = np.tile(self.init_raw_, (n, 1))
        rounds = []
        for _ in range(self.n_estimators):
            residual = one_hot - softmax(raw)
            cores, fitted = tree.grow_round(
                X, residual.T, None, self.max_depth, self.min_samples_leaf
            )
            raw += self.learning_rate * fitted.T
            rounds.append(cores)
        self.estimators_ = [
            [DecisionTreeRegressor._from_core(core, n, d) for core in cores]
            for cores in rounds
        ]
        self.feature_importances_ = _importances(
            [t for round_trees in self.estimators_ for t in round_trees], d
        )
        self._packed = tree.pack_trees(rounds)

    def _raw(self, X) -> np.ndarray:
        return self._packed.stages(X, self.init_raw_, self.learning_rate)[-1].T

    def _predict_proba(self, X):
        return softmax(self._raw(X))

    def _cost(self, n, d):
        return sum(
            t.training_cost_ for round_trees in self.estimators_ for t in round_trees
        )


class MultiOutputGradientBoosting(Model):
    """MO-GBM: one boosted ensemble per output, one ``predict`` call.

    ``fit(X, Y)`` with ``Y`` of shape (n, k); ``predict(X)`` returns (n, k).
    This is the paper's default performance estimator backbone. The k
    ensembles are grown round by round together, and ``predict`` routes
    every row through all of their trees at once; each output's
    :class:`GradientBoostingRegressor` in ``estimators_`` is the one a
    separate fit would give.
    """

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.estimators_: list[GradientBoostingRegressor] = []
        self.n_outputs_: int = 0

    def fit(self, X, Y) -> "MultiOutputGradientBoosting":
        X = check_matrix(X)
        Y = np.asarray(Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        if Y.ndim != 2 or Y.shape[1] == 0:
            raise ModelError(f"Y must be (n, k) with k >= 1, got shape {Y.shape}")
        if X.shape[0] != Y.shape[0]:
            raise ModelError(f"X rows {X.shape[0]} != Y rows {Y.shape[0]}")
        n, d = X.shape
        init, rounds, losses = _boost_squared(
            X, np.ascontiguousarray(Y.T), self.n_estimators, self.learning_rate,
            self.max_depth, 1,
        )
        self.n_outputs_ = Y.shape[1]
        self.n_features_in_ = d
        self._init = init
        self._packed = tree.pack_trees(rounds)
        self.estimators_ = []
        for j in range(self.n_outputs_):
            gb = GradientBoostingRegressor(
                n_estimators=self.n_estimators,
                learning_rate=self.learning_rate,
                max_depth=self.max_depth,
                seed=int(spawn_rng(self.seed, "mo-gbm", j).integers(2**31)),
            )
            gb._adopt(
                init[j], [[cores[j]] for cores in rounds],
                [loss[j] for loss in losses], n, d, self._packed.column(j),
            )
            self.estimators_.append(gb)
        self.training_cost_ = sum(e.training_cost_ for e in self.estimators_)
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        """(n, n_outputs) predictions — one call covers all measures."""
        X = self._check_fitted_features(X)
        return self._packed.stages(X, self._init, self.learning_rate)[-1].T

    # Model abstract hooks are unused because fit/predict are overridden,
    # but must exist; they delegate to the overridden implementations.
    def _fit(self, X, y, rng):  # pragma: no cover - never called
        raise NotImplementedError

    def _predict(self, X):  # pragma: no cover - never called
        raise NotImplementedError

    def _cost(self, n, d):  # pragma: no cover - never called
        return self.training_cost_


def sigmoid_calibrate(raw: np.ndarray) -> np.ndarray:
    """Squash raw scores into (0, 1) — handy for estimator outputs that must
    stay inside the paper's normalized measure range."""
    return sigmoid(raw)

"""Model interface and the deterministic training-cost account.

The paper treats a data science model as a function ``M : D -> R^d`` and
requires it *fixed* and *deterministic* (Section 2). Every model here is a
:class:`Model` subclass with ``fit(X, y)`` / ``predict(X)``; all randomness
comes from an explicit ``seed`` so refitting on the same data reproduces the
same model bit-for-bit.

Training cost (the paper's ``p_Train`` measure) is accounted two ways:

* ``training_cost_`` — a deterministic operation-count proxy filled in by
  each model's ``_cost(n, d)``; monotone in rows × features × model
  complexity, so accuracy/cost trade-off *shapes* match wall-clock while
  keeping tests reproducible (see DESIGN.md §1).
* ``wall_time_`` — the actual ``perf_counter`` seconds of the fit, for users
  who want real timings.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..exceptions import ModelError
from ..rng import make_rng


@dataclass(frozen=True)
class PreBinned:
    """A feature matrix already quantized to per-feature integer bin codes.

    The histogram models only ever look at bin codes, so a caller that has
    binned its data once (the :class:`~repro.relational.ColumnStore` does
    this for the whole universal table) can hand the codes straight to
    ``fit``/``predict`` and skip the per-call ``quantile_bin_edges`` /
    ``apply_bins`` pass entirely. ``edges`` (per-feature, in raw-value
    space) are optional: without them the fitted model can only predict on
    other ``PreBinned`` inputs quantized with the same scheme.
    """

    codes: np.ndarray
    edges: tuple[np.ndarray, ...] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    @property
    def nbytes(self) -> int:
        return int(self.codes.nbytes)


def check_prebinned(X: PreBinned) -> PreBinned:
    """Validate a pre-binned code matrix (2-D, non-empty, integer codes)."""
    codes = X.codes
    if codes.ndim != 2:
        raise ModelError(f"binned codes must be 2-D, got shape {codes.shape}")
    if codes.shape[0] == 0:
        raise ModelError("binned codes have no rows")
    if not np.issubdtype(codes.dtype, np.integer):
        raise ModelError(f"binned codes must be integers, got {codes.dtype}")
    return X


def check_matrix(X, allow_nan: bool = False) -> np.ndarray:
    """Validate and coerce a feature matrix to float64 (n, d).

    ``allow_nan=True`` (models that route missing values to a dedicated
    null bin) still rejects infinities.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ModelError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ModelError("X has no rows")
    if allow_nan:
        if np.isinf(X).any():
            raise ModelError("X contains inf; impute before fitting")
    elif not np.all(np.isfinite(X)):
        raise ModelError("X contains NaN/inf; impute before fitting")
    return X


def check_vector(y, n_rows: int) -> np.ndarray:
    """Validate a target vector against the number of rows."""
    y = np.asarray(y)
    if y.ndim != 1:
        y = y.ravel()
    if len(y) != n_rows:
        raise ModelError(f"y has {len(y)} entries for {n_rows} rows")
    return y


class Model(abc.ABC):
    """Base class for every model in the zoo."""

    #: Subclasses that impute/route NaN themselves opt in; inf is always
    #: rejected.
    _allow_nan = False
    #: Subclasses that can train directly on :class:`PreBinned` codes
    #: (the histogram models) opt in; everyone else rejects them loudly
    #: rather than silently training on raw bin integers.
    accepts_prebinned = False

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.training_cost_: float = 0.0
        self.wall_time_: float = 0.0
        self.n_features_in_: int = 0
        self._fitted = False

    # -- protocol ---------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _check_features(self, X):
        """Validate ``X`` — a raw float matrix or pre-binned codes."""
        if isinstance(X, PreBinned):
            if not self.accepts_prebinned:
                raise ModelError(
                    f"{type(self).__name__} cannot train on pre-binned codes"
                )
            return check_prebinned(X)
        return check_matrix(X, allow_nan=self._allow_nan)

    def _check_fitted_features(self, X):
        """Validate prediction input: fitted model, same feature count."""
        if not self._fitted:
            raise ModelError(f"{type(self).__name__} is not fitted")
        X = self._check_features(X)
        if X.shape[1] != self.n_features_in_:
            raise ModelError(
                f"X has {X.shape[1]} features; {type(self).__name__} "
                f"was fitted on {self.n_features_in_}"
            )
        return X

    def fit(self, X, y) -> "Model":
        """Fit on (X, y); subclasses implement ``_fit``."""
        X = self._check_features(X)
        y = check_vector(y, X.shape[0])
        rng = make_rng(self.seed)
        start = time.perf_counter()
        self._fit(X, y, rng)
        self.wall_time_ = time.perf_counter() - start
        self.training_cost_ = float(self._cost(X.shape[0], X.shape[1]))
        self.n_features_in_ = X.shape[1]
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        """Predict for the rows of ``X`` (requires a prior ``fit`` on as
        many features)."""
        return self._predict(self._check_fitted_features(X))

    def get_params(self) -> dict[str, Any]:
        """Constructor parameters (anything not ending in ``_``)."""
        return {
            k: v
            for k, v in vars(self).items()
            if not k.endswith("_") and not k.startswith("_")
        }

    def clone(self) -> "Model":
        """A fresh unfitted copy with identical parameters."""
        return type(self)(**self.get_params())

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"

    # -- subclass hooks -----------------------------------------------------------
    @abc.abstractmethod
    def _fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> None:
        """Train on validated inputs."""

    @abc.abstractmethod
    def _predict(self, X: np.ndarray) -> np.ndarray:
        """Predict for validated inputs."""

    @abc.abstractmethod
    def _cost(self, n: int, d: int) -> float:
        """Deterministic training-cost proxy for an (n, d) fit."""


class Classifier(Model):
    """Adds label-code bookkeeping and ``predict_proba``."""

    def __init__(self, seed: int = 0):
        super().__init__(seed=seed)
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "Classifier":
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ModelError("classification needs at least 2 classes in y")
        codes = np.searchsorted(self.classes_, y)
        return super().fit(X, codes)  # type: ignore[return-value]

    def predict(self, X) -> np.ndarray:
        """Predicted labels in the original label vocabulary."""
        codes = super().predict(X)
        return self.classes_[codes.astype(int)]

    def predict_proba(self, X) -> np.ndarray:
        """Per-class probabilities aligned with ``classes_``."""
        return self._predict_proba(self._check_fitted_features(X))

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self._predict_proba(X), axis=1)

    @abc.abstractmethod
    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probabilities over internal class codes."""


class Regressor(Model):
    """Marker base class for regression models."""


def bootstrap_indices(
    n: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Sampling with replacement for bagging."""
    size = n if size is None else size
    return rng.integers(0, n, size=size)


def subsample_features(
    d: int, max_features: int | float | str | None, rng: np.random.Generator
) -> np.ndarray:
    """Feature subset for a single tree (supports 'sqrt', fractions, ints)."""
    if max_features is None:
        return np.arange(d)
    if max_features == "sqrt":
        k = max(1, int(np.sqrt(d)))
    elif isinstance(max_features, float):
        k = max(1, int(round(max_features * d)))
    elif isinstance(max_features, int):
        k = max(1, min(max_features, d))
    else:
        raise ModelError(f"bad max_features: {max_features!r}")
    return np.sort(rng.choice(d, size=k, replace=False))


def softmax(raw: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized."""
    shifted = raw - raw.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def sigmoid(raw: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, clipped for stability."""
    return 1.0 / (1.0 + np.exp(-np.clip(raw, -35.0, 35.0)))


def validate_sequence_lengths(*seqs: Sequence) -> None:
    """Raise unless all sequences share one length."""
    lengths = {len(s) for s in seqs}
    if len(lengths) > 1:
        raise ModelError(f"length mismatch: {sorted(lengths)}")

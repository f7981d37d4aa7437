"""Property tests: the vectorized CART kernel is bit-identical to the scalar one.

Every model built on ``repro.ml.tree`` is fitted twice on the same data —
once as shipped, once under ``tests.reference.cart.scalar_cart()`` — and
the two fits must agree exactly: every node's feature, threshold, sample
count and leaf vector, the predictions, ``feature_importances_`` and
``training_cost_``.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.exceptions import ModelError
from repro.ml.boosting import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    MultiOutputGradientBoosting,
)
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _scan,
    _sse_gains,
)
from tests.reference.cart import scalar_cart


def _trees(model) -> list:
    """Every CART tree inside ``model``, in fitting order."""
    if isinstance(model, (DecisionTreeRegressor, DecisionTreeClassifier)):
        return [model]
    out = []
    for member in model.estimators_:
        for part in member if isinstance(member, list) else [member]:
            out.extend(_trees(part))
    return out


def _structure(node) -> tuple:
    if node.is_leaf:
        return ("leaf", node.n_samples, node.depth, node.prediction.tobytes())
    return (
        node.feature,
        np.float64(node.threshold).tobytes(),
        node.n_samples,
        node.depth,
        node.prediction.tobytes(),
        _structure(node.left),
        _structure(node.right),
    )


def _fingerprint(model, X: np.ndarray) -> tuple:
    pred = model.predict_proba(X) if hasattr(model, "predict_proba") else model.predict(X)
    importances = getattr(model, "feature_importances_", None)
    return (
        [_structure(t._core_.root_) for t in _trees(model)],
        [(t._core_.stats_.importances.tobytes(), t.training_cost_) for t in _trees(model)],
        np.asarray(pred).tobytes(),
        None if importances is None else importances.tobytes(),
        model.training_cost_,
    )


def _fit_fingerprint(make, X, y, X_eval):
    """The fitted model's fingerprint, or the error fitting raised (a
    forest's bootstrap can leave a tree a single class)."""
    try:
        return _fingerprint(make().fit(X, y), X_eval)
    except ModelError as exc:
        return repr(exc)


def _assert_parity(make, X, y, X_eval) -> None:
    fast = _fit_fingerprint(make, X, y, X_eval)
    with scalar_cart():
        slow = _fit_fingerprint(make, X, y, X_eval)
    assert fast == slow


@st.composite
def datasets(draw):
    """Tie-heavy tabular data: bitmap-like, few-level and continuous columns,
    optional duplicate columns, and targets that may be constant."""
    n = draw(st.integers(2, 120))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["bit", "levels", "real"]), min_size=d, max_size=d)):
        if kind == "bit":
            columns.append(rng.integers(0, 2, n).astype(float))
        elif kind == "levels":
            columns.append(rng.integers(0, 4, n) * 0.5)
        else:
            columns.append(rng.normal(size=n).round(draw(st.integers(0, 3))))
    for _ in range(draw(st.integers(0, 2))):
        columns.append(columns[int(rng.integers(len(columns)))].copy())
    X = np.column_stack(columns)
    target = draw(st.sampled_from(["constant", "levels", "real", "linear"]))
    if target == "constant":
        y = np.full(n, 1.5)
    elif target == "levels":
        y = rng.integers(0, 3, n).astype(float)
    elif target == "real":
        y = rng.normal(size=n)
    else:
        y = X @ rng.normal(size=X.shape[1]) + 0.1 * rng.normal(size=n)
    labels = rng.integers(0, draw(st.integers(2, 4)), n)
    labels[:2] = [0, 1]
    X_eval = np.vstack([X, rng.permutation(X, axis=0) + 0.25, X[:1] - 1.0])
    return X, y, labels, X_eval


knobs = st.fixed_dictionaries(
    {
        "max_depth": st.integers(1, 8),
        "min_samples_leaf": st.integers(1, 5),
        "seed": st.integers(0, 1000),
    }
)


@given(datasets(), knobs)
@settings(max_examples=60, deadline=None)
def test_single_trees_match_scalar_kernel(data, kw):
    X, y, labels, X_eval = data
    max_features = [None, "sqrt"][kw["seed"] % 2]
    _assert_parity(lambda: DecisionTreeRegressor(**kw, max_features=max_features), X, y, X_eval)
    _assert_parity(
        lambda: DecisionTreeClassifier(**kw, max_features=max_features), X, labels, X_eval
    )


@given(datasets(), knobs)
@settings(max_examples=40, deadline=None)
def test_boosting_matches_scalar_kernel(data, kw):
    X, y, labels, X_eval = data
    kw["max_depth"] = min(kw["max_depth"], 4)
    _assert_parity(lambda: GradientBoostingRegressor(n_estimators=4, **kw), X, y, X_eval)
    _assert_parity(
        lambda: GradientBoostingRegressor(n_estimators=4, subsample=0.5, **kw), X, y, X_eval
    )
    _assert_parity(lambda: GradientBoostingClassifier(n_estimators=3, **kw), X, labels, X_eval)
    Y = np.column_stack([y, labels.astype(float)])
    _assert_parity(
        lambda: MultiOutputGradientBoosting(
            n_estimators=4, max_depth=kw["max_depth"], seed=kw["seed"]
        ),
        X,
        Y,
        X_eval,
    )


@given(datasets(), knobs)
@settings(max_examples=40, deadline=None)
def test_forests_match_scalar_kernel(data, kw):
    X, y, labels, X_eval = data
    _assert_parity(lambda: RandomForestRegressor(n_estimators=3, **kw), X, y, X_eval)
    _assert_parity(lambda: RandomForestClassifier(n_estimators=3, **kw), X, labels, X_eval)


def test_near_tie_keeps_the_first_record():
    """Two cuts whose gains differ by under 1e-12: the later, larger one is
    the argmax, but the scan keeps the earlier one — within a feature and
    across features."""
    y = np.array([0.0, 0.0, 1.0, 1.0, 0.0, -3e-13])
    sizes = np.arange(1, 6)  # rows left of each cut
    gain = _sse_gains(y[:, None], sizes, np.zeros_like(sizes))[:, None]
    assert 0.0 < gain[3, 0] - gain[1, 0] < 1e-12
    assert gain.argmax(axis=0)[0] == 3 and _scan(gain)[0] == 1

    # feature 1 only offers the argmax cut of feature 0
    X = np.column_stack([np.arange(6.0), [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]])
    tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
    root = tree._core_.root_
    assert (root.feature, root.threshold) == (0, 1.5)
    _assert_parity(lambda: DecisionTreeRegressor(max_depth=3), X, y, X)


def test_surrogate_sweep_matches_scalar_kernel():
    """MO-GBM on bitmap states with real-valued targets, the surrogate's
    shape. Sums squared with array ``**`` instead of C ``pow`` round
    differently in ~0.1% of values; this sweep is large enough to see it.

    The second sweep is the surrogate as the search fits it: 4–20 history
    rows of 50–62 bitmap features, 4–6 measures (one of them constant in
    one case), 40 rounds at depth 3, and a one-row predict."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(20, 120)), int(rng.integers(2, 8))
        X = rng.integers(0, 2, (n, d)).astype(float)
        Y = rng.normal(size=(n, 3))
        _assert_parity(
            lambda: MultiOutputGradientBoosting(n_estimators=10, seed=seed), X, Y, X
        )
    for seed, n in enumerate((4, 7, 11, 15, 18, 20)):
        rng = np.random.default_rng(100 + seed)
        d, k = int(rng.integers(50, 63)), int(rng.integers(4, 7))
        X = rng.integers(0, 2, (n, d)).astype(float)
        Y = rng.uniform(size=(n, k))
        if seed == 2:
            Y[:, 1] = 0.5
        _assert_parity(
            lambda: MultiOutputGradientBoosting(n_estimators=40, max_depth=3, seed=seed),
            X,
            Y,
            X[rng.integers(n)][None, :],
        )

"""Pre-binned training, NaN-safe binning, and the vectorized-tree parity.

Three contracts guard the binned oracle path:

* **NaN safety** (satellite bugfix): ``quantile_bin_edges`` ignores NaN
  when placing edges and ``apply_bins`` routes NaN to the dedicated null
  bin — with nulls in fit data, predict data, or both.
* **Pre-binned parity**: fitting on :class:`PreBinned` codes produced by
  the model's own binning scheme is bit-identical to fitting on the raw
  floats — the fast path changes cost, never the learner.
* **Tree parity**: the vectorized :class:`_HistTree` reproduces the
  pre-vectorization tree (``tests/reference/hist_tree.py``) bit-for-bit —
  trees, predictions, gains, and ``split_work_``.
"""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.base import PreBinned, check_matrix, check_prebinned
from repro.ml.histogram_boosting import (
    HistGradientBoostingClassifier,
    HistGradientBoostingRegressor,
    MultiOutputHistGradientBoosting,
    _HistTree,
    apply_bins,
    null_bin,
    quantile_bin_edges,
)
from repro.rng import make_rng
from tests.reference.hist_tree import ReferenceHistTree, reference_hist_trees


def dataset(seed=0, n=240, d=5):
    rng = make_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] - 0.2 * X[:, 2] > 0).astype(int)
    return X, y


class TestNaNSafeBinning:
    def test_edges_ignore_nan(self):
        col = np.array([1.0, np.nan, 2.0, 3.0, np.nan, 4.0])
        edges = quantile_bin_edges(col[:, None], max_bins=8)[0]
        assert np.isfinite(edges).all()
        clean = quantile_bin_edges(
            np.array([1.0, 2.0, 3.0, 4.0])[:, None], max_bins=8
        )[0]
        assert np.array_equal(edges, clean)

    def test_nan_goes_to_the_null_bin(self):
        col = np.array([1.0, np.nan, 2.0, 3.0, 4.0])
        edges = quantile_bin_edges(col[:, None], max_bins=8)
        codes = apply_bins(col[:, None], edges)[:, 0]
        assert codes[1] == null_bin(edges[0])
        assert (codes[[0, 2, 3, 4]] < null_bin(edges[0])).all()

    def test_all_nan_column_gets_a_single_bin(self):
        col = np.full(6, np.nan)
        edges = quantile_bin_edges(col[:, None], max_bins=8)
        assert edges[0].size == 0
        codes = apply_bins(col[:, None], edges)[:, 0]
        assert (codes == null_bin(edges[0])).all()

    def test_nan_free_binning_is_unchanged(self):
        X, _ = dataset()
        edges = quantile_bin_edges(X, 64)
        expected = [
            np.unique(np.quantile(X[:, f], np.linspace(0, 1, 65)[1:-1]))
            for f in range(X.shape[1])
        ]
        for got, want in zip(edges, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "model_cls", [HistGradientBoostingClassifier, HistGradientBoostingRegressor]
    )
    def test_regression_nulls_in_fit_and_predict(self, model_cls):
        """The satellite regression: ColumnStore encodes nulls as NaN and
        the old binning produced garbage codes for them."""
        X, y = dataset(seed=3)
        X_fit = X.copy()
        X_fit[::7, 1] = np.nan  # nulls in the fit data
        X_fit[:, 4] = np.nan  # an entirely-null column
        if model_cls is HistGradientBoostingRegressor:
            y = X[:, 0] + 0.1 * X[:, 2]
        model = model_cls(n_estimators=8, seed=1).fit(X_fit, y)
        X_pred = X.copy()
        X_pred[::5, 1] = np.nan  # nulls in the predict data too
        X_pred[::3, 2] = np.nan  # including a fit-clean column
        out = model.predict(X_pred)
        assert np.isfinite(np.asarray(out, dtype=float)).all()
        if model_cls is HistGradientBoostingClassifier:
            assert np.isfinite(model.predict_proba(X_pred)).all()

    def test_non_nan_models_still_reject_nan(self):
        from repro.ml.linear import LinearRegression

        X, _ = dataset()
        X[0, 0] = np.nan
        with pytest.raises(ModelError, match="NaN"):
            LinearRegression().fit(X, X[:, 1])

    def test_inf_is_always_rejected(self):
        X, y = dataset()
        X[0, 0] = np.inf
        with pytest.raises(ModelError, match="inf"):
            HistGradientBoostingClassifier(n_estimators=2).fit(X, y)
        with pytest.raises(ModelError, match="inf"):
            check_matrix(X, allow_nan=True)


class TestVectorizedTreeParity:
    @pytest.mark.parametrize("min_samples_leaf", [1, 3, 12])
    @pytest.mark.parametrize("max_depth", [1, 4])
    def test_bit_identical_to_reference(self, min_samples_leaf, max_depth):
        X, _ = dataset(seed=11, n=300, d=6)
        X[:, 5] = 1.0  # a constant (single-bin) feature
        binned = apply_bins(X, quantile_bin_edges(X, 32))
        rng = make_rng(7)
        grad = rng.normal(size=300)
        hess = np.abs(rng.normal(size=300)) + 0.05
        fast = _HistTree(max_depth, min_samples_leaf, 1.0, 32)
        fast.fit(binned, grad, hess)
        slow = ReferenceHistTree(max_depth, min_samples_leaf, 1.0, 32)
        slow.fit(binned, grad, hess)
        assert fast.split_work_ == slow.split_work_
        assert np.array_equal(fast.feature_gains_, slow.feature_gains_)
        assert np.array_equal(fast.predict(binned), slow.predict(binned))

    def test_models_unchanged_by_vectorization(self):
        """End to end: boosted predictions match a reference-tree build
        bit for bit (this pins the T4 oracle's outputs)."""
        X, y = dataset(seed=5)
        fast = HistGradientBoostingClassifier(n_estimators=12, seed=2).fit(X, y)
        with reference_hist_trees():
            slow = HistGradientBoostingClassifier(n_estimators=12, seed=2).fit(X, y)
        assert np.array_equal(fast.predict_proba(X), slow.predict_proba(X))
        assert fast.training_cost_ == slow.training_cost_
        assert np.array_equal(
            fast.feature_importances_, slow.feature_importances_
        )


class TestPreBinnedTraining:
    def test_prebinned_fit_matches_raw_fit(self):
        X, y = dataset(seed=9)
        edges = quantile_bin_edges(X, 64)
        codes = apply_bins(X, edges).astype(np.uint8)
        pb = PreBinned(codes=codes, edges=tuple(edges))
        raw = HistGradientBoostingClassifier(n_estimators=10, seed=4).fit(X, y)
        binned = HistGradientBoostingClassifier(n_estimators=10, seed=4).fit(pb, y)
        assert np.array_equal(raw.predict_proba(X), binned.predict_proba(pb))
        # edges came along, so the binned model predicts on raw floats too
        assert np.array_equal(raw.predict(X), binned.predict(X))
        assert raw.training_cost_ == binned.training_cost_

    def test_edgeless_prebinned_model_rejects_raw_predict(self):
        X, y = dataset()
        codes = apply_bins(X, quantile_bin_edges(X, 64)).astype(np.uint8)
        model = HistGradientBoostingClassifier(n_estimators=3, seed=0).fit(
            PreBinned(codes=codes), y
        )
        assert np.array_equal(
            model.predict(PreBinned(codes=codes)),
            model.classes_[
                np.argmax(model.predict_proba(PreBinned(codes=codes)), axis=1)
            ],
        )
        with pytest.raises(ModelError, match="pre-binned"):
            model.predict(X)

    def test_prebinned_predict_rejects_other_feature_counts(self):
        X, y = dataset()
        codes = apply_bins(X, quantile_bin_edges(X, 64)).astype(np.uint8)
        model = HistGradientBoostingClassifier(n_estimators=3, seed=0).fit(
            PreBinned(codes=codes), y
        )
        wider = np.hstack([codes, codes[:, :1]])
        for other in (codes[:, :-1], wider):
            with pytest.raises(ModelError, match="features"):
                model.predict(PreBinned(codes=other))

    def test_non_histogram_models_reject_prebinned(self):
        from repro.ml.linear import LinearRegression

        X, y = dataset()
        codes = apply_bins(X, quantile_bin_edges(X, 64)).astype(np.uint8)
        with pytest.raises(ModelError, match="pre-binned"):
            LinearRegression().fit(PreBinned(codes=codes), y.astype(float))

    def test_check_prebinned_validation(self):
        with pytest.raises(ModelError, match="2-D"):
            check_prebinned(PreBinned(codes=np.zeros(3, dtype=np.uint8)))
        with pytest.raises(ModelError, match="rows"):
            check_prebinned(PreBinned(codes=np.zeros((0, 2), dtype=np.uint8)))
        with pytest.raises(ModelError, match="integers"):
            check_prebinned(PreBinned(codes=np.zeros((2, 2))))


class TestMultiOutputHist:
    def test_fit_predict_shapes_and_determinism(self):
        X, _ = dataset(seed=21)
        Y = np.column_stack([X[:, 0], X[:, 1] ** 2, np.abs(X[:, 2])])
        a = MultiOutputHistGradientBoosting(n_estimators=6, seed=5).fit(X, Y)
        b = MultiOutputHistGradientBoosting(n_estimators=6, seed=5).fit(X, Y)
        assert a.predict(X).shape == (X.shape[0], 3)
        assert np.array_equal(a.predict(X), b.predict(X))
        assert a.training_cost_ == b.training_cost_ > 0

    def test_prebinned_matches_raw(self):
        X, _ = dataset(seed=22)
        Y = np.column_stack([X[:, 0], X[:, 1]])
        edges = quantile_bin_edges(X, 64)
        pb = PreBinned(
            codes=apply_bins(X, edges).astype(np.uint8), edges=tuple(edges)
        )
        raw = MultiOutputHistGradientBoosting(n_estimators=5, seed=1).fit(X, Y)
        binned = MultiOutputHistGradientBoosting(n_estimators=5, seed=1).fit(pb, Y)
        assert np.array_equal(raw.predict(X), binned.predict(pb))

    def test_row_mismatch_raises(self):
        X, _ = dataset()
        with pytest.raises(ModelError, match="rows"):
            MultiOutputHistGradientBoosting().fit(X, np.zeros((3, 2)))

    def test_unfitted_predict_raises(self):
        X, _ = dataset()
        with pytest.raises(ModelError, match="not fitted"):
            MultiOutputHistGradientBoosting().predict(X)


class TestEstimatorSurrogateOption:
    def test_mogb_hist_estimator_kind(self):
        from repro.datalake.tasks import make_task_t3

        task = make_task_t3(scale=0.2, seed=7)
        estimator = task.build_estimator(estimator="mogb-hist", n_bootstrap=6)
        assert estimator.surrogate == "hist"
        space = task.space
        perf = estimator.valuate(space.universal_bits, space)
        assert perf.shape == (len(task.measures),)
        assert np.isfinite(perf).all()
        from repro.ml.histogram_boosting import MultiOutputHistGradientBoosting as MH

        assert isinstance(estimator._surrogate, MH)

    def test_unknown_surrogate_rejected(self):
        from repro.core.estimator import MOGBEstimator
        from repro.core.measures import MeasureSet, score_measure
        from repro.exceptions import EstimatorError

        with pytest.raises(EstimatorError, match="surrogate"):
            MOGBEstimator(
                oracle=lambda artifact: {},
                measures=MeasureSet([score_measure("acc")]),
                surrogate="nope",
            )

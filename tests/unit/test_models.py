"""Unit tests for the model zoo: linear, trees, forests, boosting, hist-GB.

Every model gets the same battery: learns an obvious signal, is
deterministic under a fixed seed, validates inputs, and reports a positive
training cost. Model-specific behaviours follow.
"""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml import (
    BinaryLogisticRegression,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    HistGradientBoostingClassifier,
    HistGradientBoostingRegressor,
    LinearRegression,
    LogisticRegression,
    MultiOutputGradientBoosting,
    RandomForestClassifier,
    RandomForestRegressor,
    accuracy,
    r2_score,
)
from repro.ml.histogram_boosting import MultiOutputHistGradientBoosting
from repro.rng import make_rng

REGRESSORS = [
    LinearRegression,
    DecisionTreeRegressor,
    lambda **kw: RandomForestRegressor(n_estimators=8, **kw),
    lambda **kw: GradientBoostingRegressor(n_estimators=20, **kw),
    lambda **kw: HistGradientBoostingRegressor(n_estimators=20, **kw),
]
CLASSIFIERS = [
    LogisticRegression,
    BinaryLogisticRegression,
    DecisionTreeClassifier,
    lambda **kw: RandomForestClassifier(n_estimators=8, **kw),
    lambda **kw: GradientBoostingClassifier(n_estimators=10, **kw),
    lambda **kw: HistGradientBoostingClassifier(n_estimators=15, **kw),
]


@pytest.fixture(scope="module")
def regression_data():
    rng = make_rng(0)
    X = rng.normal(size=(250, 5))
    y = 3 * X[:, 0] - 2 * X[:, 1] + 0.1 * rng.normal(size=250)
    return X, y


@pytest.fixture(scope="module")
def classification_data():
    rng = make_rng(1)
    X = rng.normal(size=(250, 5))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


@pytest.mark.parametrize("factory", REGRESSORS)
class TestRegressors:
    def test_learns_signal(self, factory, regression_data):
        X, y = regression_data
        model = factory(seed=0).fit(X[:200], y[:200])
        assert r2_score(y[200:], model.predict(X[200:])) > 0.7

    def test_deterministic(self, factory, regression_data):
        X, y = regression_data
        a = factory(seed=3).fit(X, y).predict(X[:20])
        b = factory(seed=3).fit(X, y).predict(X[:20])
        assert np.array_equal(a, b)

    def test_training_cost_positive(self, factory, regression_data):
        X, y = regression_data
        model = factory(seed=0).fit(X, y)
        assert model.training_cost_ > 0
        assert model.wall_time_ >= 0

    def test_predict_before_fit(self, factory, regression_data):
        X, _ = regression_data
        with pytest.raises(ModelError, match="not fitted"):
            factory(seed=0).predict(X)

    def test_predict_rejects_other_feature_counts(self, factory, regression_data):
        X, y = regression_data
        model = factory(seed=0).fit(X[:, :3], y)
        for width in (2, 5):
            with pytest.raises(ModelError, match="fitted on 3"):
                model.predict(X[:, :width])


@pytest.mark.parametrize("factory", CLASSIFIERS)
class TestClassifiers:
    def test_learns_signal(self, factory, classification_data):
        X, y = classification_data
        model = factory(seed=0).fit(X[:200], y[:200])
        assert accuracy(y[200:], model.predict(X[200:])) > 0.8

    def test_proba_rows_sum_to_one(self, factory, classification_data):
        X, y = classification_data
        model = factory(seed=0).fit(X, y)
        proba = model.predict_proba(X[:10])
        assert proba.shape == (10, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_string_labels_round_trip(self, factory, classification_data):
        X, y = classification_data
        labels = np.where(y == 1, "yes", "no")
        model = factory(seed=0).fit(X, labels)
        assert set(model.predict(X[:20])) <= {"yes", "no"}

    def test_single_class_rejected(self, factory, classification_data):
        X, _ = classification_data
        with pytest.raises(ModelError):
            factory(seed=0).fit(X, np.zeros(X.shape[0]))

    def test_predict_rejects_other_feature_counts(self, factory, classification_data):
        X, y = classification_data
        model = factory(seed=0).fit(X[:, :3], y)
        for width in (2, 5):
            with pytest.raises(ModelError, match="fitted on 3"):
                model.predict(X[:, :width])
            with pytest.raises(ModelError, match="fitted on 3"):
                model.predict_proba(X[:, :width])


class TestInputValidation:
    def test_nan_rejected(self):
        X = np.array([[1.0, np.nan]])
        with pytest.raises(ModelError, match="NaN"):
            LinearRegression().fit(X, [1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            LinearRegression().fit(np.zeros((3, 2)), [1.0])

    def test_1d_x_rejected(self):
        with pytest.raises(ModelError):
            LinearRegression().fit(np.zeros(3), [1, 2, 3])


class TestModelProtocol:
    def test_clone_is_unfitted_same_params(self):
        model = GradientBoostingRegressor(n_estimators=7, seed=5)
        clone = model.clone()
        assert clone.n_estimators == 7 and clone.seed == 5
        assert not clone.is_fitted

    def test_repr_contains_params(self):
        assert "n_estimators=7" in repr(GradientBoostingRegressor(n_estimators=7))


class TestTreeSpecifics:
    def test_max_depth_respected(self, regression_data=None):
        rng = make_rng(2)
        X = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert tree.depth <= 2

    def test_importances_find_signal(self):
        rng = make_rng(3)
        X = rng.normal(size=(300, 4))
        y = 5 * X[:, 2] + 0.1 * rng.normal(size=300)
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        assert int(np.argmax(tree.feature_importances_)) == 2
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_pure_node_stops_splitting(self):
        # perfectly separable: the tree needs exactly one split
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        tree = DecisionTreeClassifier(max_depth=5).fit(X, [0, 0, 1, 1])
        assert tree.node_count == 3  # root + two pure leaves

    def test_constant_target_single_node(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        tree = DecisionTreeRegressor().fit(X, np.ones(10))
        assert tree.node_count == 1


class TestBoostingSpecifics:
    def test_losses_decrease(self):
        rng = make_rng(4)
        X = rng.normal(size=(200, 3))
        y = X[:, 0] ** 2 + X[:, 1]
        gb = GradientBoostingRegressor(n_estimators=30).fit(X, y)
        assert gb.train_losses_[-1] < gb.train_losses_[0]

    def test_staged_predict_shape(self):
        rng = make_rng(5)
        X = rng.normal(size=(50, 2))
        gb = GradientBoostingRegressor(n_estimators=5).fit(X, X[:, 0])
        assert gb.staged_predict(X).shape == (5, 50)

    def test_subsample(self):
        rng = make_rng(6)
        X = rng.normal(size=(100, 2))
        gb = GradientBoostingRegressor(n_estimators=5, subsample=0.5).fit(X, X[:, 0])
        assert len(gb.estimators_) == 5

    def test_multiclass_gb(self):
        rng = make_rng(7)
        X = rng.normal(size=(200, 3))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        gb = GradientBoostingClassifier(n_estimators=10).fit(X, y)
        assert accuracy(y, gb.predict(X)) > 0.85

    def test_multiclass_hist(self):
        rng = make_rng(8)
        X = rng.normal(size=(200, 3))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        gb = HistGradientBoostingClassifier(n_estimators=15).fit(X, y)
        assert accuracy(y, gb.predict(X)) > 0.85

    def test_hist_importances(self):
        rng = make_rng(9)
        X = rng.normal(size=(200, 4))
        y = 4 * X[:, 1]
        model = HistGradientBoostingRegressor(n_estimators=10).fit(X, y)
        assert int(np.argmax(model.feature_importances_)) == 1


class TestMultiOutput:
    def test_predicts_all_outputs(self):
        rng = make_rng(10)
        X = rng.normal(size=(150, 4))
        Y = np.column_stack([X[:, 0], -X[:, 1], X[:, 2] ** 2])
        mo = MultiOutputGradientBoosting(n_estimators=25).fit(X, Y)
        pred = mo.predict(X)
        assert pred.shape == (150, 3)
        for j in range(3):
            assert r2_score(Y[:, j], pred[:, j]) > 0.6

    def test_1d_target_promoted(self):
        rng = make_rng(11)
        X = rng.normal(size=(50, 2))
        mo = MultiOutputGradientBoosting(n_estimators=5).fit(X, X[:, 0])
        assert mo.predict(X).shape == (50, 1)

    def test_row_mismatch(self):
        with pytest.raises(ModelError):
            MultiOutputGradientBoosting().fit(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_predict_before_fit(self):
        with pytest.raises(ModelError):
            MultiOutputGradientBoosting().predict(np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "backbone", [MultiOutputGradientBoosting, MultiOutputHistGradientBoosting]
    )
    def test_zero_outputs_rejected(self, backbone):
        with pytest.raises(ModelError, match="k >= 1"):
            backbone(n_estimators=3).fit(np.zeros((5, 2)), np.zeros((5, 0)))

    @pytest.mark.parametrize(
        "backbone", [MultiOutputGradientBoosting, MultiOutputHistGradientBoosting]
    )
    def test_predict_rejects_other_feature_counts(self, backbone):
        rng = make_rng(12)
        X = rng.normal(size=(40, 5))
        mo = backbone(n_estimators=5).fit(X[:, :3], X[:, 3:])
        assert mo.predict(X[:, :3]).shape == (40, 2)
        for width in (2, 5):
            with pytest.raises(ModelError, match="fitted on 3"):
                mo.predict(X[:, :width])

    def test_output_ensembles_match_the_joint_predict(self):
        rng = make_rng(13)
        X = rng.integers(0, 2, size=(15, 30)).astype(float)
        Y = rng.uniform(size=(15, 4))
        mo = MultiOutputGradientBoosting(n_estimators=10).fit(X, Y)
        joint = mo.predict(X)
        for j, gb in enumerate(mo.estimators_):
            assert np.array_equal(gb.predict(X), joint[:, j])
            assert np.array_equal(gb.staged_predict(X)[-1], joint[:, j])
        assert mo.training_cost_ == sum(gb.training_cost_ for gb in mo.estimators_)

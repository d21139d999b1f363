"""Classical ML baselines and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DatasetError, ModelError
from repro.mlbase import (
    AdaBoost,
    DecisionTree,
    KernelSVM,
    LinearSVM,
    StandardScaler,
    accuracy,
)


def _linear_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = (x @ np.array([1.5, -2.0, 0.5]) + 0.3 > 0).astype(int)
    return x, y


def _ring_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = ((x**2).sum(axis=1) > 1.2).astype(int)
    return x, y


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DatasetError):
            accuracy([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            accuracy([], [])


class TestScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(200, 4))
        z = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_safe(self):
        x = np.ones((10, 2))
        z = StandardScaler().fit_transform(x)
        assert np.isfinite(z).all()

    def test_use_before_fit_rejected(self):
        with pytest.raises(DatasetError):
            StandardScaler().transform(np.ones((2, 2)))


class TestLinearSVM:
    def test_separable_data(self):
        x, y = _linear_data()
        model = LinearSVM(epochs=60, rng=0).fit(x[:200], y[:200])
        assert accuracy(y[200:], model.predict(x[200:])) > 0.9

    def test_use_before_fit_rejected(self):
        with pytest.raises(ModelError):
            LinearSVM().predict(np.ones((2, 3)))

    def test_decision_function_sign_matches_predict(self):
        x, y = _linear_data()
        model = LinearSVM(epochs=30, rng=0).fit(x, y)
        scores = model.decision_function(x)
        np.testing.assert_array_equal(model.predict(x), (scores >= 0).astype(int))


class TestKernelSVM:
    def test_nonlinear_data(self):
        x, y = _ring_data()
        model = KernelSVM(gamma=1.0, epochs=60, rng=0).fit(x[:300], y[:300])
        assert accuracy(y[300:], model.predict(x[300:])) > 0.85

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ModelError):
            KernelSVM(gamma=0.0)


class TestDecisionTree:
    def test_fits_axis_aligned_rule(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 2))
        y = (x[:, 0] > 0.3).astype(int)
        tree = DecisionTree(max_depth=2).fit(x, y)
        assert accuracy(y, tree.predict(x)) > 0.98

    def test_depth_respected(self):
        x, y = _ring_data(200)
        tree = DecisionTree(max_depth=3).fit(x, y)
        assert tree.depth() <= 3

    def test_sample_weights_shift_decision(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        heavy_on_class1 = np.array([0.1, 0.1, 10.0, 10.0])
        tree = DecisionTree(max_depth=1).fit(x, y, weights=heavy_on_class1)
        assert tree.predict(np.array([[2.5]]))[0] == 1

    def test_pure_node_stops(self):
        x = np.ones((10, 2))
        y = np.ones(10, dtype=int)
        tree = DecisionTree().fit(x, y)
        assert tree.depth() == 0

    def test_proba_in_unit_interval(self):
        x, y = _ring_data(100)
        tree = DecisionTree(max_depth=4).fit(x, y)
        proba = tree.predict_proba(x)
        assert ((proba >= 0) & (proba <= 1)).all()


class TestAdaBoost:
    def test_beats_single_stump_on_ring(self):
        x, y = _ring_data()
        xtr, ytr, xte, yte = x[:300], y[:300], x[300:], y[300:]
        stump = DecisionTree(max_depth=1).fit(xtr, ytr)
        boost = AdaBoost(n_estimators=40, max_depth=1).fit(xtr, ytr)
        assert accuracy(yte, boost.predict(xte)) > accuracy(
            yte, stump.predict(xte)
        )

    def test_use_before_fit_rejected(self):
        with pytest.raises(ModelError):
            AdaBoost().predict(np.ones((2, 2)))

    def test_perfect_weak_learner_early_stop(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        boost = AdaBoost(n_estimators=50, max_depth=1).fit(x, y)
        assert len(boost.estimators_) < 50
        assert accuracy(y, boost.predict(x)) == 1.0


@given(seed=st.integers(0, 30))
@settings(max_examples=10, deadline=None)
def test_tree_training_accuracy_at_least_majority(seed):
    """A fitted tree never does worse than the majority class on its own
    training data (depth >= 1, deterministic splits)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(60, 3))
    y = rng.integers(0, 2, size=60)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    tree = DecisionTree(max_depth=4).fit(x, y)
    majority = max(y.mean(), 1 - y.mean())
    assert accuracy(y, tree.predict(x)) >= majority - 1e-12

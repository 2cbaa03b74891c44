"""Unit tests for the gradient-boosted trees model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.gbt import GradientBoostedTrees
from repro.costmodel.tree import RegressionTree


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _friedman_like(rng, n=300):
    X = rng.random((n, 5))
    y = 2 * X[:, 0] + np.sin(4 * X[:, 1]) + 0.5 * X[:, 2] * X[:, 3]
    return X, y


class TestFitPredict:
    def test_reduces_error_versus_mean_predictor(self, rng):
        X, y = _friedman_like(rng)
        model = GradientBoostedTrees(n_estimators=40, max_depth=4, seed=1).fit(X, y)
        mse_model = np.mean((model.predict(X) - y) ** 2)
        mse_mean = np.mean((np.mean(y) - y) ** 2)
        assert mse_model < 0.2 * mse_mean

    def test_generalises_to_held_out_data(self, rng):
        X, y = _friedman_like(rng, n=400)
        X_train, y_train = X[:300], y[:300]
        X_test, y_test = X[300:], y[300:]
        model = GradientBoostedTrees(n_estimators=60, max_depth=4, seed=1).fit(X_train, y_train)
        mse = np.mean((model.predict(X_test) - y_test) ** 2)
        assert mse < 0.5 * np.var(y_test)

    def test_more_trees_do_not_hurt_training_fit(self, rng):
        X, y = _friedman_like(rng)
        small = GradientBoostedTrees(n_estimators=5, early_stopping_rounds=None, seed=0).fit(X, y)
        large = GradientBoostedTrees(n_estimators=60, early_stopping_rounds=None, seed=0).fit(X, y)
        mse_small = np.mean((small.predict(X) - y) ** 2)
        mse_large = np.mean((large.predict(X) - y) ** 2)
        assert mse_large <= mse_small + 1e-9

    def test_ranking_quality_on_monotone_target(self, rng):
        X = rng.random((200, 3))
        y = 3 * X[:, 0]
        model = GradientBoostedTrees(n_estimators=30, seed=0).fit(X, y)
        pred = model.predict(X)
        corr = np.corrcoef(pred, y)[0, 1]
        assert corr > 0.9

    def test_early_stopping_limits_trees(self, rng):
        X = rng.random((50, 2))
        y = np.full(50, 3.0)  # constant: no improvement possible after round 1
        model = GradientBoostedTrees(n_estimators=50, early_stopping_rounds=3, seed=0).fit(X, y)
        assert model.n_trees <= 5

    def test_deterministic_given_seed(self, rng):
        X, y = _friedman_like(rng)
        a = GradientBoostedTrees(n_estimators=10, seed=3).fit(X, y).predict(X)
        b = GradientBoostedTrees(n_estimators=10, seed=3).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_single_sample_pair(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, 2.0])
        model = GradientBoostedTrees(n_estimators=5, min_samples_leaf=1, subsample=1.0).fit(X, y)
        assert np.all(np.isfinite(model.predict(X)))


def walk(tree, X):
    """Scalar oracle: route each row through the tree's node arrays one by one."""
    out = np.empty(len(X))
    for r, row in enumerate(X):
        node = 0
        while tree._node_feature[node] >= 0:
            go_left = row[tree._node_feature[node]] <= tree._node_threshold[node]
            node = tree._node_left[node] if go_left else tree._node_right[node]
        out[r] = tree._node_value[node]
    return out


def sequential_sum(model, X, tree_predict):
    """The ensemble prediction accumulated tree by tree, in tree order."""
    out = np.full(len(X), model._base_prediction)
    for tree in model._trees:
        out += model.learning_rate * tree_predict(tree, X)
    return out


def assert_packed_equals_sequential(model, X):
    packed = model.predict(X)
    assert np.array_equal(packed, sequential_sum(model, X, RegressionTree.predict))
    assert np.array_equal(packed, sequential_sum(model, X, walk))


class TestPackedEnsemble:
    """The packed all-trees descent must equal the per-tree sequential sum."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_several_seeds(self, seed):
        X, y = _friedman_like(np.random.default_rng(seed), n=200)
        model = GradientBoostedTrees(n_estimators=30, max_depth=5, seed=seed).fit(X, y)
        assert model.n_trees == 30
        held_out = np.random.default_rng(100 + seed).random((64, 5))
        assert_packed_equals_sequential(model, X)
        assert_packed_equals_sequential(model, held_out)

    def test_early_stopped_ensemble(self, rng):
        X = rng.random((60, 3))
        y = np.where(X[:, 0] > 0.5, 1.0, 0.0)
        model = GradientBoostedTrees(
            n_estimators=200, early_stopping_rounds=2, min_samples_leaf=1, seed=0
        ).fit(X, y)
        assert 1 < model.n_trees < 200
        assert_packed_equals_sequential(model, rng.random((40, 3)))

    def test_constant_target_single_leaf_trees(self, rng):
        X = rng.random((40, 4))
        model = GradientBoostedTrees(n_estimators=8, seed=0).fit(X, np.full(40, 2.5))
        assert all(tree._node_value.size == 1 for tree in model._trees)
        assert_packed_equals_sequential(model, X)

    def test_stumps(self, rng):
        X, y = _friedman_like(rng, n=150)
        model = GradientBoostedTrees(n_estimators=20, max_depth=1, seed=4).fit(X, y)
        assert all(tree._node_value.size <= 3 for tree in model._trees)
        assert_packed_equals_sequential(model, X)

    def test_tied_feature_values(self, rng):
        X = np.round(rng.random((120, 4)) * 3) / 3
        y = X[:, 0] - 2 * X[:, 1] + 0.05 * rng.normal(size=120)
        model = GradientBoostedTrees(n_estimators=25, seed=1).fit(X, y)
        # Rows sitting exactly on the fitted thresholds' neighbouring values.
        assert_packed_equals_sequential(model, np.round(rng.random((50, 4)) * 3) / 3)

    def test_mixed_depth_trees(self, rng):
        # Residuals shrink as boosting proceeds, so later trees stop earlier
        # than the first: the packed descent must leave finished rows alone.
        X, y = _friedman_like(rng, n=80)
        model = GradientBoostedTrees(
            n_estimators=40, max_depth=6, min_samples_leaf=8, seed=2
        ).fit(X, y)
        assert len({tree._depth for tree in model._trees}) > 1
        assert_packed_equals_sequential(model, X)


class TestTrainingLossInvariant:
    """Without row subsampling, no boosting round raises the training loss.

    Each tree fits the residuals by least squares on every row, and a leaf
    that adds ``learning_rate`` times its mean residual (``0 < lr < 2``)
    cannot increase its rows' squared error, whatever split was chosen.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 40),
        d=st.integers(1, 6),
        levels=st.integers(1, 4),
        max_depth=st.integers(1, 5),
        min_samples_leaf=st.integers(1, 3),
        colsample=st.sampled_from([0.4, 0.7, 1.0]),
        learning_rate=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
    )
    def test_loss_never_increases(
        self, seed, n, d, levels, max_depth, min_samples_leaf, colsample, learning_rate
    ):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n, d)) / levels  # tied values
        y = np.round(rng.normal(size=n) + X.sum(axis=1), 2)
        model = GradientBoostedTrees(
            n_estimators=12, learning_rate=learning_rate, max_depth=max_depth,
            min_samples_leaf=min_samples_leaf, subsample=1.0, colsample=colsample,
            early_stopping_rounds=None, seed=seed,
        ).fit(X, y)
        assert model.n_trees == 12
        # The fit's own running prediction, tree by tree.
        predictions = np.full(n, model._base_prediction)
        loss = float(np.mean((y - predictions) ** 2))
        for tree in model._trees:
            predictions += model.learning_rate * tree.predict(X)
            next_loss = float(np.mean((y - predictions) ** 2))
            assert next_loss <= loss + 1e-12 * max(1.0, loss)
            loss = next_loss


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.zeros((1, 2)))

    @pytest.mark.parametrize("width", [2, 7])
    def test_predict_rejects_wrong_width(self, rng, width):
        model = GradientBoostedTrees(n_estimators=5, seed=0)
        model.fit(rng.random((40, 3)), rng.random(40))
        assert model.n_features == 3
        with pytest.raises(ValueError, match="3"):
            model.predict(rng.random((4, width)))

    def test_predict_zero_rows(self, rng):
        model = GradientBoostedTrees(n_estimators=5, seed=0)
        model.fit(rng.random((40, 3)), rng.random(40))
        out = model.predict(np.zeros((0, 3)))
        assert out.shape == (0,) and out.dtype == np.float64
        with pytest.raises(ValueError):
            model.predict(np.zeros((0, 7)))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(np.zeros((0, 2)), np.zeros(0))

    def test_bad_subsample_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(subsample=0.0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(colsample=1.5)

    def test_bad_n_estimators_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=0)

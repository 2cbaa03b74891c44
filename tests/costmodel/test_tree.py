"""Unit tests for the regression tree weak learner."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.gbt import GradientBoostedTrees
from repro.costmodel.tree import RegressionTree
from repro.experiments.operator_suite import representative_dag
from repro.hardware.simulator import LatencySimulator
from repro.hardware.target import cpu_target
from repro.tensor.features import batch_features
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.sketch import generate_sketches


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def node_arrays(tree):
    return (
        tree._node_feature,
        tree._node_threshold,
        tree._node_left,
        tree._node_right,
        tree._node_value,
    )


def best_split_reference(tree, X, y):
    """Per-feature split search over one node's rows (the pre-presort algorithm).

    Sorts every candidate feature of ``X`` afresh and scans its prefix sums;
    candidate features come from ``tree``'s RNG, as in
    :meth:`RegressionTree._best_split`.
    """
    n_samples, n_features = X.shape
    total_sum = float(np.sum(y))
    total_sq = float(np.sum(y * y))
    base_sse = total_sq - total_sum * total_sum / n_samples

    best_feature, best_threshold, best_gain = -1, 0.0, 0.0
    for feature in tree._candidate_features(n_features):
        values = X[:, feature]
        order = np.argsort(values, kind="mergesort")
        v_sorted = values[order]
        y_sorted = y[order]

        left_count = np.arange(1, n_samples)
        left_sum = np.cumsum(y_sorted)[:-1]
        left_sq = np.cumsum(y_sorted * y_sorted)[:-1]
        right_count = n_samples - left_count
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq

        sse = (
            left_sq
            - left_sum * left_sum / left_count
            + right_sq
            - right_sum * right_sum / right_count
        )
        gains = base_sse - sse

        # Valid split positions: both children big enough and distinct
        # adjacent feature values (otherwise the threshold is degenerate).
        valid = (
            (left_count >= tree.min_samples_leaf)
            & (right_count >= tree.min_samples_leaf)
            & (v_sorted[:-1] < v_sorted[1:])
        )
        if not np.any(valid):
            continue
        gains = np.where(valid, gains, -np.inf)
        idx = int(np.argmax(gains))
        if gains[idx] > best_gain:
            best_gain = float(gains[idx])
            best_feature = int(feature)
            best_threshold = float((v_sorted[idx] + v_sorted[idx + 1]) / 2.0)

    return best_feature, best_threshold, best_gain


def grow_per_node(tree, X, y):
    """The pre-presort growth algorithm, as an independent oracle.

    A drop-in for :meth:`RegressionTree._grow`: recursive depth-first growth
    that hands every child its own ``X[mask]`` and searches it with
    :func:`best_split_reference` (a fresh per-feature sort per node),
    flattened in pre-order into ``tree``'s node arrays.
    """
    feature, threshold, left, right, value = [], [], [], [], []
    tree._depth = 0

    def grow(X, y, depth):
        idx = len(value)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(np.mean(y)))
        tree._depth = max(tree._depth, depth)
        if depth >= tree.max_depth or len(y) < 2 * tree.min_samples_leaf or np.allclose(y, y[0]):
            return idx
        f, t, gain = best_split_reference(tree, X, y)
        if f < 0 or gain < tree.min_gain:
            return idx
        mask = X[:, f] <= t
        feature[idx], threshold[idx] = f, t
        left[idx] = grow(X[mask], y[mask], depth + 1)
        right[idx] = grow(X[~mask], y[~mask], depth + 1)
        return idx

    grow(X, y, 0)
    tree._node_feature = np.asarray(feature, dtype=np.intp)
    tree._node_threshold = np.asarray(threshold, dtype=np.float64)
    tree._node_left = np.asarray(left, dtype=np.intp)
    tree._node_right = np.asarray(right, dtype=np.intp)
    tree._node_value = np.asarray(value, dtype=np.float64)


def tied_dataset(rng, n=120, d=6):
    """Coarsely quantised features (many ties) and a noisy piecewise target."""
    X = np.round(rng.random((n, d)) * 4) / 4
    X[:, 2] = X[:, 0]  # an exactly duplicated column
    y = np.where(X[:, 0] > 0.5, 2.0, -1.0) + X[:, 1] + 0.1 * rng.normal(size=n)
    return X, y


class TestFitPredict:
    def test_constant_target(self, rng):
        X = rng.random((20, 3))
        y = np.full(20, 7.0)
        pred = RegressionTree(max_depth=3).fit(X, y).predict(X)
        assert np.allclose(pred, 7.0)

    def test_single_split_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        pred = RegressionTree(max_depth=1, min_samples_leaf=1).fit(X, y).predict(X)
        assert np.mean((pred - y) ** 2) < 0.05

    def test_deep_tree_fits_piecewise_target(self, rng):
        X = rng.random((200, 2))
        y = np.where(X[:, 0] > 0.5, 3.0, -1.0) + np.where(X[:, 1] > 0.3, 0.5, 0.0)
        pred = RegressionTree(max_depth=6, min_samples_leaf=2).fit(X, y).predict(X)
        assert np.mean((pred - y) ** 2) < 0.05

    def test_prediction_within_target_range(self, rng):
        X = rng.random((100, 4))
        y = rng.normal(size=100)
        pred = RegressionTree(max_depth=4).fit(X, y).predict(X)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    def test_min_samples_leaf_respected(self, rng):
        X = rng.random((10, 1))
        y = rng.random(10)
        tree = RegressionTree(max_depth=10, min_samples_leaf=5).fit(X, y)
        # With a leaf minimum of 5 and 10 samples, at most one split can happen,
        # so there are at most 2 distinct predictions.
        assert len(np.unique(np.round(tree.predict(X), 12))) <= 2

    def test_duplicate_feature_values_handled(self):
        X = np.zeros((30, 2))
        y = np.arange(30, dtype=float)
        pred = RegressionTree(max_depth=3).fit(X, y).predict(X)
        assert np.allclose(pred, np.mean(y))

    def test_max_features_subsampling(self, rng):
        X = rng.random((50, 8))
        y = X[:, 0] * 2.0
        tree = RegressionTree(max_depth=4, max_features=2, rng=rng)
        pred = tree.fit(X, y).predict(X)
        assert np.all(np.isfinite(pred))


class TestPresortedGrowth:
    """Presort-once growth must grow exactly the trees per-node sorting grows."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_features", [None, 3])
    def test_matches_per_node_oracle(self, seed, max_features):
        X, y = tied_dataset(np.random.default_rng(seed))

        def fresh():
            return RegressionTree(
                max_depth=5, min_samples_leaf=2, max_features=max_features,
                rng=np.random.default_rng(seed),
            )

        tree = fresh().fit(X, y)
        expected = fresh()
        grow_per_node(expected, X, y)
        for got, want in zip(node_arrays(tree), node_arrays(expected)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    def test_matches_legacy_path(self, seed, min_samples_leaf, monkeypatch):
        """``fit`` grows the tree the per-node (legacy) algorithm grows."""
        X, y = tied_dataset(np.random.default_rng(seed), n=90, d=8)

        def fit():
            return RegressionTree(
                max_depth=6, min_samples_leaf=min_samples_leaf, max_features=5,
                rng=np.random.default_rng(seed),
            ).fit(X, y)

        fast = fit()
        monkeypatch.setattr(RegressionTree, "_grow", grow_per_node)
        legacy = fit()
        assert fast._node_value.size > 7  # a real tree, not a stump
        for got, want in zip(node_arrays(fast), node_arrays(legacy)):
            assert np.array_equal(got, want)
        assert fast._depth == legacy._depth
        assert np.array_equal(fast.predict(X), legacy.predict(X))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_boosted_trees_match_legacy_path(self, seed, monkeypatch):
        """Every boosted tree matches per-node growth, with both samplers drawing."""
        X, y = tied_dataset(np.random.default_rng(seed), n=150, d=10)

        def fit():
            # Row subsampling and colsample < 1 (max_features) both on.
            return GradientBoostedTrees(
                n_estimators=25, subsample=0.7, colsample=0.6, max_depth=5, seed=seed
            ).fit(X, y)

        fast = fit()
        monkeypatch.setattr(RegressionTree, "_grow", grow_per_node)
        legacy = fit()
        assert fast.n_trees == legacy.n_trees
        for fast_tree, legacy_tree in zip(fast._trees, legacy._trees):
            for got, want in zip(node_arrays(fast_tree), node_arrays(legacy_tree)):
                assert np.array_equal(got, want)
        assert np.array_equal(fast.predict(X), legacy.predict(X))


def assert_grows_like_oracle(X, y, seed=0, **params):
    """Fit a tree and grow the per-node oracle from the same RNG; compare exactly."""
    tree = RegressionTree(rng=np.random.default_rng(seed), **params).fit(X, y)
    expected = RegressionTree(rng=np.random.default_rng(seed), **params)
    grow_per_node(expected, X, y)
    for got, want in zip(node_arrays(tree), node_arrays(expected)):
        assert np.array_equal(got, want)
    assert tree._depth == expected._depth
    # Every node drew its candidates from the same stream.
    assert tree._rng.bit_generator.state == expected._rng.bit_generator.state
    return tree


def assert_boosts_like_oracle(X, y, monkeypatch, **params):
    """Fit a boosted ensemble with and without per-node growth; compare exactly."""
    fast = GradientBoostedTrees(**params).fit(X, y)
    with monkeypatch.context() as patch:
        patch.setattr(RegressionTree, "_grow", grow_per_node)
        legacy = GradientBoostedTrees(**params).fit(X, y)
    assert fast.n_trees == legacy.n_trees
    for fast_tree, legacy_tree in zip(fast._trees, legacy._trees):
        for got, want in zip(node_arrays(fast_tree), node_arrays(legacy_tree)):
            assert np.array_equal(got, want)
    assert np.array_equal(fast.predict(X), legacy.predict(X))
    return fast


def constant_columns(X):
    return ~(X[1:] != X[:1]).any(axis=0)


class TestLiveColumnGrowth:
    """Growth that skips constant columns and invalid positions matches the oracle."""

    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_features", [None, 2, 5])
    def test_globally_constant_columns(self, min_samples_leaf, max_features):
        X, y = tied_dataset(np.random.default_rng(min_samples_leaf), n=80, d=7)
        X[:, 1] = 0.5
        X[:, 4] = -3.0
        X[:, 6] = 0.0
        assert constant_columns(X).sum() == 3
        tree = assert_grows_like_oracle(
            X, y, seed=min_samples_leaf, max_depth=6,
            min_samples_leaf=min_samples_leaf, max_features=max_features,
        )
        if max_features is None:
            assert tree._node_value.size > 7
        assert not np.isin(tree._node_feature, [1, 4, 6]).any()

    def test_columns_constant_only_within_a_row_subsample(self, monkeypatch):
        rng = np.random.default_rng(11)
        X, y = tied_dataset(rng, n=60, d=8)
        # Columns 3..7 are zero except on two rows each: a 70% row subsample
        # often misses both, and the column is constant over that tree's rows.
        for col in range(3, 8):
            X[:, col] = 0.0
            X[rng.choice(60, size=2, replace=False), col] = 1.0
        assert not constant_columns(X).any()
        fitted = []
        fit = RegressionTree.fit

        def recording_fit(tree, X_tree, y_tree):
            fitted.append(constant_columns(X_tree).sum())
            return fit(tree, X_tree, y_tree)

        with monkeypatch.context() as patch:
            patch.setattr(RegressionTree, "fit", recording_fit)
            assert_boosts_like_oracle(
                X, y, monkeypatch, n_estimators=25, subsample=0.7, colsample=0.5,
                min_samples_leaf=1, seed=3,
            )
        assert max(fitted) > 0  # some trees saw subsample-constant columns

    def test_drawing_only_constant_columns_leaves_a_leaf(self):
        rng = np.random.default_rng(5)
        X = np.zeros((40, 4))
        X[:, 0] = rng.random(40)
        y = np.where(X[:, 0] > 0.5, 1.0, -1.0) + 0.1 * rng.normal(size=40)
        # One candidate per node out of one live and three constant columns.
        roots = set()
        for seed in range(16):
            tree = assert_grows_like_oracle(X, y, seed=seed, max_depth=3, max_features=1)
            roots.add(int(tree._node_feature[0]))
            if tree._node_feature[0] < 0:
                assert tree._node_value.size == 1
        assert roots == {-1, 0}  # some roots drew a constant column, some the live one

    @pytest.mark.parametrize("max_features", [None, 2])
    def test_all_columns_constant(self, max_features):
        X = np.full((30, 3), 2.0)
        y = np.random.default_rng(0).normal(size=30)
        tree = assert_grows_like_oracle(X, y, max_depth=4, max_features=max_features)
        assert tree._node_value.size == 1

    def test_sampled_gemm_schedules(self, monkeypatch):
        """Feature rows of sampled GEMM-M schedules against simulated throughput."""
        target = cpu_target()
        dag = representative_dag("GEMM-M")
        sketches = generate_sketches(
            dag, target.sketch_spatial_levels, target.sketch_reduction_levels
        )
        rng = np.random.default_rng(0)
        schedules = [
            schedule
            for sketch in sketches
            for schedule in sample_initial_schedules(sketch, 16, rng, target.unroll_depths)
        ]
        X = batch_features(schedules)
        y = dag.flops / LatencySimulator(target).batch_latency(schedules)
        assert constant_columns(X).sum() > X.shape[1] // 2
        model = assert_boosts_like_oracle(X, y / y.max(), monkeypatch)
        assert model.n_trees > 1

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 24),
        d=st.integers(1, 6),
        levels=st.integers(1, 4),
        min_samples_leaf=st.integers(1, 4),
        max_depth=st.integers(1, 5),
    )
    def test_few_valued_matrices(self, data, n, d, levels, min_samples_leaf, max_depth):
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n, d)).astype(np.float64)
        constant = data.draw(st.lists(st.booleans(), min_size=d, max_size=d), label="constant")
        X[:, constant] = rng.integers(0, levels)
        y = np.round(rng.normal(size=n), 1)
        max_features = data.draw(st.sampled_from([None, *range(1, d + 1)]), label="max_features")
        assert_grows_like_oracle(
            X, y, seed=seed, max_depth=max_depth,
            min_samples_leaf=min_samples_leaf, max_features=max_features,
        )


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((2, 2)))

    @pytest.mark.parametrize("width", [2, 7])
    def test_predict_rejects_wrong_width(self, rng, width):
        tree = RegressionTree(max_depth=3).fit(rng.random((30, 3)), rng.random(30))
        assert tree.n_features == 3
        with pytest.raises(ValueError, match="3"):
            tree.predict(rng.random((5, width)))

    def test_predict_zero_rows(self, rng):
        tree = RegressionTree(max_depth=3).fit(rng.random((30, 3)), rng.random(30))
        out = tree.predict(np.zeros((0, 3)))
        assert out.shape == (0,) and out.dtype == np.float64
        with pytest.raises(ValueError):
            tree.predict(np.zeros((0, 4)))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((0, 3)), np.zeros(0))

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            RegressionTree().fit(rng.random((5, 2)), rng.random(4))

    def test_one_dimensional_x_rejected(self, rng):
        with pytest.raises(ValueError):
            RegressionTree().fit(rng.random(5), rng.random(5))

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)

"""Gradient-boosted regression trees (squared loss).

A minimal XGBoost-style booster: each round fits a
:class:`~repro.costmodel.tree.RegressionTree` to the residuals of the current
ensemble, with shrinkage and row subsampling.  It is intentionally small —
the cost model only needs to rank a few hundred schedules per round — but the
training loop, early stopping and feature subsampling mirror the structure of
the real thing so the ablation experiments behave comparably.

While boosting, each new tree predicts the training rows from its own node
arrays.  At the end of :meth:`GradientBoostedTrees.fit` the whole ensemble
is packed, once, into one set of flat node arrays
(:class:`~repro.costmodel.tree.PackedTrees`, leaf values pre-multiplied by
the learning rate), so :meth:`predict` routes a batch through every tree at
once in ``max_depth`` vectorised steps rather than one tree at a time.  The
per-tree contributions are then added in tree order with a sequential
``cumsum``, which keeps the result bit-identical to accumulating
``learning_rate * tree.predict(X)`` tree by tree.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.costmodel.tree import PackedTrees, RegressionTree

__all__ = ["GradientBoostedTrees"]


class GradientBoostedTrees:
    """Squared-loss gradient boosting.

    Parameters
    ----------
    n_estimators:
        Maximum number of boosting rounds.
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth / min_samples_leaf:
        Weak-learner tree parameters.
    subsample:
        Fraction of rows sampled (without replacement) per boosting round.
    colsample:
        Fraction of features examined at each split.
    early_stopping_rounds:
        Stop when the training loss has not improved for this many rounds
        (``None`` disables early stopping).
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.2,
        max_depth: int = 6,
        min_samples_leaf: int = 2,
        subsample: float = 0.9,
        colsample: float = 0.9,
        early_stopping_rounds: Optional[int] = 10,
        seed: int = 0,
    ):
        if not (0.0 < subsample <= 1.0) or not (0.0 < colsample <= 1.0):
            raise ValueError("subsample and colsample must be in (0, 1]")
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.colsample = colsample
        self.early_stopping_rounds = early_stopping_rounds
        self.seed = seed
        self._trees: List[RegressionTree] = []
        self._base_prediction = 0.0
        self._packed: Optional[PackedTrees] = None

    # ------------------------------------------------------------------ #
    @property
    def n_trees(self) -> int:
        return len(self._trees)

    @property
    def n_features(self) -> Optional[int]:
        """Width of the feature matrix the model was fitted on (``None`` before)."""
        return None if self._packed is None else self._packed.n_features

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and aligned with y")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")

        rng = np.random.default_rng(self.seed)
        n_samples, n_features = X.shape
        self._trees = []
        self._base_prediction = float(np.mean(y))
        predictions = np.full(n_samples, self._base_prediction, dtype=np.float64)

        max_features = max(1, int(round(self.colsample * n_features)))
        best_loss = float("inf")
        rounds_since_best = 0

        for _ in range(self.n_estimators):
            residuals = y - predictions

            if self.subsample < 1.0:
                sample_size = max(2, int(round(self.subsample * n_samples)))
                idx = rng.choice(n_samples, size=min(sample_size, n_samples), replace=False)
            else:
                idx = np.arange(n_samples)

            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features if max_features < n_features else None,
                rng=rng,
            )
            tree.fit(X[idx], residuals[idx])
            self._trees.append(tree)
            predictions += self.learning_rate * tree.predict(X)

            loss = float(np.mean((y - predictions) ** 2))
            if loss < best_loss - 1e-12:
                best_loss = loss
                rounds_since_best = 0
            else:
                rounds_since_best += 1
                if (
                    self.early_stopping_rounds is not None
                    and rounds_since_best >= self.early_stopping_rounds
                ):
                    break

        self._packed = PackedTrees.pack(self._trees, scale=self.learning_rate)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._packed is None:
            raise RuntimeError("model is not fitted")
        contributions = self._packed.leaf_values(X)
        base = np.full((contributions.shape[0], 1), self._base_prediction, dtype=np.float64)
        # Sequential accumulation in tree order: ``sum`` would reorder the
        # additions and drift from the tree-by-tree result in the last ulp.
        return np.cumsum(np.hstack([base, contributions]), axis=1)[:, -1]

"""Binary regression tree with exact greedy splits.

This is the weak learner of the gradient-boosted cost model.  Splits minimise
the squared-error criterion; split search is vectorised with NumPy prefix
sums over the sorted feature values, so fitting stays fast for the few
thousand samples collected during a tuning run.

Growth sorts once per tree: :meth:`RegressionTree.fit` stable-argsorts every
*live* column of the training matrix up front, and each node hands its
children their share of that per-feature order through a stable boolean
partition.  Filtering a stable sort leaves the order a fresh stable sort of
the node's rows would give, so split search needs no per-node ``argsort`` and
grows the same trees, bit for bit, as sorting every node afresh.

Growth also skips work that can never produce a split, without changing a
single tree:

* A column constant over the tree's rows is constant in every node, so it
  never has two distinct adjacent values.  Such columns (most of a tuning
  run's feature columns) are left out of the presort, the partitions and the
  split search.  Each node still draws its candidate features from all
  columns, so the RNG stream is unchanged, and then keeps the live ones; a
  node that drew only constant columns is a leaf, as every gain would be
  ``-inf``.
* Each node evaluates the split gain only at the sorted positions whose
  adjacent values differ, the only positions that give a threshold.  The
  prefix sums still run over every sorted row, since their sequential order
  is what the gains must reproduce.

Prediction descends flat node arrays: feature, threshold, child indices and
leaf value, with every leaf looping back to itself.  A whole feature matrix
is routed through any number of trees at once, as an ``(n_rows, n_trees)``
node matrix advanced one level per NumPy step, ``depth`` steps in all.  A
single tree descends its own node arrays (leaves turned into self-loops on
the fly); the gradient-boosted ensemble packs all its trees once into one
set of arrays (:class:`PackedTrees`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["PackedTrees", "RegressionTree"]


class PackedTrees(NamedTuple):
    """Several trees' nodes concatenated into flat arrays for batched descent.

    Leaves carry feature 0 and point both children at themselves, so a row
    that reaches a leaf stays there and the descent needs no active-row mask.
    """

    feature: np.ndarray    #: split feature per node
    threshold: np.ndarray  #: split threshold per node (rows ``<=`` go left)
    left: np.ndarray       #: left child index per node
    right: np.ndarray      #: right child index per node
    value: np.ndarray      #: leaf value per node (times the pack's scale)
    roots: np.ndarray      #: root node index of every tree
    depth: int             #: deepest leaf of any tree
    n_features: int        #: feature-matrix width the trees were fitted on

    @classmethod
    def pack(cls, trees: Sequence["RegressionTree"], scale: float = 1.0) -> "PackedTrees":
        """Concatenate fitted ``trees``, with every leaf value multiplied by ``scale``."""
        sizes = [len(tree._node_value) for tree in trees]
        roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        feature = np.concatenate([tree._node_feature for tree in trees])
        left = np.concatenate([tree._node_left + root for tree, root in zip(trees, roots)])
        right = np.concatenate([tree._node_right + root for tree, root in zip(trees, roots)])
        leaves = np.nonzero(feature < 0)[0]
        feature[leaves] = 0
        left[leaves] = leaves
        right[leaves] = leaves
        return cls(
            feature=feature,
            threshold=np.concatenate([tree._node_threshold for tree in trees]),
            left=left,
            right=right,
            value=scale * np.concatenate([tree._node_value for tree in trees]),
            roots=roots,
            depth=max(tree._depth for tree in trees),
            n_features=trees[0].n_features,
        )

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(n_rows, n_trees)`` matrix of the leaf value each row reaches in each tree."""
        X = _feature_matrix(X, self.n_features)
        node = _descend(
            X, self.feature, self.threshold, self.left, self.right, self.roots, self.depth
        )
        return self.value[node]


def _feature_matrix(X: np.ndarray, n_features: int) -> np.ndarray:
    """``X`` as a C-contiguous float64 matrix ``n_features`` wide (else ``ValueError``)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    if X.shape[1] != n_features:
        raise ValueError(f"X has {X.shape[1]} features, but the model was fitted on {n_features}")
    return X


def _descend(X, feature, threshold, left, right, roots, depth) -> np.ndarray:
    """``(n_rows, n_trees)`` node each row of ``X`` reaches from each of ``roots``
    after ``depth`` levels, through node arrays whose leaves loop to themselves."""
    flat = X.ravel()
    row_start = (np.arange(X.shape[0], dtype=np.intp) * X.shape[1])[:, None]
    node = np.tile(roots, (X.shape[0], 1))
    for _ in range(depth):
        go_left = flat[row_start + feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return node


class RegressionTree:
    """CART-style regression tree (squared loss).

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root has depth 0).
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    min_gain:
        Minimum reduction of the sum of squared errors required to split.
    max_features:
        Number of candidate features examined at every split (``None`` = all);
        when set, features are subsampled with the provided RNG, which
        decorrelates the boosted ensemble.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 2,
        min_gain: float = 1e-12,
        max_features: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.max_features = max_features
        self._rng = rng or np.random.default_rng(0)
        self.n_features: Optional[int] = None

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features = X.shape[1]
        self._grow(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a whole feature matrix at once, descending the tree's own
        node arrays (no packing)."""
        if self.n_features is None:
            raise RuntimeError("tree is not fitted")
        X = _feature_matrix(X, self.n_features)
        leaf = self._node_feature < 0
        index = np.arange(len(leaf))
        node = _descend(
            X,
            np.where(leaf, 0, self._node_feature),
            self._node_threshold,
            np.where(leaf, index, self._node_left),
            np.where(leaf, index, self._node_right),
            np.zeros(1, dtype=np.intp),
            self._depth,
        )
        return self._node_value[node[:, 0]]

    # ------------------------------------------------------------------ #
    def _grow(self, X: np.ndarray, y: np.ndarray) -> None:
        """Grow the tree depth-first (left before right) into flat node arrays.

        Nodes are numbered in pre-order, in the order their split search
        draws candidate features from the RNG.  A leaf has feature ``-1`` and
        children ``-1``.  Each node works on ``rows`` (its training rows,
        ascending) and ``order`` (``(n_live, n_node)``: per live column, the
        same rows sorted by that column's value, stable).
        """
        features: list = []
        thresholds: list = []
        lefts: list = []
        rights: list = []
        values: list = []
        n_rows, n_features = X.shape
        XT = np.ascontiguousarray(X.T)
        # Row ``slot[f]`` of ``order`` holds column ``f``; -1 for a column
        # constant over the tree's rows.
        live = np.flatnonzero((XT[:, 1:] != XT[:, :1]).any(axis=1))
        slot = np.full(n_features, -1, dtype=np.intp)
        slot[live] = np.arange(len(live))
        goes_left = np.zeros(n_rows, dtype=bool)
        self._depth = 0
        # (rows, order, depth, the parent's child list to link into, parent)
        stack = [(np.arange(n_rows), np.argsort(XT[live], axis=1, kind="stable"), 0, None, -1)]
        while stack:
            rows, order, depth, link, parent = stack.pop()
            idx = len(values)
            if link is not None:
                link[parent] = idx
            y_node = y[rows]
            total_sum = float(y_node.sum())
            features.append(-1)
            thresholds.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            values.append(total_sum / len(rows))  # == np.mean(y_node), bit for bit
            self._depth = max(self._depth, depth)
            # ``np.allclose(y_node, y_node[0])`` for finite values.
            if (
                depth >= self.max_depth
                or len(rows) < 2 * self.min_samples_leaf
                or np.all(np.abs(y_node - y_node[0]) <= 1e-8 + 1e-5 * abs(y_node[0]))
            ):
                continue
            feature, threshold, gain = self._best_split(XT, y, y_node, total_sum, order, slot)
            if feature < 0 or gain < self.min_gain:
                continue

            features[idx] = feature
            thresholds[idx] = threshold
            left_of_row = XT[feature, rows] <= threshold
            goes_left[rows] = left_of_row
            in_left = goes_left[order].ravel()
            left_order = order.ravel().compress(in_left).reshape(len(order), -1)
            right_order = order.ravel().compress(~in_left).reshape(len(order), -1)
            # Pushed right first, so the whole left subtree is grown before it.
            stack.append((rows[~left_of_row], right_order, depth + 1, rights, idx))
            stack.append((rows[left_of_row], left_order, depth + 1, lefts, idx))
        self._node_feature = np.asarray(features, dtype=np.intp)
        self._node_threshold = np.asarray(thresholds, dtype=np.float64)
        self._node_left = np.asarray(lefts, dtype=np.intp)
        self._node_right = np.asarray(rights, dtype=np.intp)
        self._node_value = np.asarray(values, dtype=np.float64)

    def _candidate_features(self, n_features: int) -> np.ndarray:
        features = np.arange(n_features)
        if self.max_features is not None and self.max_features < n_features:
            features = self._rng.choice(n_features, size=self.max_features, replace=False)
        return features

    def _best_split(
        self,
        XT: np.ndarray,
        y: np.ndarray,
        y_node: np.ndarray,
        total_sum: float,
        order: np.ndarray,
        slot: np.ndarray,
    ):
        """Exact greedy split over all candidate features in one NumPy pass.

        ``order`` holds the node's rows presorted along every live column and
        ``slot`` maps a column to its row of ``order`` (-1 for a column
        constant over the tree's rows).  The live candidate columns are
        gathered already sorted and prefix-summed together (one ``(K, n)``
        pass instead of ``K`` per-feature sorts).  ``y_node`` is the node's
        targets in row order and ``total_sum`` their sum.

        Gains are computed only at the valid split positions: ``min_samples_leaf``
        rows on both sides and distinct adjacent values.  The first maximum in
        row-major (candidate, position) order is the split a per-feature scan
        picks (the first maximum of the first best feature).  Sums, gains and
        tie-breaking replicate a per-feature sort-and-scan of the node's rows
        over every drawn column bit for bit (the per-node oracle in the tree
        tests), so both grow identical trees.
        """
        n_samples = order.shape[1]
        total_sq = float((y_node * y_node).sum())
        base_sse = total_sq - total_sum * total_sum / n_samples
        # Draw from every column, so the RNG stream does not depend on which
        # columns are live, then keep the live draws in draw order: a
        # constant column has no valid position.
        features = self._candidate_features(len(XT))
        slots = slot[features]
        drawn_live = slots >= 0
        features = features[drawn_live]
        if not len(features):
            return -1, 0.0, 0.0
        sorted_rows = order[slots[drawn_live]]
        v_sorted = XT.take(sorted_rows + (features * XT.shape[1])[:, None])

        # Splitting after sorted position p sends p + 1 rows left; only the
        # positions in [lo, hi) leave min_samples_leaf rows on both sides, and
        # only those before a larger value give a threshold.  ``at`` counts
        # from ``lo``.
        lo, hi = self.min_samples_leaf - 1, n_samples - self.min_samples_leaf
        cand, at = (v_sorted[:, lo:hi] < v_sorted[:, lo + 1 : hi + 1]).nonzero()
        if not len(cand):
            return -1, 0.0, 0.0
        left_count = at + (lo + 1.0)
        right_count = (n_samples - lo - 1.0) - at
        # Prefix sums over every sorted row, in sequence: the sums a
        # per-feature scan computes.
        y_sorted = y.take(sorted_rows)
        left_sum = y_sorted.cumsum(axis=1)[:, lo:hi][cand, at]
        np.multiply(y_sorted, y_sorted, out=y_sorted)
        left_sq = y_sorted.cumsum(axis=1)[:, lo:hi][cand, at]

        # In place, operation for operation:
        # gains = base_sse - (left_sq - left_sum * left_sum / left_count
        #                     + right_sq - right_sum * right_sum / right_count)
        gains = left_sum * left_sum
        gains /= left_count
        np.subtract(left_sq, gains, out=gains)
        gains += np.subtract(total_sq, left_sq, out=left_sq)
        right_sum = np.subtract(total_sum, left_sum, out=left_sum)
        right_sum *= right_sum
        right_sum /= right_count
        gains -= right_sum
        np.subtract(base_sse, gains, out=gains)

        best = int(gains.argmax())
        if not gains[best] > 0.0:
            return -1, 0.0, 0.0
        k, idx = cand[best], lo + int(at[best])
        threshold = float((v_sorted[k, idx] + v_sorted[k, idx + 1]) / 2.0)
        return int(features[k]), threshold, float(gains[best])

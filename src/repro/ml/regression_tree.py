"""CART regression tree: the base learner for gradient boosting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ml.base import Estimator, as_float_array
from repro.ml.tree import _FlatTreeCache


@dataclass
class RegressionNode:
    """A node of a fitted regression tree."""

    n_samples: int
    value: float  # mean target of the training rows that reached here
    node_id: int
    feature: int | None = None
    threshold: float | None = None
    left: "RegressionNode | None" = None
    right: "RegressionNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTreeRegressor(_FlatTreeCache, Estimator):
    """Least-squares CART regressor.

    Splits minimize the children's total squared error, computed with
    cumulative sums over each feature's sort order.  ``apply`` returns
    per-row leaf ids so a boosting layer can re-estimate leaf values
    (Newton steps) without retraining.
    """

    def __init__(
        self,
        max_depth: int | None = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
    ):
        if min_samples_split < 2:
            raise ConfigurationError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ConfigurationError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.root_: RegressionNode | None = None
        self.n_features_ = 0
        self.n_leaves_ = 0

    def fit(self, X, y) -> "DecisionTreeRegressor":
        """Grow the tree on (X, y) by least-squares splitting."""
        X = as_float_array(X)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of samples")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        self._next_id = 0
        self.root_ = self._build(X, y, depth=0)
        self.n_leaves_ = self._next_id  # leaf ids are dense in [0, n_leaves)
        self._mark_fitted()
        return self

    def _new_leaf_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> RegressionNode:
        node = RegressionNode(
            n_samples=len(y), value=float(y.mean()), node_id=-1
        )
        if (
            len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or float(y.var()) == 0.0
        ):
            node.node_id = self._new_leaf_id()
            return node
        split = self._best_split(X, y)
        if split is None:
            node.node_id = self._new_leaf_id()
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
        n_samples = len(y)
        best: tuple[float, int, float] | None = None
        for feature in range(self.n_features_):
            order = np.argsort(X[:, feature], kind="stable")
            values = X[order, feature]
            targets = y[order]
            prefix_sum = np.cumsum(targets)
            prefix_sq = np.cumsum(targets**2)
            total_sum = prefix_sum[-1]
            total_sq = prefix_sq[-1]
            distinct = values[:-1] < values[1:]
            positions = np.nonzero(distinct)[0]
            positions = positions[
                (positions + 1 >= self.min_samples_leaf)
                & (n_samples - positions - 1 >= self.min_samples_leaf)
            ]
            if positions.size == 0:
                continue
            n_left = positions + 1
            n_right = n_samples - n_left
            left_sum = prefix_sum[positions]
            right_sum = total_sum - left_sum
            # SSE = sum(y^2) - (sum y)^2 / n, per side.
            sse = (
                prefix_sq[positions]
                - left_sum**2 / n_left
                + (total_sq - prefix_sq[positions])
                - right_sum**2 / n_right
            )
            index = int(np.argmin(sse))
            score = float(sse[index])
            if best is None or score < best[0] - 1e-12:
                position = positions[index]
                threshold = float((values[position] + values[position + 1]) / 2.0)
                best = (score, feature, threshold)
        if best is None:
            return None
        return best[1], best[2]

    # ------------------------------------------------------------------
    _node_payload = staticmethod(lambda node: node.node_id)

    def predict(self, X) -> np.ndarray:
        """Leaf value of each row."""
        self.check_fitted()
        X = as_float_array(X)
        flat = self._flat()
        # Values are read per call, not flattened: set_leaf_values
        # rewrites them after fit.
        values = np.array([node.value for node in flat.nodes])
        return values[flat.apply(X)]

    def apply(self, X) -> np.ndarray:
        """Leaf id of each row (ids dense in [0, n_leaves_))."""
        self.check_fitted()
        X = as_float_array(X)
        flat = self._flat()
        return flat.payload[flat.apply(X)]

    def set_leaf_values(self, values: dict[int, float]) -> None:
        """Overwrite leaf predictions (the boosting Newton step)."""
        self.check_fitted()

        def walk(node: RegressionNode) -> None:
            if node.is_leaf:
                if node.node_id in values:
                    node.value = values[node.node_id]
                return
            walk(node.left)
            walk(node.right)

        walk(self.root_)

"""Naive reference implementations that the fast kernels are tested against.

Each function here is the plain scalar form of an algorithm whose
library version is an array or bit-parallel kernel.  They are kept
deliberately simple and slow: a test passes only when the kernel gives
the same answer, bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

import numpy as np

from repro.ml.regression_tree import DecisionTreeRegressor
from repro.ml.tree import DecisionTreeClassifier, TreeNode


def levenshtein_dp(left: str, right: str) -> int:
    """Edit distance by the classic two-row dynamic program."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    if len(left) < len(right):
        left, right = right, left
    previous = list(range(len(right) + 1))
    for i, ch_left in enumerate(left):
        current = [i + 1]
        prev_diag = previous[0]
        for j, ch_right in enumerate(right, start=1):
            prev_j = previous[j]
            cost = prev_diag if ch_left == ch_right else prev_diag + 1
            cost = min(cost, prev_j + 1, current[j - 1] + 1)
            current.append(cost)
            prev_diag = prev_j
        previous = current
    return previous[-1]


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions * proportions))


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts[counts > 0] / total
    return float(-np.sum(proportions * np.log2(proportions)))


_SCALAR_CRITERIA = {"gini": _gini, "entropy": _entropy}


class ScalarDecisionTree(DecisionTreeClassifier):
    """CART with one impurity call per split position and per-row predict."""

    def _build(self, X, y, depth, rng):
        counts = np.bincount(y, minlength=len(self.classes_)).astype(np.float64)
        node = TreeNode(
            n_samples=len(y),
            class_counts=counts,
            depth=depth,
            impurity=_SCALAR_CRITERIA[self.criterion](counts),
        )
        if (
            node.impurity == 0.0
            or len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        split = self._best_split(X, y, counts, rng)
        if split is None:
            return node
        feature, threshold, left_mask = split
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[left_mask], y[left_mask], depth + 1, rng)
        node.right = self._build(X[~left_mask], y[~left_mask], depth + 1, rng)
        return node

    def _best_split(self, X, y, parent_counts, rng):
        n_samples, n_features = X.shape
        impurity_fn = _SCALAR_CRITERIA[self.criterion]
        candidates = rng.permutation(n_features)[: self._n_split_features()]
        best = None
        one_hot = np.zeros((n_samples, len(self.classes_)))
        one_hot[np.arange(n_samples), y] = 1.0
        for feature in candidates:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            cumulative = np.cumsum(one_hot[order], axis=0)
            positions = np.nonzero(sorted_values[:-1] < sorted_values[1:])[0]
            positions = positions[
                (positions + 1 >= self.min_samples_leaf)
                & (n_samples - positions - 1 >= self.min_samples_leaf)
            ]
            for position in positions:
                left_counts = cumulative[position]
                right_counts = parent_counts - left_counts
                n_left = position + 1
                n_right = n_samples - n_left
                weighted = (
                    n_left * impurity_fn(left_counts)
                    + n_right * impurity_fn(right_counts)
                ) / n_samples
                if best is None or weighted < best[0] - 1e-12:
                    threshold = (
                        sorted_values[position] + sorted_values[position + 1]
                    ) / 2.0
                    best = (weighted, int(feature), float(threshold))
        if best is None:
            return None
        _, feature, threshold = best
        return feature, threshold, X[:, feature] <= threshold

    def predict_proba(self, X):
        self.check_fitted()
        X = np.asarray(X, dtype=np.float64)
        return np.vstack([leaf_for(self.root_, row).proba() for row in X])


def leaf_for(root, row: np.ndarray):
    """The leaf one row reaches, walking from ``root`` node by node."""
    node = root
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def regressor_predict(tree: DecisionTreeRegressor, X: np.ndarray) -> np.ndarray:
    return np.array([leaf_for(tree.root_, row).value for row in X])


def regressor_apply(tree: DecisionTreeRegressor, X: np.ndarray) -> np.ndarray:
    return np.array([leaf_for(tree.root_, row).node_id for row in X], dtype=np.int64)


def connected_components(
    nodes: Iterable[Any], edges: Iterable[tuple[Any, Any]]
) -> set[frozenset]:
    """Components of an undirected graph by breadth-first search.

    Every edge endpoint is a node too, so ``nodes`` need only name the
    isolated ones.
    """
    adjacency: dict[Any, set[Any]] = {node: set() for node in nodes}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    seen: set[Any] = set()
    components = set()
    for start in adjacency:
        if start in seen:
            continue
        seen.add(start)
        component, queue = {start}, deque([start])
        while queue:
            for neighbour in adjacency[queue.popleft()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    component.add(neighbour)
                    queue.append(neighbour)
        components.add(frozenset(component))
    return components

"""CART decision-tree classifier, with an inspectable tree structure.

The tree structure is deliberately a first-class, walkable object
(:class:`TreeNode`): Falcon (Section 5.1, Figures 3-4 of the paper)
extracts *blocking rules* from the root-to-"No"-leaf branches of the trees
in a random forest, so the EM layer needs direct access to split features
and thresholds — one reason this reproduction implements trees from
scratch rather than stubbing them.

Splits are of the form ``feature <= threshold`` (left branch) versus
``feature > threshold`` (right branch), chosen to minimize weighted Gini
impurity (or entropy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ml.base import (
    ClassifierMixin,
    Estimator,
    as_float_array,
    as_label_array,
    check_consistent,
)


@dataclass
class TreeNode:
    """A node of a fitted decision tree.

    Internal nodes carry ``feature``/``threshold`` and two children; leaves
    carry a class distribution.  ``n_samples`` is the number of training
    rows that reached the node.
    """

    n_samples: int
    class_counts: np.ndarray
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    depth: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def prediction(self) -> int:
        """Index (into classes_) of the majority class at this node."""
        return int(np.argmax(self.class_counts))

    def proba(self) -> np.ndarray:
        total = self.class_counts.sum()
        if total == 0:
            return np.full_like(self.class_counts, 1.0 / len(self.class_counts))
        return self.class_counts / total


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of a 2-D class-count matrix."""
    proportions = counts / counts.sum(axis=1, keepdims=True)
    return 1.0 - np.sum(proportions * proportions, axis=1)


def _entropy(counts: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a 2-D class-count matrix.

    A row sums only its non-zero classes, in class order, as ``np.sum``
    over the filtered 1-D row would: zero terms are moved behind the
    others and cut off, so the pairwise summation groups the terms the
    same way and the result is bit-identical.
    """
    present = counts > 0
    proportions = counts / counts.sum(axis=1, keepdims=True)
    logs = np.zeros_like(proportions)
    np.log2(proportions, where=present, out=logs)
    order = np.argsort(~present, axis=1, kind="stable")
    terms = np.take_along_axis(proportions * logs, order, axis=1)
    widths = present.sum(axis=1)
    sums = np.empty(len(counts))
    for width in np.unique(widths):
        rows = widths == width
        sums[rows] = np.sum(terms[rows, :width], axis=1)
    return -sums


_CRITERIA = {"gini": _gini, "entropy": _entropy}


def _last_record(
    weighted: np.ndarray, best: float | None
) -> tuple[int, float | None]:
    """Replay the split scan's running minimum over one feature's splits.

    Scanning positions in order, a position becomes the best when its
    weighted impurity is below the best so far by more than ``1e-12``,
    so the first of near-equal splits wins.  Such a position is below
    every earlier one, so only the strict running minima need visiting.
    Returns the index of the last position that became best (-1 if
    none) and the resulting best value.
    """
    earlier = np.concatenate(([np.inf], np.minimum.accumulate(weighted)[:-1]))
    minima = np.flatnonzero(weighted < earlier)
    index = -1
    for position, value in zip(minima.tolist(), weighted[minima].tolist()):
        if best is None or value < best - 1e-12:
            best, index = value, position
    return index, best


class _FlatTree:
    """A fitted tree flattened to arrays, for routing many rows at once.

    Nodes are numbered in preorder: ``nodes[n]`` is node number ``n``,
    ``feature[n]`` is -1 at leaves, and ``payload[n]`` is
    ``payload_of(nodes[n])``.
    """

    def __init__(self, root, payload_of):
        self.root = root
        self.nodes: list = []
        links: list[tuple[int, float, int, int]] = []

        def visit(node) -> int:
            number = len(self.nodes)
            self.nodes.append(node)
            links.append((-1, 0.0, -1, -1))
            if not node.is_leaf:
                links[number] = (
                    node.feature, node.threshold, visit(node.left), visit(node.right)
                )
            return number

        visit(root)
        feature, threshold, left, right = zip(*links)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.payload = np.array([payload_of(node) for node in self.nodes])

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Number of the leaf each row of ``X`` reaches.

        Rows descend one level per step: a row goes left when
        ``X[row, feature] <= threshold``, as in a per-row walk.
        """
        reached = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        while rows.size:
            at = reached[rows]
            feature = self.feature[at]
            inner = feature >= 0
            rows, at, feature = rows[inner], at[inner], feature[inner]
            go_left = X[rows, feature] <= self.threshold[at]
            reached[rows] = np.where(go_left, self.left[at], self.right[at])
        return reached


class _FlatTreeCache:
    """Lazily flattens ``root_``; the flat form is derived state.

    It is rebuilt whenever ``root_`` is replaced (a refit) and is left
    out of pickles, so a pickled tree is the same bytes before and
    after it first predicts.
    """

    root_: object

    @staticmethod
    def _node_payload(node):
        raise NotImplementedError

    def _flat(self) -> _FlatTree:
        flat = self.__dict__.get("_flat_tree")
        if flat is None or flat.root is not self.root_:
            flat = _FlatTree(self.root_, self._node_payload)
            self._flat_tree = flat
        return flat

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_flat_tree", None)
        return state


class DecisionTreeClassifier(_FlatTreeCache, Estimator, ClassifierMixin):
    """CART classifier.

    Parameters
    ----------
    criterion:
        ``"gini"`` or ``"entropy"``.
    max_depth:
        Maximum tree depth; ``None`` for unbounded.
    min_samples_split:
        Minimum rows a node needs to be considered for splitting.
    min_samples_leaf:
        Minimum rows each child must receive.
    max_features:
        Number of features examined per split: ``None`` (all), an int, or
        ``"sqrt"`` — the forest sets this for decorrelated trees.
    random_state:
        Seed for feature subsampling.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ):
        if criterion not in _CRITERIA:
            raise ConfigurationError(
                f"criterion must be one of {sorted(_CRITERIA)}, got {criterion!r}"
            )
        if min_samples_split < 2:
            raise ConfigurationError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ConfigurationError("min_samples_leaf must be >= 1")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: TreeNode | None = None
        self.classes_: np.ndarray = np.array([], dtype=np.int64)
        self.n_features_: int = 0

    # ------------------------------------------------------------------
    def fit(self, X, y, feature_names: list[str] | None = None) -> "DecisionTreeClassifier":
        """Grow the tree on (X, y).  ``feature_names`` aid rule extraction."""
        X = as_float_array(X)
        y = as_label_array(y)
        check_consistent(X, y)
        self.classes_, y_indices = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self.feature_names_ = (
            list(feature_names)
            if feature_names is not None
            else [f"f{i}" for i in range(self.n_features_)]
        )
        if len(self.feature_names_) != self.n_features_:
            raise ConfigurationError(
                f"{len(self.feature_names_)} feature names for "
                f"{self.n_features_} features"
            )
        rng = np.random.default_rng(self.random_state)
        self.root_ = self._build(X, y_indices, depth=0, rng=rng)
        self._mark_fitted()
        return self

    def _n_split_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, self.n_features_)
        raise ConfigurationError(f"invalid max_features: {self.max_features!r}")

    def _build(
        self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
    ) -> TreeNode:
        counts = np.bincount(y, minlength=len(self.classes_)).astype(np.float64)
        # A child is empty when a split's midpoint threshold rounds onto
        # the larger of two adjacent floats; it becomes a pure leaf.
        impurity = _CRITERIA[self.criterion](counts[np.newaxis])[0] if len(y) else 0.0
        node = TreeNode(
            n_samples=len(y),
            class_counts=counts,
            depth=depth,
            impurity=float(impurity),
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

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        parent_counts: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, float, np.ndarray] | None:
        n_samples, n_features = X.shape
        n_classes = len(self.classes_)
        impurity_fn = _CRITERIA[self.criterion]
        candidates = rng.permutation(n_features)[: self._n_split_features()]
        best: tuple[int, float] | None = None
        best_score: float | None = None
        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), y] = 1.0
        for feature in candidates:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            # Cumulative class counts over the sorted rows.
            cumulative = np.cumsum(one_hot[order], axis=0)
            # Valid split positions: between distinct adjacent values,
            # honouring min_samples_leaf on both sides.
            distinct = sorted_values[:-1] < sorted_values[1:]
            positions = np.nonzero(distinct)[0]
            positions = positions[
                (positions + 1 >= self.min_samples_leaf)
                & (n_samples - positions - 1 >= self.min_samples_leaf)
            ]
            if positions.size == 0:
                continue
            left_counts = cumulative[positions]
            n_left = positions + 1
            weighted = (
                n_left * impurity_fn(left_counts)
                + (n_samples - n_left) * impurity_fn(parent_counts - left_counts)
            ) / n_samples
            index, best_score = _last_record(weighted, best_score)
            if index >= 0:
                position = positions[index]
                threshold = (sorted_values[position] + sorted_values[position + 1]) / 2.0
                best = (int(feature), float(threshold))
        if best is None:
            return None
        # Note: a zero-gain split is still taken (children are strictly
        # smaller, so recursion terminates); refusing it would make the
        # greedy tree blind to XOR-like interactions.
        feature, threshold = best
        return feature, threshold, X[:, feature] <= threshold

    # ------------------------------------------------------------------
    _node_payload = staticmethod(TreeNode.proba)

    def predict_proba(self, X) -> np.ndarray:
        """Class-distribution predictions, one row per sample."""
        self.check_fitted()
        X = as_float_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fit on {self.n_features_}"
            )
        flat = self._flat()
        return flat.payload[flat.apply(X)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        self.check_fitted()

        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return node.depth
            return max(walk(node.left), walk(node.right))

        return walk(self.root_)

    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        self.check_fitted()

        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root_)

    def export_text(self) -> str:
        """Human-readable rendering of the tree (used by Figure 4)."""
        self.check_fitted()
        lines: list[str] = []

        def walk(node: TreeNode, indent: str) -> None:
            if node.is_leaf:
                label = self.classes_[node.prediction]
                lines.append(f"{indent}predict: {label} (n={node.n_samples})")
                return
            name = self.feature_names_[node.feature]
            lines.append(f"{indent}if {name} <= {node.threshold:.4f}:")
            walk(node.left, indent + "  ")
            lines.append(f"{indent}else:  # {name} > {node.threshold:.4f}")
            walk(node.right, indent + "  ")

        walk(self.root_, "")
        return "\n".join(lines)

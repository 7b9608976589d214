"""The bit-parallel edit distance and the array CART kernels against oracles.

``Levenshtein`` runs Myers/Hyyrö's bit-parallel algorithm, and
``DecisionTreeClassifier`` scores every split position of a feature in
one array expression and predicts by walking a flattened tree.  Each is
checked against the plain scalar form in ``tests/oracles.py``: the same
distances, the same trees node by node, byte-equal probabilities, and the
same text and Falcon rules built from those trees.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.falcon.rules import extract_rules_from_forest
from repro.features import FeatureTable, make_exact_feature
from repro.ml import forest as forest_module
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.regression_tree import DecisionTreeRegressor
from repro.ml.tree import DecisionTreeClassifier
from repro.simjoin import edit_distance_join
from repro.table import Table
from repro.text.sim import Levenshtein
from tests.oracles import (
    ScalarDecisionTree,
    levenshtein_dp,
    regressor_apply,
    regressor_predict,
)

# Few letters so strings share characters; "é" is non-ASCII and the
# emoji and CJK extension-B characters lie outside the BMP.
ALPHABET = "ab é😀\U00020000"
strings = st.text(alphabet=ALPHABET, max_size=150)


class TestLevenshteinOracle:
    @given(strings, strings)
    @settings(max_examples=400, deadline=None)
    @example("", "")
    @example("", "abc")
    @example("abab", "abab")
    @example("a" * 70, "a" * 69)
    @example("a" * 65, "b" * 130)
    @example("😀" * 3, "😀é😀")
    def test_equals_dynamic_program(self, left, right):
        assert Levenshtein().get_raw_score(left, right) == levenshtein_dp(left, right)

    @given(st.text(alphabet="ab", min_size=60, max_size=300), st.data())
    @settings(max_examples=100, deadline=None)
    def test_long_edited_copies(self, text, data):
        # Near-copies exercise the carries across many bits of the pattern.
        chars = list(text)
        for _ in range(data.draw(st.integers(0, 8))):
            position = data.draw(st.integers(0, len(chars)))
            chars.insert(position, data.draw(st.sampled_from("abc")))
        edited = "".join(chars)
        assert Levenshtein().get_raw_score(text, edited) == levenshtein_dp(text, edited)

    def test_edit_distance_join_unchanged(self):
        rng = random.Random(17)
        stems = ["jonathan smithson", "mary o'connor", "ann-marie chen", "zoë ångström"]

        def noisy(stem):
            chars = list(stem * rng.choice([1, 1, 5]))
            for _ in range(rng.randint(0, 3)):
                chars[rng.randrange(len(chars))] = rng.choice("xyz ")
            return "".join(chars)

        ltable = Table({"id": list(range(40)), "v": [noisy(rng.choice(stems)) for _ in range(40)]})
        rtable = Table({"id": list(range(40)), "v": [noisy(rng.choice(stems)) for _ in range(40)]})
        result = edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=3)
        expected = {
            (l_id, r_id): levenshtein_dp(l_value, r_value)
            for l_id, l_value in zip(ltable["id"], ltable["v"])
            for r_id, r_value in zip(rtable["id"], rtable["v"])
            if levenshtein_dp(l_value, r_value) <= 3
        }
        got = dict(zip(zip(result["l_id"], result["r_id"]), result["score"]))
        assert got == expected
        assert any(len(value) > 64 for value in ltable["v"])


def assert_same_tree(fast, slow) -> None:
    assert fast.is_leaf == slow.is_leaf
    assert fast.n_samples == slow.n_samples
    assert fast.class_counts.tobytes() == slow.class_counts.tobytes()
    assert fast.impurity == slow.impurity
    if not fast.is_leaf:
        assert (fast.feature, fast.threshold) == (slow.feature, slow.threshold)
        assert_same_tree(fast.left, slow.left)
        assert_same_tree(fast.right, slow.right)


def random_problem(seed: int):
    """Data with many tied values, optionally many classes."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(2, 250))
    n_features = int(rng.integers(1, 7))
    levels = int(rng.choice([2, 5, 40, 10_000]))
    X = rng.integers(0, levels, size=(n_rows, n_features)) / 7.0
    n_classes = int(rng.choice([2, 2, 3, 4, 10]))
    if seed % 3 == 0:
        y = (X[:, 0] + rng.normal(0, 0.5, n_rows) > X[:, 0].mean()).astype(np.int64)
    else:
        y = rng.integers(0, n_classes, size=n_rows)
    queries = rng.integers(0, levels + 2, size=(60, n_features)) / 7.0
    queries[0, 0] = np.nan
    return X, y, queries


TREE_PARAMS = [
    {"criterion": "gini"},
    {"criterion": "entropy"},
    {"criterion": "gini", "max_depth": 3, "min_samples_leaf": 4},
    {"criterion": "entropy", "max_features": "sqrt", "min_samples_leaf": 2},
    {"criterion": "gini", "max_features": 2, "min_samples_split": 6},
]


class TestTreeOracle:
    @pytest.mark.parametrize("params", TREE_PARAMS)
    @pytest.mark.parametrize("seed", range(12))
    def test_same_tree_and_probabilities(self, params, seed):
        X, y, queries = random_problem(seed)
        fast = DecisionTreeClassifier(random_state=seed, **params).fit(X, y)
        slow = ScalarDecisionTree(random_state=seed, **params).fit(X, y)
        assert_same_tree(fast.root_, slow.root_)
        for rows in (X, queries):
            assert fast.predict_proba(rows).tobytes() == slow.predict_proba(rows).tobytes()

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("seed", range(3))
    def test_empty_child_from_rounded_threshold(self, criterion, seed):
        # The midpoint of these adjacent floats rounds up onto the larger
        # one, so a split on feature 0 sends every row left.
        low = np.nextafter(1.0, 2.0)
        X = np.array([[low, 0.0], [np.nextafter(low, 2.0), 1.0]])
        y = np.array([0, 1])
        params = {"criterion": criterion, "max_features": 1, "random_state": seed}
        fast = DecisionTreeClassifier(**params).fit(X, y)
        slow = ScalarDecisionTree(**params).fit(X, y)
        assert_same_tree(fast.root_, slow.root_)
        assert fast.predict_proba(X).tobytes() == slow.predict_proba(X).tobytes()

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_forest_text_and_rules_unchanged(self, criterion, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 6, size=(300, 4)) / 5.0
        y = ((X[:, 0] > 0.4) & (X[:, 2] > 0.2)).astype(np.int64)
        y[rng.integers(0, 300, size=15)] ^= 1
        names = ["a_exact", "b_exact", "c_exact", "d_exact"]
        features = FeatureTable([make_exact_feature(name, name, name) for name in names])

        def fit():
            return RandomForestClassifier(
                n_estimators=8, criterion=criterion, random_state=3
            ).fit(X, y, feature_names=names)

        fast = fit()
        monkeypatch.setattr(forest_module, "DecisionTreeClassifier", ScalarDecisionTree)
        slow = fit()
        assert [t.export_text() for t in fast.trees_] == [t.export_text() for t in slow.trees_]
        assert [repr(rule) for rule in extract_rules_from_forest(fast, features)] == [
            repr(rule) for rule in extract_rules_from_forest(slow, features)
        ]
        assert fast.predict_proba(X).tobytes() == slow.predict_proba(X).tobytes()
        assert fast.vote_fraction(X).tobytes() == slow.vote_fraction(X).tobytes()

    def test_refit_replaces_flattened_tree(self):
        X, y, queries = random_problem(4)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        tree.predict_proba(queries)
        tree.fit(X[::-1][: len(X) // 2 + 1], y[::-1][: len(X) // 2 + 1])
        slow = ScalarDecisionTree(random_state=0).fit(
            X[::-1][: len(X) // 2 + 1], y[::-1][: len(X) // 2 + 1]
        )
        assert tree.predict_proba(queries).tobytes() == slow.predict_proba(queries).tobytes()


class TestRegressorTraversal:
    def test_predict_and_apply_match_row_walk(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 9, size=(200, 3)) / 3.0
        target = X[:, 0] - 2 * X[:, 1] + rng.normal(0, 0.1, 200)
        tree = DecisionTreeRegressor(max_depth=4).fit(X, target)
        queries = np.vstack([X, [[np.nan, 0.0, 1.0]]])
        assert tree.apply(queries).tobytes() == regressor_apply(tree, queries).tobytes()
        assert tree.predict(queries).tobytes() == regressor_predict(tree, queries).tobytes()

    def test_set_leaf_values_is_seen_by_predict(self):
        X = np.arange(20, dtype=np.float64).reshape(-1, 1)
        tree = DecisionTreeRegressor(max_depth=2).fit(X, X[:, 0] % 4)
        before = tree.predict(X)
        leaves = tree.apply(X)
        tree.set_leaf_values({leaf: 100.0 + leaf for leaf in range(tree.n_leaves_)})
        after = tree.predict(X)
        assert after.tolist() == [100.0 + leaf for leaf in leaves]
        assert not np.array_equal(before, after)
        assert after.tobytes() == regressor_predict(tree, X).tobytes()

    def test_boosting_unchanged(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(150, 3))
        y = (X[:, 0] * X[:, 1] > 0).astype(np.int64)
        model = GradientBoostingClassifier(n_estimators=15, random_state=0).fit(X, y)
        scores = np.full(len(X), model.init_score_)
        for tree in model.trees_:
            scores = scores + model.learning_rate * regressor_predict(tree, X)
        assert model.decision_function(X).tobytes() == scores.tobytes()


class TestPickling:
    @pytest.mark.parametrize(
        "model",
        [
            DecisionTreeClassifier(random_state=1),
            DecisionTreeRegressor(max_depth=3),
            RandomForestClassifier(n_estimators=4, random_state=1),
        ],
        ids=["classifier", "regressor", "forest"],
    )
    def test_flattened_tree_stays_out_of_pickles(self, model):
        X, y, queries = random_problem(6)
        model.fit(X, y)
        fresh = pickle.dumps(model)
        predicted = model.predict(queries)
        assert pickle.dumps(model) == fresh
        assert "flat" not in repr(model)
        restored = pickle.loads(fresh)
        assert restored.predict(queries).tobytes() == predicted.tobytes()
        assert pickle.dumps(restored) == fresh

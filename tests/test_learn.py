import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.errors import DimensionError, TrainingError
from aisoc.features import SparseVector
from aisoc.learn import (
    ForestModel,
    LogisticModel,
    TreeNode,
    best_split,
    design_matrix,
    gini,
    loss_and_grad,
    score_forest,
    score_logistic,
    train_forest,
    train_logistic,
)


def sv(values, dim=None):
    arr = np.asarray(values, dtype=float)
    dim = dim or len(arr)
    nz = np.nonzero(arr)[0]
    return SparseVector(indices=nz.astype(np.int64), values=arr[nz], dim=dim)


class TestLogistic:
    def test_symmetric_data_crosses_half_at_origin(self):
        X = [sv([-1.0]), sv([1.0])]
        model = train_logistic(X, [0, 1], l2=0.0, epochs=500)
        assert score_logistic(model, sv([0.0])) == pytest.approx(0.5, abs=1e-6)

    def test_heavy_regularization_shrinks_weights(self):
        X = [sv([-1.0]), sv([1.0]), sv([-0.5]), sv([0.5])]
        model = train_logistic(X, [0, 1, 0, 1], l2=1e6, epochs=200)
        assert np.linalg.norm(model.weights) < 1e-2

    def test_loss_never_increases(self):
        rng = np.random.default_rng(0)
        X = [sv(row) for row in rng.normal(size=(40, 3))]
        y = (rng.random(40) < 0.5).astype(int)
        y[0], y[1] = 0, 1  # both classes present
        model = train_logistic(X, y, l2=1e-3, epochs=50)
        assert model.training_meta["final_loss"] <= model.training_meta["initial_loss"]

    def test_fixed_inputs_reproduce_identical_weights(self):
        rng = np.random.default_rng(3)
        X = [sv(row) for row in rng.normal(size=(30, 4))]
        y = [i % 2 for i in range(30)]
        a = train_logistic(X, y, epochs=100, seed=5)
        b = train_logistic(X, y, epochs=100, seed=5)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train_logistic([sv([1.0]), sv([2.0])], [1, 1])

    def test_balanced_class_weight_lifts_minority_probability(self):
        # 1 positive vs 9 negatives at the same point x=1: the unweighted fit
        # leans benign; balanced weights must pull p(x=1) up toward 0.5
        X = [sv([1.0])] * 10
        y = [1] + [0] * 9
        plain = train_logistic(X, y, l2=0.0, epochs=300)
        balanced = train_logistic(X, y, l2=0.0, epochs=300, class_weight="balanced")
        assert score_logistic(balanced, sv([1.0])) > score_logistic(plain, sv([1.0]))
        assert score_logistic(balanced, sv([1.0])) == pytest.approx(0.5, abs=1e-4)

    def test_unknown_class_weight_rejected(self):
        with pytest.raises(TrainingError):
            train_logistic([sv([0.0]), sv([1.0])], [0, 1], class_weight="bogus")

    def test_weighted_gradient_matches_finite_differences(self):
        from aisoc.learn import balanced_weights
        rng = np.random.default_rng(17)
        n, d = 15, 3
        X = design_matrix([sv(row) for row in rng.normal(size=(n, d))])
        y = (rng.random(n) < 0.3).astype(float)
        y[0], y[1] = 0, 1
        weights = balanced_weights(y)
        w = rng.normal(size=d)
        b = float(rng.normal())
        _, grad_w, grad_b = loss_and_grad(w, b, X, y, 0.05, weights)
        eps = 1e-5
        for k in range(d):
            probe = np.zeros(d)
            probe[k] = eps
            up, *_ = loss_and_grad(w + probe, b, X, y, 0.05, weights)
            down, *_ = loss_and_grad(w - probe, b, X, y, 0.05, weights)
            fd = (up - down) / (2 * eps)
            assert abs(grad_w[k] - fd) / (abs(grad_w[k]) + abs(fd) + 1e-8) < 1e-5

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            train_logistic([sv([1.0]), sv([1.0, 2.0])], [0, 1])

    def test_score_with_zero_model_is_half(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0, regularization=0.0)
        assert score_logistic(model, sv([0.3, 0.0, -2.0])) == 0.5

    def test_score_matches_sigmoid(self):
        model = LogisticModel(weights=np.array([2.0]), bias=-1.0, regularization=0.0)
        assert score_logistic(model, sv([1.0])) == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-9)

    def test_score_dimension_check(self):
        model = LogisticModel(weights=np.zeros(2), bias=0.0, regularization=0.0)
        with pytest.raises(DimensionError):
            score_logistic(model, sv([1.0, 2.0, 3.0]))

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(1)
        X = [sv(row) for row in rng.normal(size=(20, 3))]
        y = [i % 2 for i in range(20)]
        model = train_logistic(X, y, epochs=60)
        clone = LogisticModel.from_dict(model.to_dict())
        probe = sv(rng.normal(size=3))
        assert score_logistic(clone, probe) == score_logistic(model, probe)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 12, 3
        X = design_matrix([sv(row) for row in rng.normal(size=(n, d))])
        y = (rng.random(n) < 0.5).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        lam = 0.1
        _, grad_w, grad_b = loss_and_grad(w, b, X, y, lam)
        eps = 1e-5
        for k in range(d):
            probe = np.zeros(d)
            probe[k] = eps
            up, *_ = loss_and_grad(w + probe, b, X, y, lam)
            down, *_ = loss_and_grad(w - probe, b, X, y, lam)
            fd = (up - down) / (2 * eps)
            assert abs(grad_w[k] - fd) / (abs(grad_w[k]) + abs(fd) + 1e-8) < 1e-5
        up, *_ = loss_and_grad(w, b + eps, X, y, lam)
        down, *_ = loss_and_grad(w, b - eps, X, y, lam)
        fd = (up - down) / (2 * eps)
        assert abs(grad_b - fd) / (abs(grad_b) + abs(fd) + 1e-8) < 1e-5


def leaf(neg, pos):
    return TreeNode(counts=(neg, pos))


class TestForest:
    def test_separating_feature_reaches_perfect_training_accuracy(self):
        X = np.array([[0.0], [0.1], [0.9], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = train_forest(X, y, n_trees=15, max_depth=3, min_samples_leaf=1, seed=2)
        preds = [score_forest(model, row) >= 0.5 for row in X]
        assert preds == [False, False, True, True]

    def test_fixed_seed_reproduces_forest_node_by_node(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 4))
        y = (X[:, 1] > 0).astype(int)
        a = train_forest(X, y, n_trees=10, seed=42)
        b = train_forest(X, y, n_trees=10, seed=42)
        assert a.to_dict() == b.to_dict()

    def test_hand_built_votes_average(self):
        # leaf votes [1, 1, 0, 1] -> 0.75
        trees = [leaf(0, 5), leaf(0, 9), leaf(7, 0), leaf(0, 2)]
        model = ForestModel(trees=trees, n_features=2, n_trees=4, max_depth=1,
                            min_samples_leaf=1, features_per_split=1, seed=0)
        assert score_forest(model, [0.0, 0.0]) == pytest.approx(0.75)

    def test_degenerate_single_leaf_fraction(self):
        model = ForestModel(trees=[leaf(1, 3)], n_features=1, n_trees=1, max_depth=1,
                            min_samples_leaf=1, features_per_split=1, seed=0)
        assert score_forest(model, [0.0]) == pytest.approx(0.75)

    def test_all_benign_leaves_score_zero(self):
        model = ForestModel(trees=[leaf(4, 0), leaf(2, 0)], n_features=1, n_trees=2,
                            max_depth=1, min_samples_leaf=1, features_per_split=1, seed=0)
        assert score_forest(model, [5.0]) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train_forest(np.zeros((4, 2)), [1, 1, 1, 1])

    def test_score_dimension_check(self):
        model = ForestModel(trees=[leaf(1, 1)], n_features=2, n_trees=1, max_depth=1,
                            min_samples_leaf=1, features_per_split=1, seed=0)
        with pytest.raises(DimensionError):
            score_forest(model, [1.0])

    def test_leaf_counts_respect_min_samples(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(int)
        model = train_forest(X, y, n_trees=8, max_depth=6, min_samples_leaf=3, seed=1)

        def check(node):
            if node.is_leaf:
                assert node.counts[0] + node.counts[1] >= 3
            else:
                check(node.left)
                check(node.right)

        for tree in model.trees:
            check(tree)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 3))
        y = (X[:, 2] > 0.2).astype(int)
        model = train_forest(X, y, n_trees=5, seed=3)
        clone = ForestModel.from_dict(model.to_dict())
        probe = rng.normal(size=3)
        assert score_forest(clone, probe) == score_forest(model, probe)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_probability_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 2))
        y = rng.integers(0, 2, size=20)
        y[0], y[1] = 0, 1
        model = train_forest(X, y, n_trees=5, max_depth=4, seed=seed)
        p = score_forest(model, rng.normal(size=2))
        assert 0.0 <= p <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 8), d=st.integers(1, 2))
    def test_depth_one_root_split_matches_exhaustive_oracle(self, seed, n, d):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, d)), 2)
        y = rng.integers(0, 2, size=n)
        tree = None
        from aisoc.learn.forest import grow_tree
        tree = grow_tree(X, y.astype(np.int64), max_depth=1, min_samples_leaf=1,
                         features_per_split=d, rng=np.random.default_rng(0))
        expected = exhaustive_depth_one_split(X, y)
        if expected is None:
            assert tree.is_leaf
        else:
            assert (tree.feature, tree.threshold) == (expected[0], expected[1])


def reference_score(model, x):
    """The recursive per-tree walk the flat arrays replace: route left on
    ``x[feature] <= threshold``, then add leaf fractions in tree order."""
    x = np.asarray(x, dtype=float)
    total = 0
    for tree in model.trees:
        node = tree
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        total += node.positive_fraction
    return total / len(model.trees)


def split_nodes(model):
    stack = list(model.trees)
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            yield node
            stack.extend((node.left, node.right))


HAND_BUILT = [
    [leaf(0, 5), leaf(0, 9), leaf(7, 0), leaf(0, 2)],
    [leaf(1, 3)],
    [leaf(4, 0), leaf(2, 0)],
    [leaf(0, 0)],
    [TreeNode(counts=(2, 2), feature=1, threshold=0.5, left=leaf(0, 2), right=leaf(2, 0)),
     leaf(1, 2)],
]


class TestFlatForestWalk:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 40), d=st.integers(1, 4),
           n_trees=st.integers(1, 12), depth=st.integers(1, 6),
           scale=st.sampled_from([1.0, 1e-300, 1e300, 1e308]))
    def test_trained_forest_matches_reference_walk_bit_for_bit(self, seed, n, d, n_trees,
                                                              depth, scale):
        rng = np.random.default_rng(seed)
        # at 1e308 some values, and some split midpoints, overflow to +-inf on purpose
        with np.errstate(over="ignore", invalid="ignore"):
            X = np.round(rng.normal(size=(n, d)), 1) * scale
            y = rng.integers(0, 2, size=n)
            y[0], y[1] = 0, 1
            model = train_forest(X, y, n_trees=n_trees, max_depth=depth,
                                 min_samples_leaf=1, seed=seed)
            rows = list(X) + list(rng.normal(size=(10, d)) * scale)
            rows += [np.full(d, v) for v in (np.inf, -np.inf, np.nan, 0.0)]
            for node in split_nodes(model):  # exactly on each threshold: routes left
                row = rng.normal(size=d) * scale
                row[node.feature] = node.threshold
                rows.append(row)
        for row in rows:
            assert score_forest(model, row) == reference_score(model, row)

    @pytest.mark.parametrize("trees", HAND_BUILT)
    def test_hand_built_forests_match_reference_walk(self, trees):
        model = ForestModel(trees=trees, n_features=2, n_trees=len(trees), max_depth=1,
                            min_samples_leaf=1, features_per_split=1, seed=0)
        for row in ([0.0, 0.0], [0.0, 0.5], [0.0, 0.6], [np.nan, np.nan], [1e308, -1e308]):
            assert score_forest(model, row) == reference_score(model, row)

    def test_value_on_threshold_routes_left(self):
        model = ForestModel(trees=HAND_BUILT[4][:1], n_features=2, n_trees=1, max_depth=1,
                            min_samples_leaf=1, features_per_split=1, seed=0)
        assert score_forest(model, [0.0, 0.5]) == 1.0
        assert score_forest(model, [0.0, np.nextafter(0.5, 1.0)]) == 0.0

    def test_flat_arrays_stay_out_of_equality_and_artifact(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        model = train_forest(X, (X[:, 0] > 0).astype(int), n_trees=3, seed=1)
        clone = ForestModel.from_dict(model.to_dict())
        assert clone == model
        assert "_flat" not in repr(model) and "_flat" not in model.to_dict()


def exhaustive_depth_one_split(X, y):
    """Enumerate every (feature, midpoint) split; return the weighted-Gini
    argmin with (cost, feature, threshold) tie-breaking, or None if no split
    improves on the root impurity. Class fractions are computed from counts
    (pos/n and neg/n) so mathematically tied splits stay ties in floats."""
    n, d = X.shape

    def gini_of(labels):
        if len(labels) == 0:
            return 0.0
        pos = int(np.sum(labels))
        p = pos / len(labels)
        q = (len(labels) - pos) / len(labels)
        return 1.0 - p * p - q * q

    best = None
    for f in range(d):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2.0
            left = y[X[:, f] <= t]
            right = y[X[:, f] > t]
            if len(left) == 0 or len(right) == 0:
                continue
            cost = (len(left) * gini_of(left) + len(right) * gini_of(right)) / n
            candidate = (cost, f, t)
            if best is None or candidate < best:
                best = candidate
    if best is None or best[0] >= gini_of(y):
        return None
    return best[1], best[2]


class TestBestSplitHelpers:
    def test_gini_values(self):
        assert gini(2, 2) == pytest.approx(0.5)
        assert gini(4, 0) == 0.0
        assert gini(0, 0) == 0.0

    def test_best_split_tie_breaks_to_lowest_feature(self):
        # identical separating columns; tie must resolve to feature 0
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 0, 1])
        cost, feature, threshold = best_split(X, y, [1, 0], min_samples_leaf=1)
        assert feature == 0
        assert threshold == pytest.approx(0.5)
        assert cost == 0.0

    def test_design_matrix_shape(self):
        X = design_matrix([sv([1.0, 0.0, 2.0]), sv([0.0, 3.0, 0.0])])
        assert X.shape == (2, 3)
        assert X.toarray().tolist() == [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.errors import DimensionError, TrainingError
from aisoc.features import DesignMatrix, SparseVector
from aisoc.learn import (
    ForestModel,
    LogisticModel,
    TreeNode,
    design_matrix,
    gini,
    loss_and_grad,
    score_forest,
    score_logistic,
    train_forest,
    train_logistic,
)
from aisoc.learn.forest import _BLOCK_NODES, _PASS_ELEMENTS, _column_ranks, _feature_subsets

SRC = str(Path(__file__).resolve().parents[1] / "src")


def sv(values, dim=None):
    arr = np.asarray(values, dtype=float)
    dim = dim or len(arr)
    nz = np.nonzero(arr)[0]
    return SparseVector(indices=nz.astype(np.int64), values=arr[nz], dim=dim)


# Values near the float range's ends (products overflow to inf and sum to NaN,
# or underflow), signed zeros and ordinary numbers.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.5e308, 5e-324]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))


@st.composite
def sparse_rows(draw):
    """(rows, d): each row a list of (column, value) in increasing column order."""
    d = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.tuples(st.integers(0, d - 1), EDGE_FLOATS),
                                  max_size=d, unique_by=lambda e: e[0]).map(sorted),
                         min_size=1, max_size=8))
    return rows, d


def csr_reference(rows, d, w, r):
    """``X @ w`` and ``X.T @ r`` as loops in CSR storage order, each sum from 0.0."""
    xw = []
    for row in rows:
        total = 0.0
        for j, v in row:
            total += v * w[j]
        xw.append(total)
    xtr = [0.0] * d
    for i, row in enumerate(rows):
        for j, v in row:
            xtr[j] += v * r[i]
    return xw, xtr


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=sparse_rows())
def test_design_matrix_products_match_csr_order_bit_for_bit(data, shape):
    rows, d = shape
    w = data.draw(st.lists(EDGE_FLOATS, min_size=d, max_size=d))
    r = data.draw(st.lists(EDGE_FLOATS, min_size=len(rows), max_size=len(rows)))
    X = design_matrix([SparseVector(indices=np.array([j for j, _ in row], dtype=np.int64),
                                    values=np.array([v for _, v in row], dtype=float), dim=d)
                       for row in rows])
    xw, xtr = csr_reference(rows, d, w, r)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        got_xw, got_xtr = X.matvec(np.array(w)), X.rmatvec(np.array(r))
    assert got_xw.dtype == got_xtr.dtype == np.float64
    assert got_xw.tobytes() == np.array(xw).tobytes()
    assert got_xtr.tobytes() == np.array(xtr).tobytes()


def test_training_leaves_scipy_unimported():
    code = ("import sys, aisoc, aisoc.cli\n"
            "from aisoc.features import SparseVector\n"
            "from aisoc.learn import design_matrix, train_logistic\n"
            "X = design_matrix([SparseVector(indices=[0], values=[v], dim=1) for v in (-1.0, 1.0)])\n"
            "train_logistic(X, [0, 1], epochs=5)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestLogistic:
    def test_symmetric_data_crosses_half_at_origin(self):
        X = design_matrix([sv([-1.0]), sv([1.0])])
        model = train_logistic(X, [0, 1], l2=0.0, epochs=500)
        assert score_logistic(model, sv([0.0])) == pytest.approx(0.5, abs=1e-6)

    def test_heavy_regularization_shrinks_weights(self):
        X = design_matrix([sv([-1.0]), sv([1.0]), sv([-0.5]), sv([0.5])])
        model = train_logistic(X, [0, 1, 0, 1], l2=1e6, epochs=200)
        assert np.linalg.norm(model.weights) < 1e-2

    def test_loss_never_increases(self):
        rng = np.random.default_rng(0)
        X = design_matrix([sv(row) for row in rng.normal(size=(40, 3))])
        y = (rng.random(40) < 0.5).astype(int)
        y[0], y[1] = 0, 1  # both classes present
        model = train_logistic(X, y, l2=1e-3, epochs=50)
        assert model.training_meta["final_loss"] <= model.training_meta["initial_loss"]

    def test_line_search_without_a_decrease_stops_unconverged(self):
        # at a feature scale of 1e10 even the last of 60 halvings of the unit
        # step overshoots, so no step decreases the loss and the fit stops
        # where it started, before its epoch cap
        X = design_matrix([sv([v * 1e10, v]) for v in (-2.0, -1.0, 1.0, 2.0)])
        model = train_logistic(X, [0, 1, 0, 1], l2=0.0, epochs=50)
        assert dict(model.training_meta) == {
            "iterations": 0, "initial_loss": math.log(2.0), "final_loss": math.log(2.0),
            "converged": False, "seed": 0, "class_weight": None}
        assert not model.weights.any() and model.bias == 0.0

    def test_fixed_inputs_reproduce_identical_weights(self):
        rng = np.random.default_rng(3)
        X = design_matrix([sv(row) for row in rng.normal(size=(30, 4))])
        y = [i % 2 for i in range(30)]
        a = train_logistic(X, y, epochs=100, seed=5)
        b = train_logistic(X, y, epochs=100, seed=5)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_single_class_rejected(self):
        for labels in ([1, 1], [0, 2], [0, 0.5]):
            with pytest.raises(TrainingError):
                train_logistic(design_matrix([sv([1.0]), sv([2.0])]), labels)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_below_one_rejected(self, epochs):
        with pytest.raises(TrainingError, match=f"epochs must be >= 1, got {epochs}"):
            train_logistic(design_matrix([sv([-1.0]), sv([1.0])]), [0, 1], epochs=epochs)

    def test_balanced_class_weight_lifts_minority_probability(self):
        # 1 positive vs 9 negatives at the same point x=1: the unweighted fit
        # leans benign; balanced weights must pull p(x=1) up toward 0.5
        X = design_matrix([sv([1.0])] * 10)
        y = [1] + [0] * 9
        plain = train_logistic(X, y, l2=0.0, epochs=300)
        balanced = train_logistic(X, y, l2=0.0, epochs=300, class_weight="balanced")
        assert score_logistic(balanced, sv([1.0])) > score_logistic(plain, sv([1.0]))
        assert score_logistic(balanced, sv([1.0])) == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("l2", [math.nan, math.inf, -math.inf, -1.0])
    def test_l2_must_be_finite_and_non_negative(self, l2):
        with pytest.raises(TrainingError, match="l2 must be a finite number"):
            train_logistic(design_matrix([sv([0.0]), sv([1.0])]), [0, 1], l2=l2)

    def test_unknown_class_weight_rejected(self):
        with pytest.raises(TrainingError):
            train_logistic(design_matrix([sv([0.0]), sv([1.0])]), [0, 1], class_weight="bogus")

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
            train_logistic(design_matrix([sv([1.0]), sv([1.0, 2.0])]), [0, 1])

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
        X = design_matrix([sv(row) for row in rng.normal(size=(20, 3))])
        y = [i % 2 for i in range(20)]
        model = train_logistic(X, y, epochs=60)
        clone = LogisticModel.from_dict(model.to_dict())
        probe = sv(rng.normal(size=3))
        assert score_logistic(clone, probe) == score_logistic(model, probe)

    def test_unit_weights_equal_no_weights_bit_for_bit(self):
        rng = np.random.default_rng(5)
        n, d = 25, 4
        X = design_matrix([sv(row) for row in rng.normal(size=(n, d))])
        y = (rng.random(n) < 0.4).astype(float)
        w, b = rng.normal(size=d), float(rng.normal())
        loss, grad_w, grad_b = loss_and_grad(w, b, X, y, 0.05)
        loss_1, grad_w_1, grad_b_1 = loss_and_grad(w, b, X, y, 0.05, sample_weight=np.ones(n))
        assert loss.hex() == loss_1.hex() and grad_b.hex() == grad_b_1.hex()
        assert grad_w.tobytes() == grad_w_1.tobytes()
        z = X.matvec(w) + b  # and both are the plain mean's bits
        plain = float(np.sum(np.logaddexp(0.0, z) - y * z)) / n + 0.5 * 0.05 * float(w @ w)
        assert loss.hex() == plain.hex()

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


def tree_lists(root: TreeNode) -> dict:
    """One ``TreeNode`` tree as node lists, numbered as the grower numbers
    nodes: a split node's children take the next two ids, left then right,
    and nodes split in preorder."""
    lists = {"feature": [], "threshold": [], "left": [], "right": [], "negatives": [],
             "positives": []}

    def add(node):
        for key, value in zip(lists, (-1, 0.0, -1, -1, *node.counts)):
            lists[key].append(value)
        return len(lists["feature"]) - 1

    stack = [(root, add(root))]
    while stack:
        node, i = stack.pop()
        if not node.is_leaf:
            lists["feature"][i], lists["threshold"][i] = node.feature, node.threshold
            lists["left"][i], lists["right"][i] = add(node.left), add(node.right)
            stack += [(node.right, lists["right"][i]), (node.left, lists["left"][i])]
    return lists


def forest_of(trees, n_features=2) -> ForestModel:
    """A model holding hand-built ``TreeNode`` trees."""
    return ForestModel.from_dict({"trees": [tree_lists(t) for t in trees],
                                  "n_features": n_features, "n_trees": len(trees),
                                  "max_depth": 1, "min_samples_leaf": 1,
                                  "features_per_split": 1, "seed": 0})


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
        model = forest_of([leaf(0, 5), leaf(0, 9), leaf(7, 0), leaf(0, 2)])
        assert score_forest(model, [0.0, 0.0]) == pytest.approx(0.75)

    def test_degenerate_single_leaf_fraction(self):
        model = forest_of([leaf(1, 3)], n_features=1)
        assert score_forest(model, [0.0]) == pytest.approx(0.75)

    def test_all_benign_leaves_score_zero(self):
        model = forest_of([leaf(4, 0), leaf(2, 0)], n_features=1)
        assert score_forest(model, [5.0]) == 0.0

    def test_single_class_rejected(self):
        for labels in ([1, 1, 1, 1], [0, 1, 2, 1], [0, 1, 0.5, 1]):
            with pytest.raises(TrainingError):
                train_forest(np.zeros((4, 2)), labels)

    @pytest.mark.parametrize("name", ["max_depth", "min_samples_leaf", "features_per_split"])
    @pytest.mark.parametrize("value", [0, -1, -5])
    def test_size_below_one_rejected(self, name, value):
        with pytest.raises(TrainingError, match=f"{name} must be >= 1, got {value}"):
            train_forest(np.array([[0.0], [1.0]]), [0, 1], n_trees=1, **{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(TrainingError, match="seed must be >= 0, got -1"):
            train_forest(np.array([[0.0], [1.0]]), [0, 1], n_trees=1, seed=-1)

    def test_matrix_without_columns_rejected(self):
        # such a forest would declare n_features 0, which no artifact load accepts
        with pytest.raises(TrainingError, match="training features have no columns"):
            train_forest(np.zeros((4, 0)), [0, 1, 0, 1], n_trees=2)

    @pytest.mark.parametrize("n_trees, rows", [(10_001, 2), (10_000, 10_002)])
    def test_forest_over_the_size_limit_rejected_before_growing(self, n_trees, rows):
        X = np.arange(rows, dtype=float)[:, None]
        with pytest.raises(TrainingError, match=f"a forest of {n_trees} trees on {rows} rows "
                                                "is over the limit of 10000 trees"):
            train_forest(X, np.arange(rows) % 2, n_trees=n_trees)

    def test_score_dimension_check(self):
        model = forest_of([leaf(1, 1)])
        with pytest.raises(DimensionError):
            score_forest(model, [1.0])

    def test_leaf_counts_respect_min_samples(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(int)
        model = train_forest(X, y, n_trees=8, max_depth=6, min_samples_leaf=3, seed=1)
        leaf = model.feature == -1
        assert 8 < leaf.sum() < len(leaf)
        assert np.all((model.negatives + model.positives)[leaf] >= 3)

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
        y[0], y[1] = 0, 1  # train_forest refuses single-class data
        tree = train_forest(X, y, n_trees=1, bootstrap=False, max_depth=1, min_samples_leaf=1,
                            features_per_split=d)
        expected = exhaustive_depth_one_split(X, y)
        if expected is None:
            assert tree.feature.tolist() == [-1]
        else:
            assert (tree.feature[0], tree.threshold[0]) == (expected[0], expected[1])


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


def split_points(model):
    """(feature, threshold) of every split node."""
    split = model.feature != -1
    return zip(model.feature[split].tolist(), model.threshold[split].tolist())


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
            for feature, threshold in split_points(model):  # exactly on it: routes left
                row = rng.normal(size=d) * scale
                row[feature] = threshold
                rows.append(row)
        for row in rows:
            assert score_forest(model, row) == reference_score(model, row)

    @pytest.mark.parametrize("trees", HAND_BUILT)
    def test_hand_built_forests_match_reference_walk(self, trees):
        model = forest_of(trees)
        for row in ([0.0, 0.0], [0.0, 0.5], [0.0, 0.6], [np.nan, np.nan], [1e308, -1e308]):
            assert score_forest(model, row) == reference_score(model, row)

    def test_value_on_threshold_routes_left(self):
        model = forest_of(HAND_BUILT[4][:1])
        assert score_forest(model, [0.0, 0.5]) == 1.0
        assert score_forest(model, [0.0, np.nextafter(0.5, 1.0)]) == 0.0

    def test_scoring_layout_is_built_at_the_first_score_and_never_stored(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        model = train_forest(X, (X[:, 0] > 0).astype(int), n_trees=3, seed=1)
        assert "_walk" not in vars(model)  # training and saving do not build it
        clone = ForestModel.from_dict(model.to_dict())
        assert score_forest(clone, X).tolist() == score_forest(model, X).tolist()
        assert "_walk" in vars(model) and "_walk" not in repr(model)
        assert clone.to_dict() == model.to_dict()
        assert json.dumps(model.to_dict()).count("[") == 1 + 6 * 3  # trees, then 6 lists per tree

    def test_tree_view_matches_the_node_arrays(self):
        rng = np.random.default_rng(6)
        X = np.round(rng.normal(size=(60, 3)), 1)
        model = train_forest(X, (X[:, 1] > 0).astype(int), n_trees=5, max_depth=5, seed=2)
        view = model.trees
        assert [tree_lists(tree) for tree in view] == model.to_dict()["trees"]
        view[0].feature = None  # the view is a copy
        assert [tree_lists(tree) for tree in model.trees] == model.to_dict()["trees"]


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
        tree = train_forest(X, y, n_trees=1, bootstrap=False, max_depth=1, min_samples_leaf=1,
                            features_per_split=2)
        left, right = ((tree.negatives[c], tree.positives[c])
                       for c in (tree.left[0], tree.right[0]))
        cost = (sum(left) * gini(*left) + sum(right) * gini(*right)) / len(y)
        feature, threshold = tree.feature[0], tree.threshold[0]
        assert feature == 0
        assert threshold == pytest.approx(0.5)
        assert cost == 0.0

    def test_design_matrix_shape(self):
        X = design_matrix([sv([1.0, 0.0, 2.0]), sv([0.0, 3.0, 0.0])])
        assert X.shape == (2, 3)
        # Row i is X.T @ e_i.
        assert [X.rmatvec(e).tolist() for e in np.eye(2)] == [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]


# The recursive grower that ``train_forest`` used before growing all trees in
# lockstep, kept verbatim as the reference the lockstep grower must reproduce.
def best_split(X: np.ndarray, y: np.ndarray, feature_ids: Sequence[int],
               min_samples_leaf: int) -> tuple[float, int, float] | None:
    """Lowest weighted-Gini split over the given features, or None.

    Returns (cost, feature, threshold); ties break toward the lowest feature
    index, then the lowest threshold.
    """
    n = len(y)
    best: tuple[float, int, float] | None = None
    for f in sorted(feature_ids):
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        xs = values[order]
        ys = y[order]
        distinct = np.nonzero(np.diff(xs) > 0)[0] + 1  # candidate left-sizes
        if len(distinct) == 0:
            continue
        cum_pos = np.cumsum(ys)
        n_left = distinct.astype(float)
        pos_left = cum_pos[distinct - 1].astype(float)
        n_right = n - n_left
        pos_right = cum_pos[-1] - pos_left
        valid = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        if not valid.any():
            continue
        neg_left = n_left - pos_left
        neg_right = n_right - pos_right
        gini_left = 1.0 - (pos_left / n_left) ** 2 - (neg_left / n_left) ** 2
        gini_right = 1.0 - (pos_right / n_right) ** 2 - (neg_right / n_right) ** 2
        cost = (n_left * gini_left + n_right * gini_right) / n
        cost[~valid] = np.inf
        k = int(np.argmin(cost))  # first minimum = lowest threshold
        threshold = float((xs[distinct[k] - 1] + xs[distinct[k]]) / 2.0)
        candidate = (float(cost[k]), int(f), threshold)
        if best is None or candidate < best:
            best = candidate
    return best


def grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int, min_samples_leaf: int,
              features_per_split: int, rng: np.random.Generator,
              depth: int = 0) -> TreeNode:
    """Recursively grow one CART tree on (X, y) with 0/1 labels."""
    n_pos = int(y.sum())
    counts = (len(y) - n_pos, n_pos)
    node = TreeNode(counts=counts)
    if (depth >= max_depth or n_pos == 0 or n_pos == len(y)
            or len(y) < 2 * min_samples_leaf):
        return node
    d = X.shape[1]
    m = min(features_per_split, d)
    feature_ids = rng.choice(d, size=m, replace=False)
    found = best_split(X, y, feature_ids, min_samples_leaf)
    if found is None:
        return node
    cost, feature, threshold = found
    if cost >= gini(*counts):
        return node
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = grow_tree(X[mask], y[mask], max_depth, min_samples_leaf,
                          features_per_split, rng, depth + 1)
    node.right = grow_tree(X[~mask], y[~mask], max_depth, min_samples_leaf,
                           features_per_split, rng, depth + 1)
    return node


def reference_forest(X, y, n_trees, max_depth, min_samples_leaf, features_per_split, seed,
                     bootstrap):
    """The trees of the former ``train_forest``: one tree at a time, recursively."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    trees = []
    for child_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seed)
        if bootstrap:
            idx = rng.integers(0, len(y), size=len(y))
            Xb, yb = X[idx], y[idx]
        else:
            Xb, yb = X, y
        trees.append(grow_tree(Xb, yb, max_depth, min_samples_leaf,
                               features_per_split, rng))
    return trees


def tree_bytes(trees):
    """The node lists of ``TreeNode`` trees as JSON. JSON, not equality: a NaN
    threshold (the midpoint of -inf and inf) never equals itself, and -0.0 == 0.0."""
    return json.dumps([tree_lists(t) for t in trees])


def model_bytes(model):
    """The node arrays of a trained model, per tree, as ``tree_bytes`` writes them."""
    return json.dumps(model.to_dict()["trees"])


class TestLockstepGrower:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40), d=st.integers(1, 5),
           scale=st.sampled_from([1.0, 1e-300, 1e300, 1e308]),
           min_samples_leaf=st.integers(1, 5), features_per_split=st.integers(1, 6),
           n_trees=st.integers(1, 4), max_depth=st.integers(1, 8), bootstrap=st.booleans())
    def test_matches_recursive_reference_byte_for_byte(self, seed, n, d, scale,
                                                        min_samples_leaf, features_per_split,
                                                        n_trees, max_depth, bootstrap):
        rng = np.random.default_rng(seed)
        params = dict(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                      features_per_split=features_per_split, seed=seed, bootstrap=bootstrap)
        # 0.1-rounded values tie often; at 1e308 values and split midpoints
        # overflow to +-inf, and a midpoint can round onto a neighbour at 1e-300
        with np.errstate(over="ignore", invalid="ignore"):
            X = np.round(rng.normal(size=(n, d)), 1) * scale
            y = rng.integers(0, 2, size=n)
            y[0], y[1] = 0, 1
            model = train_forest(X, y, **params)
            reference = reference_forest(X, y, **params)
        assert model_bytes(model) == tree_bytes(reference)

    def test_infinite_columns_match_reference(self):
        X = np.array([[-np.inf, 1.5e308], [np.inf, 1.7e308], [np.inf, -1.0], [-np.inf, 2.0],
                      [np.inf, 1.5e308], [-np.inf, -np.inf]])
        y = np.array([0, 1, 1, 0, 1, 0])
        params = dict(n_trees=6, max_depth=4, min_samples_leaf=1, features_per_split=1,
                      seed=3, bootstrap=True)
        with np.errstate(over="ignore", invalid="ignore"):
            model = train_forest(X, y, **params)
            reference = reference_forest(X, y, **params)
        assert model_bytes(model) == tree_bytes(reference)
        assert any(math.isinf(threshold) or math.isnan(threshold)
                   for _, threshold in split_points(model))

    def test_trees_do_not_depend_on_the_pass_schedule(self):
        rng = np.random.default_rng(21)
        X = np.round(rng.normal(size=(600, 20)), 1)
        y = (X[:, :3].sum(axis=1) + rng.normal(size=600) > 0).astype(int)
        # eight roots of 600 rows x ceil(sqrt(20)) features overflow one pass,
        # one or two roots do not
        assert 8 * 600 * 5 > _PASS_ELEMENTS >= 2 * 600 * 5
        full = train_forest(X, y, n_trees=8, max_depth=6, seed=5)
        for k in (1, 2):
            part = train_forest(X, y, n_trees=k, max_depth=6, seed=5)
            assert model_bytes(part) == json.dumps(full.to_dict()["trees"][:k])

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), d=st.integers(1, 300), data=st.data(),
           bootstrap=st.integers(0, 50), blocks=st.integers(1, 2))
    def test_feature_subsets_are_the_sorted_choice_draws(self, seed, d, data, bootstrap, blocks):
        self.check_feature_subsets(seed, d, data.draw(st.integers(1, d)), bootstrap, blocks)

    # numpy's choice runs Floyd's algorithm for d <= 10_000 or m <= d // 50 and
    # shuffles a permutation's tail otherwise; the subsets match it on both
    # sides, whether drawn in blocks (m <= 32) or one choice call at a time
    @pytest.mark.parametrize("d, m", [(10_000, 200), (10_000, 201), (10_001, 200),
                                      (10_001, 201), (10_001, 32), (20_000, 400), (20_000, 401)])
    def test_feature_subsets_match_choice_on_both_sides_of_its_algorithm_switch(self, d, m):
        for seed, bootstrap in ((0, 0), (1, 480)):
            self.check_feature_subsets(seed, d, m, bootstrap, 1)

    @staticmethod
    def check_feature_subsets(seed, d, m, bootstrap, blocks):
        """The first ``blocks`` blocks of subsets equal ``np.sort(choice(...))`` node by
        node, from a generator that drew ``bootstrap`` rows first, and leave the
        generator in the state those ``choice`` calls leave it."""
        blocked, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (blocked, reference):
            rng.integers(0, bootstrap, size=bootstrap)
        subsets = _feature_subsets(blocked, d, m)
        got = np.array([next(subsets) for _ in range(blocks * _BLOCK_NODES)])
        expected = np.array([np.sort(reference.choice(d, size=m, replace=False))
                             for _ in range(blocks * _BLOCK_NODES)])
        assert np.array_equal(got, expected)
        assert blocked.bit_generator.state == reference.bit_generator.state

    def test_nan_features_rejected(self):
        X = np.array([[0.0, 1.0], [1.0, np.nan], [2.0, 0.0], [3.0, 1.0]])
        with pytest.raises(TrainingError, match="NaN"):
            train_forest(X, [0, 1, 0, 1], n_trees=2)


def special_rows(model, d, rng, scale):
    """NaN, +-inf, +-1e300 rows, and a row exactly on each split threshold."""
    rows = [np.full(d, v) for v in (np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0)]
    rows.append(np.where(np.arange(d) % 2 == 0, np.nan, 1e300))
    for feature, threshold in split_points(model):
        row = rng.normal(size=d) * scale
        row[feature] = threshold
        rows.append(row)
    return rows


class TestMatrixForestWalk:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 40), d=st.integers(1, 4),
           n_trees=st.integers(1, 12), depth=st.integers(1, 6),
           n_rows=st.integers(1, 25), scale=st.sampled_from([1.0, 1e300, -1e300]))
    def test_matrix_matches_reference_walk_bit_for_bit(self, seed, n, d, n_trees, depth,
                                                       n_rows, scale):
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            X = np.round(rng.normal(size=(n, d)), 1) * scale
            y = rng.integers(0, 2, size=n)
            y[0], y[1] = 0, 1
            model = train_forest(X, y, n_trees=n_trees, max_depth=depth,
                                 min_samples_leaf=1, seed=seed)
            rows = np.array(list(rng.normal(size=(n_rows, d)) * scale)
                            + special_rows(model, d, rng, scale))
        expected = [reference_score(model, row) for row in rows]
        got = score_forest(model, rows)
        assert isinstance(got, np.ndarray) and got.shape == (len(rows),)
        assert got.tolist() == expected
        for k in (0, len(rows) - 1):  # n = 1: as a one-row matrix and as a row
            assert score_forest(model, rows[k:k + 1]).tolist() == [expected[k]]
            one = score_forest(model, rows[k])
            assert isinstance(one, float) and one == expected[k]

    @pytest.mark.parametrize("trees", HAND_BUILT)
    def test_hand_built_forests_as_a_matrix(self, trees):
        model = forest_of(trees)
        rows = np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 0.6], [np.nan, np.nan], [1e308, -1e308]])
        assert score_forest(model, rows).tolist() == [reference_score(model, r) for r in rows]

    def test_empty_matrix_scores_nothing(self):
        model = forest_of(HAND_BUILT[4])
        assert score_forest(model, np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("shape", [(3, 1), (3,), (2, 2, 2), ()])
    def test_wrong_shapes_rejected(self, shape):
        model = forest_of(HAND_BUILT[4])
        with pytest.raises(DimensionError):
            score_forest(model, np.zeros(shape))


class TestLogisticBlock:
    def test_list_scores_like_one_vector_at_a_time(self):
        rng = np.random.default_rng(3)
        X = [sv(np.where(rng.random(6) < 0.5, 0.0, rng.normal(size=6)), dim=6)
             for _ in range(40)]
        model = train_logistic(design_matrix(X), [i % 2 for i in range(40)], epochs=40)
        got = score_logistic(model, design_matrix(X))
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [score_logistic(model, x) for x in X]
        empty = DesignMatrix(rows=np.empty(0, dtype=np.int64), indices=np.empty(0, dtype=np.int64),
                             data=np.empty(0), shape=(0, 6))
        assert score_logistic(model, empty).shape == (0,)
        with pytest.raises(DimensionError):
            score_logistic(model, design_matrix([sv([1.0, 2.0])]))


# Column values with ties: a few repeated numbers, signed zeros, infinities.
COLUMN_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf]),
                          st.floats(allow_nan=False))


class TestLikeNpUnique:
    """The grower's ranks and the bad-forest message, against ``np.unique``."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.lists(COLUMN_VALUES, min_size=d, max_size=d), min_size=1, max_size=500)))
    def test_column_ranks_match_np_unique_bit_for_bit(self, rows):
        X = np.array(rows)
        ranks, values = _column_ranks(X)
        for f in range(X.shape[1]):
            uniq, inverse = np.unique(X[:, f], return_inverse=True)
            assert ranks[:, f].tolist() == inverse.tolist()
            assert values[f, :len(uniq)].view(np.uint64).tolist() == uniq.view(np.uint64).tolist()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bad_split_features_print_as_np_unique_lists_them(self, data):
        X = np.array([[float(i % 3), float(i % 5)] for i in range(30)])
        forest = train_forest(X, [i % 2 for i in range(30)], n_trees=4, min_samples_leaf=1,
                              seed=1)
        feature = forest.feature.copy()
        split = np.flatnonzero(feature != -1)
        feature[split] = data.draw(st.lists(st.integers(-4, 9), min_size=len(split),
                                            max_size=len(split)))
        bad = feature[(feature != -1) & ((feature < 0) | (feature >= 2))]
        problems = dataclasses.replace(forest, feature=feature).problems()
        if len(bad):
            assert problems[0] == (f"forest splits on feature(s) {np.unique(bad)[:5].tolist()} "
                                   "outside [0, 2)")
        else:
            assert not any(p.startswith("forest splits on") for p in problems)

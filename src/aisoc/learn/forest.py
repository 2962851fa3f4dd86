"""Random forest of Gini-impurity CART trees on dense static features.

Each tree trains on a bootstrap resample (same size as the training set)
with a fresh per-node random feature subset. Split candidates are the
midpoints between consecutive distinct sorted feature values; ties in
weighted Gini break toward the lowest feature index, then the lowest
threshold, so given a seed the forest is fully deterministic node-by-node.
Samples route left when ``x[feature] <= threshold``.

Scoring walks every tree at once, for one row or a whole matrix of rows,
over flat parallel node arrays (the layout of scikit-learn's ``Tree``;
Louppe 2014, *Understanding Random Forests*, ch. 5) built once per model;
the ``TreeNode`` form stays the serialized one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import DimensionError, TrainingError


@dataclass
class TreeNode:
    counts: tuple[int, int]  # (negatives, positives) of training rows at the node
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def positive_fraction(self) -> float:
        total = self.counts[0] + self.counts[1]
        return self.counts[1] / total if total else 0.0

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"counts": list(self.counts)}
        return {
            "counts": list(self.counts),
            "feature": self.feature,
            "threshold": float(self.threshold),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TreeNode":
        counts = (int(payload["counts"][0]), int(payload["counts"][1]))
        if "feature" not in payload:
            return cls(counts=counts)
        return cls(counts=counts, feature=int(payload["feature"]),
                   threshold=float(payload["threshold"]),
                   left=cls.from_dict(payload["left"]),
                   right=cls.from_dict(payload["right"]))


@dataclass
class ForestModel:
    trees: list[TreeNode]
    n_features: int
    n_trees: int
    max_depth: int
    min_samples_leaf: int
    features_per_split: int
    seed: int
    training_meta: dict = field(default_factory=dict)
    # scoring form of ``trees``, built once here and never serialized;
    # trees are not edited after a model is built
    _flat: "_FlatForest" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._flat = _FlatForest.of(self.trees)

    def to_dict(self) -> dict:
        return {
            "trees": [t.to_dict() for t in self.trees],
            "n_features": self.n_features,
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "features_per_split": self.features_per_split,
            "seed": self.seed,
            "training_meta": self.training_meta,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ForestModel":
        return cls(trees=[TreeNode.from_dict(t) for t in payload["trees"]],
                   n_features=int(payload["n_features"]),
                   n_trees=int(payload["n_trees"]),
                   max_depth=int(payload["max_depth"]),
                   min_samples_leaf=int(payload["min_samples_leaf"]),
                   features_per_split=int(payload["features_per_split"]),
                   seed=int(payload["seed"]),
                   training_meta=dict(payload.get("training_meta", {})))


@dataclass(frozen=True)
class _FlatForest:
    """Every node of every tree in parallel arrays, indexed by node id.

    A leaf points to itself on both sides with threshold +inf, so walking
    ``depth`` levels parks each tree on its leaf whatever the input (a NaN
    feature fails every ``<=`` and still stays put).
    """

    roots: np.ndarray      # node id of each tree's root, in tree order
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray      # leaf positive fraction; unused on split nodes
    depth: int             # deepest leaf over all trees, at least 1

    @classmethod
    def of(cls, trees: Sequence[TreeNode]) -> "_FlatForest":
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        roots: list[int] = []
        depth = 0

        def add(node: TreeNode) -> int:
            nid = len(feature)
            feature.append(0)
            threshold.append(math.inf)
            left.append(nid)
            right.append(nid)
            value.append(node.positive_fraction if node.is_leaf else 0.0)
            return nid

        for tree in trees:
            roots.append(add(tree))
            stack = [(tree, roots[-1], 0)]
            while stack:
                node, nid, level = stack.pop()
                if node.is_leaf:
                    depth = max(depth, level)
                    continue
                feature[nid] = node.feature
                threshold[nid] = node.threshold
                left[nid] = add(node.left)
                right[nid] = add(node.right)
                stack.append((node.left, left[nid], level + 1))
                stack.append((node.right, right[nid], level + 1))
        return cls(roots=np.array(roots, dtype=np.intp),
                   feature=np.array(feature, dtype=np.intp),
                   threshold=np.array(threshold, dtype=float),
                   left=np.array(left, dtype=np.intp), right=np.array(right, dtype=np.intp),
                   value=np.array(value, dtype=float),
                   # one level even for single-leaf trees, so a matrix walk
                   # always ends with one node per (row, tree)
                   depth=max(depth, 1))


def gini(n_neg: int, n_pos: int) -> float:
    total = n_neg + n_pos
    if total == 0:
        return 0.0
    p = n_pos / total
    q = n_neg / total
    return 1.0 - p * p - q * q


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


def train_forest(X, y, n_trees: int = 100, max_depth: int = 12,
                 min_samples_leaf: int = 2, features_per_split: int | None = None,
                 seed: int = 0, bootstrap: bool = True) -> ForestModel:
    """Train a forest of ``n_trees`` bootstrap CART trees."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise TrainingError(f"bad training shapes X={X.shape}, y={y.shape}")
    classes = set(np.unique(y))
    if not classes <= {0, 1}:
        raise TrainingError(f"labels must be binary 0/1, got {sorted(classes)}")
    if len(classes) < 2:
        raise TrainingError("training data contains a single class")
    if n_trees < 1:
        raise TrainingError(f"n_trees must be >= 1, got {n_trees}")
    d = X.shape[1]
    if features_per_split is None:
        features_per_split = math.ceil(math.sqrt(d))

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
    meta = {"n_samples": int(len(y)), "bootstrap": bootstrap}
    return ForestModel(trees=trees, n_features=d, n_trees=n_trees,
                       max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                       features_per_split=features_per_split, seed=seed,
                       training_meta=meta)


def score_forest(model: ForestModel, x):
    """Mean over trees of the leaf-level positive-class fraction.

    ``x`` is one row (returns a float) or an (n, d) matrix (returns one
    score per row); both walk all trees at once, level by level.
    """
    X = np.asarray(x, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1:] != (model.n_features,):
        raise DimensionError(f"vector dim {X.shape} != model dim {model.n_features}")
    flat = model._flat
    # a matrix is indexed (row, feature): rows as a column broadcast against
    # the (rows, trees) node ids; one row is indexed by feature alone
    rows = () if X.ndim == 1 else (np.arange(len(X))[:, None],)
    idx = flat.roots
    for _ in range(flat.depth):
        idx = np.where(X[rows + (flat.feature[idx],)] <= flat.threshold[idx],
                       flat.left[idx], flat.right[idx])
    # Leaf values added left to right in tree order (accumulate is
    # sequential, unlike np.sum's pairwise sum), so every row keeps the bits
    # of the per-tree accumulation.
    scores = np.add.accumulate(flat.value[idx], axis=-1)[..., -1] / len(model.trees)
    return float(scores) if X.ndim == 1 else scores

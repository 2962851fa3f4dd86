"""Random forest of Gini-impurity CART trees on dense static features.

Each tree trains on a bootstrap resample (same size as the training set)
with a fresh per-node random feature subset. Split candidates are the
midpoints between consecutive distinct sorted feature values; ties in
weighted Gini break toward the lowest feature index, then the lowest
threshold, so given a seed the forest is fully deterministic node-by-node.
Samples route left when ``x[feature] <= threshold``.

All trees grow in lockstep, one node per tree per pass: an exact batched
split scan in the manner of Chen & Guestrin 2016 (*XGBoost*), batched
across trees instead of across one tree's level. Each tree keeps its own
generator and its own preorder stack, so it draws the same features in
the same order as a tree grown alone. A pass scores every (node, drawn
feature) segment of its nodes at once. Each value is replaced by its dense
rank in its column, one sort of (segment, rank, label) keys orders every
segment, a cumulative sum of labels gives each candidate's class counts,
and the Gini expressions are the elementwise ones of a per-node scan. This
is exact, not a histogram: candidates sit only at boundaries between
distinct values, and the counts left of a boundary do not depend on how
rows with equal values are ordered. Rows then go to the children by the
stored float threshold, as scoring sends them, not by rank: a midpoint can
round onto one of its two values or overflow to +-inf, and then splits
elsewhere than the rank boundary it came from. A pass holds at most
``_PASS_ELEMENTS`` (row, feature) elements, which bounds its temporaries
whatever the forest size; trees whose next node does not fit wait for a
later pass, which changes no tree because trees are independent. NaN has
no rank, so training refuses it; +-inf trains like any other value.

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


# Most (row, feature) elements one pass of the grower scores; see the module
# docstring. A node with more elements than this is scored alone.
_PASS_ELEMENTS = 1 << 13


def _column_ranks(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense rank of each value in its column, and each column's distinct values.

    ``ranks[i, f]`` indexes ``X[i, f]`` in the sorted distinct values of
    column ``f``, which are ``values[f, :count]`` (the rest of the row is
    padding that no rank points to).
    """
    n, d = X.shape
    ranks = np.empty((n, d), dtype=np.int32)
    distinct = []
    for f in range(d):
        uniq, inverse = np.unique(X[:, f], return_inverse=True)
        ranks[:, f] = inverse
        distinct.append(uniq)
    values = np.zeros((d, max((len(u) for u in distinct), default=1)))
    for f, uniq in enumerate(distinct):
        values[f, :len(uniq)] = uniq
    return ranks, values


def _best_splits(rows: np.ndarray, sizes: np.ndarray, features: np.ndarray,
                 n_pos: np.ndarray, y: np.ndarray, ranks: np.ndarray, values: np.ndarray,
                 min_samples_leaf: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest weighted-Gini split of each node of one pass.

    Node ``k`` owns the next ``sizes[k]`` ids of ``rows`` (rows of ``X``,
    repeats allowed), has ``n_pos[k]`` positives and was drawn the sorted
    feature ids ``features[k]``. Returns per node the (cost, feature,
    threshold) with the lowest cost, then the lowest feature index, then the
    lowest threshold; the cost is +inf where no split leaves
    ``min_samples_leaf`` rows on both sides.
    """
    n_nodes, m = features.shape
    cost_of = np.full(n_nodes, np.inf)
    feature_of = np.zeros(n_nodes, dtype=np.intp)
    threshold_of = np.zeros(n_nodes)
    width = values.shape[1]
    node_of_row = np.repeat(np.arange(n_nodes), sizes)
    # one segment per (node, feature): key = ((segment * width) + rank) * 2 + label,
    # so one sort orders every segment by value and the label rides in the low bit
    keys = node_of_row[:, None] * m + np.arange(m)
    keys *= width
    keys += ranks[rows[:, None], features[node_of_row]]
    keys *= 2
    keys += y[rows][:, None]
    keys = keys.ravel()
    keys.sort()
    value_class = keys >> 1
    positives = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(keys & 1, out=positives[1:])
    segment_sizes = np.repeat(sizes, m)
    segment_start = np.cumsum(segment_sizes) - segment_sizes
    # a candidate is the first position of a new distinct value inside a segment
    change = value_class[1:] != value_class[:-1]
    change[segment_start[1:] - 1] = False
    cut = np.flatnonzero(change) + 1
    segment = value_class[cut] // width
    start = segment_start[segment]
    n_left_rows = cut - start
    n_rows = segment_sizes[segment]
    valid = (n_left_rows >= min_samples_leaf) & (n_rows - n_left_rows >= min_samples_leaf)
    if not valid.any():
        return cost_of, feature_of, threshold_of
    cut, segment, start = cut[valid], segment[valid], start[valid]
    node = segment // m
    n = n_rows[valid].astype(float)
    n_left = n_left_rows[valid].astype(float)
    pos_left = (positives[cut] - positives[start]).astype(float)
    n_right = n - n_left
    pos_right = n_pos[node] - pos_left
    neg_left = n_left - pos_left
    neg_right = n_right - pos_right
    gini_left = 1.0 - (pos_left / n_left) ** 2 - (neg_left / n_left) ** 2
    gini_right = 1.0 - (pos_right / n_right) ** 2 - (neg_right / n_right) ** 2
    cost = (n_left * gini_left + n_right * gini_right) / n
    # candidates run by node, then feature, then threshold: the first
    # minimum of each node's run is the tie-break winner
    first = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    lowest = np.minimum.reduceat(cost, first)
    hits = np.flatnonzero(cost == np.repeat(lowest, np.diff(np.r_[first, len(cost)])))
    win = hits[np.r_[True, node[hits[1:]] != node[hits[:-1]]]]
    winner = node[win]
    win_segment = segment[win]
    feature = features.ravel()[win_segment]
    rank_right = value_class[cut[win]] - win_segment * width
    rank_left = value_class[cut[win] - 1] - win_segment * width
    cost_of[winner] = cost[win]
    feature_of[winner] = feature
    threshold_of[winner] = (values[feature, rank_left] + values[feature, rank_right]) / 2.0
    return cost_of, feature_of, threshold_of


def _next_split(stack: list, rng: np.random.Generator, d: int, m: int, max_depth: int,
                min_samples_leaf: int):
    """Pop ``stack`` (preorder) down to the next node that needs a split and draw
    its features; None once the tree is complete. Leaves draw nothing."""
    while stack:
        node, rows, depth = stack.pop()
        n_pos = node.counts[1]
        if (depth >= max_depth or n_pos == 0 or n_pos == len(rows)
                or len(rows) < 2 * min_samples_leaf):
            continue
        return node, rows, depth, np.sort(rng.choice(d, size=m, replace=False))
    return None


def _grow_trees(X: np.ndarray, y: np.ndarray, seeds: list, bootstrap: bool, max_depth: int,
                min_samples_leaf: int, m: int) -> list[TreeNode]:
    """Grow one tree per seed, all in lockstep.

    Each tree draws its bootstrap rows (or takes every row) and then its
    per-node features from its own generator, in its own preorder. Each
    pass takes every tree's next node that needs a split, as long as the
    pass stays within ``_PASS_ELEMENTS``, scores them all with one
    ``_best_splits`` call and routes every split node's rows to its children.
    """
    n, d = X.shape
    ranks, values = _column_ranks(X)
    roots, stacks, rngs = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        rows = (rng.integers(0, n, size=n) if bootstrap else np.arange(n)).astype(np.int32)
        n_pos = int(y[rows].sum())
        roots.append(TreeNode(counts=(n - n_pos, n_pos)))
        stacks.append([(roots[-1], rows, 0)])
        rngs.append(rng)
    pending: list = [None] * len(seeds)
    live = list(range(len(seeds)))
    while live:
        batch, waiting, used = [], [], 0
        for t in live:
            if pending[t] is None:
                pending[t] = _next_split(stacks[t], rngs[t], d, m, max_depth, min_samples_leaf)
                if pending[t] is None:
                    continue
            waiting.append(t)
            size = len(pending[t][1]) * m
            if not batch or used + size <= _PASS_ELEMENTS:
                batch.append(t)
                used += size
        live = waiting
        if not batch:
            continue
        nodes = [pending[t] for t in batch]
        for t in batch:
            pending[t] = None
        rows = np.concatenate([rows for _, rows, _, _ in nodes])
        sizes = np.array([len(rows) for _, rows, _, _ in nodes])
        features = np.array([f for _, _, _, f in nodes], dtype=np.intp).reshape(len(nodes), m)
        n_pos = np.array([node.counts[1] for node, _, _, _ in nodes], dtype=float)
        cost, feature, threshold = _best_splits(rows, sizes, features, n_pos, y, ranks, values,
                                                min_samples_leaf)
        split = [k for k, (node, _, _, _) in enumerate(nodes) if cost[k] < gini(*node.counts)]
        if not split:
            continue
        # route by the stored float threshold, as scoring will: a midpoint can
        # round onto a neighbouring value or overflow, and then differs from
        # the rank boundary it was computed from
        node_of_row = np.repeat(np.arange(len(nodes)), sizes)
        child = 2 * node_of_row + ~(X[rows, feature[node_of_row]] <= threshold[node_of_row])
        child_rows = rows[np.argsort(child, kind="stable")]
        child_sizes = np.bincount(child, minlength=2 * len(nodes))
        child_pos = np.bincount(child, weights=y[rows], minlength=2 * len(nodes))
        child_end = np.cumsum(child_sizes).tolist()
        child_sizes, child_pos = child_sizes.tolist(), child_pos.astype(np.int64).tolist()
        for k in split:
            node, _, depth, _ = nodes[k]
            node.feature = int(feature[k])
            node.threshold = float(threshold[k])
            children = []
            for c in (2 * k, 2 * k + 1):
                n_rows, n_pos_c = child_sizes[c], child_pos[c]
                children.append((TreeNode(counts=(n_rows - n_pos_c, n_pos_c)),
                                 child_rows[child_end[c] - n_rows:child_end[c]].copy(),
                                 depth + 1))
            node.left, node.right = children[0][0], children[1][0]
            stacks[batch[k]].extend(reversed(children))  # left on top: preorder
    return roots


def train_forest(X, y, n_trees: int = 100, max_depth: int = 12,
                 min_samples_leaf: int = 2, features_per_split: int | None = None,
                 seed: int = 0, bootstrap: bool = True) -> ForestModel:
    """Train a forest of ``n_trees`` bootstrap CART trees.

    ``X`` may hold +-inf but not NaN.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise TrainingError(f"bad training shapes X={X.shape}, y={y.shape}")
    if np.isnan(X).any():
        raise TrainingError("training features contain NaN")
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

    trees = _grow_trees(X, y, np.random.SeedSequence(seed).spawn(n_trees), bootstrap,
                        max_depth, min_samples_leaf, min(features_per_split, d))
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

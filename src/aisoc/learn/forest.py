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

Every tree is a set of flat parallel node arrays (the layout of
scikit-learn's ``Tree``; Louppe 2014, *Understanding Random Forests*,
ch. 5), from the grower to the artifact file. A tree's root is node 0, and a
node that splits gives its two children the next free ids, left then right.
Nodes split in preorder, left subtree first, so every child's id is greater
than its parent's. The grower appends each node as it creates it. Scoring
walks every tree at once, for one row or a whole matrix of rows, over one
layout of all trees that numpy builds from those arrays at the first score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import DimensionError, TrainingError


# Node arrays of a forest and their dtypes. A leaf has feature -1, children
# -1 and threshold 0.0; JSON has no infinity, so these are the stored values.
NODE_FIELDS = {"feature": np.intp, "threshold": np.float64, "left": np.intp,
               "right": np.intp, "negatives": np.int64, "positives": np.int64}
# Integer fields of a stored forest and the least value training gives each;
# ``n_trees`` is left to the artifact check, which counts the trees held.
_INTEGER_FIELDS = {"n_features": 1, "n_trees": 0, "max_depth": 1, "min_samples_leaf": 1,
                   "features_per_split": 1, "seed": 0}


@dataclass
class TreeNode:
    """One node of the linked view ``ForestModel.trees`` builds on access."""

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


def _node_arrays(trees: Sequence[dict]) -> dict[str, np.ndarray]:
    """Per-tree node lists (as grown or stored) laid end to end in one array
    per field, plus ``tree_sizes``; node ids stay counted within each tree."""
    sizes = [len(tree["feature"]) for tree in trees]
    for t, (tree, size) in enumerate(zip(trees, sizes)):
        if any(len(tree[key]) != size for key in NODE_FIELDS):
            raise ValueError(f"tree {t} has node lists of unequal lengths")
    arrays = {"tree_sizes": np.array(sizes, dtype=np.intp)}
    for key, dtype in NODE_FIELDS.items():
        arrays[key] = np.array(list(chain.from_iterable(tree[key] for tree in trees)), dtype=dtype)
        if arrays[key].shape != (sum(sizes),):
            raise ValueError(f"forest {key} lists hold something other than numbers")
    return arrays


@dataclass(eq=False)
class ForestModel:
    """Every tree's node arrays, laid end to end in tree order.

    Tree ``t`` owns the ``tree_sizes[t]`` entries after those of the trees
    before it; its child ids count from its own first entry.
    """

    feature: np.ndarray     # split feature of each node; -1 at a leaf
    threshold: np.ndarray   # rows with x[feature] <= threshold go left
    left: np.ndarray        # child ids within the tree; -1 at a leaf
    right: np.ndarray
    negatives: np.ndarray   # training rows of each class at the node
    positives: np.ndarray
    tree_sizes: np.ndarray  # nodes of each tree
    n_features: int
    n_trees: int
    max_depth: int
    min_samples_leaf: int
    features_per_split: int
    seed: int
    training_meta: dict = field(default_factory=dict)

    @property
    def trees(self) -> list[TreeNode]:
        """Each tree as linked ``TreeNode``s, built anew on every access.

        A read-only view for callers that walk nodes; edits to it do not
        reach the model.
        """
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        nodes = [TreeNode(counts=counts) for counts in
                 zip(self.negatives.tolist(), self.positives.tolist())]
        roots, start = [], 0
        for size in self.tree_sizes.tolist():
            roots.append(nodes[start])
            for i in range(start, start + size):
                if feature[i] >= 0:
                    node = nodes[i]
                    node.feature, node.threshold = feature[i], threshold[i]
                    node.left, node.right = nodes[start + left[i]], nodes[start + right[i]]
            start += size
        return roots

    def to_dict(self) -> dict:
        columns = {key: getattr(self, key).tolist() for key in NODE_FIELDS}
        trees, start = [], 0
        for size in self.tree_sizes.tolist():
            trees.append({key: values[start:start + size] for key, values in columns.items()})
            start += size
        return {
            "trees": trees,
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
        """The model ``to_dict`` wrote; each integer field must be a JSON
        integer within training's bounds (``ValueError`` otherwise)."""
        sizes = {}
        for name, least in _INTEGER_FIELDS.items():
            value = sizes[name] = payload[name]
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(f"forest {name} must be an integer >= {least}, got {value!r}")
        return cls(**_node_arrays(payload["trees"]), **sizes,
                   training_meta=dict(payload.get("training_meta", {})))

    @cached_property
    def _walk(self) -> "_Walk":
        """The scoring layout, built at the first score; never serialized.
        Node arrays are not edited after a model is built."""
        return _Walk.of(self)


class _Walk(NamedTuple):
    """Every node of every tree, indexed by forest-wide node id.

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
    def of(cls, model: ForestModel) -> "_Walk":
        sizes = model.tree_sizes
        roots = np.cumsum(sizes) - sizes
        leaf = model.feature < 0
        node = np.arange(len(leaf))
        start = np.repeat(roots, sizes)
        left = np.where(leaf, node, model.left + start)
        right = np.where(leaf, node, model.right + start)
        total = model.negatives + model.positives
        value = np.divide(model.positives, total, out=np.zeros(len(leaf)),
                          where=leaf & (total > 0))
        # levels of split nodes under the roots, one frontier per level
        depth, frontier = 0, roots[~leaf[roots]]
        while len(frontier):
            depth += 1
            frontier = np.concatenate((left[frontier], right[frontier]))
            frontier = frontier[~leaf[frontier]]
        return cls(roots=roots, feature=np.where(leaf, 0, model.feature),
                   threshold=np.where(leaf, np.inf, model.threshold), left=left, right=right,
                   # one level even for single-leaf trees, so a matrix walk
                   # always ends with one node per (row, tree)
                   value=value, depth=max(depth, 1))


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


def _add_node(tree: dict, negatives: int, positives: int) -> int:
    """Append a leaf with these class counts to ``tree``'s node lists; returns its id."""
    tree["feature"].append(-1)
    tree["threshold"].append(0.0)
    tree["left"].append(-1)
    tree["right"].append(-1)
    tree["negatives"].append(negatives)
    tree["positives"].append(positives)
    return len(tree["feature"]) - 1


def node_lists_of_nested(trees: Sequence[dict]) -> list[dict]:
    """Trees stored as nested node objects (artifact format 1) as node lists.

    A node object holds ``counts`` (negatives, positives) and, if it splits,
    ``feature``, ``threshold``, ``left`` and ``right``. Nodes are numbered
    as the grower numbers them, without recursion.
    """
    converted = []
    for root in trees:
        lists = {key: [] for key in NODE_FIELDS}
        stack = [(root, _add_node(lists, *root["counts"]))]
        while stack:
            node, i = stack.pop()
            if "feature" in node:
                lists["feature"][i], lists["threshold"][i] = node["feature"], node["threshold"]
                lists["left"][i] = _add_node(lists, *node["left"]["counts"])
                lists["right"][i] = _add_node(lists, *node["right"]["counts"])
                stack += [(node["right"], lists["right"][i]), (node["left"], lists["left"][i])]
        converted.append(lists)
    return converted


def _next_split(stack: list, positives: list, rng: np.random.Generator, d: int, m: int,
                max_depth: int, min_samples_leaf: int):
    """Pop ``stack`` (preorder) down to the next node that needs a split and draw
    its features; None once the tree is complete. Leaves draw nothing."""
    while stack:
        node, rows, depth = stack.pop()
        n_pos = positives[node]
        if (depth >= max_depth or n_pos == 0 or n_pos == len(rows)
                or len(rows) < 2 * min_samples_leaf):
            continue
        return node, rows, depth, np.sort(rng.choice(d, size=m, replace=False))
    return None


def _grow_trees(X: np.ndarray, y: np.ndarray, seeds: list, bootstrap: bool, max_depth: int,
                min_samples_leaf: int, m: int) -> list[dict]:
    """Grow one tree per seed, all in lockstep; returns each tree's node lists.

    Each tree draws its bootstrap rows (or takes every row) and then its
    per-node features from its own generator, in its own preorder. Each
    pass takes every tree's next node that needs a split, as long as the
    pass stays within ``_PASS_ELEMENTS``, scores them all with one
    ``_best_splits`` call and routes every split node's rows to its children.
    """
    n, d = X.shape
    ranks, values = _column_ranks(X)
    trees, stacks, rngs = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        rows = (rng.integers(0, n, size=n) if bootstrap else np.arange(n)).astype(np.int32)
        trees.append({key: [] for key in NODE_FIELDS})
        n_pos = int(y[rows].sum())
        stacks.append([(_add_node(trees[-1], n - n_pos, n_pos), rows, 0)])
        rngs.append(rng)
    pending: list = [None] * len(seeds)
    live = list(range(len(seeds)))
    while live:
        batch, waiting, used = [], [], 0
        for t in live:
            if pending[t] is None:
                pending[t] = _next_split(stacks[t], trees[t]["positives"], rngs[t], d, m,
                                         max_depth, min_samples_leaf)
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
        n_neg, n_pos = np.array([(trees[t]["negatives"][node], trees[t]["positives"][node])
                                 for t, (node, _, _, _) in zip(batch, nodes)], dtype=float).T
        cost, feature, threshold = _best_splits(rows, sizes, features, n_pos, y, ranks, values,
                                                min_samples_leaf)
        # ``gini`` of each node, elementwise in the same float order
        total = n_neg + n_pos
        p, q = n_pos / total, n_neg / total
        split = np.flatnonzero(cost < 1.0 - p * p - q * q).tolist()
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
            tree, (node, _, depth, _) = trees[batch[k]], nodes[k]
            tree["feature"][node] = int(feature[k])
            tree["threshold"][node] = float(threshold[k])
            children = [(_add_node(tree, child_sizes[c] - child_pos[c], child_pos[c]),
                         child_rows[child_end[c] - child_sizes[c]:child_end[c]].copy(), depth + 1)
                        for c in (2 * k, 2 * k + 1)]
            tree["left"][node], tree["right"][node] = children[0][0], children[1][0]
            stacks[batch[k]].extend(reversed(children))  # left on top: preorder
    return trees


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
    for name, value in (("n_trees", n_trees), ("max_depth", max_depth),
                        ("min_samples_leaf", min_samples_leaf),
                        ("features_per_split", features_per_split)):
        if value is not None and value < 1:
            raise TrainingError(f"{name} must be >= 1, got {value}")
    d = X.shape[1]
    if features_per_split is None:
        features_per_split = math.ceil(math.sqrt(d))

    trees = _grow_trees(X, y, np.random.SeedSequence(seed).spawn(n_trees), bootstrap,
                        max_depth, min_samples_leaf, min(features_per_split, d))
    meta = {"n_samples": int(len(y)), "bootstrap": bootstrap}
    return ForestModel(**_node_arrays(trees), n_features=d, n_trees=n_trees,
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
    walk = model._walk
    # a matrix is indexed (row, feature): rows as a column broadcast against
    # the (rows, trees) node ids; one row is indexed by feature alone
    rows = () if X.ndim == 1 else (np.arange(len(X))[:, None],)
    idx = walk.roots
    for _ in range(walk.depth):
        idx = np.where(X[rows + (walk.feature[idx],)] <= walk.threshold[idx],
                       walk.left[idx], walk.right[idx])
    # Leaf values added left to right in tree order (accumulate is
    # sequential, unlike np.sum's pairwise sum), so every row keeps the bits
    # of the per-tree accumulation.
    scores = np.add.accumulate(walk.value[idx], axis=-1)[..., -1] / len(walk.roots)
    return float(scores) if X.ndim == 1 else scores

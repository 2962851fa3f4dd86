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
generator and its own preorder stack of the nodes that may still split
(a leaf never goes on it), so it draws the same features in the same
order as a tree grown alone. A pass scores every (node, drawn
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

A tree draws the feature subsets of its split nodes in blocks: one
``integers`` call over the bounds ``Generator.choice`` would draw from
for each node in turn, then Floyd's rule (Bentley & Floyd 1987, the
algorithm ``choice`` runs) for the whole block, one subset column at a
time. The subsets and the generator state are those of one ``choice``
call per node. numpy does not promise ``Generator`` streams across
versions (NEP 19), so a test pins the blocked draws against the installed
numpy: a numpy that changes ``choice`` fails it instead of silently
growing other trees. Subsets of more than ``_BLOCK_FEATURES`` features
are drawn by ``choice`` itself, one node at a time.

Every tree is a set of flat parallel node arrays (the layout of
scikit-learn's ``Tree``; Louppe 2014, *Understanding Random Forests*,
ch. 5), from the grower to the artifact file. A tree's root is node 0, and a
node that splits gives its two children the next free ids, left then right.
Nodes split in preorder, left subtree first, so every child's id is greater
than its parent's. The grower appends each node as it creates it. Scoring
walks every tree at once, for one row or a whole matrix of rows, over one
layout of all trees that numpy builds from those arrays at the first score.

This module states every rule of the stored forest: its node lists, its
integer fields (``_INTEGER_FIELDS``) and that its nodes are trees
(``ForestModel.problems``). Tree offsets come from ``_tree_starts`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..errors import DimensionError, TrainingError
from ..metrics import check_labels
from ..readonly import read_only


# Node arrays of a forest and their dtypes. A leaf has feature -1, children
# -1 and threshold 0.0; JSON has no infinity, so these are the stored values.
NODE_FIELDS = {"feature": np.intp, "threshold": np.float64, "left": np.intp,
               "right": np.intp, "negatives": np.int64, "positives": np.int64}
# Integer fields of a stored forest and the least value training gives each;
# ``n_trees`` is left to ``ForestModel.problems``, which counts the trees held.
_INTEGER_FIELDS = {"n_features": 1, "n_trees": 0, "max_depth": 1, "min_samples_leaf": 1,
                   "features_per_split": 1, "seed": 0}


def _integer_field_problems(fields: Mapping) -> list[str]:
    """Why each integer field in ``fields`` (every key of ``_INTEGER_FIELDS``)
    is not an integer within training's bounds; empty if none."""
    return [f"forest {name} must be an integer >= {least}, got {fields[name]!r}"
            for name, least in _INTEGER_FIELDS.items()
            if not isinstance(fields[name], int) or isinstance(fields[name], bool)
            or fields[name] < least]


# Largest forest training builds: each tree's seed and bootstrap row ids are
# held at once, so both the tree count and trees x rows are bounded.
_MAX_TREES = 10_000
_MAX_TREE_ROWS = 100_000_000


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


@dataclass(frozen=True, eq=False)
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
    training_meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "training_meta", read_only(self.training_meta))

    @cached_property
    def _tree_starts(self) -> np.ndarray:
        """Forest-wide id of each tree's first node."""
        return np.cumsum(self.tree_sizes) - self.tree_sizes

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
        roots = []
        for start, size in zip(self._tree_starts.tolist(), self.tree_sizes.tolist()):
            roots.append(nodes[start])
            for i in range(start, start + size):
                if feature[i] >= 0:
                    node = nodes[i]
                    node.feature, node.threshold = feature[i], threshold[i]
                    node.left, node.right = nodes[start + left[i]], nodes[start + right[i]]
        return roots

    def to_dict(self) -> dict:
        return {"trees": list(self.tree_dicts()), **self.header_dict()}

    def tree_dicts(self) -> Iterator[dict]:
        """The ``trees`` of ``to_dict``, one tree's node lists at a time."""
        arrays = {key: getattr(self, key) for key in NODE_FIELDS}
        for start, size in zip(self._tree_starts.tolist(), self.tree_sizes.tolist()):
            yield {key: values[start:start + size].tolist() for key, values in arrays.items()}

    def header_dict(self) -> dict:
        """``to_dict`` without its ``trees``."""
        return {**{name: getattr(self, name) for name in _INTEGER_FIELDS},
                "training_meta": dict(self.training_meta)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ForestModel":
        """The model ``to_dict`` wrote; each integer field must be a JSON
        integer within training's bounds (``ValueError`` otherwise)."""
        sizes = {name: payload[name] for name in _INTEGER_FIELDS}
        problems = _integer_field_problems(sizes)
        if problems:
            raise ValueError(problems[0])
        return cls(**_node_arrays(payload["trees"]), **sizes,
                   training_meta=payload.get("training_meta", {}))

    def field_problems(self) -> list[str]:
        """Why each integer field is not an integer within training's bounds
        (the rule ``from_dict`` applies); empty if none."""
        return _integer_field_problems(vars(self))

    def problems(self) -> list[str]:
        """What keeps the node arrays from being ``n_trees`` trees that can score.

        The integer fields must pass (``field_problems``). Every
        child id must exceed its parent's and every node but a root must
        have exactly one parent; then following parents from any node ends
        at its tree's root, so each tree is a tree.
        """
        problems = self.field_problems()
        if problems:
            return problems
        sizes = self.tree_sizes
        if len(sizes) != self.n_trees or not len(sizes):
            return [f"forest declares {self.n_trees} trees and holds {len(sizes)}"]
        if np.any(sizes < 1):
            return ["forest holds a tree without nodes"]
        problems = []
        feature, left, right = self.feature, self.left, self.right
        split = feature != -1
        outside = split & ((feature < 0) | (feature >= self.n_features))
        if outside.any():
            bad = sorted(set(feature[outside].tolist()))
            problems.append(f"forest splits on feature(s) {bad[:5]} outside "
                            f"[0, {self.n_features})")
        start = np.repeat(self._tree_starts, sizes)  # each node's tree, as its first id
        node = np.arange(len(feature)) - start        # each node's id within its tree
        end = np.repeat(sizes, sizes)
        children_ok = np.where(split, (node < left) & (left < end) & (node < right) & (right < end),
                               (left == -1) & (right == -1))
        if not children_ok.all():
            problems.append("forest has a child id not above its parent's, outside its tree, "
                            "or on a leaf")
        else:
            parents = np.bincount(np.concatenate((left[split], right[split]))
                                  + np.tile(start[split], 2), minlength=len(feature))
            if np.any(parents != (node > 0)):
                problems.append("forest has a node without exactly one parent")
        if np.any(self.negatives < 0) or np.any(self.positives < 0):
            problems.append("forest holds a negative class count")
        return problems

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
        roots = model._tree_starts
        leaf = model.feature < 0
        node = np.arange(len(leaf))
        start = np.repeat(roots, model.tree_sizes)
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

    Each column is ranked as ``np.unique(..., return_inverse=True)`` ranks it
    (a quicksort argsort, a new value wherever it ``!=`` the one before), so a
    -0.0/0.0 tie stores the zero ``np.unique`` stores. No module calls
    ``np.unique``, whose plain form imports ``numpy.ma``; this form also
    makes fewer temporary arrays.
    """
    n, d = X.shape
    ranks = np.empty((n, d), dtype=np.int32)
    distinct = []
    for f in range(d):
        order = X[:, f].argsort(kind="quicksort")
        column = X[order, f]
        first = np.ones(n, dtype=bool)
        first[1:] = column[1:] != column[:-1]
        ranks[order, f] = np.cumsum(first) - 1
        distinct.append(column[first])
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


# Largest feature subset drawn in blocks. Floyd's rule runs one numpy step
# per subset column, which costs less than one ``choice`` call per node only
# while subsets are small: training 30 trees on 480 x 400 rows (x86-64, 2
# vCPUs) was 3 % faster in blocks at 32 features and 2 % slower at 64. Up
# to it, ``choice`` always runs Floyd's algorithm, which it does for
# ``d <= 10_000 or m <= d // 50``.
_BLOCK_FEATURES = 32
# Split nodes whose feature subsets a tree draws in one block
_BLOCK_NODES = 64


def _feature_subsets(rng: np.random.Generator, d: int, m: int) -> Iterator[np.ndarray]:
    """Each split node's sorted feature subset, in order: the subsets
    ``np.sort(rng.choice(d, m, replace=False))`` gives, node after node.

    ``choice`` runs Floyd's algorithm (Bentley & Floyd 1987): column ``c``
    draws from ``[0, d - m + c]`` and takes ``d - m + c`` if the draw is
    already taken; then ``m - 1`` more bounded draws shuffle the picks. One
    ``integers`` call draws a block of nodes from the same stream over the
    same bounds, node after node. Floyd's rule then runs one column at a
    time for the whole block; the shuffle's draws go unused, since the
    subset is sorted. Subsets drawn past a tree's last split change nothing:
    its generator serves nothing after them.
    """
    if m > _BLOCK_FEATURES:
        while True:
            yield np.sort(rng.choice(d, size=m, replace=False))
    bounds = np.concatenate((np.arange(d - m, d), np.arange(m - 1, 0, -1)))
    while True:
        draws = rng.integers(0, np.tile(bounds, _BLOCK_NODES), endpoint=True)
        # every growing tree holds a block, so it keeps neither the tiled
        # bounds nor the shuffle's draws (together +1 MB of peak RSS in the
        # 100-tree CLI chain)
        picks = draws.reshape(_BLOCK_NODES, -1)[:, :m].copy()
        del draws
        for c in range(1, m):
            picks[(picks[:, :c] == picks[:, c, None]).any(axis=1), c] = d - m + c
        picks.sort(axis=1)
        yield from picks


def _grow_trees(X: np.ndarray, y: np.ndarray, seeds: list, bootstrap: bool, max_depth: int,
                min_samples_leaf: int, m: int) -> list[dict]:
    """Grow one tree per seed, all in lockstep; returns each tree's node lists.

    Each tree draws its bootstrap rows (or takes every row) and then its
    per-node features from its own generator, in its own preorder. Only
    nodes that may split go on a tree's stack: a node is a leaf at
    ``max_depth``, when pure, or with fewer than ``2 * min_samples_leaf``
    rows. Each pass takes every tree's next node from its stack, as long as
    the pass stays within ``_PASS_ELEMENTS``, scores them all with one
    ``_best_splits`` call and routes every split node's rows to its children.
    """
    n, d = X.shape
    ranks, values = _column_ranks(X)

    def may_split(n_rows: int, n_pos: int, depth: int) -> bool:
        return depth < max_depth and 0 < n_pos < n_rows and n_rows >= 2 * min_samples_leaf

    trees, stacks, subsets = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        rows = (rng.integers(0, n, size=n) if bootstrap else np.arange(n)).astype(np.int32)
        n_pos = int(y[rows].sum())
        trees.append({key: [] for key in NODE_FIELDS})
        _add_node(trees[-1], n - n_pos, n_pos)
        stacks.append([(0, rows, 0)] if may_split(n, n_pos, 0) else [])
        subsets.append(_feature_subsets(rng, d, m))
    pending: list = [None] * len(seeds)
    live = list(range(len(seeds)))
    while live:
        batch, waiting, used = [], [], 0
        for t in live:
            if pending[t] is None:
                if not stacks[t]:
                    continue
                pending[t] = (*stacks[t].pop(), next(subsets[t]))
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
        n_pos = np.array([trees[t]["positives"][node] for t, (node, _, _, _) in zip(batch, nodes)],
                         dtype=float)
        n_neg = sizes - n_pos
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
        # child c of the pass owns child_rows[offsets[c]:offsets[c + 1]]
        offsets = [0, *np.cumsum(np.bincount(child, minlength=2 * len(nodes))).tolist()]
        child_pos = np.bincount(child, weights=y[rows], minlength=2 * len(nodes))
        child_pos = child_pos.astype(np.int64).tolist()
        feature, threshold = feature.tolist(), threshold.tolist()
        for k in split:
            tree, stack, (node, _, depth, _) = trees[batch[k]], stacks[batch[k]], nodes[k]
            start, middle, end = offsets[2 * k:2 * k + 3]
            pos_left, pos_right = child_pos[2 * k:2 * k + 2]
            left = _add_node(tree, middle - start - pos_left, pos_left)
            _add_node(tree, end - middle - pos_right, pos_right)
            tree["feature"][node], tree["threshold"][node] = feature[k], threshold[k]
            tree["left"][node], tree["right"][node] = left, left + 1
            # left on top of the stack: preorder
            for child_id, lo, hi, pos in ((left + 1, middle, end, pos_right),
                                          (left, start, middle, pos_left)):
                if may_split(hi - lo, pos, depth + 1):
                    stack.append((child_id, child_rows[lo:hi].copy(), depth + 1))
    return trees


def train_forest(X, y, n_trees: int = 100, max_depth: int = 12,
                 min_samples_leaf: int = 2, features_per_split: int | None = None,
                 seed: int = 0, bootstrap: bool = True) -> ForestModel:
    """Train a forest of ``n_trees`` bootstrap CART trees.

    ``X`` may hold +-inf but not NaN.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y):
        raise TrainingError(f"bad training shapes X={X.shape}, y={y.shape}")
    if not X.shape[1]:
        raise TrainingError("training features have no columns")
    if np.isnan(X).any():
        raise TrainingError("training features contain NaN")
    check_labels(y, TrainingError)
    y = y.astype(np.int64)
    for name, value in (("n_trees", n_trees), ("max_depth", max_depth),
                        ("min_samples_leaf", min_samples_leaf),
                        ("features_per_split", features_per_split)):
        if value is not None and value < 1:
            raise TrainingError(f"{name} must be >= 1, got {value}")
    if seed < 0:
        raise TrainingError(f"seed must be >= 0, got {seed}")
    if n_trees > _MAX_TREES or n_trees * len(y) > _MAX_TREE_ROWS:
        raise TrainingError(f"a forest of {n_trees} trees on {len(y)} rows is over the limit of "
                            f"{_MAX_TREES} trees and {_MAX_TREE_ROWS} bootstrap rows in all")
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

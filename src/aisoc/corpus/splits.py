"""Dataset partitioning: time-ordered, stratified random, and stratified k-fold.

Time-ordered splits cut the time-sorted record list at count quantiles and
then nudge each cut forward past timestamp ties so the boundary ordering
``max(train ts) < min(validation ts) < min(test ts)`` holds strictly on the
output. Stratified splits shuffle within each class with the spec seed, so
identical (data, spec) inputs always reproduce the same partitions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

from ..errors import SplitError


class SplitKind(str, Enum):
    TIME_ORDERED = "TIME_ORDERED"
    STRATIFIED_RANDOM = "STRATIFIED_RANDOM"
    K_FOLD = "K_FOLD"


@dataclass(frozen=True)
class SplitSpec:
    kind: SplitKind
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    folds: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind is SplitKind.K_FOLD:
            if self.folds < 2:
                raise SplitError(f"K_FOLD requires folds >= 2, got {self.folds}")
            return
        if not all(math.isfinite(f) for f in self.fractions):
            raise SplitError(f"fractions must be finite numbers, got {self.fractions}")
        if any(f < 0 for f in self.fractions):
            raise SplitError(f"fractions must be non-negative, got {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise SplitError(f"fractions must sum to 1, got {self.fractions}")


@dataclass
class DatasetSplit:
    train: list = field(default_factory=list)
    validation: list = field(default_factory=list)
    test: list = field(default_factory=list)
    folds: list[list] | None = None

    def fold_split(self, i: int) -> tuple[list, list]:
        """Return (train, heldout) for fold ``i`` of a K_FOLD split."""
        if self.folds is None:
            raise SplitError("fold_split is only available for K_FOLD splits")
        heldout = self.folds[i]
        train = [x for j, fold in enumerate(self.folds) if j != i for x in fold]
        return train, heldout


def _label_of(item: Any):
    label = getattr(item, "label", None)
    if label is None:
        raise SplitError("stratified splits require labeled items")
    return label


def _time_ordered(items: Sequence[Any], spec: SplitSpec) -> DatasetSplit:
    order = sorted(range(len(items)), key=lambda i: (items[i].timestamp, i))
    ts = [items[i].timestamp for i in order]
    n = len(items)
    f_train, f_val, _ = spec.fractions

    def _advance(cut: int) -> int:
        while 0 < cut < n and ts[cut - 1] == ts[cut]:
            cut += 1
        return cut

    c1 = _advance(int(round(f_train * n)))
    c2 = c1 if f_val == 0 else _advance(max(c1, int(round((f_train + f_val) * n))))
    parts = [order[:c1], order[c1:c2], order[c2:]]
    for frac, part, name in zip(spec.fractions, parts, ("train", "validation", "test")):
        if frac > 0 and not part:
            raise SplitError(f"fraction {frac} leaves the {name} partition empty (n={n})")
    train, validation, test = ([items[i] for i in part] for part in parts)
    return DatasetSplit(train=train, validation=validation, test=test)


def _per_class_indices(items: Sequence[Any]) -> dict:
    by_class: dict = {}
    for i, item in enumerate(items):
        by_class.setdefault(_label_of(item), []).append(i)
    return {k: by_class[k] for k in sorted(by_class, key=lambda c: getattr(c, "value", str(c)))}


def _allocate(count: int, fractions: Sequence[float]) -> list[int]:
    """Largest-remainder allocation with a floor of 1 where feasible."""
    raw = [f * count for f in fractions]
    alloc = [int(v) for v in raw]
    remainders = sorted(range(len(raw)), key=lambda i: (-(raw[i] - alloc[i]), i))
    for i in remainders[: count - sum(alloc)]:
        alloc[i] += 1
    positive = [i for i, f in enumerate(fractions) if f > 0]
    if count >= len(positive):
        for i in positive:
            while alloc[i] == 0:
                donor = max(range(len(alloc)), key=lambda j: (alloc[j], -j))
                alloc[donor] -= 1
                alloc[i] += 1
    return alloc


def _stratified_random(items: Sequence[Any], spec: SplitSpec) -> DatasetSplit:
    rng = random.Random(spec.seed)
    parts: list[list[int]] = [[], [], []]
    for _, indices in _per_class_indices(items).items():
        shuffled = indices[:]
        rng.shuffle(shuffled)
        alloc = _allocate(len(shuffled), spec.fractions)
        pos = 0
        for p, n_p in enumerate(alloc):
            parts[p].extend(shuffled[pos:pos + n_p])
            pos += n_p
    for frac, part, name in zip(spec.fractions, parts, ("train", "validation", "test")):
        if frac > 0 and not part:
            raise SplitError(f"fraction {frac} leaves the {name} partition empty")
    train, validation, test = ([items[i] for i in sorted(part)] for part in parts)
    return DatasetSplit(train=train, validation=validation, test=test)


def _k_fold(items: Sequence[Any], spec: SplitSpec) -> DatasetSplit:
    rng = random.Random(spec.seed)
    folds: list[list[int]] = [[] for _ in range(spec.folds)]
    for _, indices in _per_class_indices(items).items():
        shuffled = indices[:]
        rng.shuffle(shuffled)
        for j, idx in enumerate(shuffled):
            folds[j % spec.folds].append(idx)
    if any(not fold for fold in folds):
        raise SplitError(f"{spec.folds} folds requested but only {len(items)} items available")
    return DatasetSplit(folds=[[items[i] for i in sorted(fold)] for fold in folds])


def split(items: Sequence[Any], spec: SplitSpec) -> DatasetSplit:
    """Partition records or samples according to ``spec``."""
    if not items:
        raise SplitError("cannot split an empty dataset")
    if spec.kind is SplitKind.TIME_ORDERED:
        return _time_ordered(items, spec)
    if spec.kind is SplitKind.STRATIFIED_RANDOM:
        return _stratified_random(items, spec)
    return _k_fold(items, spec)

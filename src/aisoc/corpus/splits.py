"""Dataset partitioning: train/validation/test splits and stratified k-fold.

``split`` cuts items into train, validation and test, time-ordered or
stratified random. Time-ordered splits cut the time-sorted record list at
count quantiles and then nudge each cut forward past timestamp ties so the
boundary ordering ``max(train ts) < min(validation ts) < min(test ts)``
holds strictly on the output. ``k_fold`` deals each class's items
round-robin into folds. The stratified split and ``k_fold`` shuffle each
class with one ``random.Random(seed)``, classes in label order, so identical
(data, seed) inputs always reproduce the same partitions.
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


@dataclass(frozen=True)
class SplitSpec:
    kind: SplitKind
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    seed: int = 0

    def __post_init__(self) -> None:
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


def _shuffled_classes(items: Sequence[Any], seed: int) -> list[list[int]]:
    """Each class's item indices, classes in label order, shuffled by one shared RNG."""
    by_class: dict = {}
    for i, item in enumerate(items):
        label = getattr(item, "label", None)
        if label is None:
            raise SplitError("stratified splits require labeled items")
        by_class.setdefault(label, []).append(i)
    rng = random.Random(seed)
    classes = [by_class[k] for k in sorted(by_class, key=lambda c: getattr(c, "value", str(c)))]
    for indices in classes:
        rng.shuffle(indices)
    return classes


def _time_ordered(items: Sequence[Any], spec: SplitSpec) -> list[list[int]]:
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
    return [order[:c1], order[c1:c2], order[c2:]]


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


def _stratified_random(items: Sequence[Any], spec: SplitSpec) -> list[list[int]]:
    parts: list[list[int]] = [[], [], []]
    for shuffled in _shuffled_classes(items, spec.seed):
        pos = 0
        for p, n_p in enumerate(_allocate(len(shuffled), spec.fractions)):
            parts[p].extend(shuffled[pos:pos + n_p])
            pos += n_p
    return [sorted(part) for part in parts]


def split(items: Sequence[Any], spec: SplitSpec) -> DatasetSplit:
    """Partition records or samples into train/validation/test according to ``spec``."""
    if not items:
        raise SplitError("cannot split an empty dataset")
    if spec.kind is SplitKind.TIME_ORDERED:
        parts, size = _time_ordered(items, spec), f" (n={len(items)})"
    else:
        parts, size = _stratified_random(items, spec), ""
    for frac, part, name in zip(spec.fractions, parts, ("train", "validation", "test")):
        if frac > 0 and not part:
            raise SplitError(f"fraction {frac} leaves the {name} partition empty{size}")
    return DatasetSplit(*([items[i] for i in part] for part in parts))


def k_fold(items: Sequence[Any], folds: int, seed: int = 0) -> list[list]:
    """Stratified k-fold: ``folds`` lists of items, each class dealt round-robin over
    them after its shuffle; a fold keeps its items in input order."""
    if folds < 2:
        raise SplitError(f"K_FOLD requires folds >= 2, got {folds}")
    too_many = f"{folds} folds requested but only {len(items)} items available"
    if folds > len(items):  # before allocating one list per fold
        raise SplitError(too_many)
    parts: list[list[int]] = [[] for _ in range(folds)]
    for shuffled in _shuffled_classes(items, seed):
        for j, idx in enumerate(shuffled):
            parts[j % folds].append(idx)
    if not all(parts):  # a fold no class reached
        raise SplitError(too_many)
    return [[items[i] for i in sorted(part)] for part in parts]

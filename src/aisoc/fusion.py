"""Dual-threshold fusion of calibrated malware and log scores.

A score pair maps to one of three triage levels: HIGH_CONFIDENCE_ATTACK
when both scores reach their thresholds (inclusive), SUSPICIOUS when
exactly the OR-condition holds, NORMAL otherwise. Threshold pairs are
selected by an exhaustive 2-D grid search maximizing 3-class macro-F1 on
a validation set, with ties broken toward the lexicographically smallest
(t_m, t_l) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import TuningError
from .metrics import macro_average, precision_recall_f1


class TriageLabel(IntEnum):
    NORMAL = 0
    SUSPICIOUS = 1
    HIGH_CONFIDENCE_ATTACK = 2


TRIAGE_CLASSES = (TriageLabel.NORMAL, TriageLabel.SUSPICIOUS, TriageLabel.HIGH_CONFIDENCE_ATTACK)
# The finest tuning grid: at most 1001 thresholds per axis, so each of the grid
# search's (G, G) arrays is 8 MB and its peak allocation stays near 96 MB for any
# item count (tracemalloc; a (3, 3, G, G) count table and n x G hit matrices
# peaked at 168 MB for 300 items and 226 MB for 3000).
MIN_GRID_STEP = 0.001


@dataclass(frozen=True)
class CalibratedScorePair:
    """Calibrated (malware, log) scores for one evaluation entity."""

    s_m: float
    s_l: float

    def __post_init__(self) -> None:
        for name, value in (("s_m", self.s_m), ("s_l", self.s_l)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FusionConfig:
    """Tuned thresholds plus the metadata needed to reproduce them."""

    t_m: float
    t_l: float
    grid_step: float = 0.01
    tuned_on: str = ""
    version: str = "1"

    def __post_init__(self) -> None:
        for name, value in (("t_m", self.t_m), ("t_l", self.t_l)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 < self.grid_step <= 0.5:
            raise ValueError(f"grid_step must be in (0, 0.5], got {self.grid_step}")

    def to_dict(self) -> dict:
        return {"t_m": float(self.t_m), "t_l": float(self.t_l),
                "grid_step": float(self.grid_step), "tuned_on": self.tuned_on,
                "version": self.version}

    @classmethod
    def from_dict(cls, payload: dict) -> "FusionConfig":
        return cls(**payload)


def fuse_scores(s_m: float, s_l: float, t_m: float, t_l: float) -> TriageLabel:
    """Triage rule on raw floats; both threshold comparisons are inclusive."""
    hit_m = s_m >= t_m
    hit_l = s_l >= t_l
    if hit_m and hit_l:
        return TriageLabel.HIGH_CONFIDENCE_ATTACK
    if hit_m or hit_l:
        return TriageLabel.SUSPICIOUS
    return TriageLabel.NORMAL


def threshold_grid(grid_step: float) -> np.ndarray:
    """The candidate thresholds {0, step, 2*step, ..., 1} (1 always included)."""
    if not MIN_GRID_STEP <= grid_step <= 0.5:
        raise TuningError(f"grid_step must be in [{MIN_GRID_STEP}, 0.5], got {grid_step}")
    n = int(np.floor(1.0 / grid_step + 1e-9))
    values = np.round(np.arange(n + 1) * grid_step, 10)
    if values[-1] < 1.0:
        values = np.append(values, 1.0)
    return values


def _by_prediction(reached_m: np.ndarray, reached_l: np.ndarray, shape: tuple) -> tuple:
    """How many items the fused label calls NORMAL, SUSPICIOUS and HIGH at each
    cell of a ``shape`` grid, from how many of each axis's ascending thresholds
    each item reaches: it reaches the i-th when that count exceeds i. The
    counts are whole numbers, exact in float64."""
    g_m, g_l = shape
    cells = np.bincount(reached_m * (g_l + 1) + reached_l,  # items by thresholds reached
                        minlength=(g_m + 1) * (g_l + 1)).reshape(g_m + 1, g_l + 1)
    at_most = cells.cumsum(axis=0).cumsum(axis=1)  # items reaching <= i and <= j of them
    at_least = cells[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]  # >= i and >= j
    neither = at_most[:g_m, :g_l].astype(float)
    both = at_least[1:, 1:].astype(float)
    return neither, len(reached_m) - both - neither, both


def macro_f1_grid(pairs: list[CalibratedScorePair], truth: list[TriageLabel],
                  grid_m: np.ndarray, grid_l: np.ndarray) -> np.ndarray:
    """Macro-F1 of the fused label at every (t_m, t_l) cell of the grid, whose
    thresholds ascend on each axis.

    Class by class: its true positives from its own items, its predicted
    count from all items, its actual count a scalar. Each count table is a
    2-D histogram of how many thresholds the items reach, summed toward
    each cell, so no table is (truth x predicted) and none is a matrix
    product.
    """
    reached_m = np.searchsorted(grid_m, [p.s_m for p in pairs], side="right")
    reached_l = np.searchsorted(grid_l, [p.s_l for p in pairs], side="right")
    y = np.array([int(t) for t in truth])
    shape = (len(grid_m), len(grid_l))
    predicted = _by_prediction(reached_m, reached_l, shape)
    per_class = []
    for c in range(3):
        mask = y == c
        tp = _by_prediction(reached_m[mask], reached_l[mask], shape)[c]
        per_class.append(precision_recall_f1(tp, predicted[c], float(mask.sum()))[2])
    return macro_average(per_class)


def tune_thresholds(validation_pairs: list[CalibratedScorePair],
                    truth: list[TriageLabel], grid_step: float = 0.01,
                    tuned_on: str = "validation", version: str = "1") -> FusionConfig:
    """Exhaustive grid search for the macro-F1-maximizing threshold pair."""
    if not validation_pairs:
        raise TuningError("validation set is empty")
    if len(validation_pairs) != len(truth):
        raise TuningError(f"got {len(validation_pairs)} pairs but {len(truth)} truth labels")
    if len(set(truth)) < 2:
        raise TuningError("threshold tuning requires >= 2 distinct truth classes")
    grid = threshold_grid(grid_step)
    f1 = macro_f1_grid(validation_pairs, truth, grid, grid)
    flat_best = int(np.argmax(f1))  # first max in row-major order = smallest (t_m, t_l)
    i, j = divmod(flat_best, len(grid))
    return FusionConfig(t_m=float(grid[i]), t_l=float(grid[j]), grid_step=grid_step,
                        tuned_on=tuned_on, version=version)


def tuning_macro_f1(pairs: list[CalibratedScorePair], truth: list[TriageLabel],
                    config: FusionConfig) -> float:
    """Macro-F1 that ``config`` attains on (pairs, truth)."""
    value = macro_f1_grid(pairs, truth, np.array([config.t_m]), np.array([config.t_l]))
    return float(value[0, 0])

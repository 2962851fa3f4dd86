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

from .corpus.records import Label
from .errors import TuningError
from .metrics import macro_average, precision_recall_f1


class TriageLabel(IntEnum):
    NORMAL = 0
    SUSPICIOUS = 1
    HIGH_CONFIDENCE_ATTACK = 2


TRIAGE_CLASSES = (TriageLabel.NORMAL, TriageLabel.SUSPICIOUS, TriageLabel.HIGH_CONFIDENCE_ATTACK)


@dataclass(frozen=True)
class CalibratedScorePair:
    """Calibrated (malware, log) scores for one evaluation entity."""

    s_m: float
    s_l: float
    entity_id: str = ""

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


def fuse(pair: CalibratedScorePair, config: FusionConfig) -> TriageLabel:
    return fuse_scores(pair.s_m, pair.s_l, config.t_m, config.t_l)


def derive_truth_triage(malware_label, log_label) -> TriageLabel:
    """The fusion rule on ground-truth component labels as 0/1 scores."""
    if malware_label is None or log_label is None:
        raise ValueError("both component labels are required to derive triage truth")
    m, l = (float(v is Label.MALICIOUS if isinstance(v, Label) else bool(v))
            for v in (malware_label, log_label))
    return fuse_scores(m, l, 1.0, 1.0)


def threshold_grid(grid_step: float) -> np.ndarray:
    """The candidate thresholds {0, step, 2*step, ..., 1} (1 always included)."""
    if not 0.0 < grid_step <= 0.5:
        raise TuningError(f"grid_step must be in (0, 0.5], got {grid_step}")
    n = int(np.floor(1.0 / grid_step + 1e-9))
    values = np.round(np.arange(n + 1) * grid_step, 10)
    if values[-1] < 1.0:
        values = np.append(values, 1.0)
    return values


def macro_f1_grid(pairs: list[CalibratedScorePair], truth: list[TriageLabel],
                  grid_m: np.ndarray, grid_l: np.ndarray) -> np.ndarray:
    """Macro-F1 of the fused label at every (t_m, t_l) cell of the grid."""
    s_m = np.array([p.s_m for p in pairs])
    s_l = np.array([p.s_l for p in pairs])
    y = np.array([int(t) for t in truth])
    hits_m = (s_m[:, None] >= grid_m[None, :]).astype(np.float64)  # n x Gm
    hits_l = (s_l[:, None] >= grid_l[None, :]).astype(np.float64)  # n x Gl

    counts = np.zeros((3, 3, len(grid_m), len(grid_l)))  # truth x pred x grid
    for t in range(3):
        mask = y == t
        if not mask.any():
            continue
        a = hits_m[mask]
        b = hits_l[mask]
        both = a.T @ b                      # predicted HIGH
        neither = (1.0 - a).T @ (1.0 - b)   # predicted NORMAL
        counts[t, 2] = both
        counts[t, 0] = neither
        counts[t, 1] = float(mask.sum()) - both - neither
    return macro_average([precision_recall_f1(counts[c, c], counts[:, c].sum(axis=0),
                                              counts[c].sum(axis=0))[2] for c in range(3)])


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

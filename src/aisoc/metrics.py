"""Classification metrics and the serialized evaluation report.

Precision and recall use the explicit zero-division convention: a class
with an empty denominator scores 0 and is recorded in the report's
``zero_division_classes`` flag list. ROC AUC is the Mann-Whitney statistic
with ties counted 0.5; PR AUC is average precision with step-wise
interpolation (no trapezoids). ``tie_groups`` and ``precision_recall_f1``
are the one implementation of tied-score runs and of F1 from counts; the
threshold grid search and isotonic calibration use them too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MetricError


@dataclass
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    setting: str
    split: str
    per_class: list[ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: list[list[int]]  # rows = truth, cols = prediction
    roc_auc: float | None = None
    pr_auc: float | None = None
    seeds: list[int] = field(default_factory=list)
    median_seed: int | None = None
    fingerprints: dict = field(default_factory=dict)
    zero_division_classes: list[str] = field(default_factory=list)

    @property
    def total_support(self) -> int:
        return sum(c.support for c in self.per_class)

    def to_json_dict(self) -> dict:
        return {
            "setting": self.setting,
            "split": self.split,
            "classes": [
                {"name": c.name, "precision": c.precision, "recall": c.recall,
                 "f1": c.f1, "support": c.support}
                for c in self.per_class
            ],
            "macro": {"precision": self.macro_precision, "recall": self.macro_recall,
                      "f1": self.macro_f1},
            "auc": (None if self.roc_auc is None
                    else {"roc": self.roc_auc, "pr": self.pr_auc}),
            "confusion": self.confusion,
            "seeds": self.seeds,
            "median_seed": self.median_seed,
            "fingerprints": self.fingerprints,
            "zero_division_classes": self.zero_division_classes,
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"), allow_nan=False).encode("utf-8")

    def render_table(self) -> str:
        width = max(24, *(len(c.name) for c in self.per_class)) + 2
        header = f"{'Class':<{width}}{'Precision':>10}{'Recall':>8}{'F1':>7}{'Support':>9}"
        lines = [f"[{self.setting} / {self.split}]", header, "-" * len(header)]
        for c in self.per_class:
            lines.append(f"{c.name:<{width}}{c.precision:>10.2f}{c.recall:>8.2f}"
                         f"{c.f1:>7.2f}{c.support:>9d}")
        lines.append("-" * len(header))
        lines.append(f"{'Macro average':<{width}}{self.macro_precision:>10.2f}"
                     f"{self.macro_recall:>8.2f}{self.macro_f1:>7.2f}{'--':>9}")
        if self.roc_auc is not None:
            lines.append(f"ROC AUC {self.roc_auc:.4f}   PR AUC {self.pr_auc:.4f}")
        return "\n".join(lines)


def _class_name(cls) -> str:
    return getattr(cls, "name", None) or getattr(cls, "value", None) or str(cls)


def precision_recall_f1(tp, predicted, actual):
    """Elementwise precision, recall and F1 from true-positive, predicted and
    actual counts; an empty denominator (or P + R = 0) gives 0."""
    tp, predicted, actual = (np.asarray(a, dtype=float) for a in (tp, predicted, actual))
    precision = np.where(predicted > 0, tp / np.maximum(predicted, 1.0), 0.0)
    recall = np.where(actual > 0, tp / np.maximum(actual, 1.0), 0.0)
    pr = precision + recall
    f1 = np.where(pr > 0, 2.0 * precision * recall / np.maximum(pr, 1e-300), 0.0)
    return precision, recall, f1


def macro_average(per_class):
    """Mean over the first axis as a running total from 0.0 in class order."""
    total = 0.0
    for value in per_class:
        total = total + value
    return total / len(per_class)


def classification_report(predictions, truth, class_set, setting: str = "",
                          split: str = "", fingerprints: dict | None = None) -> EvalReport:
    """Per-class and macro precision/recall/F1 plus the confusion matrix."""
    predictions = list(predictions)
    truth = list(truth)
    if len(predictions) != len(truth):
        raise MetricError(f"got {len(predictions)} predictions but {len(truth)} truths")
    class_set = list(class_set)
    index = {c: i for i, c in enumerate(class_set)}
    for kind, values in (("prediction", predictions), ("truth", truth)):
        for value in values:
            if value not in index:
                raise MetricError(f"{kind} {value!r} not in class set")

    k = len(class_set)
    cells = [index[t] * k + index[p] for p, t in zip(predictions, truth)]
    confusion = np.bincount(np.array(cells, dtype=np.int64), minlength=k * k).reshape(k, k)
    predicted, actual = confusion.sum(axis=0), confusion.sum(axis=1)
    precision, recall, f1 = precision_recall_f1(np.diag(confusion), predicted, actual)
    names = [_class_name(c) for c in class_set]
    per_class = [ClassMetrics(name=name, precision=p, recall=r, f1=f, support=s)
                 for name, p, r, f, s in zip(names, precision.tolist(), recall.tolist(),
                                             f1.tolist(), actual.tolist())]
    return EvalReport(
        setting=setting, split=split, per_class=per_class,
        macro_precision=float(macro_average(precision)),
        macro_recall=float(macro_average(recall)), macro_f1=float(macro_average(f1)),
        confusion=confusion.tolist(),
        fingerprints=dict(fingerprints or {}),
        zero_division_classes=[name for name, p, a in zip(names, predicted, actual)
                               if p == 0 or a == 0])


def _check_scores(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.shape != y.shape or s.ndim != 1:
        raise MetricError(f"scores/labels shape mismatch: {s.shape} vs {y.shape}")
    if not set(np.unique(y)) <= {0, 1}:
        raise MetricError("labels must be binary 0/1")
    if len(set(np.unique(y))) < 2:
        raise MetricError("metric is undefined for single-class labels")
    return s, y


def tie_groups(sorted_values) -> tuple[np.ndarray, np.ndarray]:
    """First index and size of each run of equal values in a sorted array.

    A run ends where a value ``!=`` the next, so NaNs never group."""
    v = np.asarray(sorted_values)
    starts = np.flatnonzero(np.append(len(v) > 0, v[1:] != v[:-1]))
    return starts, np.diff(np.append(starts, len(v)))


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg), ties counted 0.5."""
    s, y = _check_scores(scores, labels)
    order = np.argsort(s, kind="mergesort")
    starts, sizes = tie_groups(s[order])
    ranks = np.empty(len(s))
    ranks[order] = np.repeat((2 * starts + sizes - 1) / 2.0 + 1.0, sizes)  # mean 1-based rank
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pr_auc(scores, labels) -> float:
    """Average precision: step-wise interpolated area under the PR curve."""
    s, y = _check_scores(scores, labels)
    order = np.argsort(-s, kind="mergesort")
    starts, sizes = tie_groups(s[order])
    ends = starts + sizes
    tp = np.cumsum(y[order])[ends - 1]
    recall = tp / int(y.sum())
    precision = tp / ends
    steps = (recall - np.append(0.0, recall[:-1])) * precision
    return float(np.add.accumulate(np.append(0.0, steps))[-1])


def log_loss(probs, labels, eps: float = 1e-12) -> float:
    """Mean negative log-likelihood with probability clipping."""
    p = np.clip(np.asarray(probs, dtype=float), eps, 1.0 - eps)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape:
        raise MetricError(f"probs/labels shape mismatch: {p.shape} vs {y.shape}")
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

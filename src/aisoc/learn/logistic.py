"""L2-regularized logistic regression on sparse TF-IDF vectors.

The trainer minimizes mean log-loss plus ``(l2/2) * ||w||^2`` (the bias is
unregularized) by deterministic full-batch gradient descent with an Armijo
backtracking line search, so the loss never increases across accepted steps
and identical inputs always reproduce identical weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import DimensionError, TrainingError
from ..features import SparseVector

_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 60
_GRAD_TOL = 1e-9


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    regularization: float
    training_meta: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def to_dict(self) -> dict:
        return {
            "weights": [float(v) for v in self.weights],
            "bias": float(self.bias),
            "regularization": float(self.regularization),
            "training_meta": self.training_meta,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LogisticModel":
        return cls(weights=np.asarray(payload["weights"], dtype=float),
                   bias=float(payload["bias"]),
                   regularization=float(payload["regularization"]),
                   training_meta=dict(payload["training_meta"]))


def sigmoid(z):
    """Logistic function, elementwise; a float for a scalar.

    ``e = exp(-|z|)`` cannot overflow, and the result is ``1 / (1 + e)``
    where ``z >= 0`` and ``e / (1 + e)`` elsewhere: the two stable branches,
    computed without splitting the array. ``-|z|`` is taken as
    ``min(z, -z)``, which keeps a NaN's sign.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DesignMatrix:
    """Sparse rows stored as parallel arrays of row ids, column ids and values.

    Entries are in storage order: row by row, each row's entries in its
    vector's order. Each product is one ``np.bincount``, which adds every
    entry's term to its bucket in storage order starting from 0.0, the order
    of a CSR product (``X @ w``) and of its transpose's CSC product
    (``X.T @ r``), so both give the same bits as those.
    """

    rows: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``X @ w``."""
        return np.bincount(self.rows, self.data * w[self.indices],
                           minlength=self.shape[0]).astype(float, copy=False)

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """``X.T @ r``."""
        return np.bincount(self.indices, self.data * r[self.rows],
                           minlength=self.shape[1]).astype(float, copy=False)


def design_matrix(X: Sequence[SparseVector]) -> DesignMatrix:
    """Stack sparse vectors into one design matrix, checking dimensions."""
    if not X:
        raise TrainingError("empty design matrix")
    dim = X[0].dim
    if any(x.dim != dim for x in X):
        raise DimensionError("feature vectors have inconsistent dimensions")
    rows = np.repeat(np.arange(len(X)), [len(x.indices) for x in X])
    return DesignMatrix(rows=rows, indices=np.concatenate([x.indices for x in X]),
                        data=np.concatenate([x.values for x in X]), shape=(len(X), dim))


def _loss(z: np.ndarray, w: np.ndarray, y: np.ndarray, l2: float,
          sample_weight: np.ndarray | None) -> float:
    """(Weighted) mean log-loss at margins ``z`` plus the L2 penalty on ``w``."""
    # log(1 + e^z) - y*z per sample, computed stably.
    per_sample = np.logaddexp(0.0, z) - y * z
    if sample_weight is None:
        mean = float(np.sum(per_sample)) / float(len(z))
    else:
        mean = float(np.sum(sample_weight * per_sample)) / float(np.sum(sample_weight))
    return mean + 0.5 * l2 * float(w @ w)


def _gradient(z: np.ndarray, w: np.ndarray, X: DesignMatrix, y: np.ndarray, l2: float,
              sample_weight: np.ndarray | None) -> tuple[np.ndarray, float]:
    """Gradient of ``_loss`` in (w, b) at margins ``z = X @ w + b``."""
    residual = sigmoid(z) - y
    if sample_weight is None:
        total = float(len(z))
    else:
        total = float(np.sum(sample_weight))
        residual = sample_weight * residual
    return X.rmatvec(residual) / total + l2 * w, float(np.sum(residual)) / total


def loss_and_grad(w: np.ndarray, b: float, X: DesignMatrix, y: np.ndarray,
                  l2: float, sample_weight: np.ndarray | None = None
                  ) -> tuple[float, np.ndarray, float]:
    """(Weighted) mean log-loss with L2 penalty, and its gradient in (w, b)."""
    z = X.matvec(w) + b
    return (_loss(z, w, y, l2, sample_weight),
            *_gradient(z, w, X, y, l2, sample_weight))


def balanced_weights(y: np.ndarray) -> np.ndarray:
    """Inverse-frequency sample weights: each class contributes equal mass."""
    n_pos = float(np.sum(y))
    n_neg = len(y) - n_pos
    return np.where(y == 1, len(y) / (2.0 * n_pos), len(y) / (2.0 * n_neg))


def train_logistic(X: Sequence[SparseVector], y: Sequence[int], l2: float = 1e-3,
                   epochs: int = 500, seed: int = 0,
                   class_weight: str | None = None) -> LogisticModel:
    """Train by full-batch gradient descent with backtracking line search.

    ``class_weight="balanced"`` applies inverse-frequency sample weights,
    useful when the benign class is tiny and its metrics unstable.
    """
    y_arr = np.asarray(y, dtype=float)
    if len(X) != len(y_arr):
        raise TrainingError(f"got {len(X)} vectors but {len(y_arr)} labels")
    if len(X) < 2:
        raise TrainingError("need at least 2 training examples")
    classes = set(np.unique(y_arr))
    if not classes <= {0.0, 1.0}:
        raise TrainingError(f"labels must be binary 0/1, got {sorted(classes)}")
    if len(classes) < 2:
        raise TrainingError("training data contains a single class")
    if not (math.isfinite(l2) and l2 >= 0):
        raise TrainingError(f"l2 must be a finite number >= 0, got {l2}")
    if epochs < 1:
        raise TrainingError(f"epochs must be >= 1, got {epochs}")
    if class_weight not in (None, "balanced"):
        raise TrainingError(f"class_weight must be None or 'balanced', got {class_weight!r}")
    sample_weight = balanced_weights(y_arr) if class_weight == "balanced" else None

    A = design_matrix(X)
    w = np.zeros(A.shape[1])
    b = 0.0
    z = A.matvec(w) + b
    loss = initial_loss = _loss(z, w, y_arr, l2, sample_weight)
    step = 1.0
    iterations = 0
    converged = False
    for _ in range(epochs):
        # Only an accepted step's gradient is used, so a trial step costs a
        # loss alone and the gradient comes from the accepted step's margins.
        grad_w, grad_b = _gradient(z, w, A, y_arr, l2, sample_weight)
        grad_norm_sq = float(grad_w @ grad_w) + grad_b * grad_b
        if np.sqrt(grad_norm_sq) < _GRAD_TOL:
            converged = True
            break
        accepted = False
        alpha = step
        for _ in range(_MAX_BACKTRACKS):
            w_new = w - alpha * grad_w
            b_new = b - alpha * grad_b
            z_new = A.matvec(w_new) + b_new
            loss_new = _loss(z_new, w_new, y_arr, l2, sample_weight)
            if loss_new <= loss - _ARMIJO_C * alpha * grad_norm_sq:
                accepted = True
                break
            alpha *= _BACKTRACK_FACTOR
        if not accepted:
            break
        w, b, z, loss = w_new, b_new, z_new, loss_new
        step = min(alpha * 2.0, 1e6)
        iterations += 1

    meta = {
        "iterations": iterations,
        "initial_loss": float(initial_loss),
        "final_loss": float(loss),
        "converged": converged,
        "seed": seed,
        "class_weight": class_weight,
    }
    return LogisticModel(weights=w, bias=b, regularization=l2, training_meta=meta)


def _margin(model: LogisticModel, x: SparseVector) -> float:
    if x.dim != model.dimension:
        raise DimensionError(f"vector dim {x.dim} != model dim {model.dimension}")
    return float(model.weights[x.indices] @ x.values) + model.bias


def score_logistic(model: LogisticModel, x):
    """Raw probability sigmoid(w.x + b) for one SparseVector, or for each of a list.

    One vector gives a float, a list of them an array. Each margin is its
    own row's ``weights[indices] @ values`` (a CSR product sums in another
    order), so a list scores bit for bit like its vectors one at a time;
    the sigmoid then runs once over all.
    """
    single = isinstance(x, SparseVector)
    p = sigmoid(np.array([_margin(model, v) for v in ([x] if single else x)], dtype=float))
    return float(p[0]) if single else p

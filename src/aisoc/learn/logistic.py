"""L2-regularized logistic regression on sparse TF-IDF vectors.

The trainer minimizes mean log-loss plus ``(l2/2) * ||w||^2`` (the bias is
unregularized) by deterministic full-batch gradient descent with an Armijo
backtracking line search, so the loss never increases across accepted steps
and identical inputs always reproduce identical weights.

The mean is always a weighted one: an unweighted fit weighs each sample 1,
which gives the plain mean's bits (``1.0 * x == x``, and a sum of ones is
exact), and ``class_weight="balanced"`` uses ``balanced_weights``. Training
takes one ``DesignMatrix``; scoring takes one, or a single ``SparseVector``
for one row. ``design_matrix`` stacks a list of vectors into a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import DimensionError, TrainingError
from ..features import DesignMatrix, SparseVector
from ..metrics import check_labels
from ..readonly import read_only

_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 60
_GRAD_TOL = 1e-9


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    regularization: float
    training_meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "training_meta", read_only(self.training_meta))

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def to_dict(self) -> dict:
        return {
            "weights": [float(v) for v in self.weights],
            "bias": float(self.bias),
            "regularization": float(self.regularization),
            "training_meta": dict(self.training_meta),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LogisticModel":
        return cls(weights=np.asarray(payload["weights"], dtype=float),
                   bias=float(payload["bias"]),
                   regularization=float(payload["regularization"]),
                   training_meta=payload["training_meta"])


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


def margin_log_loss(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample log-loss ``log(1 + e^z) - y*z`` at margins ``z``, computed stably."""
    return np.logaddexp(0.0, z) - y * z


def _loss(z: np.ndarray, w: np.ndarray, y: np.ndarray, l2: float,
          sample_weight: np.ndarray) -> float:
    """Weighted mean log-loss at margins ``z`` plus the L2 penalty on ``w``."""
    per_sample = margin_log_loss(z, y)
    mean = float(np.sum(sample_weight * per_sample)) / float(np.sum(sample_weight))
    return mean + 0.5 * l2 * float(w @ w)


def _gradient(z: np.ndarray, w: np.ndarray, X: DesignMatrix, y: np.ndarray, l2: float,
              sample_weight: np.ndarray) -> tuple[np.ndarray, float]:
    """Gradient of ``_loss`` in (w, b) at margins ``z = X @ w + b``."""
    residual = sample_weight * (sigmoid(z) - y)
    total = float(np.sum(sample_weight))
    return X.rmatvec(residual) / total + l2 * w, float(np.sum(residual)) / total


def loss_and_grad(w: np.ndarray, b: float, X: DesignMatrix, y: np.ndarray,
                  l2: float, sample_weight: np.ndarray | None = None
                  ) -> tuple[float, np.ndarray, float]:
    """(Weighted) mean log-loss with L2 penalty, and its gradient in (w, b);
    no ``sample_weight`` is a weight of 1 per sample."""
    if sample_weight is None:
        sample_weight = np.ones(len(y))
    z = X.matvec(w) + b
    return (_loss(z, w, y, l2, sample_weight),
            *_gradient(z, w, X, y, l2, sample_weight))


def balanced_weights(y: np.ndarray) -> np.ndarray:
    """Inverse-frequency sample weights: each class contributes equal mass."""
    n_pos = float(np.sum(y))
    n_neg = len(y) - n_pos
    return np.where(y == 1, len(y) / (2.0 * n_pos), len(y) / (2.0 * n_neg))


def train_logistic(X: DesignMatrix, y: Sequence[int], l2: float = 1e-3, epochs: int = 500,
                   seed: int = 0, class_weight: str | None = None) -> LogisticModel:
    """Train by full-batch gradient descent with backtracking line search.

    ``X`` is a ``DesignMatrix``, as ``transform_text`` gives for a list of
    messages (``design_matrix`` stacks ``SparseVector`` rows into one).
    ``class_weight="balanced"`` applies inverse-frequency sample weights,
    useful when the benign class is tiny and its metrics unstable.
    """
    y_arr = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n != len(y_arr):
        raise TrainingError(f"got {n} vectors but {len(y_arr)} labels")
    if n < 2:
        raise TrainingError("need at least 2 training examples")
    check_labels(y_arr, TrainingError)
    if not (math.isfinite(l2) and l2 >= 0):
        raise TrainingError(f"l2 must be a finite number >= 0, got {l2}")
    if epochs < 1:
        raise TrainingError(f"epochs must be >= 1, got {epochs}")
    if class_weight not in (None, "balanced"):
        raise TrainingError(f"class_weight must be None or 'balanced', got {class_weight!r}")
    sample_weight = balanced_weights(y_arr) if class_weight == "balanced" else np.ones(n)

    w = np.zeros(X.shape[1])
    b = 0.0
    z = X.matvec(w) + b
    loss = initial_loss = _loss(z, w, y_arr, l2, sample_weight)
    step = 1.0
    iterations = 0
    converged = False
    for _ in range(epochs):
        # Only an accepted step's gradient is used, so a trial step costs a
        # loss alone and the gradient comes from the accepted step's margins.
        grad_w, grad_b = _gradient(z, w, X, y_arr, l2, sample_weight)
        grad_norm_sq = float(grad_w @ grad_w) + grad_b * grad_b
        if np.sqrt(grad_norm_sq) < _GRAD_TOL:
            converged = True
            break
        accepted = False
        alpha = step
        for _ in range(_MAX_BACKTRACKS):
            w_new = w - alpha * grad_w
            b_new = b - alpha * grad_b
            z_new = X.matvec(w_new) + b_new
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


def score_logistic(model: LogisticModel, x):
    """Raw probability sigmoid(w.x + b): a float for one ``SparseVector``, an
    array with one per row for a ``DesignMatrix``.

    A block gathers its entries' weights once, and each row's margin is
    ``gathered[s:e] @ data[s:e]``, the same 1-D BLAS ``ddot`` that scores a
    vector alone, so a row scores to the same bits alone and in any block;
    the sigmoid then runs once over all margins. The right operand is copied
    to a fresh array, as a vector's own values are: the generic x86-64
    OpenBLAS ``ddot`` (``OPENBLAS_CORETYPE=Prescott``) sums in an order that
    depends on that operand's 16-byte alignment. A block product
    (``X.matvec``, or a batched ``matmul`` of the rows) sums in other orders
    and gives other bits.
    """
    single = isinstance(x, SparseVector)
    dim = x.dim if single else x.shape[1]
    if dim != model.dimension:
        raise DimensionError(f"vector dim {dim} != model dim {model.dimension}")
    if single:  # the block of one, without the block's row bookkeeping
        margins = np.array([float(model.weights[x.indices] @ x.values) + model.bias])
    else:
        gathered, data = model.weights[x.indices], x.data
        ends = np.cumsum(np.bincount(x.rows, minlength=x.shape[0])).tolist()
        margins = np.array([gathered[s:e] @ data[s:e].copy() for s, e in zip([0, *ends], ends)],
                           dtype=float) + model.bias
    p = sigmoid(margins)
    return float(p[0]) if single else p

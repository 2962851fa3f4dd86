"""The two detectors: sparse logistic regression and a CART random forest."""

from .forest import ForestModel, TreeNode, gini, score_forest, train_forest
from .logistic import (
    LogisticModel,
    balanced_weights,
    design_matrix,
    loss_and_grad,
    score_logistic,
    sigmoid,
    train_logistic,
)

__all__ = [
    "ForestModel",
    "LogisticModel",
    "TreeNode",
    "balanced_weights",
    "design_matrix",
    "gini",
    "loss_and_grad",
    "score_forest",
    "score_logistic",
    "sigmoid",
    "train_forest",
    "train_logistic",
]

"""Sample-weight boosting of teacher-misclassified training samples.

Weights start uniform, are multiplied per step by the real-valued
multiclass update exp(-((C-1)/C) * y . log p) under the frozen teacher's
probabilities, and renormalize to the simplex. The classic ensemble step
is deliberately absent: weights only reshape the next student's
supervised loss, a ``tensor.cross_entropy`` weighted per sample. Both
read -y . log p from ``tensor.cross_entropy_np``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor, cross_entropy_np


@dataclass
class SampleWeights:
    weights: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ContractError("weights must be a non-empty vector")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise ContractError("weights must be positive and finite")

    @property
    def n_train(self) -> int:
        return self.weights.shape[0]


def init_weights(n_train: int, n_classes: int) -> SampleWeights:
    """Uniform 1/n_train."""
    if n_train < 1:
        raise ContractError(f"need at least one training sample, got {n_train}")
    return SampleWeights(np.full(n_train, 1.0 / n_train), n_classes)


def samme_r_update(
    weights: SampleWeights, teacher_probs: np.ndarray, labels_one_hot: np.ndarray
) -> SampleWeights:
    """Multiplicative reweighting by the teacher's true-class confidence.

    w_i <- w_i * exp(-((C-1)/C) * y_i . log p_i), then renormalized to
    sum 1. Probabilities are clamped to >= PROB_FLOOR before the log, bounding
    any single multiplier. Confidently-correct samples keep their weight;
    low true-class probability inflates it.
    """
    p = np.asarray(teacher_probs, dtype=np.float64)
    y = np.asarray(labels_one_hot, dtype=np.float64)
    if p.shape != y.shape or p.shape != (weights.n_train, weights.n_classes):
        raise ContractError(
            f"probabilities {p.shape}, labels {y.shape} must both be "
            f"({weights.n_train}, {weights.n_classes})"
        )
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-6):
        raise ContractError("teacher probability rows must sum to 1")
    c = weights.n_classes
    w = weights.weights * np.exp(((c - 1) / c) * cross_entropy_np(p, y))
    return SampleWeights(w / w.sum(), c)


def weighted_label_loss(probs: Tensor, labels_one_hot: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted cross-entropy -sum_i w_i * y_i . log p_i.

    With uniform weights this is exactly the mean cross-entropy, so the
    plain supervised loss is the zero-boosting special case. Gradients
    flow only into the probabilities.
    """
    y = np.asarray(labels_one_hot, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if probs.shape != y.shape:
        raise ContractError(f"probabilities {probs.shape} and labels {y.shape} differ")
    if w.shape != (probs.shape[0],):
        raise ContractError(
            f"{w.shape[0] if w.ndim == 1 else w.shape} weights for {probs.shape[0]} samples"
        )
    return T.cross_entropy(probs, y, w)

"""Loss functions and functional helpers shared across models."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, fused_bce_with_logits, stable_softmax

__all__ = [
    "binary_cross_entropy",
    "binary_cross_entropy_with_logits",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "weighted_binary_cross_entropy_with_logits",
    "stable_softmax",
]

_EPS = 1e-10


def binary_cross_entropy(pred: Tensor, target: np.ndarray | Tensor,
                         reduction: str = "sum") -> Tensor:
    """Generalised cross-entropy between probabilities (paper Eq. 17).

    ``target`` may itself be a soft distribution in ``[0, 1]`` — exactly how
    AnECI compares the reconstructed proximity ``Â`` against the high-order
    proximity ``Ã``.
    """
    target_data = target.data if isinstance(target, Tensor) else np.asarray(target)
    clipped = pred.clip(_EPS, 1.0 - _EPS)
    loss = -(Tensor(target_data) * clipped.log()
             + Tensor(1.0 - target_data) * (1.0 - clipped).log())
    return _reduce(loss, reduction)


def binary_cross_entropy_with_logits(logits: Tensor, target: np.ndarray | Tensor,
                                     reduction: str = "sum",
                                     buffers: dict | None = None) -> Tensor:
    """Numerically stable BCE computed on logits.

    ``buffers`` is handed to the fused kernel (see
    :func:`~repro.nn.autograd.fused_bce_with_logits`).
    """
    target_data = target.data if isinstance(target, Tensor) else np.asarray(target)
    return fused_bce_with_logits(logits, target_data, reduction=reduction,
                                 buffers=buffers)


def weighted_binary_cross_entropy_with_logits(
        logits: Tensor, target: np.ndarray, pos_weight: float,
        reduction: str = "mean") -> Tensor:
    """BCE with a positive-class weight, as used by GAE on sparse graphs."""
    target = np.asarray(target)
    weights = np.where(target > 0.5, pos_weight, 1.0)
    return fused_bce_with_logits(logits, target, weights=weights,
                                 reduction=reduction)


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  index: np.ndarray | None = None,
                  reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy on integer labels, optionally over a node subset."""
    log_probs = logits.log_softmax(axis=-1)
    if index is not None:
        log_probs = log_probs[index]
        labels = np.asarray(labels)[index]
    return nll_loss(log_probs, labels, reduction=reduction)


def nll_loss(log_probs: Tensor, labels: np.ndarray,
             reduction: str = "mean") -> Tensor:
    labels = np.asarray(labels)
    n = log_probs.shape[0]
    picked = log_probs[(np.arange(n), labels)]
    return _reduce(-picked, reduction)


def mse_loss(pred: Tensor, target: np.ndarray | Tensor,
             reduction: str = "mean") -> Tensor:
    target_data = target.data if isinstance(target, Tensor) else np.asarray(target)
    diff = pred - Tensor(target_data)
    return _reduce(diff * diff, reduction)


def _reduce(loss: Tensor, reduction: str) -> Tensor:
    if reduction == "sum":
        return loss.sum()
    if reduction == "mean":
        return loss.mean()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction: {reduction!r}")

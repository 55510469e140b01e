"""Loss functions and functional helpers shared across models."""

from __future__ import annotations

import contextlib

import numpy as np

from .autograd import Tensor, fused_bce_with_logits, stable_softmax

__all__ = [
    "binary_cross_entropy",
    "binary_cross_entropy_with_logits",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "weighted_binary_cross_entropy_with_logits",
    "fused_loss_kernels_enabled",
    "reference_loss_kernels",
    "stable_softmax",
]

_EPS = 1e-10

#: When True (the default) the BCE-with-logits losses run through the
#: single-node fused kernel (whose arithmetic lives in
#: :mod:`repro.nn.backend`); the op-by-op reference composition is kept
#: for equivalence tests and before/after benchmarks.
_USE_FUSED = True


def fused_loss_kernels_enabled() -> bool:
    """Whether BCE losses currently use the fused autograd kernel."""
    return _USE_FUSED


@contextlib.contextmanager
def reference_loss_kernels():
    """Route BCE-with-logits through the unfused op composition.

    Used by the numerical-equivalence tests and the perf benchmarks to
    reproduce the pre-fusion implementation; values and gradients are
    bit-identical either way.
    """
    global _USE_FUSED
    previous = _USE_FUSED
    _USE_FUSED = False
    try:
        yield
    finally:
        _USE_FUSED = previous


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
    if _USE_FUSED:
        return fused_bce_with_logits(logits, target_data, reduction=reduction,
                                     buffers=buffers)
    return _reduce(_composed_bce_with_logits(logits, target_data), reduction)


def weighted_binary_cross_entropy_with_logits(
        logits: Tensor, target: np.ndarray, pos_weight: float,
        reduction: str = "mean") -> Tensor:
    """BCE with a positive-class weight, as used by GAE on sparse graphs."""
    target = np.asarray(target)
    weights = np.where(target > 0.5, pos_weight, 1.0)
    if _USE_FUSED:
        return fused_bce_with_logits(logits, target, weights=weights,
                                     reduction=reduction)
    loss = (_composed_bce_with_logits(logits, target)
            * Tensor(weights.astype(logits.data.dtype, copy=False)))
    return _reduce(loss, reduction)


def _composed_bce_with_logits(logits: Tensor, target_data: np.ndarray) -> Tensor:
    """Elementwise stable BCE as the historical op composition.

    ``log(1 + exp(-|x|)) + max(x, 0) - x*t`` built from ~8 autograd nodes;
    the fused kernel replicates it bit-for-bit in a single node.
    """
    abs_logits = logits.abs()
    return (logits.relu() - logits * Tensor(target_data)
            + ((-abs_logits).exp() + 1.0).log())


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

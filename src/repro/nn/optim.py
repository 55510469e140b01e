"""First-order optimisers: SGD (with momentum) and Adam.

Both step paths are allocation-lean: every temporary an update needs is
written into scratch buffers preallocated per parameter (``np.multiply``/
``np.divide``/``np.sqrt`` with ``out=``), so a training step performs no
array allocations at all once the optimiser is constructed.  The kernels
compute exactly the expressions of the classic formulations — only
commutations and in-place evaluation orders that are bit-identical under
IEEE-754 — so histories match the historical allocating implementation
bit for bit.  All state (moments, velocity, scratch) follows each
parameter's dtype.

Both update kernels live in :mod:`repro.nn.backend` (``sgd_step``,
``adam_step``), which counts them per step.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from . import backend as kernels

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class holding the parameter list and shared bookkeeping."""

    def __init__(self, params, lr: float, weight_decay: float = 0.0):
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.weight_decay = weight_decay
        #: Scratch for the weight-decayed gradient, allocated only when
        #: weight decay is active (the plain path reads ``p.grad`` directly).
        self._gbuf = ([np.empty_like(p.data) for p in self.params]
                      if weight_decay else None)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _grad(self, p: Tensor) -> np.ndarray:
        """Allocating effective gradient (kept for external callers)."""
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data
        return grad

    def _effective_grad(self, i: int, p: Tensor) -> np.ndarray:
        """The gradient the update should consume, allocation-free.

        With weight decay the decayed gradient is assembled in the
        per-parameter scratch buffer; without it the raw ``p.grad`` array
        is returned untouched (callers must not mutate it).
        """
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        if self.weight_decay:
            buf = self._gbuf[i]
            np.multiply(p.data, self.weight_decay, out=buf)
            buf += grad
            return buf
        return grad

    # -- snapshot protocol (divergence guard + checkpointing) ----------- #
    def _snapshot_buffers(self) -> list[np.ndarray]:
        """Persistent state arrays a snapshot must cover (subclass hook).
        Scratch buffers are excluded: they are overwritten every step."""
        return []

    def _snapshot_scalars(self) -> dict:
        """Persistent scalar state (subclass hook)."""
        return {"lr": float(self.lr)}

    def _load_scalars(self, scalars: dict) -> None:
        self.lr = float(scalars["lr"])

    def capture(self, into: dict | None = None) -> dict:
        """Copy the optimiser state into ``into`` (allocated on first
        use, then reused — the per-epoch path is allocation-free)."""
        buffers = self._snapshot_buffers()
        if into is None:
            into = {"buffers": [np.empty_like(b) for b in buffers]}
        for dst, src in zip(into["buffers"], buffers):
            np.copyto(dst, src)
        into["scalars"] = self._snapshot_scalars()
        return into

    def restore(self, state: dict) -> None:
        """Restore a :meth:`capture`/:meth:`state_dict` snapshot in place."""
        self.load_state_dict(state)

    def state_dict(self) -> dict:
        """Owning copy of the optimiser state (for checkpoints)."""
        return {"buffers": [b.copy() for b in self._snapshot_buffers()],
                "scalars": self._snapshot_scalars()}

    def load_state_dict(self, state: dict) -> None:
        buffers = self._snapshot_buffers()
        if len(state["buffers"]) != len(buffers):
            raise ValueError(
                f"optimizer state has {len(state['buffers'])} buffers, "
                f"expected {len(buffers)}")
        for dst, src in zip(buffers, state["buffers"]):
            np.copyto(dst, src)
        self._load_scalars(state["scalars"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params, lr, weight_decay)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]
        self._buf = [np.empty_like(p.data) for p in self.params]

    def _snapshot_buffers(self) -> list[np.ndarray]:
        return self._velocity

    def step(self) -> None:
        for i, p in enumerate(self.params):
            grad = self._effective_grad(i, p)
            kernels.sgd_step(p.data, grad,
                             self._velocity[i] if self.momentum else None,
                             self._buf[i], self.lr, self.momentum)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, params, lr: float = 0.001, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr, weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Two scratch buffers per parameter cover every temporary of the
        # update: t holds (1-β)·g, g², m̂ and the final step; u holds v̂.
        self._t = [np.empty_like(p.data) for p in self.params]
        self._u = [np.empty_like(p.data) for p in self.params]

    def _snapshot_buffers(self) -> list[np.ndarray]:
        return self._m + self._v

    def _snapshot_scalars(self) -> dict:
        return {"lr": float(self.lr), "step": int(self._step)}

    def _load_scalars(self, scalars: dict) -> None:
        super()._load_scalars(scalars)
        self._step = int(scalars["step"])

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for i, p in enumerate(self.params):
            grad = self._effective_grad(i, p)
            kernels.adam_step(p.data, grad, self._m[i], self._v[i],
                              self._t[i], self._u[i], self.lr, self.beta1,
                              self.beta2, self.eps, bias1, bias2)

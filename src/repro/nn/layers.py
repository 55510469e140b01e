"""Neural-network building blocks on top of the autograd engine.

``Module`` mirrors the familiar torch API surface at a much smaller scale:
parameters are discovered recursively, modules can be switched between train
and eval modes (relevant only for :class:`Dropout`), and every layer takes an
explicit random generator at construction time so weight initialisation is
deterministic.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from . import init
from .autograd import Tensor, fused_gcn_layer, spmm

__all__ = ["Parameter", "Module", "Linear", "GCNConv", "Dropout", "Sequential",
           "Bilinear", "reference_composed_layers"]

_USE_FUSED_LAYERS = True


@contextlib.contextmanager
def reference_composed_layers():
    """Run the block with :class:`GCNConv` on the historical composed path.

    ``x @ W`` → ``spmm`` → ``+ bias`` → ``leaky_relu`` as four separate
    autograd nodes instead of one :func:`fused_gcn_layer` node.  Values
    and gradients are bit-identical either way (the equivalence tests
    prove it); this exists so benchmarks and tests can compare the two.
    """
    global _USE_FUSED_LAYERS
    previous = _USE_FUSED_LAYERS
    _USE_FUSED_LAYERS = False
    try:
        yield
    finally:
        _USE_FUSED_LAYERS = previous


class Parameter(Tensor):
    """A tensor registered as trainable model state."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for layers and models."""

    def __init__(self):
        self.training = True

    # -- parameter discovery ------------------------------------------- #
    def parameters(self) -> Iterator[Parameter]:
        """Yield every :class:`Parameter` reachable from this module."""
        seen: set[int] = set()
        yield from self._parameters(seen)

    def _parameters(self, seen: set[int]) -> Iterator[Parameter]:
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                if id(value) not in seen:
                    seen.add(id(value))
                    yield value
            elif isinstance(value, Module):
                yield from value._parameters(seen)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item._parameters(seen)
                    elif isinstance(item, Parameter) and id(item) not in seen:
                        seen.add(id(item))
                        yield item

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in self.__dict__.values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat snapshot of all parameter arrays (copied)."""
        return {f"param_{i}": p.data.copy()
                for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = list(self.parameters())
        if len(params) != len(state):
            raise ValueError(
                f"state has {len(state)} entries, model has {len(params)}")
        for i, p in enumerate(params):
            p.data[...] = state[f"param_{i}"]

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True, dtype=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.glorot_uniform((in_features, out_features), rng, dtype=dtype))
        self.bias = (Parameter(init.zeros((out_features,), dtype=dtype))
                     if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class GCNConv(Module):
    """One graph-convolution layer: ``H' = φ(Ā H W)`` (paper Eq. 2).

    The layer stores only the weight; the (pre-normalised) adjacency ``Ā`` is
    passed at call time so the same model can be evaluated on attacked or
    denoised graphs without re-initialisation.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = False, dtype=None):
        super().__init__()
        self.weight = Parameter(
            init.glorot_uniform((in_features, out_features), rng, dtype=dtype))
        self.bias = (Parameter(init.zeros((out_features,), dtype=dtype))
                     if bias else None)

    def forward(self, x: Tensor, adj_norm: sp.spmatrix,
                negative_slope: float | None = None) -> Tensor:
        """Apply the layer; ``negative_slope`` folds a LeakyReLU into the
        same graph node (bit-identical to calling ``.leaky_relu`` on the
        result — callers pass it so the fused layer applies the epilogue)."""
        if _USE_FUSED_LAYERS:
            return fused_gcn_layer(x, self.weight, adj_norm, bias=self.bias,
                                   negative_slope=negative_slope)
        support = x @ self.weight
        out = spmm(adj_norm, support)
        if self.bias is not None:
            out = out + self.bias
        if negative_slope is not None:
            out = out.leaky_relu(negative_slope)
        return out


class Bilinear(Module):
    """Bilinear scoring ``s(x, y) = x W yᵀ`` used by DGI's discriminator."""

    def __init__(self, features: int, rng: np.random.Generator, dtype=None):
        super().__init__()
        self.weight = Parameter(
            init.glorot_uniform((features, features), rng, dtype=dtype))

    def forward(self, x: Tensor, y: Tensor) -> Tensor:
        return (x @ self.weight) * y


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask.astype(x.data.dtype, copy=False))


class Sequential(Module):
    """Apply modules in order; extra args are forwarded to each layer."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor, *args) -> Tensor:
        for module in self.modules:
            x = module(x, *args) if args else module(x)
        return x

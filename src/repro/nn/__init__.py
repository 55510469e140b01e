"""Minimal neural-network substrate (autograd, layers, optimisers).

The rest of the library builds GCN encoders, autoencoders and contrastive
models on top of this package; nothing here is specific to the AnECI paper.

**Precision.**  The engine is parameterised by dtype: tensors carry
float32 or float64 and every op preserves its inputs' precision, with
python scalars coerced to the peer tensor's dtype so a float32 chain
never silently promotes.  Non-float payloads (lists, int arrays) coerce
to the default dtype — float64 unless changed via ``default_dtype`` —
keeping the historical behaviour bit-exact.  ``spmm`` keeps a cached
dtype-matched CSR copy per sparse matrix, initialisers draw in float64
and round once (a float32 model is its float64 twin's rounding), and
optimiser state follows each parameter's dtype.  Model-level selection
threads through ``AnECIConfig.dtype`` / the ``REPRO_DTYPE`` environment
variable / the CLI's global ``--dtype`` flag.

**Kernels.**  Every hot-loop kernel (sparse products, the fused GCN
layer and BCE loss, softmax, optimiser steps, per-epoch sampling) is one
plain numpy function in :mod:`repro.nn.backend`, which counts its calls
per op for ``repro profile``.
"""

from . import backend, functional, init
from .autograd import (Tensor, cached_transpose, concat, default_dtype,
                       dtype_matched_csr, fused_bce_with_logits,
                       fused_gcn_layer, get_default_dtype, no_grad,
                       resolve_dtype, spmm, stable_softmax, tensor)
from .layers import (Bilinear, Dropout, GCNConv, Linear, Module, Parameter,
                     Sequential)
from .optim import SGD, Adam, Optimizer
from .schedulers import CosineAnnealingLR, LinearWarmup, Scheduler, StepLR

__all__ = [
    "Tensor", "tensor", "no_grad", "spmm", "concat",
    "fused_bce_with_logits", "fused_gcn_layer", "cached_transpose",
    "resolve_dtype", "get_default_dtype", "default_dtype",
    "stable_softmax", "dtype_matched_csr",
    "Module", "Parameter", "Linear", "GCNConv", "Dropout", "Sequential",
    "Bilinear",
    "Optimizer", "SGD", "Adam",
    "Scheduler", "StepLR", "CosineAnnealingLR", "LinearWarmup",
    "functional", "init", "backend",
]

"""A small reverse-mode automatic differentiation engine over numpy.

The paper's models (GCN encoders, autoencoders, infomax discriminators) are
normally implemented on top of PyTorch.  This environment only provides
numpy/scipy, so this module supplies the required substrate: a ``Tensor``
class that records a computation graph and backpropagates gradients through
it, with first-class support for multiplying by *constant* scipy sparse
matrices (the normalised adjacency used by every graph convolution).

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` as plain numpy arrays.
* Broadcasting is supported for elementwise ops; ``_unbroadcast`` folds the
  upstream gradient back to the parameter's shape.
* The graph is dynamic (define-by-run).  ``backward`` performs a topological
  sort of the reachable subgraph and runs each node's backward closure once.
* ``no_grad`` disables graph recording, which keeps inference cheap.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from . import backend as kernels
from .backend import stable_softmax

__all__ = ["Tensor", "tensor", "no_grad", "is_grad_enabled", "spmm",
           "fused_bce_with_logits", "fused_gcn_layer", "cached_transpose",
           "transpose_cache_size", "clear_transpose_cache",
           "resolve_dtype", "get_default_dtype", "default_dtype",
           "stable_softmax", "dtype_matched_csr", "pair_dots"]

#: Grad mode is per thread (and per asyncio task): ``no_grad`` in one
#: thread must not stop graph recording in another thread's fit.
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)

#: Dtypes the engine is parameterised over.  Everything that is not one
#: of these (ints, bools, python lists) is coerced to the default dtype
#: on entry; arrays already in a supported dtype keep it, so every op
#: preserves the dtype of its inputs.
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: The coercion dtype is per thread too, like grad mode: a test holding
#: ``default_dtype("float32")`` must not change another thread's fit.
_DEFAULT_DTYPE = contextvars.ContextVar("default_dtype",
                                        default=np.dtype(np.float64))


def resolve_dtype(spec) -> np.dtype:
    """Normalise a dtype spec (``"float32"``, ``np.float64``, …) and
    validate it is one the engine supports."""
    dtype = np.dtype(spec)
    if dtype not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported dtype {dtype}; expected float32 or float64")
    return dtype


def get_default_dtype() -> np.dtype:
    """Dtype non-float payloads are coerced to (float64 unless changed)."""
    return _DEFAULT_DTYPE.get()


@contextlib.contextmanager
def default_dtype(spec):
    """Run the block with another coercion dtype in this thread only.

    Affects payloads that carry no float dtype of their own (python
    scalars, lists, integer arrays) and the :mod:`repro.nn.init`
    initialisers; float32/float64 arrays always keep their dtype.
    """
    token = _DEFAULT_DTYPE.set(resolve_dtype(spec))
    try:
        yield
    finally:
        _DEFAULT_DTYPE.reset(token)


@contextlib.contextmanager
def no_grad():
    """Disable computation-graph recording in the current thread."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED.get()


def _as_array(value, dtype: np.dtype | None = None) -> np.ndarray:
    """Coerce ``value`` to a float numpy array without copying if possible.

    With an explicit ``dtype`` the result is cast to it.  Otherwise
    arrays already in a supported float dtype are returned as-is (ops
    preserve their inputs' precision) and everything else is coerced to
    the default dtype.
    """
    if dtype is not None:
        if isinstance(value, np.ndarray) and value.dtype == dtype:
            return value
        return np.asarray(value, dtype=dtype)
    if isinstance(value, (np.ndarray, np.floating)):
        # Arrays *and* numpy float scalars (e.g. the 0-d result of
        # ``arr.sum()``) keep their precision — coercing a float32
        # reduction to the default dtype would silently promote the
        # loss chain.
        if value.dtype in _SUPPORTED_DTYPES:
            return np.asarray(value)
        return np.asarray(value, dtype=_DEFAULT_DTYPE.get())
    return np.asarray(value, dtype=_DEFAULT_DTYPE.get())


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were of size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as float32 or float64: arrays keep
        their float dtype, anything else is coerced to the default dtype
        (float64), and an explicit ``dtype`` forces a cast.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    dtype:
        Optional explicit storage dtype (``"float32"`` or ``"float64"``).
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(
            data, None if dtype is None else resolve_dtype(dtype))
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast (the gradient is cast back)."""
        dtype = resolve_dtype(dtype)
        if self.data.dtype == dtype:
            return self

        def backward(g):
            self._accumulate(g.astype(self.data.dtype), owned=True)

        return Tensor._make(self.data.astype(dtype), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying data (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------ #
    # Graph construction                                                 #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a result tensor wired into the graph if recording is on.

        ``backward`` receives the upstream gradient and is responsible for
        accumulating into each parent's ``grad``.  It is stored as-is —
        it must never close over the result tensor, so graph nodes carry
        no reference cycles and whole epoch graphs die by refcount the
        moment the loss goes out of scope instead of lingering for the
        cyclic collector (a large, allocation-churn win on N×N graphs).
        """
        requires = (_GRAD_ENABLED.get()
                    and any(p.requires_grad for p in parents))
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        ``owned=True`` promises that ``grad`` is a freshly computed array
        no one else references, letting the first accumulation adopt it
        instead of copying — the in-place ``+=`` fast path used by every
        closure that builds its gradient from scratch.  Closures passing
        through the upstream buffer (add, reshape views, broadcasts)
        leave it False and keep the defensive copy.
        """
        if not self.requires_grad:
            return
        out = _unbroadcast(grad, self.data.shape)
        if out is not grad:
            # _unbroadcast only returns a different object after summing
            # into a fresh array, so the result is ours to keep.
            owned = True
        if out.dtype != self.data.dtype:
            out = out.astype(self.data.dtype)
            owned = True
        if self.grad is None:
            self.grad = out if owned else out.copy()
        else:
            self.grad += out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.data.shape}")
            grad = np.ones_like(self.data)
        self.grad = _as_array(grad, self.data.dtype).reshape(self.data.shape)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic                                             #
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = _ensure_tensor(other, self.data.dtype)

        def backward(g):
            self._accumulate(g)
            other._accumulate(g)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            self._accumulate(-g, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = _ensure_tensor(other, self.data.dtype)

        def backward(g):
            self._accumulate(g)
            other._accumulate(-g, owned=True)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return _ensure_tensor(other, self.data.dtype) - self

    def __mul__(self, other) -> "Tensor":
        other = _ensure_tensor(other, self.data.dtype)

        def backward(g):
            self._accumulate(g * other.data, owned=True)
            other._accumulate(g * self.data, owned=True)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _ensure_tensor(other, self.data.dtype)

        def backward(g):
            self._accumulate(g / other.data, owned=True)
            other._accumulate(-g * self.data / (other.data ** 2), owned=True)

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _ensure_tensor(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1),
                             owned=True)

        return Tensor._make(self.data ** exponent, (self,), backward)

    # ------------------------------------------------------------------ #
    # Linear algebra                                                     #
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor", out: np.ndarray | None = None
               ) -> "Tensor":
        """``self @ other``, written into ``out`` when one is given."""
        other = _ensure_tensor(other, self.data.dtype)

        def backward(g):
            self._accumulate(g @ other.data.T, owned=True)
            other._accumulate(self.data.T @ g, owned=True)

        return Tensor._make(np.matmul(self.data, other.data, out=out),
                            (self, other), backward)

    __matmul__ = matmul

    def transpose(self) -> "Tensor":
        def backward(g):
            self._accumulate(g.T)

        return Tensor._make(self.data.T, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(g):
            self._accumulate(g.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(g):
            self._accumulate(_scatter_add(self.data, index, g), owned=True)

        return Tensor._make(self.data[index], (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions                                                          #
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g):
            if axis is None:
                expanded = np.broadcast_to(g, self.data.shape)
            else:
                g_local = g if keepdims else np.expand_dims(g, axis)
                expanded = np.broadcast_to(g_local, self.data.shape)
            self._accumulate(expanded)

        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def trace(self) -> "Tensor":
        if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
            raise ValueError("trace requires a square matrix")
        n = self.data.shape[0]

        def backward(g):
            self._accumulate(np.eye(n, dtype=g.dtype) * g, owned=True)

        return Tensor._make(np.trace(self.data), (self,), backward)

    # ------------------------------------------------------------------ #
    # Nonlinearities                                                     #
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        value = np.exp(self.data)

        def backward(g):
            self._accumulate(g * value, owned=True)

        return Tensor._make(value, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g):
            self._accumulate(g / self.data, owned=True)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)

        def backward(g):
            self._accumulate(g * 0.5 / value, owned=True)

        return Tensor._make(value, (self,), backward)

    def abs(self) -> "Tensor":
        def backward(g):
            self._accumulate(g * np.sign(self.data), owned=True)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(g):
            self._accumulate(g * mask, owned=True)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        value = np.where(self.data >= 0,
                         1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500))),
                         np.exp(np.clip(self.data, -500, 500)) /
                         (1.0 + np.exp(np.clip(self.data, -500, 500))))

        def backward(g):
            self._accumulate(g * value * (1.0 - value), owned=True)

        return Tensor._make(value, (self,), backward)

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - value ** 2), owned=True)

        return Tensor._make(value, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g):
            self._accumulate(g * mask, owned=True)

        return Tensor._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        # Build the scale array in this tensor's dtype: python-float
        # branches would make np.where return float64 and silently
        # promote a float32 activation chain.
        one = self.data.dtype.type(1.0)
        scale = np.where(mask, one, self.data.dtype.type(negative_slope))

        def backward(g):
            self._accumulate(g * scale, owned=True)

        return Tensor._make(self.data * scale, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        value = kernels.softmax(self.data, axis=axis)

        def backward(g):
            self._accumulate(kernels.softmax_backward(g, value, axis=axis),
                             owned=True)

        return Tensor._make(value, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        value = shifted - log_norm
        softmax = np.exp(value)

        def backward(g):
            self._accumulate(g - softmax * g.sum(axis=axis, keepdims=True),
                             owned=True)

        return Tensor._make(value, (self,), backward)

    # ------------------------------------------------------------------ #
    # Norms                                                              #
    # ------------------------------------------------------------------ #
    def l2_normalize(self, axis: int = -1, eps: float = 1e-12) -> "Tensor":
        """Row-wise L2 normalisation, differentiable."""
        norm = (self * self).sum(axis=axis, keepdims=True) + eps
        return self / norm.sqrt()


def _ensure_tensor(value, dtype: np.dtype | None = None) -> Tensor:
    """Wrap ``value`` as a Tensor; scalars and non-float payloads take
    the peer's ``dtype`` so mixed expressions keep the operand precision."""
    if isinstance(value, Tensor):
        return value
    if dtype is not None and not (isinstance(value, np.ndarray)
                                  and value.dtype in _SUPPORTED_DTYPES):
        return Tensor(value, dtype=dtype)
    return Tensor(value)


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [
        t if isinstance(t, Tensor) else Tensor(t) for t in tensors
    ]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            t._accumulate(g[tuple(index)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward)


# --------------------------------------------------------------------- #
# Sparse matmul with a per-matrix transpose cache                        #
# --------------------------------------------------------------------- #

#: CSR transposes keyed by ``id()`` of the forward matrix.  Entries are
#: evicted by a ``weakref.finalize`` hook the moment the forward matrix is
#: garbage-collected, so the cache can never outlive (or leak) its keys.
_TRANSPOSE_CACHE: dict[int, sp.csr_matrix] = {}


def cached_transpose(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Return ``matrix.T.tocsr()``, computed once per matrix *object*.

    Graph convolutions multiply by the same constant normalised adjacency
    every layer call of every epoch; re-sorting the transpose each time
    dominated the ``spmm`` backward setup.  Callers must treat the matrix
    as immutable after the first call (every :class:`~repro.graph.graph.Graph`
    helper already does).
    """
    key = id(matrix)
    transpose = _TRANSPOSE_CACHE.get(key)
    if transpose is None:
        transpose = matrix.T.tocsr()
        _TRANSPOSE_CACHE[key] = transpose
        weakref.finalize(matrix, _TRANSPOSE_CACHE.pop, key, None)
    return transpose


#: Dtype-converted CSR copies keyed by ``(id(matrix), dtype)``, so a
#: float64 constant (the usual on-disk/graph representation) multiplied
#: into a float32 computation is cast exactly once instead of per call.
#: Evicted alongside the transpose cache by ``weakref.finalize``.
_DTYPE_CSR_CACHE: dict[tuple[int, str], sp.csr_matrix] = {}


def dtype_matched_csr(matrix: sp.csr_matrix, dtype: np.dtype) -> sp.csr_matrix:
    """Return ``matrix`` cast to ``dtype``, computed once per matrix object."""
    if matrix.dtype == dtype:
        return matrix
    key = (id(matrix), dtype.str)
    cast = _DTYPE_CSR_CACHE.get(key)
    if cast is None:
        cast = matrix.astype(dtype)
        _DTYPE_CSR_CACHE[key] = cast
        weakref.finalize(matrix, _DTYPE_CSR_CACHE.pop, key, None)
    return cast


def transpose_cache_size() -> int:
    """Number of live entries in the ``spmm`` transpose cache."""
    return len(_TRANSPOSE_CACHE)


def clear_transpose_cache() -> None:
    """Drop every cached transpose and dtype-cast copy (they rebuild
    lazily)."""
    _TRANSPOSE_CACHE.clear()
    _DTYPE_CSR_CACHE.clear()


def _scatter_add(like: np.ndarray, index, g: np.ndarray) -> np.ndarray:
    """``np.add.at(np.zeros_like(like), index, g)``, bit for bit.

    A 1-D integer row index on a float32/float64 array scatters as one
    CSR product, ``csr((1, (index, arange)), (n, m)) @ g``: 4–5× faster
    than ``np.add.at`` for 40,960 rows of 10 into 4,096.  Each output row
    sums its gradients in index order starting from ``+0.0``, exactly as
    ``np.add.at`` does.
    """
    if (not isinstance(index, np.ndarray) or index.ndim != 1
            or index.dtype.kind not in "iu" or g.dtype != like.dtype
            or like.dtype not in (np.float32, np.float64)):
        full = np.zeros_like(like)
        np.add.at(full, index, g)
        return full
    n, m = like.shape[0], index.size
    rows = np.where(index < 0, index + n, index)
    scatter = sp.csr_matrix(
        (np.ones(m, dtype=like.dtype), (rows, np.arange(m))), shape=(n, m))
    return (scatter @ g.reshape(m, math.prod(like.shape[1:]))
            ).reshape(like.shape)


def spmm(matrix: sp.spmatrix, x: Tensor,
         transpose: sp.spmatrix | None = None) -> Tensor:
    """Multiply a *constant* scipy sparse matrix by a tensor.

    The sparse matrix carries no gradient; the backward pass propagates
    ``matrix.T @ grad`` into ``x``.  This is the workhorse of every graph
    convolution in the library.  The CSR transpose used by the backward
    pass is cached per matrix object (see :func:`cached_transpose`); pass
    ``transpose`` explicitly to override it.  When the matrix dtype does
    not match ``x``'s, a dtype-matched CSR copy is used (cached per
    matrix object) so the product stays in ``x``'s precision.
    """
    if not sp.issparse(matrix):
        raise TypeError("spmm expects a scipy sparse matrix")
    matrix = matrix.tocsr()
    if matrix.dtype != x.data.dtype and x.data.dtype in _SUPPORTED_DTYPES:
        matrix = dtype_matched_csr(matrix, x.data.dtype)
    if transpose is None:
        transpose = cached_transpose(matrix)

    def backward(g):
        x._accumulate(kernels.spmm(transpose, g), owned=True)

    return Tensor._make(kernels.spmm(matrix, x.data), (x,), backward)


def fused_gcn_layer(x: Tensor, weight: Tensor, matrix: sp.spmatrix,
                    bias: Tensor | None = None,
                    negative_slope: float | None = None,
                    pool: kernels.BufferPool | None = None) -> Tensor:
    """One GCN layer — ``Ā x W [+ b]`` with an optional LeakyReLU — as
    a *single* autograd node.

    A square ``matrix`` evaluates exactly the expressions of the composed
    ``spmm(matrix, x @ W) + b`` / ``.leaky_relu(slope)`` chain (same
    association orders, so values and gradients are bit-identical) but
    records one graph node instead of up to four.  A ``matrix`` with more
    columns than rows — a sampled block whose inputs outnumber its
    outputs — aggregates first, ``(Ā x) W``, so the dense GEMMs run over
    the output rows only; its values and gradients match the composed
    chain to rounding.  The gradient w.r.t. ``x``, ``Āᵀ (ḡ Wᵀ)`` on that
    path, is computed only when ``x`` requires one.
    :func:`repro.nn.backend.gcn_layer_forward` owns the sparse product
    and the elementwise epilogue.  ``matrixᵀ`` is built (or fetched from
    the transpose cache) only when the backward pass will multiply by
    it: never under :func:`no_grad` or when no operand records a
    gradient.

    With a ``pool`` (:class:`repro.nn.backend.BufferPool`, one per
    layer) the layer's large arrays — the aggregate, the activations and
    their gradients — live in the pool's arrays, so a caller that runs
    the layer once per epoch allocates them once; the value and the
    gradient passed to ``x`` are then valid until the next call.
    """
    if not sp.issparse(matrix):
        raise TypeError("fused_gcn_layer expects a scipy sparse matrix")
    matrix = matrix.tocsr()
    if matrix.dtype != x.data.dtype and x.data.dtype in _SUPPORTED_DTYPES:
        matrix = dtype_matched_csr(matrix, x.data.dtype)
    aggregate_first = matrix.shape[1] > matrix.shape[0]
    parents = (x, weight) if bias is None else (x, weight, bias)
    records = (_GRAD_ENABLED.get()
               and any(p.requires_grad for p in parents))
    transpose = None
    if records and (x.requires_grad or not aggregate_first):
        transpose = cached_transpose(matrix)
    x_data, w_data = x.data, weight.data
    b_data = None if bias is None else bias.data
    if aggregate_first:
        value, slopes, aggregate = kernels.gcn_layer_forward(
            matrix, x_data, b_data, negative_slope, weight=w_data, pool=pool)
    else:
        value, slopes, _ = kernels.gcn_layer_forward(
            matrix, x_data @ w_data, b_data, negative_slope, pool=pool)

    def backward(g):
        gdense, gpre = kernels.gcn_layer_backward(
            transpose, g, slopes, w_data if aggregate_first else None, pool)
        if bias is not None:
            bias._accumulate(gpre)
        if aggregate_first:
            if x.requires_grad:
                x._accumulate(gdense, owned=True)
            weight._accumulate(aggregate.T @ gpre, owned=True)
            return
        if x.requires_grad:
            x._accumulate(gdense @ w_data.T, owned=True)
        weight._accumulate(x_data.T @ gdense, owned=True)

    return Tensor._make(value, parents, backward)


def pair_dots(x: Tensor, rows: np.ndarray, cols: np.ndarray,
              pool: kernels.BufferPool | None = None) -> Tensor:
    """``(x[rows] * x[cols]).sum(axis=1)`` — one dot product per row
    pair — as a single autograd node.

    The values are the bytes of that composition; the gradient adds the
    same two row scatters into ``x``'s gradient (rows first).  With a
    ``pool`` the gathered rows, their products and the result live in
    its arrays (valid until the next call with the same pool), so a
    caller drawing the same number of pairs every epoch allocates them
    once.
    """
    def take(name, shape):
        return None if pool is None else pool.take(name, shape, x.data.dtype)

    shape = (rows.size,) + x.data.shape[1:]
    left = np.take(x.data, rows, axis=0, out=take("left", shape))
    right = np.take(x.data, cols, axis=0, out=take("right", shape))
    products = np.multiply(left, right, out=take("products", shape))
    value = np.sum(products, axis=1, out=take("value", shape[:1]))

    def backward(g):
        upstream = g[:, None]
        grad = take("grad", shape)
        x._accumulate(_scatter_add(x.data, rows, np.multiply(
            upstream, right, out=grad)), owned=True)
        x._accumulate(_scatter_add(x.data, cols, np.multiply(
            upstream, left, out=grad)), owned=True)

    return Tensor._make(value, (x,), backward)


# --------------------------------------------------------------------- #
# Fused loss kernels                                                     #
# --------------------------------------------------------------------- #

def fused_bce_with_logits(logits: Tensor, target: np.ndarray | Tensor,
                          weights: np.ndarray | None = None,
                          reduction: str = "sum",
                          buffers: dict | None = None) -> Tensor:
    """Numerically stable BCE-on-logits as a *single* autograd node.

    Computes ``relu(x) − x·t + log(exp(−|x|) + 1)`` (optionally scaled by
    per-element ``weights``) followed by the requested reduction, exactly
    as the op-by-op composition in :mod:`repro.nn.functional` used to —
    same expressions, same association order, so forward values and
    gradients are bit-identical — but records one graph node instead of
    ~8 and allocates a handful of N×N temporaries instead of ~15 per
    call.  The closed-form gradient is ``σ(x) − t`` (times weights and
    the reduction scale), assembled from the saved forward intermediates.

    ``buffers`` (from :func:`repro.nn.backend.bce_buffers`, shaped like
    the logits) lets a caller that evaluates the loss once per epoch
    reuse one set of intermediates instead of allocating them each call;
    the logits' gradient is then the set's ``grad`` array.
    """
    x = logits.data
    t = target.data if isinstance(target, Tensor) else np.asarray(target)
    if t.dtype != x.dtype:
        t = t.astype(x.dtype)
    if weights is not None:
        weights = np.asarray(weights, dtype=x.dtype)
    if reduction not in ("none", "sum", "mean"):
        raise ValueError(f"unknown reduction: {reduction!r}")
    value, ctx = kernels.bce_with_logits_forward(x, t, weights, reduction,
                                                 buffers)

    def backward(g):
        grad = kernels.bce_with_logits_backward(g, x, t, weights, ctx,
                                                buffers)
        logits._accumulate(grad, owned=True)

    return Tensor._make(value, (logits,), backward)

"""Kernel dispatch for the autograd engine's hot loops.

Every per-epoch kernel of an AnECI fit — the sparse-times-dense products
of the graph convolutions, the fused GCN layer (normalised adjacency ×
dense + bias + LeakyReLU in one pass), the fused BCE-with-logits loss,
the softmax, the optimiser update steps and the per-epoch samplers —
runs through one plain function here, as do the serving index's GEMM
and top-k.  Each function counts its op and evaluates the engine's
historical numpy expression, association order included; these
expressions are the bit-exactness anchor pinned by the digests in
``tests/test_backend.py`` and must not be "simplified".  The one
addition is the GCN layer's aggregate-first order, ``(Ā x) W``, taken
only by sampled blocks wider than tall.

:func:`op_counts` reports the per-op call counts for ``repro profile``
and the benchmark's ``backend.ops_per_epoch``.

The module also hosts :class:`NeighborSampler`, the fanout-bounded
neighbor sampler of the sampled training mode's minibatch GCN forward.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NeighborSampler", "stable_softmax", "spmm", "gcn_layer_forward",
           "gcn_layer_backward", "bce_buffers", "bce_with_logits_forward",
           "bce_with_logits_backward", "softmax", "softmax_backward",
           "adam_step", "sgd_step", "sample_without_replacement",
           "sample_pairs", "neighbor_gather", "matmul", "topk_indices",
           "op_counts", "reset_op_counts"]


# --------------------------------------------------------------------- #
# Op counters                                                            #
# --------------------------------------------------------------------- #

#: op name -> calls since the last reset.
_OP_COUNTS: dict[str, int] = {}


def _record(op: str) -> None:
    _OP_COUNTS[op] = _OP_COUNTS.get(op, 0) + 1


def op_counts() -> dict[str, dict[str, int]]:
    """Per-op call counts since the last :func:`reset_op_counts`.

    Shaped ``{op: {"fused": 0, "numpy": calls}}``: every op runs the
    numpy expression, so ``fused`` is always 0.  The shape is kept so
    readers that sum both fields keep working.
    """
    return {op: {"fused": 0, "numpy": n}
            for op, n in sorted(_OP_COUNTS.items())}


def reset_op_counts() -> None:
    """Zero every op counter."""
    _OP_COUNTS.clear()


# --------------------------------------------------------------------- #
# Training kernels                                                       #
# --------------------------------------------------------------------- #

def stable_softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax of a plain numpy array, preserving its dtype.

    The single softmax implementation shared by ``Tensor.softmax`` (the
    differentiable path, through :func:`softmax`) and numpy-side
    consumers such as ``AnECI.membership`` — both see bit-identical
    values.  Not counted; :func:`softmax` is the counted entry point.
    """
    shifted = values - values.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def spmm(matrix, x: np.ndarray) -> np.ndarray:
    """Sparse × dense product (forward, or backward with ``matrix.T``)."""
    _record("spmm")
    return matrix @ x


def gcn_layer_forward(matrix, support: np.ndarray, bias: np.ndarray | None,
                      negative_slope: float | None,
                      weight: np.ndarray | None = None):
    """``matrix @ support (+ bias)`` with an optional LeakyReLU epilogue.

    With ``weight`` the layer runs aggregate-first: ``support`` is the
    layer input ``x`` and the product is ``(matrix @ x) @ weight``.

    Returns ``(value, scale, aggregate)``; ``scale`` is the per-entry
    activation slope the backward pass multiplies by (``None`` without
    activation) and ``aggregate`` is ``matrix @ x`` (``None`` without
    ``weight``).
    """
    _record("gcn_layer")
    out = matrix @ support
    aggregate = None
    if weight is not None:
        aggregate, out = out, out @ weight
    if bias is not None:
        out = out + bias
    if negative_slope is None:
        return out, None, aggregate
    one = out.dtype.type(1.0)
    scale = np.where(out > 0, one, out.dtype.type(negative_slope))
    return out * scale, scale, aggregate


def gcn_layer_backward(transpose, g: np.ndarray, scale: np.ndarray | None,
                       weight: np.ndarray | None = None):
    """Returns ``(dense-operand grad, pre-activation grad)``.

    The dense operand of the sparse product is the support ``x W``
    (``transpose @ gpre``), or with ``weight`` (aggregate-first) the
    input ``x`` (``transpose @ (gpre @ weightᵀ)``).  ``transpose=None``
    skips it.
    """
    _record("gcn_layer")
    gpre = g * scale if scale is not None else g
    if transpose is None:
        return None, gpre
    if weight is not None:
        return transpose @ (gpre @ weight.T), gpre
    return transpose @ gpre, gpre


def bce_buffers(shape: tuple[int, ...], dtype) -> dict[str, np.ndarray]:
    """One reusable set of arrays for the BCE kernels and their logits.

    ``logits`` is for the caller's ``np.matmul(..., out=)``; the rest
    hold the kernels' ``mask``, ``exp(−|x|)``, ``denom``, the logits
    gradient and two scratch arrays.  A set serves one forward/backward
    pair at a time:
    the next forward overwrites the previous call's ``ctx``, the next
    backward its gradient.  The returned loss value never aliases it.
    """
    buffers = {name: np.empty(shape, dtype)
               for name in ("logits", "exp_neg_abs", "denom", "grad",
                            "scratch0", "scratch1")}
    buffers["mask"] = np.empty(shape, bool)
    return buffers


def _array(buffers: dict | None, name: str, like: np.ndarray,
           dtype=None) -> np.ndarray:
    """``buffers[name]``, or a fresh array shaped like ``like``."""
    if buffers is None:
        return np.empty(like.shape, like.dtype if dtype is None else dtype)
    return buffers[name]


def bce_with_logits_forward(x: np.ndarray, t: np.ndarray,
                            weights: np.ndarray | None, reduction: str,
                            buffers: dict | None = None):
    """Numerically stable BCE on logits; returns ``(value, ctx)``.

    Evaluates ``(x·mask − x·t) + log(exp(−|x|) + 1)`` (times
    ``weights``) in that association order; ``x``, ``t`` and
    ``weights`` share one dtype.  Intermediates go into ``buffers``
    (see :func:`bce_buffers`) or, without them, into fresh arrays.
    """
    _record("bce")
    mask = np.greater(x, 0, out=_array(buffers, "mask", x, bool))
    exp_neg_abs = np.abs(x, out=_array(buffers, "exp_neg_abs", x))
    np.negative(exp_neg_abs, out=exp_neg_abs)
    np.exp(exp_neg_abs, out=exp_neg_abs)
    denom = np.add(exp_neg_abs, 1.0, out=_array(buffers, "denom", x))
    diff = np.multiply(x, mask, out=_array(buffers, "scratch0", x))
    np.subtract(diff, np.multiply(x, t, out=_array(buffers, "scratch1", x)),
                out=diff)
    # A "none" reduction returns the elementwise loss itself, so it
    # never lands in a reused buffer.  No ``np.add`` here writes into
    # its first operand: on a one-element array numpy then takes its
    # reduction loop, which can flip the sign of a zero or a NaN.
    elementwise = np.log(denom, out=_array(
        None if reduction == "none" else buffers, "scratch1", x))
    np.add(diff, elementwise, out=elementwise)
    if weights is not None:
        np.multiply(elementwise, weights, out=elementwise)
    if reduction == "none":
        value = elementwise
        scale = None
    elif reduction == "sum":
        value = elementwise.sum()
        scale = 1.0
    elif reduction == "mean":
        value = elementwise.sum() * (1.0 / elementwise.size)
        scale = 1.0 / elementwise.size
    else:
        raise ValueError(f"unknown reduction: {reduction!r}")
    return value, (mask, exp_neg_abs, denom, scale)


def bce_with_logits_backward(g: np.ndarray, x: np.ndarray, t: np.ndarray,
                             weights: np.ndarray | None, ctx,
                             buffers: dict | None = None) -> np.ndarray:
    """Gradient w.r.t. the logits, from the forward pass's ``ctx``.

    With ``buffers`` the gradient is ``buffers["grad"]``, valid until
    the next backward with the same set.
    """
    _record("bce")
    mask, exp_neg_abs, denom, scale = ctx
    grad = _array(buffers, "grad", x)
    if scale is None:
        upstream = g
    else:
        upstream = np.broadcast_to(g * scale, x.shape)
    if weights is not None:
        # Last read by the product that overwrites it with upstream·mask.
        upstream = np.multiply(upstream, weights, out=grad)
    dv = np.divide(upstream, denom, out=_array(buffers, "scratch0", x))
    partial = np.negative(upstream, out=_array(buffers, "scratch1", x))
    np.multiply(partial, t, out=partial)
    np.add(np.multiply(upstream, mask, out=grad), partial, out=partial)
    np.multiply(dv, exp_neg_abs, out=dv)
    np.negative(dv, out=dv)
    np.multiply(dv, np.sign(x, out=grad), out=dv)
    np.add(partial, dv, out=grad)
    return grad


def softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Counted :func:`stable_softmax`."""
    _record("softmax")
    return stable_softmax(values, axis=axis)


def softmax_backward(g: np.ndarray, value: np.ndarray,
                     axis: int = -1) -> np.ndarray:
    """Vector-Jacobian product of the softmax at output ``value``."""
    _record("softmax")
    dot = (g * value).sum(axis=axis, keepdims=True)
    return value * (g - dot)


def adam_step(p: np.ndarray, grad: np.ndarray, m: np.ndarray,
              v: np.ndarray, t: np.ndarray, u: np.ndarray, lr: float,
              beta1: float, beta2: float, eps: float,
              bias1: float, bias2: float) -> None:
    """In-place Adam update of ``p``; ``t``/``u`` are scratch buffers."""
    _record("adam")
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=t)
    m += t
    v *= beta2
    np.multiply(grad, grad, out=t)
    t *= 1.0 - beta2
    v += t
    np.divide(v, bias2, out=u)       # v̂
    np.sqrt(u, out=u)
    u += eps
    np.divide(m, bias1, out=t)       # m̂
    t *= lr
    t /= u
    p -= t


def sgd_step(p: np.ndarray, grad: np.ndarray,
             velocity: np.ndarray | None, buf: np.ndarray,
             lr: float, momentum: float) -> None:
    """In-place SGD (optionally momentum) update; ``buf`` is scratch."""
    _record("sgd")
    if momentum:
        velocity *= momentum
        velocity += grad
        grad = velocity
    np.multiply(grad, lr, out=buf)
    p -= buf


def sample_without_replacement(rng: np.random.Generator, n: int,
                               k: int) -> np.ndarray:
    """``k`` distinct node ids out of ``n``: ``rng.choice`` unchanged."""
    _record("sample")
    return rng.choice(n, size=k, replace=False)


def sample_pairs(rng: np.random.Generator, high: int, size) -> np.ndarray:
    """Uniform integer draws for edge/negative pair sampling."""
    _record("pairs")
    return rng.integers(0, high, size=size)


def neighbor_gather(starts: np.ndarray, kept: np.ndarray,
                    out_ptr: np.ndarray, over_mask: np.ndarray,
                    draws: np.ndarray) -> np.ndarray:
    """CSR storage positions of the entries one sampling layer keeps.

    Rows at or under the fanout keep every stored entry in order;
    oversized rows keep the pre-drawn (with-replacement) local offsets
    in ``draws``.  Returns an int64 array of positions into the graph's
    ``indices``/``data`` arrays, row segments concatenated in seed order.
    """
    _record("neighbor")
    total = int(out_ptr[-1])
    local = np.arange(total, dtype=np.int64)
    local -= np.repeat(out_ptr[:-1], kept)
    if draws.size:
        local[np.repeat(over_mask, kept)] = draws
    return np.repeat(starts, kept) + local


# --------------------------------------------------------------------- #
# Serving kernels                                                        #
# --------------------------------------------------------------------- #

def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense GEMM for the serving index's similarity scoring.

    ``a @ b`` goes straight to BLAS; counting it makes the serving
    layer's per-query matmul volume observable next to the training ops.
    """
    _record("gemm")
    return a @ b


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries along the last axis.

    ``argpartition`` (introselect, O(n)) narrows to ``k`` candidates,
    which are then ordered by ``(-score, index)`` — descending score
    with ties broken toward the *lower* index — so the result is fully
    deterministic: serial and batched queries rank equal scores
    identically.
    """
    _record("topk")
    scores = np.asarray(scores)
    single = scores.ndim == 1
    s = scores.reshape(1, -1) if single else scores
    n = s.shape[-1]
    kk = min(int(k), n)
    if kk <= 0:
        out = np.empty((s.shape[0], 0), dtype=np.int64)
    else:
        if kk < n:
            part = np.argpartition(s, n - kk, axis=-1)[:, n - kk:]
            part = part.astype(np.int64, copy=False)
            vals = np.take_along_axis(s, part, axis=-1)
        else:
            part = np.broadcast_to(np.arange(n, dtype=np.int64), s.shape)
            vals = s
        order = np.lexsort((part, -vals), axis=-1)[:, :kk]
        out = np.take_along_axis(part, order, axis=-1)
        out = np.ascontiguousarray(out, dtype=np.int64)
    return out[0] if single else out


# --------------------------------------------------------------------- #
# Neighbor sampling                                                      #
# --------------------------------------------------------------------- #

class NeighborSampler:
    """Fanout-bounded per-layer neighbor sampling over one fixed CSR matrix.

    Used by the sampled training mode's minibatch GCN forward: for a set
    of seed rows, every row with at most ``fanout`` stored entries keeps
    all of them (in storage order — so a fanout at or above the maximum
    degree reproduces the full convolution bit for bit), while larger
    rows keep ``fanout`` uniform with-replacement draws whose values are
    rescaled by ``degree / fanout``, making the sampled aggregation an
    unbiased estimate of the full row sum.

    Determinism contract: the bounded-integer draw stream comes from one
    vectorised ``rng.integers`` call per layer, so any worker count or
    dtype consumes the identical stream.
    """

    def __init__(self, matrix, fanout: int):
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        matrix = matrix.tocsr()
        self.fanout = int(fanout)
        self.num_nodes = matrix.shape[1]
        self.indptr = matrix.indptr
        self.indices = matrix.indices
        self.data = matrix.data
        self._degs = np.diff(matrix.indptr).astype(np.int64)

    def sample(self, seeds: np.ndarray, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One layer of neighbor sampling for ``seeds``.

        Returns ``(out_ptr, cols, vals)``: the per-seed CSR pointer of
        the kept entries, their (global) column ids and their rescaled
        values.  Rows at or under the fanout are passed through exactly
        (no rescale, no draw), so the rescale multiplies only where
        subsampling actually happened.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        degs = self._degs[seeds]
        starts = self.indptr[seeds].astype(np.int64)
        kept = np.minimum(degs, self.fanout)
        out_ptr = np.empty(seeds.size + 1, dtype=np.int64)
        out_ptr[0] = 0
        np.cumsum(kept, out=out_ptr[1:])
        over_mask = degs > self.fanout
        bounds = np.repeat(degs[over_mask], self.fanout)
        draws = (rng.integers(0, bounds, dtype=np.int64) if bounds.size
                 else np.empty(0, dtype=np.int64))
        positions = neighbor_gather(starts, kept, out_ptr, over_mask, draws)
        cols = self.indices[positions].astype(np.int64, copy=False)
        vals = self.data[positions]
        if draws.size:
            vals = vals.copy()
            scale = (degs[over_mask] / self.fanout).astype(vals.dtype)
            entry_over = np.repeat(over_mask, kept)
            vals[entry_over] *= np.repeat(scale, self.fanout)
        return out_ptr, cols, vals

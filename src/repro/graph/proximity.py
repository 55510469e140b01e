"""High-order proximity matrices (paper Eq. 1).

``Ã = f(w₁A + w₂A² + … + w_l A^l)`` where ``A`` is the self-loop-augmented
adjacency and ``f`` row-normalises so each entry can be read as the
probability that node *i* is connected to node *j* in the high-order space.

Powers of a sparse adjacency densify quickly; everything here stays in
scipy sparse format so Pubmed-sized graphs remain tractable.  ``Ã`` is
built in one pass over the whole matrix; a sampled fit never forms it
(see :class:`ProximityBlocks`).

Memory: beside the output ``Ã`` the build holds about one transient
copy of ``A^l``.  The last power is scaled in place and dropped before
the row normalisation allocates ``Ã``, so the tracemalloc peak of a
build stays within 2.5× the bytes of ``Ã`` (data + indices + indptr);
it measures 2.2–2.35× at orders 2 and 3 on a 12,000-node DC-SBM.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..obs import metrics, trace

__all__ = ["high_order_proximity", "katz_proximity", "ProximityBlocks",
           "proximity_weights", "katz_weights", "proximity_statistics",
           "modularity_degree"]


def high_order_proximity(adjacency: sp.spmatrix, order: int = 2,
                         weights: np.ndarray | None = None,
                         self_loops: bool = True) -> sp.csr_matrix:
    """Compute the row-normalised high-order proximity matrix ``Ã``.

    Parameters
    ----------
    adjacency:
        Binary symmetric adjacency (no self-loops).
    order:
        ``l`` in Eq. 1 — the highest power of ``A`` included.
    weights:
        Per-order weights ``w``; defaults to uniform ``1/l``.
    self_loops:
        Whether to add the identity before taking powers (the paper's
        Definition 2 convention).
    """
    weights = proximity_weights(order, weights)
    base = sp.csr_matrix(adjacency, dtype=np.float64)
    if self_loops:
        base = base + sp.eye(base.shape[0], format="csr")
    n = base.shape[0]
    power = sp.eye(n, format="csr")
    total = sp.csr_matrix((n, n), dtype=np.float64)
    registry = metrics.registry()
    for k, w in enumerate(weights, start=1):
        with trace.span(f"proximity/order{k}"), \
                registry.timer(f"proximity.order{k}").time():
            power = (power @ base).tocsr()
            if w:
                total = total + _scaled(power, w, k == len(weights))
    # Only ``total`` is read from here on: the last power goes before
    # ``_row_normalize`` allocates the output.
    del power
    return _row_normalize(total)


def proximity_weights(order: int,
                      weights: np.ndarray | None = None) -> np.ndarray:
    """The validated per-order weights ``w`` of Eq. 1 (default ``1/l``)."""
    if order < 1:
        raise ValueError("proximity order must be >= 1")
    if weights is None:
        weights = np.full(order, 1.0 / order)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (order,):
        raise ValueError(f"expected {order} weights, got {weights.shape}")
    if np.any(weights < 0):
        raise ValueError("proximity weights must be non-negative")
    return weights


def katz_weights(beta: float, order: int) -> np.ndarray:
    """The truncated Katz weights ``w_l = βˡ``, ``l = 1..order``."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    return np.array([beta ** (l + 1) for l in range(order)])


def _scaled(power: sp.csr_matrix, w: float, last: bool) -> sp.csr_matrix:
    """``w * power``; after the last order nothing reads the unscaled
    power, so its data is scaled in place (the same multiply, no copy of
    ``data``, ``indices`` or ``indptr``)."""
    if not last:
        return w * power
    power.data *= w
    return power


def katz_proximity(adjacency: sp.spmatrix, beta: float = 0.1,
                   order: int = 5,
                   self_loops: bool = False) -> sp.csr_matrix:
    """Truncated Katz index ``Σ_{l=1..order} βˡ Aˡ``, row-normalised.

    The high-order proximity family of the paper's Definition 3 with the
    classic geometric weighting ``w_l = βˡ`` — an alternative to the
    uniform weights :func:`high_order_proximity` defaults to.  ``β`` must
    stay below ``1/λ_max(A)`` for the untruncated series to converge; the
    truncated sum is always finite, but small ``β`` keeps the emphasis on
    short paths either way.
    """
    return high_order_proximity(adjacency, order=order,
                                weights=katz_weights(beta, order),
                                self_loops=self_loops)


class ProximityBlocks:
    """Blocks ``Ã[S][:, S]`` of Eq. 1 built from adjacency row slabs,
    without ever forming ``Ã``.

    Holds the base ``B = A (+ I)``, the per-order weights ``w`` and the
    row sums ``r = Σ_k w_k·B^k·1`` (``order`` sparse mat-vecs, each in
    a ``proximity/order{k}`` span).  For a symmetric ``B`` the ``S×S``
    block of ``B^k`` is ``B^⌈k/2⌉[S, :]·(B^⌊k/2⌋[S, :])ᵀ``, so
    :meth:`block` costs ``O(|S|·d^⌈l/2⌉)`` for average degree ``d``
    and memory of that order, against ``Ã``'s ``O(N·d^l)``.  That
    needs a symmetric adjacency: a :class:`~repro.graph.graph.Graph`
    validates one, but ``validate="off"`` does not, so the constructor
    checks it (``O(nnz)``) and raises on an asymmetric one.

    The weighted powers are summed in order and each row is scaled by
    ``1/r``, as :func:`high_order_proximity` does: with binary ``A``
    every power is an exact integer count, so a block matches the
    sliced ``Ã`` up to the rounding of the row sums — bit for bit
    whenever the weighted counts are exact (order 2 with the default
    weights: every term is a multiple of ½).  Blocks come in ``dtype``
    (computed in float64, rounded once).
    """

    def __init__(self, adjacency: sp.spmatrix, weights: np.ndarray,
                 self_loops: bool = True, dtype=np.float64):
        base = sp.csr_matrix(adjacency, dtype=np.float64)
        if self_loops:
            base = base + sp.eye(base.shape[0], format="csr")
        if (base != base.T).nnz:
            raise ValueError("proximity blocks need a symmetric adjacency "
                             "(undirected graphs only)")
        self._setup(base, weights, dtype)

    def _setup(self, base: sp.csr_matrix, weights: np.ndarray,
               dtype) -> None:
        self.base = base
        self.weights = np.asarray(weights, dtype=np.float64)
        self.dtype = np.dtype(dtype)
        registry = metrics.registry()
        walks = np.ones(base.shape[0])
        row_sums = np.zeros(base.shape[0])
        for k, w in enumerate(self.weights, start=1):
            with trace.span(f"proximity/order{k}"), \
                    registry.timer(f"proximity.order{k}").time():
                walks = base @ walks
                if w:
                    row_sums += w * walks
        self.row_sums = row_sums
        self._whole = None

    def reweighted(self, weights: np.ndarray) -> "ProximityBlocks":
        """The blocks of the same ``B`` under other weights; ``B`` is
        shared, not copied."""
        blocks = object.__new__(ProximityBlocks)
        blocks._setup(self.base, weights, self.dtype)
        return blocks

    def modularity_terms(self) -> tuple[np.ndarray, float]:
        """``(k̃, 2M̃)`` of the row-normalised ``Ã``: each row with mass
        sums to exactly 1 (an empty row to 0), and ``2M̃`` counts them."""
        degrees = (self.row_sums > 0).astype(np.float64)
        two_m = float(np.count_nonzero(degrees))
        if two_m <= 0:
            raise ValueError("proximity matrix has no mass; cannot normalise")
        return degrees, two_m

    def block(self, idx: np.ndarray) -> sp.csr_matrix:
        """The ``idx × idx`` block of ``Ã`` (``idx`` sorted and distinct)
        as a CSR matrix with sorted indices.

        A block over every node is built once and kept: a batch that
        covers the graph reads the same block every epoch.  Callers
        must not modify it.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size < self.base.shape[0]:
            return self._build(idx)
        if self._whole is None:
            self._whole = self._build(idx)
        return self._whole

    def _build(self, idx: np.ndarray) -> sp.csr_matrix:
        slabs = [self.base[idx]]  # slabs[j] is B^(j+1)[S, :]
        total = None
        for k, w in enumerate(self.weights, start=1):
            high, low = (k + 1) // 2, k // 2
            while len(slabs) < high:
                slabs.append(slabs[-1] @ self.base)
            if not w:
                continue
            power = (slabs[high - 1][:, idx] if low == 0
                     else slabs[high - 1] @ slabs[low - 1].T)
            total = w * power if total is None else total + w * power
        total = total.tocsr()
        with np.errstate(divide="ignore"):
            inv = 1.0 / self.row_sums[idx]
        inv[~np.isfinite(inv)] = 0.0
        total.data *= np.repeat(inv, np.diff(total.indptr))
        total.sort_indices()
        return total.astype(self.dtype, copy=False)


def _row_normalize(total: sp.csr_matrix) -> sp.csr_matrix:
    """``total`` with each row scaled to sum to one (rows of all zeros
    stay zero).

    The bytes are those of ``sp.diags(1 / row_sums) @ total``: scipy's
    product writes each row's entries in reverse stored order and drops
    the products that are zero.  The rows are written in chunks straight
    into the output, so that product is never allocated.
    """
    sums = np.asarray(total.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv = 1.0 / sums
    inv[~np.isfinite(inv)] = 0.0
    rows, cols = total.shape
    idx_dtype = np.result_type(np.int32, total.indptr.dtype,
                               total.indices.dtype)
    if max(total.nnz, cols) > np.iinfo(np.int32).max:
        idx_dtype = np.int64
    data = np.empty(total.nnz, dtype=np.float64)
    indices = np.empty(total.nnz, dtype=idx_dtype)
    indptr = total.indptr.astype(idx_dtype)
    zeros = _scale_reversed(total, inv, data, indices)
    out = sp.csr_matrix((data, indices, indptr), shape=(rows, cols))
    if zeros:
        out.eliminate_zeros()
    return out


#: :func:`_scale_reversed` walks a matrix in about this many chunks of
#: rows, each of at least ``_CHUNK_ENTRIES`` stored entries: its
#: temporaries stay a few percent of the output, and few enough
#: allocations that tracing them costs little.
_CHUNKS = 64
_CHUNK_ENTRIES = 1 << 14


def _scale_reversed(matrix: sp.csr_matrix, inv: np.ndarray,
                    data: np.ndarray, indices: np.ndarray) -> bool:
    """Write row ``r`` of ``matrix`` times ``inv[r]``, its entries in
    reverse order, into ``data``/``indices``; whether a product is zero.

    A row with ``inv[r] == 0`` has no entry in scipy's product, so its
    products are zeroed for :meth:`~scipy.sparse.csr_matrix.eliminate_zeros`
    to drop, even where a stored value is infinite.
    """
    indptr = matrix.indptr.astype(np.int64)
    counts = np.diff(indptr)
    dead_rows = not inv.all()
    chunk = max(_CHUNK_ENTRIES, matrix.nnz // _CHUNKS)
    firsts = np.searchsorted(indptr, np.arange(0, matrix.nnz, chunk),
                             side="right") - 1
    bounds = np.unique(np.append(firsts, len(counts))).tolist()
    zeros = False
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        start, stop = int(indptr[r0]), int(indptr[r1])
        # Entry k of row r moves to indptr[r] + indptr[r + 1] - 1 - k.
        source = np.repeat(indptr[r0:r1] + indptr[r0 + 1:r1 + 1] - 1,
                           counts[r0:r1])
        source -= np.arange(start, stop)
        indices[start:stop] = matrix.indices[source]
        scaled = matrix.data[source]
        del source
        scale = np.repeat(inv[r0:r1], counts[r0:r1])
        scaled *= scale
        if dead_rows:
            scaled[scale == 0.0] = 0.0
        data[start:stop] = scaled
        zeros = zeros or not scaled.all()
    return zeros


def modularity_degree(proximity: sp.spmatrix) -> tuple[np.ndarray, float]:
    """High-order degrees ``k̃`` and total ``2M̃ = Σᵢⱼ Ãᵢⱼ`` (Section IV-C3).

    Note the paper defines ``M̃ = Σᵢⱼ Ãᵢⱼ`` and uses ``2M̃`` as the
    normaliser; we return ``k̃`` and the normaliser ``two_m = Σᵢⱼ Ãᵢⱼ`` so
    that ``Σᵢ k̃ᵢ = two_m`` mirrors the first-order identity ``Σ kᵢ = 2M``.
    """
    degrees = np.asarray(proximity.sum(axis=1)).ravel()
    return degrees, float(degrees.sum())


def proximity_statistics(proximity: sp.spmatrix) -> dict[str, float]:
    """Summary statistics used in tests and experiment logs."""
    matrix = sp.csr_matrix(proximity)
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    return {
        "nnz": float(matrix.nnz),
        "density": float(matrix.nnz) / float(matrix.shape[0] * matrix.shape[1]),
        "max": float(matrix.data.max()) if matrix.nnz else 0.0,
        "row_sum_min": float(row_sums.min()),
        "row_sum_max": float(row_sums.max()),
    }

"""High-order proximity matrices (paper Eq. 1).

``Ã = f(w₁A + w₂A² + … + w_l A^l)`` where ``A`` is the self-loop-augmented
adjacency and ``f`` row-normalises so each entry can be read as the
probability that node *i* is connected to node *j* in the high-order space.

Powers of a sparse adjacency densify quickly; everything here stays in
scipy sparse format so Pubmed-sized graphs remain tractable.  Every row
of ``Ã`` depends only on the same row of each left operand, so large
graphs are computed in contiguous row blocks, one per usable core, on a
thread pool (scipy's sparse kernels release the GIL).  The blocks'
arrays concatenate to exactly the bytes a single block produces,
including the order of the indices within each row.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

from .. import parallel
from ..obs import metrics, trace

__all__ = ["high_order_proximity", "katz_proximity", "proximity_statistics",
           "modularity_degree"]

#: Stored entries of the self-loop-augmented adjacency from which the
#: rows are split into blocks.  On a 2-core host at order 2, one block
#: beat two up to a 5k-node DC-SBM (33 ms vs 46 ms, ~5·10⁴ entries) and
#: lost from 10k nodes on (63 ms vs 49 ms at ~10⁵ entries, 180 ms vs
#: 107 ms at 25k nodes): below this size the pool costs more than the
#: kernels it splits.
_BLOCK_MIN_ENTRIES = 100_000


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
    if order < 1:
        raise ValueError("proximity order must be >= 1")
    if weights is None:
        weights = np.full(order, 1.0 / order)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (order,):
        raise ValueError(f"expected {order} weights, got {weights.shape}")
    if np.any(weights < 0):
        raise ValueError("proximity weights must be non-negative")
    return _blocked_proximity(adjacency, weights, self_loops)


def _blocked_proximity(adjacency: sp.spmatrix, weights: np.ndarray,
                       self_loops: bool,
                       cuts: list[int] | None = None) -> sp.csr_matrix:
    """Eq. 1 over the row blocks ``cuts[i]:cuts[i + 1]``.

    ``cuts`` defaults to one block per usable core (see
    :func:`_row_cuts`).  One block runs inline; several run on a thread
    pool that lives only for this call, so no thread survives into a
    process that :mod:`repro.parallel` forks later.
    """
    base = sp.csr_matrix(adjacency, dtype=np.float64)
    if self_loops:
        base = base + sp.eye(base.shape[0], format="csr")
    if cuts is None:
        cuts = _row_cuts(base)
    if len(cuts) == 2:
        return _proximity_blocks(base, weights, cuts, map)[0]
    with ThreadPoolExecutor(max_workers=len(cuts) - 1) as pool:
        blocks = _proximity_blocks(base, weights, cuts, pool.map)
    return sp.vstack(blocks, format="csr")


def _row_cuts(base: sp.csr_matrix) -> list[int]:
    """Row boundaries of one block per usable core, balanced by entries.

    One block inside a :mod:`repro.parallel` worker (the pool already
    uses the cores) and below :data:`_BLOCK_MIN_ENTRIES`.
    """
    blocks = 1
    if base.nnz >= _BLOCK_MIN_ENTRIES and not parallel.in_worker():
        blocks = _usable_cores()
    targets = np.arange(1, blocks) * (base.nnz / blocks)
    inner = np.searchsorted(base.indptr, targets).tolist()
    return [0, *inner, base.shape[0]]


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _proximity_blocks(base: sp.csr_matrix, weights: np.ndarray,
                      cuts: list[int], map_blocks) -> list[sp.csr_matrix]:
    """Each block's rows of ``Ã``; every step is mapped over the blocks
    with ``map_blocks`` and finished before the next one starts.

    Spans and timers open here, on the calling thread, because the
    tracer keeps one span stack; the block steps touch neither.
    """
    n = base.shape[0]
    bounds = list(zip(cuts[:-1], cuts[1:]))
    powers = [sp.eye(stop - start, n, k=start, format="csr")
              for start, stop in bounds]
    totals = [sp.csr_matrix((stop - start, n), dtype=np.float64)
              for start, stop in bounds]
    registry = metrics.registry()
    for k, w in enumerate(weights, start=1):
        with trace.span(f"proximity/order{k}"), \
                registry.timer(f"proximity.order{k}").time():
            powers = list(map_blocks(lambda power: (power @ base).tocsr(),
                                     powers))
            if w:
                merge = all(m.has_canonical_format for m in totals + powers)
                totals = list(map_blocks(
                    lambda total, power: _add(total, w * power, merge),
                    totals, powers))
    return list(map_blocks(lambda total: _row_normalize(total.tocsr()),
                           totals))


def _add(left: sp.csr_matrix, right: sp.csr_matrix,
         merge: bool) -> sp.csr_matrix:
    """``left + right`` in the row order a whole-matrix sum would give.

    scipy adds two operands whose rows are all sorted and duplicate-free
    by merging (sorted output), and any other pair by walking each row
    in insertion order.  It decides on the whole operands, so a block
    whose rows all happen to be sorted must still walk when ``merge`` is
    false: one appended duplicate-index row sends it down that path and
    sums to nothing.
    """
    if merge or not (left.has_canonical_format
                     and right.has_canonical_format):
        return left + right
    rows, cols = left.shape
    padded = sp.csr_matrix(
        (np.append(left.data, [0.0, 0.0]), np.append(left.indices, [0, 0]),
         np.append(left.indptr, left.nnz + 2)), shape=(rows + 1, cols))
    right = sp.csr_matrix((right.data, right.indices,
                           np.append(right.indptr, right.nnz)),
                          shape=(rows + 1, cols))
    out = padded + right
    return sp.csr_matrix((out.data, out.indices, out.indptr[:-1]),
                         shape=(rows, cols))


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
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    weights = np.array([beta ** (l + 1) for l in range(order)])
    return high_order_proximity(adjacency, order=order, weights=weights,
                                self_loops=self_loops)


def _row_normalize(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Scale each row to sum to one (rows of all zeros stay zero)."""
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv = 1.0 / sums
    inv[~np.isfinite(inv)] = 0.0
    return (sp.diags(inv) @ matrix).tocsr()


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

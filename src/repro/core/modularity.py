"""The paper's generalised modularity function (Section IV-C).

Three variants are provided:

* :func:`newman_modularity` — the classic first-order, hard-partition
  modularity ``Q`` of Eq. 4 (also the community-detection metric).
* :func:`soft_modularity` — numpy evaluation of the generalised
  ``Q̃ = tr(Pᵀ B̃ P) / (2M̃)`` (Eq. 14) given any proximity matrix and any
  soft membership matrix.
* :func:`modularity_loss_terms` + :func:`generalized_modularity_tensor` —
  the differentiable version used as AnECI's training signal.

Implementation note: ``B̃ = Ã − k̃ k̃ᵀ / (2M̃)`` is a sparse matrix minus a
rank-one correction; materialising it is O(N²).  We instead expand

    tr(Pᵀ B̃ P) = tr(Pᵀ Ã P) − ‖Pᵀ k̃‖² / (2M̃),

which keeps every operation sparse or ``N × K``.  Following the
first-order identity ``Σᵢⱼ Aᵢⱼ = 2M`` we take ``2M̃ = Σᵢⱼ Ãᵢⱼ`` (the
paper's M̃ notation folds the factor of two into the symbol).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..nn import Tensor, spmm

__all__ = [
    "newman_modularity",
    "soft_modularity",
    "modularity_loss_terms",
    "generalized_modularity_tensor",
    "sampled_modularity_tensor",
]


def newman_modularity(adjacency: sp.spmatrix, labels: np.ndarray) -> float:
    """Classic modularity ``Q`` (Eq. 4) of a hard partition.

    Used as the community-detection evaluation metric (Fig. 7).
    """
    adj = sp.coo_matrix(adjacency, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape[0] != adj.shape[0]:
        raise ValueError("labels must cover every node")
    degrees = np.zeros(adj.shape[0], dtype=np.float64)
    np.add.at(degrees, adj.row, adj.data)
    two_m = degrees.sum()
    if two_m == 0:
        return 0.0
    # One pass over the edge list: an edge is internal iff both endpoints
    # share a community code, so per-community internal weight and degree
    # mass are two bincounts — no per-community ``adj[np.ix_()]`` slicing.
    _, codes = np.unique(labels, return_inverse=True)
    k = codes.max() + 1
    row_codes = codes[adj.row]
    internal_mask = row_codes == codes[adj.col]
    internal = np.bincount(row_codes[internal_mask],
                           weights=adj.data[internal_mask], minlength=k)
    degree_sums = np.bincount(codes, weights=degrees, minlength=k)
    return float(np.sum(internal / two_m - (degree_sums / two_m) ** 2))


def modularity_loss_terms(proximity: sp.spmatrix) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """Precompute the constants of ``Q̃``: ``(Ã, k̃, 2M̃)``."""
    prox = sp.csr_matrix(proximity, dtype=np.float64)
    degrees = np.asarray(prox.sum(axis=1)).ravel()
    two_m = float(degrees.sum())
    if two_m <= 0:
        raise ValueError("proximity matrix has no mass; cannot normalise")
    return prox, degrees, two_m


def generalized_modularity_tensor(membership: Tensor, proximity: sp.csr_matrix,
                                  degrees: np.ndarray, two_m: float) -> Tensor:
    """Differentiable ``Q̃ = [tr(PᵀÃP) − ‖Pᵀk̃‖²/(2M̃)] / (2M̃)`` (Eq. 14)."""
    observed = (membership * spmm(proximity, membership)).sum()
    weighted = membership * Tensor(degrees[:, None])
    column_sums = weighted.sum(axis=0)
    expected = (column_sums * column_sums).sum() * (1.0 / two_m)
    return (observed - expected) * (1.0 / two_m)


def sampled_modularity_tensor(membership: Tensor, idx: np.ndarray,
                              proximity: sp.csr_matrix, degrees: np.ndarray,
                              two_m: float, num_nodes: int,
                              prox_diag: np.ndarray) -> Tensor:
    """Unbiased subsample estimate of ``Q̃`` from a node batch (Eq. 14).

    ``membership`` holds the soft membership rows of the ``idx`` nodes
    only (a without-replacement uniform sample of the graph), so the
    epoch touches just the ``idx × idx`` block of the proximity — never
    the full matrix.  Both traces are built from Horvitz–Thompson
    weights for simple random sampling without replacement: node pairs
    ``i ≠ j`` are observed with probability ``s(s−1)/(n(n−1))`` and
    single nodes with ``s/n``, so off-diagonal and diagonal sums get
    separate inverse-probability scales and the estimator's expectation
    over batches equals the exact ``Q̃`` of the same membership matrix.
    The rank-one ``‖Pᵀk̃‖²`` term uses the identity
    ``‖Σᵢ vᵢ‖² = Σ_{i≠j} vᵢ·vⱼ + Σᵢ ‖vᵢ‖²`` so its cross and diagonal
    parts can be reweighted separately (a plain ``(n/s)²`` scale on the
    squared sum would be biased upward by the sample variance).

    When ``idx`` covers every node both scales are 1, and the value and
    its gradient with respect to ``membership`` both equal those of
    :func:`generalized_modularity_tensor`.
    """
    s = int(idx.size)
    n = int(num_nodes)
    if s < 2:
        raise ValueError("sampled modularity needs at least 2 nodes")
    f_pair = (n * (n - 1.0)) / (s * (s - 1.0))
    f_node = n / float(s)
    dtype = membership.data.dtype
    block = proximity[idx][:, idx].tocsr()
    # tr(PᵀÃP): block total, then split the diagonal out so each part
    # carries its own inverse inclusion probability.  Row-normalised Ã is
    # not symmetric, so the backward pass needs the block's own transpose.
    observed_all = (membership * spmm(block, membership,
                                      transpose=block.T.tocsr())).sum()
    diag = Tensor(prox_diag[idx].astype(dtype, copy=False)[:, None])
    diag_part = (diag * membership * membership).sum()
    observed = ((observed_all - diag_part) * f_pair + diag_part * f_node)
    # ‖Pᵀk̃‖² via the cross/diagonal split of the squared sum.
    weighted = membership * Tensor(degrees[idx][:, None])
    column_sums = weighted.sum(axis=0)
    total_sq = (column_sums * column_sums).sum()
    node_sq = (weighted * weighted).sum()
    expected = ((total_sq - node_sq) * f_pair + node_sq * f_node) \
        * (1.0 / two_m)
    return (observed - expected) * (1.0 / two_m)


def soft_modularity(proximity: sp.spmatrix, membership: np.ndarray) -> float:
    """Numpy evaluation of ``Q̃`` for any soft membership matrix."""
    prox, degrees, two_m = modularity_loss_terms(proximity)
    membership = np.asarray(membership, dtype=np.float64)
    observed = float(np.sum(membership * (prox @ membership)))
    column_sums = degrees @ membership
    expected = float(column_sums @ column_sums) / two_m
    return (observed - expected) / two_m

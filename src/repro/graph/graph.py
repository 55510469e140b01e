"""The attributed-network container used throughout the library.

A :class:`Graph` bundles the pieces of Definition 1 in the paper: the
symmetric adjacency matrix, the node feature matrix ``X`` and (optionally)
node labels plus a planetoid-style train/val/test split.  Instances are
treated as immutable; every mutation helper (adding attack edges, dropping
denoised edges, …) returns a new :class:`Graph` sharing the unchanged
arrays.
"""

from __future__ import annotations

import os
from dataclasses import InitVar, dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Graph", "normalized_adjacency", "edges_from_adjacency",
           "default_validate"]

_VALIDATE_MODES = ("raise", "sanitize", "off")


def default_validate() -> str:
    """Construction-time validation policy (``REPRO_VALIDATE``,
    default ``"raise"``)."""
    return os.environ.get("REPRO_VALIDATE", "raise")


def _validate_adjacency(adjacency: sp.spmatrix,
                        mode: str = "raise") -> sp.csr_matrix:
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be square")
    if mode == "off":
        adjacency.eliminate_zeros()
        return adjacency
    if mode == "sanitize":
        if adjacency.data.size and not np.isfinite(adjacency.data).all():
            adjacency.data[~np.isfinite(adjacency.data)] = 0.0
        adjacency = adjacency.maximum(adjacency.T).tocsr()
        adjacency.setdiag(0.0)
        if adjacency.data.size:
            adjacency.data[:] = (adjacency.data != 0.0).astype(np.float64)
        adjacency.eliminate_zeros()
        return adjacency
    if adjacency.data.size and not np.isfinite(adjacency.data).all():
        raise ValueError(
            "adjacency contains non-finite entries (NaN/inf); pass "
            "validate='sanitize' to drop them")
    if (adjacency != adjacency.T).nnz != 0:
        raise ValueError(
            "adjacency must be symmetric (undirected graphs only); pass "
            "validate='sanitize' to symmetrise with max(A, Aᵀ)")
    if adjacency.diagonal().any():
        raise ValueError("adjacency must not contain self-loops; they are "
                         "added during normalisation")
    data = adjacency.data
    if data.size and (np.any(data < 0) or np.any(data > 1)):
        raise ValueError("adjacency entries must be binary")
    adjacency.eliminate_zeros()
    return adjacency


@dataclass(frozen=True)
class Graph:
    """An undirected attributed network.

    Parameters
    ----------
    adjacency:
        ``N × N`` binary symmetric scipy sparse matrix without self-loops.
    features:
        ``N × d`` dense feature matrix ``X``; identity for plain graphs
        (the paper's Polblogs convention).
    labels:
        Optional integer class labels, shape ``(N,)``.
    train_idx / val_idx / test_idx:
        Optional node index arrays for the semi-supervised protocol.
    name:
        Human-readable dataset name.
    validate:
        Construction-time input checking: ``"raise"`` (the default —
        reject asymmetric/non-binary adjacency and non-finite features
        with a clear error instead of failing deep inside ``fit``),
        ``"sanitize"`` (symmetrise with ``max(A, Aᵀ)``, drop self-loops,
        binarise, zero non-finite values), or ``"off"`` (trust the
        caller; shape checks only).  Default from ``REPRO_VALIDATE``.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    labels: np.ndarray | None = None
    train_idx: np.ndarray | None = None
    val_idx: np.ndarray | None = None
    test_idx: np.ndarray | None = None
    name: str = "graph"
    metadata: dict = field(default_factory=dict)
    validate: InitVar[str | None] = None

    def __post_init__(self, validate: str | None = None):
        mode = default_validate() if validate is None else validate
        if mode not in _VALIDATE_MODES:
            raise ValueError(f"validate must be one of {_VALIDATE_MODES}, "
                             f"got {mode!r}")
        object.__setattr__(self, "adjacency",
                           _validate_adjacency(self.adjacency, mode))
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if features.shape[0] != self.adjacency.shape[0]:
            raise ValueError(
                f"features have {features.shape[0]} rows for "
                f"{self.adjacency.shape[0]} nodes")
        if mode != "off" and not np.isfinite(features).all():
            if mode == "raise":
                bad = int((~np.isfinite(features)).sum())
                raise ValueError(
                    f"features contain {bad} non-finite value(s) "
                    f"(NaN/inf); pass validate='sanitize' to zero them "
                    f"or validate='off' to skip input checks")
            features = np.nan_to_num(features, nan=0.0, posinf=0.0,
                                     neginf=0.0)
        object.__setattr__(self, "features", features)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (self.num_nodes,):
                raise ValueError("labels must be one integer per node")
            object.__setattr__(self, "labels", labels.astype(np.int64))

    # ------------------------------------------------------------------ #
    # Basic statistics                                                    #
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``M``."""
        return int(self.adjacency.nnz // 2)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise ValueError(f"graph {self.name!r} has no labels")
        return int(self.labels.max()) + 1

    def degrees(self) -> np.ndarray:
        """Node degrees (no self-loops)."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def density(self) -> float:
        n = self.num_nodes
        possible = n * (n - 1) / 2
        return self.num_edges / possible if possible else 0.0

    # ------------------------------------------------------------------ #
    # Edges                                                               #
    # ------------------------------------------------------------------ #
    def edge_list(self) -> np.ndarray:
        """Undirected edges as an ``(M, 2)`` array with ``u < v``."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        return np.column_stack([coo.row, coo.col])

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(u), int(v)) for u, v in self.edge_list()}

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u, v] != 0)

    # ------------------------------------------------------------------ #
    # Functional updates                                                  #
    # ------------------------------------------------------------------ #
    def with_adjacency(self, adjacency: sp.spmatrix, **meta) -> "Graph":
        """Return a copy with a replaced adjacency matrix."""
        metadata = {**self.metadata, **meta}
        return replace(self, adjacency=sp.csr_matrix(adjacency),
                       metadata=metadata)

    def with_features(self, features: np.ndarray) -> "Graph":
        return replace(self, features=np.asarray(features, dtype=np.float64))

    def with_labels(self, labels: np.ndarray) -> "Graph":
        return replace(self, labels=np.asarray(labels))

    def add_edges(self, edges: Iterable[Sequence[int]]) -> "Graph":
        """Return a copy with ``edges`` added (symmetrically)."""
        adj = self.adjacency.tolil(copy=True)
        for u, v in edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            adj[u, v] = 1.0
            adj[v, u] = 1.0
        return self.with_adjacency(adj.tocsr())

    def remove_edges(self, edges: Iterable[Sequence[int]]) -> "Graph":
        """Return a copy with ``edges`` removed (missing edges are ignored).

        Endpoints index like sparse-matrix entries: negative ids count
        from the end and ids outside ``[-N, N)`` raise ``IndexError``.
        One mask over the sorted CSR entry codes ``row·N + col`` drops
        both orientations of every pair at once.
        """
        n = self.num_nodes
        pairs = np.asarray(edges if isinstance(edges, np.ndarray)
                           else list(edges)).reshape(-1, 2)
        if pairs.size and not np.issubdtype(pairs.dtype, np.integer):
            raise ValueError("edge endpoints must be integers")
        pairs = pairs.astype(np.int64, copy=False)
        if ((pairs < -n) | (pairs >= n)).any():
            raise IndexError(f"edge endpoint out of range for {n} nodes")
        pairs = np.where(pairs < 0, pairs + n, pairs)
        adj = self.adjacency
        if not adj.has_canonical_format:
            adj = adj.copy()
            adj.sum_duplicates()
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
        # The trailing sentinel n² lies above every entry code, so each
        # search lands on a real index and never matches past the end.
        codes = np.append(rows * n + adj.indices, n * n)
        drop = np.sort(np.concatenate([pairs[:, 0] * n + pairs[:, 1],
                                       pairs[:, 1] * n + pairs[:, 0]]))
        pos = np.searchsorted(codes, drop)
        keep = adj.data != 0
        keep[pos[codes[pos] == drop]] = False
        kept = np.concatenate(([0], np.cumsum(keep)))
        result = sp.csr_matrix(
            (adj.data[keep], adj.indices[keep], kept[adj.indptr]),
            shape=adj.shape)
        return self.with_adjacency(result)

    def flip_edges(self, edges: Iterable[Sequence[int]]) -> "Graph":
        """Toggle each edge: present → removed, absent → added."""
        adj = self.adjacency.tolil(copy=True)
        for u, v in edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            value = 0.0 if adj[u, v] else 1.0
            adj[u, v] = value
            adj[v, u] = value
        result = adj.tocsr()
        result.eliminate_zeros()
        return self.with_adjacency(result)

    # ------------------------------------------------------------------ #
    # Interop                                                             #
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.Graph:
        # Imported here: networkx is slow to import and only this method
        # uses it.
        import networkx as nx

        g = nx.from_scipy_sparse_array(self.adjacency)
        if self.labels is not None:
            nx.set_node_attributes(
                g, {i: int(c) for i, c in enumerate(self.labels)}, "label")
        return g

    def copy(self) -> "Graph":
        return replace(self, adjacency=self.adjacency.copy(),
                       features=self.features.copy())

    def __repr__(self) -> str:
        return (f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges}, features={self.num_features})")


def normalized_adjacency(adjacency: sp.spmatrix,
                         self_loops: bool = True) -> sp.csr_matrix:
    """Symmetric GCN normalisation ``D^{-1/2} (A [+ I]) D^{-1/2}`` (Eq. 2)."""
    adj = sp.csr_matrix(adjacency, dtype=np.float64)
    if self_loops:
        adj = adj + sp.eye(adj.shape[0], format="csr")
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d_inv = sp.diags(inv_sqrt)
    return (d_inv @ adj @ d_inv).tocsr()


def edges_from_adjacency(adjacency: sp.spmatrix) -> np.ndarray:
    """Undirected ``(M, 2)`` edge array of any symmetric sparse matrix."""
    coo = sp.triu(adjacency, k=1).tocoo()
    return np.column_stack([coo.row, coo.col])

"""Content-addressed cache of the epoch-invariant AnECI fit constants.

Every AnECI fit starts by rebuilding the same set of constants: the
GCN-normalised adjacency, the high-order proximity ``Ã``, the modularity
terms ``(Ã, k̃, 2M̃)`` and the densified reconstruction target.  All of it
depends only on the graph structure plus a handful of config knobs — not
on the seed — so ``n_init`` restarts, AnECI+ stage 2 on an unchanged
graph, and repeated experiment fits redo identical O(N²)/sparse-power
work.  :class:`FitWorkspace` bundles those constants and
:class:`WorkspaceCache` keys them by a fingerprint over the CSR arrays
(``indptr``/``indices``/``data``) and the relevant knobs, so any
structural mutation — attack edges, denoising drops — is a guaranteed
cache miss while bit-identical graphs hit.

Cache traffic is observable through the ``workspace.hits`` /
``workspace.misses`` / ``workspace.evictions`` counters in
:func:`repro.obs.metrics.registry` and a ``workspace`` event per build.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..graph.graph import Graph, normalized_adjacency
from ..graph.proximity import high_order_proximity, katz_proximity
from ..nn.autograd import cached_transpose
from ..nn import backend as kernels
from ..nn.backend import NeighborSampler
from ..obs import events, metrics, trace
from .config import AnECIConfig
from .modularity import modularity_loss_terms

__all__ = [
    "FitWorkspace", "WorkspaceCache", "get_workspace", "workspace_cache",
    "cache_disabled", "fit_fingerprint", "dense_gather_cap",
    "default_cache_size",
]

def dense_gather_cap() -> int:
    """Densify the reconstruction target eagerly only below this node
    count; above it the sampled path gathers blocks from the sparse
    matrix.  At the default cap a dense target tops out at ~128 MB of
    float64 (half that in float32).  Read from the environment on every
    build so tests and long-lived processes can retune it."""
    return int(os.environ.get("REPRO_WORKSPACE_DENSE_CAP", "4096"))


def default_cache_size() -> int:
    """Upper bound on cached workspaces (each can hold a dense N×N
    target); read from ``REPRO_WORKSPACE_CACHE_SIZE`` at cache
    construction time."""
    return int(os.environ.get("REPRO_WORKSPACE_CACHE_SIZE", "4"))


_CACHE_ENABLED = True


def fit_fingerprint(adjacency: sp.csr_matrix, knobs: tuple) -> str:
    """Digest of the exact CSR arrays plus the proximity/target knobs."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(knobs).encode())
    digest.update(repr(adjacency.shape).encode())
    digest.update(adjacency.indptr.tobytes())
    digest.update(adjacency.indices.tobytes())
    digest.update(adjacency.data.tobytes())
    return digest.hexdigest()


def _config_knobs(config: AnECIConfig) -> tuple:
    """The config fields the workspace constants depend on."""
    weights = config.proximity_weights
    return (config.proximity_kind, config.order,
            None if weights is None else tuple(weights),
            config.katz_beta, config.recon_target, config.recon_sample_size,
            config.dtype, config.train_mode)


@dataclass
class FitWorkspace:
    """Epoch-invariant constants shared by every restart of one fit.

    Attributes
    ----------
    fingerprint:
        Content address this workspace was cached under.
    dtype:
        Numeric precision of the training-path constants (``adj_norm``,
        ``prox``, ``degrees``, ``recon_target``, ``recon_dense``) —
        follows ``config.dtype`` and is part of the cache key, so a
        float32 and a float64 fit of the same graph hold separate
        workspaces.  ``proximity`` always stays float64 (it is the
        analysis-grade matrix AnECI+ denoising reads).
    adj_norm:
        GCN-normalised adjacency; its CSR transpose is pre-registered in
        the :func:`repro.nn.spmm` transpose cache.
    proximity / prox / degrees / two_m:
        High-order proximity ``Ã`` and the modularity terms ``(Ã, k̃, 2M̃)``.
    recon_target:
        Sparse reconstruction target (``Ã`` or the first-order variant).
    sample_nodes:
        Per-epoch sample size, or ``None`` when the full ``N×N`` target
        is reconstructed.
    recon_dense:
        Densified ``recon_target`` when affordable (always for the full
        path, below ``REPRO_WORKSPACE_DENSE_CAP`` nodes for the sampled
        path); ``None`` means blocks are gathered from the sparse form.
    lazy_dense:
        ``True`` when the workspace was built for ``train_mode="sampled"``:
        the dense target is *never* materialised — not even below
        ``dense_gather_cap()`` — and every consumer slices CSR blocks.
        Each skipped densification increments the
        ``workspace.dense_skipped`` counter and records the avoided byte
        count in the ``workspace.dense_skipped_bytes`` gauge.
    """

    fingerprint: str
    num_nodes: int
    adj_norm: sp.csr_matrix
    proximity: sp.csr_matrix
    prox: sp.csr_matrix
    degrees: np.ndarray
    two_m: float
    recon_target: sp.csr_matrix
    sample_nodes: int | None
    recon_dense: np.ndarray | None
    dtype: np.dtype = np.dtype(np.float64)
    lazy_dense: bool = False

    def __post_init__(self):
        self._prox_diag: np.ndarray | None = None
        self._neighbor_samplers: dict[int, NeighborSampler] = {}

    def prox_diagonal(self) -> np.ndarray:
        """Cached diagonal of the proximity (sampled modularity needs it
        to reweight self-pairs separately from cross pairs)."""
        if self._prox_diag is None:
            self._prox_diag = np.asarray(self.prox.diagonal())
        return self._prox_diag

    def batch_indices(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Sorted without-replacement node batch of size ``k``.

        Drawn with ``rng.choice(n, k, replace=False)`` like
        :meth:`sample_indices`, so the sampled-mode batch stream is
        bit-identical across dtypes and worker counts.  Returns
        ``arange(n)`` (consuming no randomness) when ``k`` covers the
        whole graph.
        """
        if k >= self.num_nodes:
            return np.arange(self.num_nodes, dtype=np.int64)
        idx = kernels.sample_without_replacement(rng, self.num_nodes, k)
        return np.sort(np.asarray(idx, dtype=np.int64))

    def neighbor_sampler(self, fanout: int) -> NeighborSampler:
        """Cached fanout-bounded neighbor sampler over ``adj_norm``."""
        sampler = self._neighbor_samplers.get(fanout)
        if sampler is None:
            sampler = NeighborSampler(self.adj_norm, fanout)
            self._neighbor_samplers[fanout] = sampler
        return sampler

    def recon_block(self, idx: np.ndarray) -> sp.csr_matrix:
        """Sparse ``idx × idx`` block of the reconstruction target with
        sorted indices (the sampled estimator binary-searches them)."""
        block = self.recon_target[idx][:, idx].tocsr()
        block.sort_indices()
        return block

    def dense_target(self) -> np.ndarray:
        """The full dense reconstruction target (full-graph path only)."""
        if self.recon_dense is None:
            raise RuntimeError("workspace holds no dense target; use "
                               "target_block() on the sampled path")
        return self.recon_dense

    def target_block(self, idx: np.ndarray) -> np.ndarray:
        """Dense ``idx × idx`` block of the reconstruction target.

        Uses the precomputed dense form when available — a fancy-indexed
        gather instead of the double sparse slice-and-densify the
        training loop used to run every epoch.
        """
        if self.recon_dense is not None:
            return self.recon_dense[np.ix_(idx, idx)]
        return self.recon_target[idx][:, idx].toarray()

    def sample_indices(self, rng: np.random.Generator) -> np.ndarray:
        """Per-epoch node sample for the sampled reconstruction path.

        Calls ``rng.choice(n, size=k, replace=False)`` exactly as the
        training loop always has.
        """
        if self.sample_nodes is None:
            raise RuntimeError("workspace has no sampled path")
        return kernels.sample_without_replacement(rng, self.num_nodes,
                                                  self.sample_nodes)


def build_workspace(graph: Graph, config: AnECIConfig,
                    fingerprint: str = "") -> FitWorkspace:
    """Compute every epoch-invariant constant for ``(graph, config)``."""
    with trace.span("workspace/build"), \
            metrics.track_peak_memory("workspace.build"):
        dtype = np.dtype(config.dtype)
        adj_norm = normalized_adjacency(graph.adjacency)
        if config.proximity_kind == "katz":
            proximity = katz_proximity(graph.adjacency, beta=config.katz_beta,
                                       order=config.order, self_loops=True)
        else:
            proximity = high_order_proximity(graph.adjacency,
                                             order=config.order,
                                             weights=config.proximity_weights)
        prox, degrees, two_m = modularity_loss_terms(proximity)
        if config.recon_target == "first_order":
            recon_target = high_order_proximity(graph.adjacency, order=1)
        else:
            recon_target = prox
        if dtype != np.float64:
            # Constants are always *computed* in float64 and rounded once
            # here, so the float32 path trains against the same values
            # (to rounding) rather than accumulating low-precision
            # proximity powers.
            adj_norm = adj_norm.astype(dtype)
            shared = recon_target is prox
            prox = prox.astype(dtype)
            recon_target = prox if shared else recon_target.astype(dtype)
            degrees = degrees.astype(dtype)
        lazy_dense = config.train_mode == "sampled"
        cached_transpose(adj_norm)  # pre-warm the spmm backward transposes
        if not lazy_dense:
            # The sampled modularity term passes its own block transpose;
            # only the full-batch term multiplies by the whole of Ã.
            cached_transpose(prox)
        n = graph.num_nodes
        sample_nodes = (config.recon_sample_size
                        if n > config.recon_sample_size else None)
        if lazy_dense:
            # Sampled training never needs the dense N×N target — skip
            # the densification unconditionally (dense_gather_cap() does
            # not apply) and make the avoided allocation observable.
            recon_dense = None
            registry = metrics.registry()
            registry.counter("workspace.dense_skipped").inc()
            registry.gauge("workspace.dense_skipped_bytes").set(
                float(n) * float(n) * dtype.itemsize)
        elif sample_nodes is None or n <= dense_gather_cap():
            recon_dense = recon_target.toarray()
        else:
            recon_dense = None
        return FitWorkspace(
            fingerprint=fingerprint, num_nodes=n, adj_norm=adj_norm,
            proximity=proximity, prox=prox, degrees=degrees, two_m=two_m,
            recon_target=recon_target, sample_nodes=sample_nodes,
            recon_dense=recon_dense, dtype=dtype, lazy_dense=lazy_dense)


class WorkspaceCache:
    """Bounded LRU of :class:`FitWorkspace` keyed by content fingerprint."""

    def __init__(self, maxsize: int | None = None):
        self.maxsize = default_cache_size() if maxsize is None else int(maxsize)
        if self.maxsize < 1:
            raise ValueError("cache needs room for at least one workspace")
        self._entries: OrderedDict[str, FitWorkspace] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, graph: Graph, config: AnECIConfig) -> FitWorkspace:
        """Return the cached workspace for ``(graph, config)``, building on miss."""
        registry = metrics.registry()
        fingerprint = fit_fingerprint(graph.adjacency, _config_knobs(config))
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                registry.counter("workspace.hits").inc()
                return entry
        registry.counter("workspace.misses").inc()
        entry = build_workspace(graph, config, fingerprint)
        with self._lock:
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                registry.counter("workspace.evictions").inc()
        events.emit("workspace", fingerprint=fingerprint,
                    nodes=graph.num_nodes, sample_nodes=entry.sample_nodes,
                    dense_target=entry.recon_dense is not None)
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries


_CACHE = WorkspaceCache()


def workspace_cache() -> WorkspaceCache:
    """The process-wide workspace cache."""
    return _CACHE


def get_workspace(graph: Graph, config: AnECIConfig) -> FitWorkspace:
    """Fetch (or build) the fit workspace through the process-wide cache.

    Inside :func:`cache_disabled` the workspace is rebuilt from scratch
    on every call — the pre-cache behaviour, kept for benchmarks and
    equivalence tests.
    """
    if not _CACHE_ENABLED:
        return build_workspace(graph, config)
    return _CACHE.get(graph, config)


@contextlib.contextmanager
def cache_disabled():
    """Bypass the workspace cache (rebuild per fit) within the block."""
    global _CACHE_ENABLED
    previous = _CACHE_ENABLED
    _CACHE_ENABLED = False
    try:
        yield
    finally:
        _CACHE_ENABLED = previous

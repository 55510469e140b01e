"""k-NN index over the store's L2-normalised embeddings.

Two backends, selected by name:

``exact``
    The reference: blocked matmul of normalised mmap row blocks against
    the query, top-k per block, deterministic merge.  This is the
    recall anchor and the default.

``ivf``
    Coarse-quantised inverted-file search: k-means cells (built with
    :func:`repro.cluster.kmeans` over a node sample), queries probe the
    ``probes`` nearest cells and score only their members.  At build
    time the index is **calibrated** against the exact backend on held
    out queries — probes double until recall@10 meets the floor
    (default 0.95), and if even probing every cell cannot reach it the
    index honestly falls back to exact search (event + counter), so a
    configured ``ivf`` spec can never silently serve bad neighbours.

Determinism contract: equal scores rank by lower node id
(:func:`repro.nn.backend.topk_indices`), and whether a batch of queries
is scored as one GEMM or as per-query GEMVs is decided by
:func:`gemm_columns_stable` — a one-shot probe of whether this BLAS
produces bit-identical GEMM columns and GEMV results.  Where it does not
(typical for OpenBLAS), batched scoring runs one GEMV per query over the
shared normalised block, so micro-batched server responses are
**bit-identical** to serial ones while still amortising the expensive
part (mmap block materialisation + normalisation) across the batch.

Selection: ``build_index(store, spec)`` with ``spec`` from the argument,
the ``REPRO_SERVE_INDEX`` environment variable, or the default
``exact``; third-party backends register via
:func:`register_index_backend`.
"""

from __future__ import annotations

import functools
import os
import warnings

import numpy as np

from ..cluster import kmeans
from ..nn import backend as kernels
from ..obs import events, metrics
from .store import BLOCK_ROWS, ServingStore

__all__ = ["KNNIndex", "ExactIndex", "IVFIndex", "build_index",
           "register_index_backend", "known_index_backends",
           "gemm_columns_stable"]


@functools.lru_cache(maxsize=1)
def gemm_columns_stable() -> bool:
    """Whether this BLAS gives bit-identical GEMM columns vs GEMV.

    Probed once per process on mixed shapes.  When ``True`` a batch of
    queries is scored as a single GEMM; when ``False`` (typical for
    OpenBLAS, whose matrix-matrix micro-kernels reduce in a different
    order than matrix-vector) the index scores per query so batched and
    serial results stay bit-identical.
    """
    rng = np.random.default_rng(0xC0FFEE)
    for rows, dim, batch in ((257, 33, 5), (1024, 64, 3)):
        a = rng.standard_normal((rows, dim))
        q = rng.standard_normal((dim, batch))
        full = a @ q
        for i in range(batch):
            if (a @ q[:, i]).tobytes() != np.ascontiguousarray(
                    full[:, i]).tobytes():
                return False
    return True


def _normalize_queries(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Queries as a contiguous float64 ``B × dim`` matrix of unit rows."""
    q = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
    if q.ndim == 1:
        q = q[None, :]
    if q.ndim != 2 or q.shape[1] != dim:
        raise ValueError(f"queries must be (B, {dim}) or ({dim},), "
                         f"got {q.shape}")
    norms = np.linalg.norm(q, axis=1)
    norms[norms == 0.0] = 1.0
    return q / norms[:, None]


def _merge_topk(ids: np.ndarray, scores: np.ndarray, k: int,
                exclude: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Final deterministic ranking of one query's candidate pool.

    Candidates are ranked on ``(-score, global id)`` — *global* id, so
    the ordering is independent of how the pool was blocked or probed —
    then the excluded id (the query node itself) is dropped and the top
    ``k`` returned.
    """
    order = np.lexsort((ids, -scores))
    if exclude is not None:
        order = order[ids[order] != int(exclude)]
    order = order[:k]
    return ids[order], scores[order]


class KNNIndex:
    """Shared query machinery; subclasses supply candidate generation."""

    name = "base"

    def __init__(self, store: ServingStore):
        self.store = store

    # -- scoring helpers ------------------------------------------------- #
    def _score_block(self, block: np.ndarray,
                     queries: np.ndarray) -> np.ndarray:
        """Cosine scores of ``block`` rows against unit queries, as a
        ``B × rows`` matrix, bit-stable across batch compositions."""
        if queries.shape[0] > 1 and gemm_columns_stable():
            return kernels.matmul(block, queries.T).T
        return np.stack([kernels.matmul(block, queries[j])
                         for j in range(queries.shape[0])])

    def _normalized_block(self, start: int, stop: int) -> np.ndarray:
        block = self.store.read_block(start, stop)
        block /= self.store.norms()[start:stop, None]
        return block

    def _score_ids(self, ids: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Cosine scores of the rows in ``ids`` against one unit query,
        materialising at most ``BLOCK_ROWS`` rows at a time."""
        scores = np.empty(ids.shape[0], dtype=np.float64)
        for start in range(0, ids.shape[0], BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, ids.shape[0])
            rows = self.store.normalized_rows(ids[start:stop])
            scores[start:stop] = kernels.matmul(rows, query)
        return scores

    # -- public query API ------------------------------------------------ #
    def query_vectors(self, vectors: np.ndarray, k: int,
                      exclude=None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched k-NN: one ``(ids, scores)`` pair per query row.

        ``exclude`` is an optional per-query sequence of node ids to
        drop from that query's results (the node itself for
        ``similar_nodes``); ``None`` entries drop nothing.
        """
        raise NotImplementedError

    def query_vector(self, vector: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
        """k-NN of one free query vector."""
        return self.query_vectors(np.asarray(vector), k)[0]

    def similar_nodes(self, node: int,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest *other* nodes to ``node`` by cosine."""
        node = int(node)
        query = self.store.normalized_rows(np.array([node]))[0]
        return self.query_vectors(query[None, :], k, exclude=[node])[0]

    def same_community(self, node: int,
                       k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest co-members of ``node``'s (argmax) community.

        Uses the store's **cached** membership argmax — no per-query
        pass over the ``N × |C|`` matrix — then exact cosine ranking
        restricted to that community's member list.
        """
        node = int(node)
        community = int(self.store.communities()[node])
        members = self.store.community_members(community)
        query = self.store.normalized_rows(np.array([node]))[0]
        scores = self._score_ids(members, query)
        pool = min(int(k) + 1, members.shape[0])
        top = kernels.topk_indices(scores, pool)
        ids, topscores = _merge_topk(members[top], scores[top], int(k),
                                     exclude=node)
        return ids, topscores


class ExactIndex(KNNIndex):
    """Blocked-matmul exact search over the memory-mapped matrix."""

    name = "exact"

    def __init__(self, store: ServingStore, block_rows: int | None = None):
        super().__init__(store)
        self.block_rows = int(block_rows or BLOCK_ROWS)

    def query_vectors(self, vectors, k, exclude=None):
        queries = _normalize_queries(vectors, self.store.dim)
        batch = queries.shape[0]
        if exclude is None:
            exclude = [None] * batch
        # One candidate pool per query: per block keep k+1 (room for the
        # excluded self hit), then merge deterministically at the end.
        pool = min(int(k) + 1, self.store.num_nodes)
        cand_ids: list[list[np.ndarray]] = [[] for _ in range(batch)]
        cand_scores: list[list[np.ndarray]] = [[] for _ in range(batch)]
        for start in range(0, self.store.num_nodes, self.block_rows):
            stop = min(start + self.block_rows, self.store.num_nodes)
            block = self._normalized_block(start, stop)
            scores = self._score_block(block, queries)  # B × rows
            top = kernels.topk_indices(scores, pool)
            for j in range(batch):
                cand_ids[j].append(top[j] + start)
                cand_scores[j].append(scores[j, top[j]])
        results = []
        for j in range(batch):
            ids = np.concatenate(cand_ids[j])
            scores = np.concatenate(cand_scores[j])
            results.append(_merge_topk(ids, scores, int(k), exclude[j]))
        return results


class IVFIndex(KNNIndex):
    """Coarse-quantised inverted-file search, calibrated against exact.

    Nodes are assigned to ``cells`` k-means centroids (trained on a
    sample of normalised rows, assigned exactly in row blocks); a query
    scores only the members of its ``probes`` nearest cells.  Build-time
    calibration doubles ``probes`` until recall@10 against the exact
    backend reaches ``min_recall`` on ``calibration_queries`` held-out
    node queries; if the floor is unreachable the index flips to an
    exact fallback and says so (``serve_index_fallback`` event,
    ``serve.index.fallbacks`` counter).
    """

    name = "ivf"

    def __init__(self, store: ServingStore,
                 cells: int | None = None, probes: int | None = None,
                 seed: int = 0x1F5EED, train_sample: int = 20000,
                 calibration_queries: int = 32, min_recall: float = 0.95,
                 max_iter: int = 25):
        super().__init__(store)
        n = store.num_nodes
        if cells is None:
            cells = int(os.environ.get("REPRO_SERVE_CELLS") or 0)
        if not cells:
            cells = max(1, min(int(round(n ** 0.5)), n, 4096))
        self.cells = int(min(cells, n))
        if probes is None:
            probes = int(os.environ.get("REPRO_SERVE_PROBES") or 0)
        self.probes = int(probes) if probes else max(1, self.cells // 8)
        self.min_recall = float(min_recall)
        self.recall_at10: float | None = None
        self._fallback: ExactIndex | None = None
        rng = np.random.default_rng(seed)
        self._build(rng, min(int(train_sample), n), int(max_iter))
        self._calibrate(rng, min(int(calibration_queries), n))

    # -- build ------------------------------------------------------------ #
    def _build(self, rng: np.random.Generator, train_sample: int,
               max_iter: int) -> None:
        store = self.store
        sample = np.sort(rng.choice(store.num_nodes, size=train_sample,
                                    replace=False))
        points = store.normalized_rows(sample)
        _, self.centroids, _ = kmeans(points, self.cells, rng,
                                      max_iter=max_iter)
        # Euclidean assignment on unit rows reduces to the argmax of
        # x·c − ‖c‖²/2, so one blocked GEMM assigns every node.
        self._half_sq = 0.5 * np.einsum("ij,ij->i", self.centroids,
                                        self.centroids)
        assign = np.empty(store.num_nodes, dtype=np.int64)
        for start in range(0, store.num_nodes, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, store.num_nodes)
            block = self._normalized_block(start, stop)
            cell_scores = kernels.matmul(block, self.centroids.T)
            cell_scores -= self._half_sq
            assign[start:stop] = cell_scores.argmax(axis=1)
        order = np.argsort(assign, kind="stable")
        bounds = np.searchsorted(assign[order],
                                 np.arange(self.cells + 1))
        self._lists = [order[bounds[c]:bounds[c + 1]]
                       for c in range(self.cells)]

    # -- calibration ------------------------------------------------------ #
    def _calibrate(self, rng: np.random.Generator, queries: int) -> None:
        store = self.store
        exact = ExactIndex(store)
        k = min(10, max(1, store.num_nodes - 1))
        nodes = rng.choice(store.num_nodes, size=queries, replace=False)
        vectors = store.normalized_rows(nodes)
        truth = [set(ids.tolist()) for ids, _ in
                 exact.query_vectors(vectors, k,
                                     exclude=[int(v) for v in nodes])]
        while True:
            got = self._probe_query_vectors(vectors, k,
                                            [int(v) for v in nodes])
            hits = sum(len(t & set(g[0].tolist())) for t, g in
                       zip(truth, got))
            recall = hits / max(1, sum(len(t) for t in truth))
            self.recall_at10 = recall
            if recall >= self.min_recall:
                break
            if self.probes >= self.cells:
                self._fallback = exact
                metrics.registry().counter("serve.index.fallbacks").inc()
                events.emit("serve_index_fallback", store=store.directory,
                            version=store.version, recall=recall,
                            min_recall=self.min_recall)
                warnings.warn(
                    f"ivf index recall@{k} {recall:.3f} below "
                    f"{self.min_recall} even with probes == cells; "
                    f"serving exact search instead", RuntimeWarning,
                    stacklevel=3)
                break
            self.probes = min(self.cells, self.probes * 2)
        metrics.registry().gauge("serve.index.recall_at10").set(
            self.recall_at10)
        metrics.registry().gauge("serve.index.probes").set(self.probes)
        events.emit("serve_index_calibrated", store=store.directory,
                    version=store.version, cells=self.cells,
                    probes=self.probes, recall=self.recall_at10,
                    fallback=self._fallback is not None)

    # -- query ------------------------------------------------------------ #
    def _probe_query_vectors(self, vectors, k, exclude=None):
        queries = _normalize_queries(vectors, self.store.dim)
        batch = queries.shape[0]
        if exclude is None:
            exclude = [None] * batch
        cell_scores = self._score_block(self.centroids, queries)
        cell_scores -= self._half_sq
        probe_cells = kernels.topk_indices(cell_scores, self.probes)
        results = []
        for j in range(batch):
            ids = np.concatenate([self._lists[c] for c in probe_cells[j]])
            if ids.size == 0:
                empty = np.empty(0, dtype=np.int64)
                results.append((empty, np.empty(0, dtype=np.float64)))
                continue
            scores = self._score_ids(ids, queries[j])
            pool = min(int(k) + 1, ids.shape[0])
            top = kernels.topk_indices(scores, pool)
            results.append(_merge_topk(ids[top], scores[top], int(k),
                                       exclude[j]))
        return results

    def query_vectors(self, vectors, k, exclude=None):
        if self._fallback is not None:
            return self._fallback.query_vectors(vectors, k, exclude)
        return self._probe_query_vectors(vectors, k, exclude)


# --------------------------------------------------------------------- #
# Registry                                                               #
# --------------------------------------------------------------------- #

_INDEX_REGISTRY: dict[str, type] = {}


def register_index_backend(name: str, cls: type) -> None:
    """Register (or replace) an index backend class under ``name``."""
    _INDEX_REGISTRY[name] = cls


def known_index_backends() -> tuple[str, ...]:
    """Names accepted by :func:`build_index` (sorted)."""
    return tuple(sorted(_INDEX_REGISTRY))


register_index_backend("exact", ExactIndex)
register_index_backend("ivf", IVFIndex)


def build_index(store: ServingStore, spec: str | None = None,
                **kwargs) -> KNNIndex:
    """Build the index backend named by ``spec`` over ``store``.

    ``None`` reads ``REPRO_SERVE_INDEX`` (default ``exact``).
    """
    if spec is None:
        spec = os.environ.get("REPRO_SERVE_INDEX") or "exact"
    try:
        cls = _INDEX_REGISTRY[spec]
    except KeyError:
        raise ValueError(
            f"unknown index backend {spec!r}; known backends: "
            f"{', '.join(known_index_backends())}") from None
    return cls(store, **kwargs)

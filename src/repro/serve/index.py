"""Exact k-NN index over the store's L2-normalised embeddings.

:class:`ExactIndex` is a blocked matmul of normalised mmap row blocks
against the queries, top-k per block, then a deterministic merge.  Its
answers are the exact cosine top-k.

Determinism contract: equal scores rank by lower node id
(:func:`repro.nn.backend.topk_indices`), and whether a batch of queries
is scored as one GEMM or as per-query GEMVs is decided by
:func:`gemm_columns_stable` — a one-shot probe of whether this BLAS
produces bit-identical GEMM columns and GEMV results.  Where it does not
(typical for OpenBLAS), batched scoring runs one GEMV per query over the
shared normalised block, so micro-batched server responses are
**bit-identical** to serial ones while still amortising the expensive
part (mmap block materialisation + normalisation) across the batch.
"""

from __future__ import annotations

import functools

import numpy as np

from ..nn import backend as kernels
from .store import BLOCK_ROWS, ServingStore

__all__ = ["ExactIndex", "gemm_columns_stable"]


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
    the ordering is independent of how the pool was blocked —
    then the excluded id (the query node itself) is dropped and the top
    ``k`` returned.
    """
    order = np.lexsort((ids, -scores))
    if exclude is not None:
        order = order[ids[order] != int(exclude)]
    order = order[:k]
    return ids[order], scores[order]


class ExactIndex:
    """Blocked-matmul exact search over the memory-mapped matrix."""

    name = "exact"

    def __init__(self, store: ServingStore, block_rows: int | None = None):
        self.store = store
        self.block_rows = int(block_rows or BLOCK_ROWS)

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


#: Former name of the query base class, kept because
#: ``perfbench/bench_server.py`` times ``KNNIndex.same_community`` by
#: looking it up in the class ``__dict__``.
KNNIndex = ExactIndex

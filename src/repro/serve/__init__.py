"""Embedding serving layer: persist, index and query trained embeddings.

Three layers turn a finished fit into a high-throughput query surface:

:mod:`repro.serve.store`
    A versioned on-disk embedding/membership store.  Shards are written
    atomically (tmp + fsync + rename) under a BLAKE2b-checksummed
    manifest and loaded back **memory-mapped**, so a 1M×128 matrix
    serves without ever being materialised in RAM.  Versions are keyed
    by the content-derived run key from :func:`repro.core.config.run_key`;
    corruption falls back to the previous version in the pointer
    history.

:mod:`repro.serve.index`
    Exact k-NN over the L2-normalised embeddings (a blocked matmul over
    the mmap rows), answering ``similar_nodes``, ``same_community`` and
    ``query_vector``.

:mod:`repro.serve.server`
    A stdlib-only :mod:`asyncio` HTTP front end with a micro-batching
    loop (concurrent k-NN requests coalesce into one matmul inside a
    ``REPRO_SERVE_BATCH_WINDOW_MS`` window), an LRU result cache keyed
    by (store version, query) and p50/p99 latency / hit-rate /
    batch-occupancy metrics via :mod:`repro.obs.metrics`.

:mod:`repro.serve.guard`
    Production hardening threaded through the front end: bounded
    admission (``REPRO_SERVE_QUEUE``) with ``503`` load shedding,
    per-request deadlines (``REPRO_SERVE_DEADLINE_MS``) answering
    ``504``, a :class:`~repro.serve.guard.CircuitBreaker` that steps
    the backend down ``exact → cache-only`` on consecutive
    failures and probes its way back up, graceful drain on ``stop()``,
    and deterministic client-side retry/backoff helpers.

Models export with ``AnECI.export_serving(dir)`` /
``AnECIPlus.export_serving(dir)``; the CLI drives everything through
``repro serve export / query / run``.
"""

from .cache import LRUCache
from .guard import CircuitBreaker, backoff_delays, retry_call
from .index import ExactIndex
from .server import EmbeddingServer, load_generator
from .store import (EmbeddingStore, ServingStore, StoreError, export_store)

__all__ = [
    "EmbeddingStore", "ServingStore", "StoreError", "export_store",
    "ExactIndex", "LRUCache", "EmbeddingServer", "load_generator",
    "CircuitBreaker", "backoff_delays", "retry_call",
]

"""Asyncio HTTP front end over a loaded store + k-NN index.

Stdlib only: :func:`asyncio.start_server` speaks just enough HTTP/1.1
(keep-alive, ``Content-Length`` bodies) to serve JSON over persistent
connections.  Four moving parts:

Micro-batching
    k-NN requests (``/similar`` and ``/query``) do not run inline in
    their connection handler — they enqueue onto a single batching task
    that waits up to ``REPRO_SERVE_BATCH_WINDOW_MS`` for more work and
    then answers the whole batch with one pass over the embedding
    matrix (``index.query_vectors``).  Per-request ``k`` values batch
    as one query at the maximum ``k``; because result order is fully
    deterministic (descending score, ties toward the lower id), the
    first ``k`` rows of a larger answer *are* the smaller answer, so
    batched responses stay bit-identical to serial ones.

LRU cache
    Results cache under ``(store version, endpoint, request)`` keys
    (:class:`repro.serve.cache.LRUCache`).  Keying on the version makes
    the cache structurally incapable of serving a stale store: after
    ``/reload`` swaps in a new version, old entries are unreachable
    (and explicitly evicted, so they stop occupying capacity).

Resilience guard (:mod:`repro.serve.guard`)
    The batcher queue is **bounded** (``REPRO_SERVE_QUEUE``) — overflow
    is shed with ``503`` + ``Retry-After`` and a ``serve.shed`` counter
    instead of queueing without limit.  Every admitted request carries
    a deadline (``REPRO_SERVE_DEADLINE_MS``) that cancels its pending
    future and answers ``504`` rather than stalling the connection.  A
    :class:`~repro.serve.guard.CircuitBreaker` trips on consecutive
    index errors / deadline breaches and steps the serving backend down
    ``exact → cache-only``, re-probing half-open after a cooldown;
    ``/healthz`` reports ``ok|degraded|draining`` (non-200 when not
    ``ok``).  :meth:`EmbeddingServer.stop` drains gracefully: the
    listener closes, in-flight requests finish, the run-ledger entry is
    flushed.  Fault kinds ``slow_index`` / ``index_error`` /
    ``queue_overflow`` / ``shard_corrupt_read`` (``REPRO_FAULTS``)
    inject at the index-scan, admission and mmap-read points so all of
    this is chaos-testable; none of it perturbs a single bit of the
    healthy path's batched==serial identity contract.

Metrics
    p50/p99 request latency (ring buffer), cache hit-rate, batch
    occupancy, shed/deadline/error tallies and the breaker state,
    exposed on ``/stats``, pushed into :mod:`repro.obs.metrics`, and
    recorded into the run ledger (kind ``serve``) on shutdown.

:func:`load_generator` is the closed-loop benchmark client used by
``benchmarks/test_perf_serve.py``: ``concurrency`` keep-alive
connections each issue requests back-to-back until the target count,
retrying shed/timed-out answers with deterministic jittered backoff.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import time
from collections import deque
from urllib.parse import parse_qs, urlsplit

import numpy as np

from .. import jsonio
from ..obs import events, metrics
from ..obs import store as runledger
from ..resilience import faultinject
from . import guard
from .cache import LRUCache
from .index import ExactIndex
from .store import EmbeddingStore

__all__ = ["EmbeddingServer", "load_generator", "percentile"]

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}

#: Latency ring buffer length — enough for stable p99 without unbounded
#: growth under the load generator.
_LATENCY_WINDOW = 4096


def percentile(samples, q: float) -> float | None:
    """Nearest-rank percentile (``q`` in [0, 1]) of a sample list."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class _Pending:
    """One enqueued k-NN request: inputs, deadline, future to resolve."""

    __slots__ = ("kind", "node", "vector", "k", "cache_key", "future",
                 "deadline")

    def __init__(self, kind, node, vector, k, cache_key, future,
                 deadline=None):
        self.kind = kind
        self.node = node
        self.vector = vector
        self.k = k
        self.cache_key = cache_key
        self.future = future
        self.deadline = deadline


class _Conn:
    """One live connection: its writer, handler task and busy flag, so
    a graceful drain can close idle keep-alive peers immediately while
    busy ones finish their in-flight response."""

    __slots__ = ("writer", "task", "busy")

    def __init__(self, writer):
        self.writer = writer
        self.task = None
        self.busy = False


class EmbeddingServer:
    """Serve one :class:`EmbeddingStore` directory over HTTP.

    Parameters
    ----------
    directory:
        Store root (as written by ``export_serving`` / ``serve export``).
    host, port:
        Bind address; ``port=0`` picks a free port (see ``self.port``
        after :meth:`start`).
    batch_window_ms:
        Micro-batch coalescing window (``None`` →
        ``REPRO_SERVE_BATCH_WINDOW_MS``, default 2.0; 0 batches only
        already-queued work).
    cache_size:
        LRU capacity (``None`` → ``REPRO_SERVE_CACHE``, default 4096;
        0 disables).
    queue_limit:
        Batcher queue bound (``None`` → ``REPRO_SERVE_QUEUE``, default
        1024; 0 removes the bound).  Overflow sheds with ``503``.
    deadline_ms:
        Per-request wall-time cap (``None`` →
        ``REPRO_SERVE_DEADLINE_MS``, default 1000; 0 disables).  A
        breached deadline answers ``504``.
    max_body:
        Largest accepted request body (``None`` →
        ``REPRO_SERVE_MAX_BODY``, default 1 MiB); larger is ``413``.
    breaker_threshold, breaker_cooldown_ms:
        Circuit-breaker trip threshold / half-open cooldown (``None`` →
        ``REPRO_SERVE_BREAKER_THRESHOLD`` / ``_COOLDOWN_MS``).
    drain_timeout_ms:
        Grace period :meth:`stop` waits for in-flight work (``None`` →
        ``REPRO_SERVE_DRAIN_TIMEOUT_MS``, default 5000).
    """

    def __init__(self, directory: str, host: str = "127.0.0.1",
                 port: int = 0,
                 batch_window_ms: float | None = None,
                 cache_size: int | None = None,
                 max_batch: int | None = None,
                 queue_limit: int | None = None,
                 deadline_ms: float | None = None,
                 max_body: int | None = None,
                 breaker_threshold: int | None = None,
                 breaker_cooldown_ms: float | None = None,
                 drain_timeout_ms: float | None = None):
        self.directory = str(directory)
        self.host = host
        self.port = int(port)
        if batch_window_ms is None:
            batch_window_ms = float(
                os.environ.get("REPRO_SERVE_BATCH_WINDOW_MS") or 2.0)
        self.batch_window_s = max(0.0, float(batch_window_ms)) / 1000.0
        if cache_size is None:
            cache_size = int(os.environ.get("REPRO_SERVE_CACHE") or 4096)
        if max_batch is None:
            max_batch = int(os.environ.get("REPRO_SERVE_MAX_BATCH") or 64)
        self.max_batch = max(1, int(max_batch))
        self.queue_limit = guard.queue_limit(queue_limit)
        self.deadline_s = guard.deadline_s(deadline_ms)
        self.max_body = guard.max_body_bytes(max_body)
        self.drain_timeout_s = guard.drain_timeout_s(drain_timeout_ms)
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = (
            None if breaker_cooldown_ms is None
            else max(0.0, float(breaker_cooldown_ms)) / 1000.0)
        self.cache = LRUCache(cache_size)
        self._store = EmbeddingStore(self.directory)
        self._latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        self._batch_sizes: deque = deque(maxlen=_LATENCY_WINDOW)
        self._requests = metrics.registry().counter("serve.requests")
        self._batches = metrics.registry().counter("serve.batches")
        self._shed_counter = metrics.registry().counter("serve.shed")
        self._queue: asyncio.Queue | None = None
        self._server: asyncio.base_events.Server | None = None
        self._batcher: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._conns: set[_Conn] = set()
        self._draining = False
        self._responses = 0
        self._errors: dict[int, int] = {}
        self._shed_reasons = {"queue": 0, "cache_only": 0, "draining": 0}
        self._deadline_timeouts = 0
        self._index_calls = 0
        self._admissions = 0
        self.reload()

    # -- store lifecycle -------------------------------------------------- #
    def reload(self) -> str:
        """(Re)load the newest valid store version, rebuild the index
        and reset the circuit breaker.

        Swapping ``self.serving`` / ``self.index`` is a plain attribute
        assignment on the event-loop thread, so every batch executed
        after the swap — including requests enqueued before it — runs
        against the new version and caches under its key.  The breaker
        (ladder ``exact → cache-only``) starts closed: a freshly published
        version gets a clean bill of health until it proves otherwise.
        Entries cached under the replaced version are evicted so the
        whole LRU budget belongs to the live version.
        """
        serving = self._store.load()
        index = ExactIndex(serving)
        ladder = [index.name, guard.CACHE_ONLY]
        previous = getattr(self, "serving", None)
        self.serving = serving
        self.index = index
        self.breaker = guard.CircuitBreaker(
            ladder, threshold=self._breaker_threshold,
            cooldown_s=self._breaker_cooldown_s)
        if previous is not None and previous.version != serving.version:
            self.cache.evict_version(previous.version)
        events.emit("serve_reload", store=self.directory,
                    version=serving.version, index=index.name,
                    ladder=",".join(ladder))
        return serving.version

    # -- lifecycle --------------------------------------------------------- #
    async def start(self) -> None:
        """Bind the listener and start the micro-batching task."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._batcher = asyncio.create_task(self._batch_loop())
        events.emit("serve_start", host=self.host, port=self.port,
                    version=self.serving.version, index=self.index.name)

    async def stop(self) -> None:
        """Gracefully drain, then shut down and record the ledger row.

        Drain order: flip to ``draining`` (``/healthz`` goes 503), close
        the listener so no new connection is accepted, hang up idle
        keep-alive peers, wait up to the drain timeout for every queued
        request to be answered, then stop the batcher and flush the
        ``serve:<version>`` run-ledger entry.  In-flight requests finish
        with real answers; only work arriving *after* the drain begins
        is refused.
        """
        self._draining = True
        drained = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive peers sit in readline and would never notice
        # the drain; hang up on them.  Busy ones finish their response
        # (the handler loop checks the draining flag) and close.
        for conn in list(self._conns):
            if not conn.busy:
                conn.writer.close()
        if self._queue is not None and self._batcher is not None:
            try:
                await asyncio.wait_for(self._queue.join(),
                                       self.drain_timeout_s or None)
            except asyncio.TimeoutError:
                drained = False
                events.emit("serve_drain_timeout",
                            pending=self._queue.qsize())
        tasks = [c.task for c in list(self._conns) if c.task is not None]
        if tasks:
            await asyncio.wait(tasks, timeout=min(
                1.0, self.drain_timeout_s or 1.0))
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        summary = self.stats()
        reg = metrics.registry()
        if summary["latency_ms"]["p50"] is not None:
            reg.gauge("serve.latency_p50_ms").set(
                summary["latency_ms"]["p50"])
            reg.gauge("serve.latency_p99_ms").set(
                summary["latency_ms"]["p99"])
        if summary["batch"]["occupancy_mean"] is not None:
            reg.gauge("serve.batch.occupancy").set(
                summary["batch"]["occupancy_mean"])
        g = summary["guard"]
        runledger.record(
            "serve", f"serve:{self.serving.version}",
            requests=summary["requests"],
            p50_ms=summary["latency_ms"]["p50"],
            p99_ms=summary["latency_ms"]["p99"],
            cache_hit_rate=summary["cache"]["hit_rate"],
            batch_occupancy=summary["batch"]["occupancy_mean"],
            index=self.index.name, version=self.serving.version,
            shed=g["shed"], deadline_timeouts=g["deadline_timeouts"],
            errors=g["errors"], error_rate=g["errors"]["rate"],
            breaker_trips=g["breaker"]["trips"],
            breaker_level=g["breaker"]["level"],
            breaker_backend=g["breaker"]["backend"],
            drained=drained)
        events.emit("serve_drain", version=self.serving.version,
                    drained=drained)

    #: ``close()`` is the drain entry point for embedders that think in
    #: resource terms rather than server terms.
    close = stop

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- stats ------------------------------------------------------------- #
    def stats(self) -> dict:
        lat = list(self._latencies)
        sizes = list(self._batch_sizes)
        errors_total = sum(self._errors.values())
        shed_total = sum(self._shed_reasons.values())
        return {
            "version": self.serving.version,
            "index": self.index.name,
            "nodes": self.serving.num_nodes,
            "dim": self.serving.dim,
            "requests": int(self._requests.value),
            "latency_ms": {
                "count": len(lat),
                "p50": percentile(lat, 0.50),
                "p99": percentile(lat, 0.99),
            },
            "cache": self.cache.stats(),
            "batch": {
                "batches": int(self._batches.value),
                "occupancy_mean": (sum(sizes) / len(sizes)
                                   if sizes else None),
                "occupancy_max": max(sizes) if sizes else None,
            },
            "guard": {
                "status": self.health_status(),
                "draining": self._draining,
                "queue": {
                    "depth": (self._queue.qsize()
                              if self._queue is not None else 0),
                    "limit": self.queue_limit,
                },
                "deadline_ms": (round(self.deadline_s * 1000.0, 3)
                                if self.deadline_s else None),
                "deadline_timeouts": self._deadline_timeouts,
                "shed": {**self._shed_reasons, "total": shed_total,
                         "rate": (shed_total / self._responses
                                  if self._responses else 0.0)},
                "errors": {
                    "by_status": {str(k): v for k, v
                                  in sorted(self._errors.items())},
                    "total": errors_total,
                    "rate": (errors_total / self._responses
                             if self._responses else 0.0),
                },
                "breaker": self.breaker.snapshot(),
            },
        }

    def health_status(self) -> str:
        """``ok`` | ``degraded`` | ``draining`` (worst applicable)."""
        if self._draining:
            return "draining"
        return "degraded" if self.breaker.level > 0 else "ok"

    # -- micro-batching ---------------------------------------------------- #
    async def _batch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            deadline = loop.time() + self.batch_window_s
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0 and self._queue.empty():
                    break
                try:
                    item = (self._queue.get_nowait() if remaining <= 0
                            else await asyncio.wait_for(self._queue.get(),
                                                        remaining))
                except (asyncio.TimeoutError, asyncio.QueueEmpty):
                    break
                batch.append(item)
            try:
                self._run_batch(batch)
            except Exception as exc:  # resolve futures, keep serving
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(
                            RuntimeError(f"batch failed: {exc}"))
            finally:
                # queue.join() in the drain path counts these.
                for _ in batch:
                    self._queue.task_done()

    def _fire_index_faults(self) -> None:
        """``slow_index`` / ``index_error`` injection at the index-scan
        point, keyed by a per-server ``call`` counter (one per batch)."""
        call = self._index_calls
        self._index_calls += 1
        spec = faultinject.fire("slow_index", call=call)
        if spec is not None:
            time.sleep(float(spec.params.get("s", 0.5)))
        if faultinject.fire("index_error", call=call) is not None:
            raise RuntimeError(f"injected index_error (call {call})")

    def _run_batch(self, batch: list[_Pending]) -> None:
        """Answer one coalesced batch against the breaker-selected
        backend, feeding the outcome (error / deadline breach / success)
        back into the breaker."""
        now = self._loop.time() if self._loop is not None else 0.0
        live = []
        for p in batch:
            if p.future.done():
                continue  # deadline already cancelled it
            if p.deadline is not None and now >= p.deadline:
                continue  # expired in queue; its wait_for answers 504
            live.append(p)
        if not live:
            return
        serving = self.serving
        backend_name = self.breaker.begin_operation()
        if backend_name == guard.CACHE_ONLY:
            # Tripped while these were queued: shed instead of scanning.
            retry_after = max(1, math.ceil(self.breaker.cooldown_s))
            for p in live:
                self._shed_tally("cache_only")
                if not p.future.done():
                    p.future.set_exception(_HttpError(
                        503, "degraded to cache-only serving",
                        retry_after=retry_after))
            return
        index = self.index
        started = time.perf_counter()
        try:
            self._fire_index_faults()
            knn = [p for p in live if p.kind in ("similar", "query")]
            if knn:
                self._batches.inc()
                self._batch_sizes.append(len(knn))
                vectors = np.empty((len(knn), serving.dim),
                                   dtype=np.float64)
                exclude: list[int | None] = []
                for row, p in enumerate(knn):
                    if p.kind == "similar":
                        vectors[row] = serving.normalized_rows(
                            np.array([p.node]))[0]
                        exclude.append(p.node)
                    else:
                        vectors[row] = p.vector
                        exclude.append(None)
                kmax = max(p.k for p in knn)
                answers = index.query_vectors(vectors, kmax,
                                              exclude=exclude)
                for p, (ids, scores) in zip(knn, answers):
                    self._resolve(p, serving.version,
                                  (ids[:p.k], scores[:p.k]))
            for p in live:
                if p.kind == "community":
                    ids, scores = index.same_community(p.node, p.k)
                    self._resolve(p, serving.version, (ids, scores))
        except Exception as exc:
            self.breaker.record_failure("error")
            metrics.registry().counter("serve.batch_failures").inc()
            events.emit("serve_batch_error", backend=backend_name,
                        error=f"{type(exc).__name__}: {exc}")
            for p in live:
                if not p.future.done():
                    p.future.set_exception(_HttpError(
                        503, f"index backend {backend_name!r} failed: "
                             f"{exc}", retry_after=1))
            return
        elapsed = time.perf_counter() - started
        if self.deadline_s and elapsed > self.deadline_s:
            self.breaker.record_failure("deadline")
        else:
            self.breaker.record_success()

    def _resolve(self, pending: _Pending, version: str, result) -> None:
        if pending.cache_key is not None:
            self.cache.put((version, *pending.cache_key), result)
        if not pending.future.done():
            pending.future.set_result((version, result))

    def _shed_tally(self, reason: str) -> None:
        self._shed_counter.inc()
        self._shed_reasons[reason] = self._shed_reasons.get(reason, 0) + 1

    def _shed(self, reason: str, message: str, retry_after: int = 1):
        """Count one shed request and raise its ``503``."""
        self._shed_tally(reason)
        events.emit("serve_shed", reason=reason)
        raise _HttpError(503, message, retry_after=retry_after)

    async def _submit(self, kind: str, node: int | None,
                      vector: np.ndarray | None, k: int, cache_key):
        """Cache lookup, else admission control + enqueue + deadline."""
        version = self.serving.version
        if cache_key is not None:
            hit = self.cache.get((version, *cache_key))
            if hit is not None:
                return version, hit, True
        if self._draining:
            self._shed("draining", "server is draining", retry_after=1)
        if (self.breaker.backend == guard.CACHE_ONLY
                and not self.breaker.probe_due()):
            # Cache-only degradation: hits were answered above; misses
            # shed until the half-open timer admits a probe.
            self._shed("cache_only", "degraded to cache-only serving",
                       retry_after=max(1, math.ceil(
                           self.breaker.cooldown_s)))
        call = self._admissions
        self._admissions += 1
        if faultinject.fire("queue_overflow", call=call) is not None:
            self._shed("queue", "injected queue overflow")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        deadline = (loop.time() + self.deadline_s
                    if self.deadline_s else None)
        pending = _Pending(kind, node, vector, k, cache_key, future,
                           deadline=deadline)
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self._shed("queue",
                       f"request queue full ({self.queue_limit})")
        if self.deadline_s:
            try:
                version, result = await asyncio.wait_for(future,
                                                         self.deadline_s)
            except asyncio.TimeoutError:
                self._deadline_breach()
            # A batch that blocked the loop past the deadline can
            # resolve the future before wait_for's timer callback runs;
            # enforce the deadline post-hoc so a breach is always 504,
            # never a late 200 that depends on callback ordering.
            if loop.time() >= deadline:
                self._deadline_breach()
        else:
            version, result = await future
        return version, result, False

    def _deadline_breach(self):
        self._deadline_timeouts += 1
        metrics.registry().counter("serve.deadline_timeouts").inc()
        raise _HttpError(
            504, f"deadline of {self.deadline_s * 1000.0:.0f} ms exceeded",
            retry_after=1) from None

    # -- HTTP -------------------------------------------------------------- #
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Conn(writer)
        conn.task = asyncio.current_task()
        self._conns.add(conn)
        try:
            while True:
                if self._draining:
                    break
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # Framing violations (over-long lines, oversized /
                    # garbled Content-Length, an unparseable target)
                    # leave unread bytes on the wire: answer, then close
                    # instead of trying to resync.
                    await self._respond(writer, exc.status,
                                        {"error": str(exc)},
                                        keep_alive=False)
                    break
                if request is None:
                    break
                conn.busy = True
                method, path, params, body = request
                started = time.perf_counter()
                retry_after = None
                try:
                    status, payload = await self._dispatch(method, path,
                                                           params, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": str(exc)}
                    retry_after = exc.retry_after
                except Exception as exc:
                    status, payload = 500, {"error": f"{type(exc).__name__}:"
                                                     f" {exc}"}
                keep_alive = not self._draining
                await self._respond(writer, status, payload,
                                    keep_alive=keep_alive,
                                    retry_after=retry_after)
                self._latencies.append(
                    (time.perf_counter() - started) * 1000.0)
                conn.busy = False
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            # The client hung up, possibly mid-body: nobody to answer.
            pass
        finally:
            self._conns.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _respond(self, writer, status: int, payload,
                       keep_alive: bool = True,
                       retry_after: int | None = None) -> None:
        """Write one JSON response and account for it (request counter,
        per-status ``serve.errors.<status>`` counters)."""
        body_bytes = jsonio.dumps(payload).encode()
        extra = (f"Retry-After: {int(retry_after)}\r\n"
                 if retry_after is not None else "")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body_bytes)}\r\n"
                f"{extra}"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        writer.write(head.encode() + body_bytes)
        await writer.drain()
        self._requests.inc()
        self._responses += 1
        if status >= 400:
            self._errors[status] = self._errors.get(status, 0) + 1
            metrics.registry().counter(f"serve.errors.{status}").inc()

    async def _read_request(self, reader):
        line = await _read_line(reader)
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, _ = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        content_length = 0
        while True:
            header = await _read_line(reader)
            if not header or header in (b"\r\n", b"\n"):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(
                        400, f"bad Content-Length {value.strip()!r}")
        if content_length < 0:
            raise _HttpError(400,
                             f"bad Content-Length {content_length}")
        if content_length > self.max_body:
            # Reject before reading a single body byte: readexactly on
            # an attacker-controlled length is an unbounded allocation.
            raise _HttpError(
                413, f"body of {content_length} bytes exceeds the "
                     f"{self.max_body}-byte limit (REPRO_SERVE_MAX_BODY)")
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        try:
            split = urlsplit(target)
        except ValueError as exc:  # e.g. "//[": an invalid IPv6 netloc
            raise _HttpError(400, f"bad request target: {exc}") from None
        params = {key: values[-1]
                  for key, values in parse_qs(split.query).items()}
        return method.upper(), split.path, params, body

    async def _dispatch(self, method, path, params, body):
        if path == "/healthz":
            status_word = self.health_status()
            payload = {"status": status_word,
                       "version": self.serving.version,
                       "index": self.index.name,
                       "serving_backend": self.breaker.backend,
                       "nodes": self.serving.num_nodes,
                       "breaker": self.breaker.snapshot(),
                       "shed": dict(self._shed_reasons),
                       "deadline_timeouts": self._deadline_timeouts}
            return (200 if status_word == "ok" else 503), payload
        if path == "/stats":
            return 200, self.stats()
        if path == "/reload":
            if method != "POST":
                raise _HttpError(405, "POST /reload")
            version = self.reload()
            return 200, {"status": "reloaded", "version": version}
        if path == "/similar":
            node = self._node_param(params)
            k = self._k_param(params)
            version, (ids, scores), cached = await self._submit(
                "similar", node, None, k, ("similar", node, k))
            return 200, {"version": version, "node": node, "k": k,
                         "cached": cached, "ids": ids, "scores": scores}
        if path == "/community":
            node = self._node_param(params)
            k = self._k_param(params)
            community = int(self.serving.communities()[node])
            version, (ids, scores), cached = await self._submit(
                "community", node, None, k, ("community", node, k))
            return 200, {"version": version, "node": node, "k": k,
                         "community": community, "cached": cached,
                         "ids": ids, "scores": scores}
        if path == "/query":
            vector, k = self._vector_request(params, body)
            key = ("query", vector.tobytes(), k)
            version, (ids, scores), cached = await self._submit(
                "query", None, vector, k, key)
            return 200, {"version": version, "k": k, "cached": cached,
                         "ids": ids, "scores": scores}
        raise _HttpError(404, f"no route for {path}")

    # -- parameter parsing -------------------------------------------------- #
    def _node_param(self, params) -> int:
        try:
            node = int(params["node"])
        except (KeyError, ValueError):
            raise _HttpError(400, "node must be an integer") from None
        if not 0 <= node < self.serving.num_nodes:
            raise _HttpError(
                400, f"node {node} out of range [0, "
                     f"{self.serving.num_nodes})")
        return node

    def _k_param(self, params) -> int:
        try:
            k = int(params.get("k", 10))
        except ValueError:
            raise _HttpError(400, "k must be an integer") from None
        return max(1, min(k, self.serving.num_nodes))

    def _vector_request(self, params, body):
        """The ``(vector, k)`` of a ``/query``, rejecting malformed input
        with ``400`` before admission so bad client input never reaches
        the index (where an exception would count as a breaker failure).
        """
        vector = None
        k = None
        if body:
            try:
                payload = json.loads(body.decode())
            except ValueError:
                raise _HttpError(400, "body must be JSON") from None
            if not isinstance(payload, dict):
                raise _HttpError(400, "body must be a JSON object")
            vector = payload.get("vector")
            if vector is not None and not isinstance(vector, list):
                raise _HttpError(400, "vector must be a JSON array")
            k = payload.get("k")
        if vector is None and "vector" in params:
            vector = params["vector"].split(",")
        if vector is None:
            raise _HttpError(400, "missing query vector")
        try:
            vector = np.asarray([float(v) for v in vector],
                                dtype=np.float64)
        except (TypeError, ValueError):
            raise _HttpError(400, "vector must be numeric") from None
        if vector.shape != (self.serving.dim,):
            raise _HttpError(400, f"vector must have dim "
                                  f"{self.serving.dim}, got {vector.size}")
        if not np.isfinite(vector).all():
            raise _HttpError(400, "vector components must be finite")
        if k is None:
            return vector, self._k_param(params)
        if isinstance(k, bool) or not isinstance(k, int):
            raise _HttpError(400, "k must be an integer")
        return vector, max(1, min(k, self.serving.num_nodes))


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; a line over the stream's 64 KiB limit
    is answered with 431."""
    try:
        return await reader.readline()
    except ValueError:
        # readline reports a LimitOverrunError as ValueError, having
        # already discarded the buffered part of the line.
        raise _HttpError(431, "request line or header field exceeds the "
                              "64 KiB line limit") from None


class _HttpError(RuntimeError):
    def __init__(self, status: int, message: str,
                 retry_after: int | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


# --------------------------------------------------------------------- #
# Closed-loop load generator                                             #
# --------------------------------------------------------------------- #

async def load_generator(host: str, port: int, paths: list[str],
                         total_requests: int, concurrency: int = 8,
                         retries: int = 2, backoff_base_s: float = 0.05,
                         backoff_cap_s: float = 1.0, seed: int = 0) -> dict:
    """Drive the server closed-loop over keep-alive connections.

    ``concurrency`` clients share one global request budget; each opens
    a persistent connection and issues requests back-to-back (cycling
    through ``paths``), so measured throughput includes the full HTTP
    round-trip.  Shed (``503``) and timed-out (``504``) answers — and
    dropped connections — are retried up to ``retries`` times with
    deterministic jittered exponential backoff (seeded per client, so
    clients de-synchronise instead of stampeding; a ``Retry-After``
    header raises the floor of the wait).  Returns aggregate req/s,
    latency percentiles, **final** statuses per request, and the
    retry/give-up tallies.
    """
    counter = {"next": 0}
    latencies: list[float] = []
    statuses: dict[int, int] = {}
    tallies = {"retries": 0, "gave_up": 0}
    retries = max(0, int(retries))

    async def client(client_index: int) -> None:
        rng = random.Random((int(seed) << 8) ^ client_index)
        reader = writer = None

        async def reconnect():
            nonlocal reader, writer
            await disconnect()
            reader, writer = await asyncio.open_connection(host, port)

        async def disconnect():
            nonlocal reader, writer
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except Exception:
                    pass
            reader = writer = None

        try:
            while True:
                seq = counter["next"]
                if seq >= total_requests:
                    break
                counter["next"] = seq + 1
                path = paths[seq % len(paths)]
                started = time.perf_counter()
                status = None
                for attempt in range(retries + 1):
                    retry_after = None
                    try:
                        if writer is None:
                            await reconnect()
                        writer.write(f"GET {path} HTTP/1.1\r\n"
                                     f"Host: {host}\r\n\r\n".encode())
                        await writer.drain()
                        status, headers, _ = await _read_response(reader)
                        retry_after = headers.get("retry-after")
                        if headers.get("connection") == "close":
                            await disconnect()
                    except (OSError, asyncio.IncompleteReadError,
                            ConnectionResetError):
                        status = None
                        await disconnect()
                    if status is not None and status not in (503, 504):
                        break
                    if attempt >= retries:
                        if status is None or status in (503, 504):
                            tallies["gave_up"] += 1
                        break
                    tallies["retries"] += 1
                    delay = (min(backoff_cap_s,
                                 backoff_base_s * (2.0 ** attempt))
                             * (0.5 + rng.random()))
                    if retry_after is not None:
                        try:
                            delay = max(delay, min(float(retry_after),
                                                   backoff_cap_s))
                        except ValueError:
                            pass
                    await asyncio.sleep(delay)
                latencies.append(
                    (time.perf_counter() - started) * 1000.0)
                key = status if status is not None else 0
                statuses[key] = statuses.get(key, 0) + 1
        finally:
            await disconnect()

    started = time.perf_counter()
    await asyncio.gather(*(client(ci)
                           for ci in range(max(1, concurrency))))
    elapsed = time.perf_counter() - started
    done = len(latencies)
    return {
        "requests": done,
        "concurrency": int(concurrency),
        "elapsed_s": elapsed,
        "rps": (done / elapsed) if elapsed > 0 else None,
        "p50_ms": percentile(latencies, 0.50),
        "p99_ms": percentile(latencies, 0.99),
        "statuses": statuses,
        "retries": tallies["retries"],
        "gave_up": tallies["gave_up"],
    }


async def _read_response(reader: asyncio.StreamReader
                         ) -> tuple[int, dict, bytes]:
    """Read one HTTP/1.1 response: ``(status, headers, body)`` with
    header names lower-cased."""
    line = await reader.readline()
    if not line:
        raise ConnectionResetError("server closed connection")
    parts = line.decode("latin-1").split(None, 2)
    status = int(parts[1]) if len(parts) > 1 else 0
    headers: dict[str, str] = {}
    while True:
        header = await reader.readline()
        if not header or header in (b"\r\n", b"\n"):
            break
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    content_length = int(headers.get("content-length", 0))
    body = (await reader.readexactly(content_length)
            if content_length else b"")
    return status, headers, body

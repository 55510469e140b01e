"""Process-parallel execution of pure task functions with deterministic merging.

The embarrassingly parallel layers of the reproduction — ``n_init``
restarts, grid-search trials, the outer seed/rate/kind axes of the
experiment runners — are pure numpy workloads: every task is a top-level
function of picklable arguments whose output depends only on those
arguments (each task carries its own explicitly derived seed).
:class:`ParallelExecutor` maps such functions over a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping the
**serial contract**:

* Results are merged in task-index order, so parallel output is
  bit-identical to the serial loop (ties in any downstream "best of"
  selection still break toward the lowest index).
* Telemetry emitted inside a worker — event-bus records, metric
  increments, tracing spans — is captured by a :class:`ChildTelemetry`
  sink and replayed in the parent **in task order**, so subscribed sinks,
  counters and span trees end up identical to a serial run.
* A crashed or hung worker is absorbed in two layers.  First, **per-task
  retry**: only the failed/timed-out task is re-submitted to a fresh
  pool with its *original arguments* (hence its original seed — the
  bit-identical merge contract survives retries), up to
  ``REPRO_TASK_RETRIES`` times with ``REPRO_TASK_BACKOFF``-second
  exponential backoff; ``REPRO_TASK_TIMEOUT`` bounds each task's wait.
  Only when retries are exhausted — or the failure is structural (an
  unpicklable task, a missing ``multiprocessing`` primitive) — does the
  run fall back to executing every task serially in-process: it finishes
  with a warning instead of failing.  Exceptions *raised by the task
  function itself* propagate unchanged, exactly as they would serially —
  they are deterministic, so they are never retried.

Worker count resolution (:func:`resolve_workers`): an explicit argument
wins, else the ``REPRO_WORKERS`` environment variable, else 1 (serial).
``auto`` or ``0`` means :func:`os.cpu_count`.  Inside a worker process
the answer is always 1, so nested parallelism cannot fork-bomb.

Workers rebuild per-process state on first use: notably the fit
workspace cache (:mod:`repro.core.workspace`) starts from the parent's
forked image (start method permitting) or empty, and its
content-addressed fingerprints make any rebuild cheap and correct.  Pool
workers persist across the tasks of one ``map`` call, so each worker
pays at most one rebuild per distinct graph.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .obs import events, metrics, trace
from .resilience import faultinject

__all__ = [
    "ChildTelemetry", "ParallelExecutor", "TaskOutcome", "parallel_map",
    "resolve_workers", "default_task_retries", "default_task_timeout",
    "default_task_backoff",
]

#: Set in worker processes so nested code resolves to serial execution.
_IN_WORKER = False


def default_task_retries() -> int:
    """Per-task retry budget (``REPRO_TASK_RETRIES``, default 1)."""
    return int(os.environ.get("REPRO_TASK_RETRIES", "1"))


def default_task_timeout() -> float | None:
    """Per-task result timeout in seconds (``REPRO_TASK_TIMEOUT``,
    default: no timeout)."""
    value = os.environ.get("REPRO_TASK_TIMEOUT", "")
    return float(value) if value else None


def default_task_backoff() -> float:
    """Base retry backoff in seconds (``REPRO_TASK_BACKOFF``,
    default 0.1; doubled on each further attempt)."""
    return float(os.environ.get("REPRO_TASK_BACKOFF", "0.1"))


def resolve_workers(value: int | str | None = None) -> int:
    """Resolve a worker count: explicit value > ``REPRO_WORKERS`` > 1.

    ``"auto"`` or ``0`` maps to :func:`os.cpu_count`; unparseable or
    negative values warn and fall back to 1.  Inside a worker process
    this always returns 1 (no nested pools).
    """
    if _IN_WORKER:
        return 1
    if value is None:
        value = os.environ.get("REPRO_WORKERS", "")
        if not value:
            return 1
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            return os.cpu_count() or 1
        try:
            value = int(value)
        except ValueError:
            warnings.warn(
                f"cannot parse worker count {value!r}; running serially",
                RuntimeWarning, stacklevel=2)
            return 1
    if value == 0:
        return os.cpu_count() or 1
    if value < 0:
        warnings.warn(
            f"negative worker count {value}; running serially",
            RuntimeWarning, stacklevel=2)
        return 1
    return int(value)


@dataclass
class ChildTelemetry:
    """Observability captured in a worker, replayed in the parent.

    ``events`` are the raw event-bus records (minus the ``kind`` key
    split out), ``metrics`` is a registry snapshot and ``spans`` a
    tracer ``to_dict()`` tree — everything the task emitted between
    entering and leaving the worker-side wrapper.  ``task`` and
    ``attempt`` identify which task (and which retry) produced the
    capture, giving every worker-side span tree a stable cross-process
    identity; replay itself stays index-ordered and annotation-free, so
    the merged stream is bit-identical to a serial run (span *paths*
    are the stable span IDs — see :func:`repro.obs.export.span_id`).
    """

    events: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    task: int | None = None
    attempt: int = 0

    def replay(self) -> None:
        """Re-emit the captured telemetry into the calling process."""
        for record in self.events:
            record = dict(record)
            kind = record.pop("kind", "event")
            events.emit(kind, **record)
        if self.metrics:
            metrics.registry().merge_snapshot(self.metrics)
        trace.merge_spans(self.spans)


@dataclass
class TaskOutcome:
    """One task's return value plus its captured telemetry."""

    index: int
    value: object
    telemetry: ChildTelemetry | None = None


def _run_task(fn: Callable, index: int, args: tuple,
             capture: bool, attempt: int = 0) -> TaskOutcome:
    """Worker-side wrapper: isolate telemetry, run the task, package both.

    Runs in the pool process.  Inherited sinks/tracers are detached so
    nothing is double-reported, the metrics registry is reset so the
    snapshot covers exactly this task, and nested ``resolve_workers``
    calls see a serial environment.
    """
    global _IN_WORKER
    _IN_WORKER = True
    os.environ["REPRO_WORKERS"] = "1"
    # Chaos hooks (no-ops without a REPRO_FAULTS plan): keyed by task and
    # attempt so a spec like ``worker_crash@task=1,attempt=0`` kills only
    # the first try and lets the retry succeed.
    if faultinject.fire("worker_crash", task=index, attempt=attempt) \
            is not None:
        os._exit(17)
    spec = faultinject.fire("timeout", task=index, attempt=attempt)
    if spec is not None:
        time.sleep(spec.params.get("s", 30.0))
    if not capture:
        return TaskOutcome(index, fn(*args))
    events.BUS.reset()
    sink = events.MemorySink()
    events.BUS.subscribe(sink)
    metrics.registry().reset()
    tracer = trace.Tracer()
    with trace.activate(tracer):
        value = fn(*args)
    return TaskOutcome(
        index, value,
        ChildTelemetry(events=sink.records,
                       metrics=metrics.registry().snapshot(),
                       spans=tracer.to_dict(),
                       task=index, attempt=attempt))


#: Pool-level failures that trigger the serial fallback.  Task-level
#: exceptions (raised by ``fn`` itself) are *not* in this set — they
#: propagate to the caller exactly as a serial loop would raise them.
def _fallback_errors() -> tuple[type[BaseException], ...]:
    from concurrent.futures.process import BrokenProcessPool
    return (BrokenProcessPool, pickle.PicklingError, AttributeError,
            ImportError, OSError)


class ParallelExecutor:
    """Map pure task functions over a process pool, deterministically.

    Parameters
    ----------
    max_workers:
        Worker count, resolved through :func:`resolve_workers` (so
        ``None`` defers to ``REPRO_WORKERS``).  ``<= 1`` runs every task
        serially in-process — same function, same order, no pool.
    telemetry:
        Capture and replay worker-side observability (events, metrics,
        spans).  Disable for tasks whose event volume outweighs their
        compute.
    retries:
        How many times a task whose *worker* died or timed out is
        re-submitted (with its original arguments, so derived seeds and
        the deterministic merge are unaffected) before the pool-wide
        serial fallback.  Default: ``REPRO_TASK_RETRIES``, else 1.
    timeout:
        Seconds to wait for each task's result; a task that exceeds it
        counts as failed and is retried on a fresh pool.  Default:
        ``REPRO_TASK_TIMEOUT``, else no timeout.
    backoff:
        Base sleep before a retry round, doubled per further attempt.
        Default: ``REPRO_TASK_BACKOFF``, else 0.1 s.
    """

    def __init__(self, max_workers: int | str | None = None,
                 telemetry: bool = True, retries: int | None = None,
                 timeout: float | None = None, backoff: float | None = None):
        self.workers = resolve_workers(max_workers)
        self.telemetry = telemetry
        self.retries = default_task_retries() if retries is None \
            else int(retries)
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        self.timeout = default_task_timeout() if timeout is None else timeout
        self.backoff = default_task_backoff() if backoff is None \
            else float(backoff)

    def map(self, fn: Callable, tasks: Iterable[Sequence],
            on_result: Callable[[int, object], None] | None = None) -> list:
        """Run ``fn(*task)`` for every task; return results in task order.

        ``on_result(index, value)`` fires once per task, in index order,
        after that task's telemetry has been replayed — the hook point
        for emitting per-task parent-side events (e.g. ``restart``) in
        the same stream position a serial loop would.
        """
        tasks = [tuple(task) for task in tasks]
        if self.workers <= 1 or len(tasks) <= 1:
            return self._map_serial(fn, tasks, on_result)
        try:
            outcomes = self._map_pool(fn, tasks)
        except _fallback_errors() as exc:
            warnings.warn(
                f"parallel execution failed ({type(exc).__name__}: {exc}); "
                f"re-running {len(tasks)} task(s) serially",
                RuntimeWarning, stacklevel=2)
            metrics.registry().counter("parallel.fallbacks").inc()
            events.emit("parallel_fallback", error=type(exc).__name__,
                        detail=str(exc), tasks=len(tasks))
            return self._map_serial(fn, tasks, on_result)
        results = []
        for outcome in outcomes:
            if outcome.telemetry is not None:
                outcome.telemetry.replay()
            if on_result is not None:
                on_result(outcome.index, outcome.value)
            results.append(outcome.value)
        return results

    def _map_serial(self, fn, tasks, on_result) -> list:
        results = []
        for index, task in enumerate(tasks):
            value = fn(*task)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results

    def _map_pool(self, fn, tasks) -> list[TaskOutcome]:
        registry = metrics.registry()
        registry.counter("parallel.tasks").inc(len(tasks))
        registry.gauge("parallel.workers").set(self.workers)
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        attempt = 0
        with trace.span("parallel/map"):
            while True:
                failures = self._pool_round(fn, tasks, pending, attempt,
                                            outcomes)
                if not failures:
                    return outcomes
                if attempt >= self.retries:
                    # Retry budget spent: surface the first failure.
                    # BrokenProcessPool and TimeoutError (an OSError)
                    # are both in _fallback_errors(), so the caller's
                    # pool-wide serial fallback takes over from here.
                    raise failures[0][1]
                for index, exc in failures:
                    registry.counter("parallel.retries").inc()
                    events.emit("task_retry", task=index, attempt=attempt,
                                error=type(exc).__name__, detail=str(exc))
                    warnings.warn(
                        f"task {index} failed ({type(exc).__name__}: {exc});"
                        f" retrying with its original arguments "
                        f"(attempt {attempt + 2}/{self.retries + 1})",
                        RuntimeWarning, stacklevel=3)
                if self.backoff:
                    time.sleep(self.backoff * 2 ** attempt)
                pending = [index for index, _ in failures]
                attempt += 1

    def _pool_round(self, fn, tasks, pending, attempt,
                    outcomes) -> list[tuple[int, BaseException]]:
        """Run the ``pending`` task indices on a fresh pool; fill
        ``outcomes`` in place and return ``(index, exception)`` for every
        task whose *worker* died or timed out.  A worker crash breaks the
        whole pool, so collateral tasks of the same round land in the
        failure list too and retry alongside the real victim — their
        arguments are unchanged, so determinism is unaffected.  Structural
        pool errors and the task function's own exceptions propagate."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool
        failures: list[tuple[int, BaseException]] = []
        hung = False
        pool = ProcessPoolExecutor(max_workers=min(self.workers,
                                                   len(pending)))
        try:
            futures = [(index, pool.submit(_run_task, fn, index,
                                           tasks[index], self.telemetry,
                                           attempt))
                       for index in pending]
            # Collect in submission (= task-index) order.
            for index, future in futures:
                try:
                    outcomes[index] = future.result(timeout=self.timeout)
                except FutureTimeout:
                    hung = True
                    future.cancel()
                    failures.append((index, TimeoutError(
                        f"task {index} produced no result within "
                        f"{self.timeout}s")))
                except BrokenProcessPool as exc:
                    failures.append((index, exc))
        finally:
            # A hung worker would block a waiting shutdown forever; leave
            # it behind and let the retry run on the fresh pool.
            pool.shutdown(wait=not hung, cancel_futures=True)
        return failures


def parallel_map(fn: Callable, tasks: Iterable[Sequence],
                 workers: int | str | None = None) -> list:
    """One-shot :meth:`ParallelExecutor.map` with default telemetry."""
    return ParallelExecutor(workers).map(fn, tasks)

"""Serving resilience runtime: admission control, deadlines, breakers.

The front end (:mod:`repro.serve.server`) threads three guard layers
through every request so overload and backend failure degrade the
service instead of wedging it:

Admission control & load shedding
    The micro-batcher queue is bounded (``REPRO_SERVE_QUEUE``); a full
    queue rejects the request with ``503`` + ``Retry-After`` and bumps
    the ``serve.shed`` counter instead of growing without bound.  Each
    admitted request carries a wall-clock deadline
    (``REPRO_SERVE_DEADLINE_MS``): when it expires the pending future is
    cancelled and the client gets ``504`` — a stalled index run cannot
    stall every connection behind it.

Graceful degradation
    A :class:`CircuitBreaker` owns a *degradation ladder* of backends —
    the server's is ``exact → cache-only`` — and trips one level down
    after ``REPRO_SERVE_BREAKER_THRESHOLD`` consecutive index errors or
    deadline breaches.  At ``cache-only`` the server answers LRU hits
    and sheds misses.  After ``REPRO_SERVE_BREAKER_COOLDOWN_MS`` the
    breaker goes **half-open**: the next operation probes the next
    better backend, and a success steps back up (repeatedly, until the
    configured backend is healthy again).  ``/healthz`` reports
    ``ok|degraded|draining`` (non-200 when not ``ok``) with the full
    breaker snapshot.

Client-side retry
    :func:`backoff_delays` / :func:`retry_call` implement deterministic
    jittered exponential backoff, shared by ``repro serve query`` and
    the async load generator so chaos-injected ``503``/``504`` answers
    are retried instead of surfacing as failures.

All knobs are plain environment variables resolved per server (see
:func:`queue_limit` etc.); the fault-injection points the guard reacts
to (``slow_index``, ``index_error``, ``queue_overflow``,
``shard_corrupt_read``) live in :mod:`repro.resilience.faultinject`.
"""

from __future__ import annotations

import os
import random
import time

from ..obs import events, metrics

__all__ = ["CACHE_ONLY", "CircuitBreaker", "queue_limit", "deadline_s",
           "max_body_bytes", "breaker_threshold", "breaker_cooldown_s",
           "drain_timeout_s", "backoff_delays", "retry_call"]

#: Terminal ladder level: answer LRU hits, shed everything else.
CACHE_ONLY = "cache-only"


# --------------------------------------------------------------------- #
# Environment knobs                                                      #
# --------------------------------------------------------------------- #

def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be numeric, got {raw!r}") from None


def queue_limit(value: int | None = None) -> int:
    """Batcher queue bound (``REPRO_SERVE_QUEUE``, default 1024).

    ``0`` (or a negative value) disables the bound — an explicit opt-out,
    never the default.
    """
    if value is None:
        value = int(_env_float("REPRO_SERVE_QUEUE", 1024))
    return max(0, int(value))


def deadline_s(value_ms: float | None = None) -> float:
    """Per-request deadline in seconds (``REPRO_SERVE_DEADLINE_MS``,
    default 1000 ms; ``0`` disables deadlines)."""
    if value_ms is None:
        value_ms = _env_float("REPRO_SERVE_DEADLINE_MS", 1000.0)
    return max(0.0, float(value_ms)) / 1000.0


def max_body_bytes(value: int | None = None) -> int:
    """Largest accepted request body (``REPRO_SERVE_MAX_BODY``,
    default 1 MiB).  Larger ``Content-Length`` headers are rejected with
    ``413`` *before* any body byte is read."""
    if value is None:
        value = int(_env_float("REPRO_SERVE_MAX_BODY", 1 << 20))
    return max(0, int(value))


def breaker_threshold(value: int | None = None) -> int:
    """Consecutive failures that trip one ladder level
    (``REPRO_SERVE_BREAKER_THRESHOLD``, default 3, floor 1)."""
    if value is None:
        value = int(_env_float("REPRO_SERVE_BREAKER_THRESHOLD", 3))
    return max(1, int(value))


def breaker_cooldown_s(value_ms: float | None = None) -> float:
    """Half-open re-probe delay in seconds
    (``REPRO_SERVE_BREAKER_COOLDOWN_MS``, default 1000 ms)."""
    if value_ms is None:
        value_ms = _env_float("REPRO_SERVE_BREAKER_COOLDOWN_MS", 1000.0)
    return max(0.0, float(value_ms)) / 1000.0


def drain_timeout_s(value_ms: float | None = None) -> float:
    """How long a graceful drain waits for in-flight work
    (``REPRO_SERVE_DRAIN_TIMEOUT_MS``, default 5000 ms)."""
    if value_ms is None:
        value_ms = _env_float("REPRO_SERVE_DRAIN_TIMEOUT_MS", 5000.0)
    return max(0.0, float(value_ms)) / 1000.0


# --------------------------------------------------------------------- #
# Circuit breaker                                                        #
# --------------------------------------------------------------------- #

class CircuitBreaker:
    """Degradation ladder with consecutive-failure trips and half-open
    recovery probes.

    ``ladder`` is an ordered list of backend names, best first, ending
    with :data:`CACHE_ONLY` (e.g. ``["exact", "cache-only"]``).
    ``record_failure`` after ``threshold`` consecutive failures steps
    ``level`` one rung down; once ``cooldown_s`` has elapsed the next
    :meth:`begin_operation` returns the next *better* backend as a
    half-open probe, and the following :meth:`record_success` /
    :meth:`record_failure` decides whether the step up sticks.  A fully
    recovered breaker (level 0) is ``closed``.

    Single-threaded by design: the server only touches it from the
    event-loop thread, mirroring :class:`repro.serve.cache.LRUCache`.
    """

    def __init__(self, ladder: list[str], threshold: int | None = None,
                 cooldown_s: float | None = None, clock=time.monotonic):
        if not ladder:
            raise ValueError("breaker ladder must not be empty")
        self.ladder = list(ladder)
        self.threshold = breaker_threshold(threshold)
        self.cooldown_s = (breaker_cooldown_s()
                           if cooldown_s is None else max(0.0, cooldown_s))
        self.clock = clock
        self.level = 0
        self.trips = 0
        self.recoveries = 0
        self.failures_total = 0
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False
        reg = metrics.registry()
        self._trip_counter = reg.counter("serve.breaker.trips")
        self._failure_counter = reg.counter("serve.breaker.failures")
        self._recovery_counter = reg.counter("serve.breaker.recoveries")

    # -- state ----------------------------------------------------------- #
    @property
    def backend(self) -> str:
        """The backend requests are currently served from."""
        return self.ladder[self.level]

    @property
    def state(self) -> str:
        if self._probing:
            return "half-open"
        return "open" if self.level > 0 else "closed"

    def _cooldown_elapsed(self) -> bool:
        return (self._opened_at is not None
                and self.clock() - self._opened_at >= self.cooldown_s)

    def probe_due(self) -> bool:
        """Whether the next operation should (or already does) run as a
        half-open probe of the next better backend.  The admission gate
        uses this at ``cache-only`` to let a probe request through."""
        return self.level > 0 and (self._probing or self._cooldown_elapsed())

    def begin_operation(self) -> str:
        """Backend name for the next index operation, consuming a
        half-open probe when one is due."""
        if self.level > 0 and not self._probing and self._cooldown_elapsed():
            self._probing = True
            events.emit("serve_breaker_probe", level=self.level,
                        probing=self.ladder[self.level - 1])
        if self._probing:
            return self.ladder[self.level - 1]
        return self.ladder[self.level]

    # -- outcomes -------------------------------------------------------- #
    def record_success(self) -> None:
        """A healthy operation: resets the failure streak; a successful
        half-open probe steps one level back up."""
        self._failures = 0
        if self._probing:
            self._probing = False
            self.level -= 1
            self.recoveries += 1
            self._recovery_counter.inc()
            # Another cooldown before probing the next rung up; a fully
            # recovered breaker forgets its trip time entirely.
            self._opened_at = None if self.level == 0 else self.clock()
            events.emit("serve_breaker_recover", level=self.level,
                        backend=self.backend)

    def record_failure(self, reason: str) -> None:
        """An index error or deadline breach.  A failed probe re-arms
        the cooldown; ``threshold`` consecutive failures trip a level."""
        self.failures_total += 1
        self._failure_counter.inc()
        if self._probing:
            self._probing = False
            self._failures = 0
            self._opened_at = self.clock()
            events.emit("serve_breaker_probe_failed", level=self.level,
                        reason=reason)
            return
        self._failures += 1
        if self._failures < self.threshold:
            return
        self._failures = 0
        self._opened_at = self.clock()
        if self.level < len(self.ladder) - 1:
            self.level += 1
            self.trips += 1
            self._trip_counter.inc()
            events.emit("serve_breaker_trip", reason=reason,
                        level=self.level, backend=self.backend)

    def snapshot(self) -> dict:
        """JSON-ready state for ``/healthz``, ``/stats`` and the ledger."""
        return {
            "state": self.state,
            "level": self.level,
            "backend": self.backend,
            "ladder": list(self.ladder),
            "consecutive_failures": self._failures,
            "failures": self.failures_total,
            "trips": self.trips,
            "recoveries": self.recoveries,
            "threshold": self.threshold,
            "cooldown_ms": round(self.cooldown_s * 1000.0, 3),
        }


# --------------------------------------------------------------------- #
# Client-side jittered backoff                                           #
# --------------------------------------------------------------------- #

def backoff_delays(retries: int, base_s: float = 0.05, cap_s: float = 2.0,
                   seed: int = 0) -> list[float]:
    """Deterministic jittered exponential backoff delays (full list).

    Delay ``i`` is ``min(cap_s, base_s * 2**i)`` scaled by a uniform
    factor in ``[0.5, 1.5)`` drawn from ``random.Random(seed)`` — the
    same seed always yields the same schedule, so retrying clients stay
    reproducible while a fleet of them (distinct seeds) de-synchronises
    instead of stampeding in lockstep.
    """
    rng = random.Random(seed)
    return [min(cap_s, base_s * (2.0 ** attempt)) * (0.5 + rng.random())
            for attempt in range(max(0, int(retries)))]


def retry_call(fn, retries: int = 2, base_s: float = 0.05,
               cap_s: float = 2.0, seed: int = 0,
               retryable: tuple = (Exception,)):
    """Call ``fn()`` with up to ``retries`` jittered-backoff retries.

    Only ``retryable`` exceptions are retried; each retry bumps the
    ``serve.client.retries`` counter and emits a ``serve_client_retry``
    event, and the final attempt's exception propagates unchanged.
    """
    delays = backoff_delays(retries, base_s, cap_s, seed)
    for attempt in range(len(delays) + 1):
        try:
            return fn()
        except retryable as exc:
            if attempt >= len(delays):
                raise
            metrics.registry().counter("serve.client.retries").inc()
            events.emit("serve_client_retry", attempt=attempt,
                        delay_s=round(delays[attempt], 4),
                        error=f"{type(exc).__name__}: {exc}")
            time.sleep(delays[attempt])

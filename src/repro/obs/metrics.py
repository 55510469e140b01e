"""Named counters, gauges and monotonic timers in a snapshot-able registry.

The registry is get-or-create: ``registry().counter("denoise.edges_dropped")``
returns the same :class:`Counter` everywhere, so instrumented modules never
need to share handles.  ``snapshot()`` flattens everything into a plain dict
suitable for JSON export or assertion in tests.
"""

from __future__ import annotations

import contextlib
import sys
import time
import tracemalloc

__all__ = ["Counter", "Gauge", "Timer", "MetricsRegistry", "registry",
           "track_peak_memory"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward; use a Gauge")
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)


class Timer:
    """Accumulates monotonic wall time across any number of intervals."""

    __slots__ = ("name", "total_s", "count", "_started")

    def __init__(self, name: str):
        self.name = name
        self.total_s = 0.0
        self.count = 0
        self._started: float | None = None

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError(f"timer {self.name!r} was not started")
        elapsed = time.perf_counter() - self._started
        self._started = None
        self.total_s += elapsed
        self.count += 1
        return elapsed

    @contextlib.contextmanager
    def time(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create home for every metric, with one flat snapshot."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Timer] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """Flatten every metric to JSON-ready values.

        Counters/gauges map to their value; timers map to a
        ``{"total_s", "count", "mean_s"}`` dict.
        """
        out: dict[str, float | dict[str, float]] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Timer):
                out[name] = {"total_s": metric.total_s, "count": metric.count,
                             "mean_s": metric.mean_s}
            else:
                out[name] = metric.value
        return out

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` produced elsewhere into this registry.

        Counters and gauges accumulate by value; timers accumulate both
        wall time and call count.  Used to replay metrics captured in a
        worker process back into the parent, so parallel runs report the
        same totals a serial run would.
        """
        for name, value in snapshot.items():
            if isinstance(value, dict):
                timer = self.timer(name)
                timer.total_s += float(value.get("total_s", 0.0))
                timer.count += int(value.get("count", 0))
            else:
                existing = self._metrics.get(name)
                if isinstance(existing, Gauge):
                    existing.add(value)
                elif isinstance(value, float) and not float(value).is_integer():
                    self.gauge(name).add(value)
                else:
                    self.counter(name).inc(int(value))

    def reset(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


@contextlib.contextmanager
def track_peak_memory(label: str = "memory"):
    """Record the block's peak traced allocation into the registry.

    On exit the registry holds two gauges: ``<label>.peak_bytes`` (the
    high-water mark of Python-level allocations inside the block,
    numpy array buffers included) and ``<label>.alloc_bytes`` (net
    allocation across the block).  Uses :mod:`tracemalloc`; when tracing
    is not already running it is started for the duration of the block
    and stopped afterwards, so the instrumentation has no cost outside
    the block.  When it is already running, an enclosing measurement
    keeps its own peak: the block resets tracemalloc's peak to measure
    itself, and raises it back on exit if the outer one was higher.
    """
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    before, outer_peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    try:
        yield
    finally:
        current, peak = tracemalloc.get_traced_memory()
        if started_here:
            tracemalloc.stop()
        elif outer_peak > peak:
            _raise_traced_peak(outer_peak)
        reg = registry()
        reg.gauge(f"{label}.peak_bytes").set(max(peak - before, 0))
        reg.gauge(f"{label}.alloc_bytes").set(current - before)


def _raise_traced_peak(peak: int) -> None:
    """Lift tracemalloc's peak back to ``peak`` (it has no setter).

    Allocates and frees one ``bytes`` object that brings the traced
    total up to ``peak`` (give or take the few bytes of the size
    computation).  ``bytes(n)`` is calloc'd, so large pages are never
    touched and the process's resident memory does not grow.
    """
    gap = peak - tracemalloc.get_traced_memory()[0] - sys.getsizeof(b"")
    if gap > 0:
        bytes(gap)

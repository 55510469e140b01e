"""Structured observability: events, metrics, tracing spans, op profiling.

The subsystem has four layers, all zero-overhead when nothing is
listening so the library can stay instrumented permanently:

``events``
    A process-wide event bus.  ``events.emit("epoch", loss=...)`` is a
    no-op until a sink (e.g. :class:`~repro.obs.events.JsonlSink`)
    subscribes; training, denoising and the experiment runners emit
    structured records through it, and the process pool and the
    fault-injection harness report every incident on it —
    ``task_retry``, ``parallel_fallback`` and ``fault_injected``.
``metrics``
    A registry of named counters, gauges and monotonic timers with a
    single ``snapshot()`` for exporting.
``trace``
    Hierarchical wall-time spans (``with trace.span("fit"):``) that
    aggregate into a path-keyed tree with text/JSON reports.
``profile``
    An op-level profiler that wraps :mod:`repro.nn.autograd` to
    attribute forward/backward time and FLOP-ish counts per op kind.
``store``
    A persistent, crash-safe **run ledger** (JSONL segments + an atomic
    index) recording one durable entry per fit/denoise/experiment/
    benchmark run, keyed by the content-derived run key.  Enabled by
    ``REPRO_RUN_DIR`` (CLI: global ``--run-dir``); browse with
    ``repro obs runs list/show/diff/export/tail``.
``export``
    Pure-function exporters: Chrome trace-event JSON (Perfetto-loadable,
    stable path-derived span IDs) from any span tree, Prometheus text
    format from any metrics snapshot.
``regress``
    Automatic regression detection of a fresh run against its own ledger
    history: loss-curve divergence, final-metric drops, epoch-time
    ratios — surfaced as ``regression`` events plus the
    ``obs.regressions`` counter, warn-only.

Nothing in this package imports the rest of :mod:`repro`, so any module
may instrument itself without creating import cycles.
"""

from . import events, export, metrics, profile, regress, store, trace
from .events import EventBus, JsonlSink, MemorySink, emit
from .export import chrome_trace, prometheus_text, span_id
from .metrics import (Counter, Gauge, MetricsRegistry, Timer, registry,
                      track_peak_memory)
from .profile import OpProfiler, profile_ops
from .store import RunLedger, capture_run, get_ledger
from .trace import Tracer, span

__all__ = [
    "events", "metrics", "trace", "profile", "store", "export", "regress",
    "EventBus", "JsonlSink", "MemorySink", "emit",
    "MetricsRegistry", "Counter", "Gauge", "Timer", "registry",
    "track_peak_memory",
    "Tracer", "span",
    "OpProfiler", "profile_ops",
    "RunLedger", "capture_run", "get_ledger",
    "chrome_trace", "prometheus_text", "span_id",
]

"""In-memory span recording for the traced run.

:class:`SpanRecorder` keeps one record per span — name, start, end,
parent and a tag (the epoch number in a training process; the client's
request spans carry their window and request number instead) — and the
run writes them out only when it ends.  It records two kinds of span on
one stack:

* wrappers the benchmark installs around the public functions of each
  layer (:meth:`SpanRecorder.wrap`), restored by :meth:`restore`;
* the program's own ``repro.obs.trace`` spans, by standing in as the
  active tracer (:meth:`SpanRecorder.install_tracer`).

Nothing here changes what the wrapped functions compute: a wrapper calls
the original with the same arguments and returns its result unchanged.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

__all__ = ["SpanRecorder"]


class _Span:
    __slots__ = ("_rec", "_name", "_idx")

    def __init__(self, recorder: "SpanRecorder", name: str):
        self._rec = recorder
        self._name = name
        self._idx = -1

    def __enter__(self):
        self._idx = self._rec.open(self._name)
        return self

    def __exit__(self, *exc):
        self._rec.close(self._idx)


class SpanRecorder:
    """Span list plus the stack that links each span to its parent."""

    def __init__(self, tag_span: str | None = None, tag_hook=None):
        #: ``[name, start, end, parent, tag]`` per span, in open order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._previous_tracer = None
        self._trace_module = None
        #: Each opening of a ``tag_span`` span (e.g. ``"epoch"``) starts
        #: a new tag, carried by it and every span opened after it;
        #: ``tag_hook(opening)`` runs as such a span opens and closes.
        self.tag_span = tag_span
        self.tag_hook = tag_hook
        self.tag = None

    # -- recording ------------------------------------------------------ #
    def open(self, name: str) -> int:
        if name == self.tag_span:
            self.tag = 0 if self.tag is None else self.tag + 1
            if self.tag_hook is not None:
                self.tag_hook(True)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.tag])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self.tag_hook is not None and self.spans[idx][0] == self.tag_span:
            self.tag_hook(False)
        # Pop through idx: a span left open by an exception unwinds here.
        while self._stack:
            if self._stack.pop() == idx:
                break

    def span(self, name: str) -> _Span:
        """Context-manager span; also the ``repro.obs.trace`` tracer API."""
        return _Span(self, name)

    def merge_dict(self, spans: dict) -> None:
        """Tracer API for spans replayed from worker processes; the
        benchmark runs every fit in-process, so there are none."""

    # -- instrumentation ------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str, rows_of=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper recorded as
        ``name``; ``rows_of(args)`` may record the work size of a call
        (e.g. the queries in one index batch) on its span."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        func = original.__func__ if isinstance(original, staticmethod) \
            else original

        @functools.wraps(func)
        def timed(*args, **kwargs):
            idx = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(idx)
                if rows_of is not None:
                    self.spans[idx].append(rows_of(args))

        replacement = staticmethod(timed) \
            if isinstance(original, staticmethod) else timed
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def install_tracer(self) -> None:
        """Receive the program's ``repro.obs.trace`` spans."""
        from repro.obs import trace

        self._trace_module = trace
        self._previous_tracer = trace.get_tracer()
        trace.set_tracer(self)

    def restore(self) -> None:
        """Undo every wrapper and the tracer swap."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._trace_module is not None:
            self._trace_module.set_tracer(self._previous_tracer)
            self._trace_module = None

    # -- analysis ------------------------------------------------------- #
    def self_times(self, within: str | None = None) -> dict[str, list]:
        """``{name: [self_seconds, count]}``; with ``within``, only spans
        that have an ancestor of that name (the ancestor excluded)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        inside = None
        if within is not None:
            inside = [False] * len(self.spans)
            for i, (name, _, _, parent, *_) in enumerate(self.spans):
                if parent >= 0:
                    inside[i] = inside[parent] or \
                        self.spans[parent][0] == within
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, *_) in enumerate(self.spans):
            if end is None or (inside is not None and not inside[i]):
                continue
            entry = out[name]
            entry[0] += (end - start) - child_time[i]
            entry[1] += 1
        return dict(out)

    def totals(self, name: str) -> tuple[float, int]:
        """Summed duration and count of every span called ``name``."""
        total, count = 0.0, 0
        for span_name, start, end, *_ in self.spans:
            if span_name == name and end is not None:
                total += end - start
                count += 1
        return total, count

    def to_records(self) -> list[dict]:
        records = []
        for span in self.spans:
            record = dict(zip(("name", "start", "end", "parent", "tag"),
                              span))
            if len(span) > 5:
                record["rows"] = span[5]
            records.append(record)
        return records

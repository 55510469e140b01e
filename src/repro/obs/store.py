"""Persistent, crash-safe run ledger: JSONL segments + an atomic index.

Every fit/denoise/experiment/benchmark run can leave one durable entry
behind — keyed by the content-derived run key of
:func:`repro.core.config.run_key` — so runs become comparable across
processes: ``repro obs runs list/show/diff/export`` reads the ledger,
and :mod:`repro.obs.regress` judges a fresh run against its own history.

Storage layout (one directory per ledger)::

    <dir>/segment-000001.jsonl    append-only entry lines
    <dir>/segment-000002.jsonl    (rotated at ``segment_bytes``)
    <dir>/index.json              atomic summary index (tmp+fsync+rename)

Durability discipline: entry lines are flushed and fsynced before the index
is rewritten atomically, so a crash at any point leaves either a fully
indexed entry, an unindexed-but-valid line (recovered by
:meth:`RunLedger.rebuild` on the next load), or a torn trailing line
(skipped by the rebuild).  Nothing is ever updated in place.

Recording is **opt-in**: ``REPRO_RUN_DIR`` (or the CLI's global
``--run-dir``, whose bare form points at the one-slot default
``.repro/runs/``) names the ledger directory; without it every hook in
the library is a no-op costing one environment read.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import subprocess
import time
import warnings

from . import events, metrics, trace
from .events import _jsonify

__all__ = ["RunLedger", "get_ledger", "enabled", "default_run_dir",
           "capture_run", "record", "git_describe", "DEFAULT_RUN_DIR"]

#: The one-slot default ledger used by a bare ``--run-dir`` flag.
DEFAULT_RUN_DIR = os.path.join(".repro", "runs")

_SEGMENT_NAME = re.compile(r"^segment-(\d{6})\.jsonl$")
INDEX_NAME = "index.json"

#: Metric prefixes summarised into each entry's ``resilience`` field.
RESILIENCE_PREFIXES = ("faults.", "parallel.")


def default_run_dir() -> str | None:
    """The active ledger directory (``REPRO_RUN_DIR``), or ``None``."""
    return os.environ.get("REPRO_RUN_DIR") or None


def default_segment_bytes() -> int:
    """Segment rotation size (``REPRO_RUN_SEGMENT_BYTES``, default 4 MiB)."""
    return int(os.environ.get("REPRO_RUN_SEGMENT_BYTES",
                              str(4 * 1024 * 1024)))


class RunLedger:
    """Append-only store of run entries under one directory.

    Entries are plain dicts with at least ``kind`` and ``key``; the
    ledger assigns a monotonically increasing ``seq``.  The index keeps a
    small summary per entry (segment + byte offset, timestamps, the
    final-metric dict) so listings never parse segment files; full
    entries are read back by seeking to their recorded offset.
    """

    def __init__(self, directory: str, segment_bytes: int | None = None):
        self.directory = str(directory)
        self.segment_bytes = default_segment_bytes() \
            if segment_bytes is None else int(segment_bytes)

    # -- paths ---------------------------------------------------------- #
    @property
    def index_path(self) -> str:
        return os.path.join(self.directory, INDEX_NAME)

    def _segment_files(self) -> list[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(n for n in names if _SEGMENT_NAME.match(n))

    # -- writing -------------------------------------------------------- #
    def append(self, entry: dict) -> dict:
        """Durably append one entry; returns it with ``seq`` assigned."""
        os.makedirs(self.directory, exist_ok=True)
        index = self._load_index()
        entry = dict(entry)
        entry["seq"] = int(index["next_seq"])
        line = (json.dumps(entry, default=_jsonify, sort_keys=True)
                + "\n").encode()
        segment = self._target_segment(index, len(line))
        path = os.path.join(self.directory, segment)
        with open(path, "ab") as fh:
            offset = fh.tell()
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        index["next_seq"] = entry["seq"] + 1
        index["scanned"][segment] = offset + len(line)
        index["runs"].setdefault(entry["key"], []).append(
            _summary(entry, segment, offset))
        self._write_index(index)
        metrics.registry().counter("obs.runs_recorded").inc()
        events.emit("run_recorded", key=entry["key"],
                    run_kind=entry.get("kind"), seq=entry["seq"])
        return entry

    def _target_segment(self, index: dict, line_bytes: int) -> str:
        segments = self._segment_files()
        if segments:
            newest = segments[-1]
            try:
                size = os.path.getsize(os.path.join(self.directory, newest))
            except OSError:
                size = 0
            if size + line_bytes <= self.segment_bytes or size == 0:
                return newest
            number = int(_SEGMENT_NAME.match(newest).group(1)) + 1
        else:
            number = 1
        return f"segment-{number:06d}.jsonl"

    def _write_index(self, index: dict) -> None:
        tmp = self.index_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(index, fh, default=_jsonify)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.index_path)

    # -- index lifecycle ------------------------------------------------ #
    def _load_index(self) -> dict:
        try:
            with open(self.index_path) as fh:
                index = json.load(fh)
            if not isinstance(index, dict):
                raise ValueError("ledger index is not a JSON object")
            if index.get("version") != 1:
                raise ValueError(f"unknown ledger index version "
                                 f"{index.get('version')!r}")
        except (OSError, ValueError):
            return self.rebuild()
        # Entries fsynced after the last index write (the crash window)
        # make a segment longer than the index remembers scanning.
        scanned = index.get("scanned", {})
        for segment in self._segment_files():
            try:
                size = os.path.getsize(os.path.join(self.directory, segment))
            except OSError:
                continue
            if size > int(scanned.get(segment, 0)):
                return self.rebuild()
        return index

    def rebuild(self) -> dict:
        """Reconstruct the index by scanning every segment file.

        Torn trailing lines (a crash mid-append) are skipped; corrupt
        lines elsewhere warn and are skipped too.  The rebuilt index is
        written back atomically so subsequent loads are cheap again.
        """
        index = {"version": 1, "next_seq": 0, "scanned": {}, "runs": {}}
        for segment in self._segment_files():
            path = os.path.join(self.directory, segment)
            offset = 0
            try:
                with open(path, "rb") as fh:
                    lines = fh.readlines()
            except OSError:
                continue
            for position, raw in enumerate(lines):
                try:
                    entry = _ledger_entry(raw)
                except (ValueError, UnicodeDecodeError):
                    if position != len(lines) - 1:
                        warnings.warn(
                            f"skipping corrupt ledger line in {path} "
                            f"(offset {offset})", RuntimeWarning,
                            stacklevel=3)
                    offset += len(raw)
                    continue
                index["runs"].setdefault(entry["key"], []).append(
                    _summary(entry, segment, offset))
                index["next_seq"] = max(index["next_seq"], entry["seq"] + 1)
                offset += len(raw)
            # Record the full scanned size (torn tail included) so a
            # damaged file does not force a rebuild on every load.
            index["scanned"][segment] = sum(len(raw) for raw in lines)
        for summaries in index["runs"].values():
            summaries.sort(key=lambda s: s["seq"])
        if self._segment_files():
            os.makedirs(self.directory, exist_ok=True)
            self._write_index(index)
        return index

    # -- reading -------------------------------------------------------- #
    def runs(self) -> dict[str, list[dict]]:
        """``{key: [entry summaries, oldest first]}`` from the index."""
        return self._load_index()["runs"]

    def keys(self) -> list[str]:
        return sorted(self.runs())

    def summaries(self, key: str | None = None) -> list[dict]:
        """Entry summaries (all keys by default), in ``seq`` order."""
        runs = self.runs()
        rows = [s for k, summaries in runs.items()
                if key is None or k == key for s in summaries]
        return sorted(rows, key=lambda s: s["seq"])

    def read_entry(self, summary: dict) -> dict:
        """Load the full entry a summary points at."""
        path = os.path.join(self.directory, summary["segment"])
        with open(path, "rb") as fh:
            fh.seek(int(summary["offset"]))
            return json.loads(fh.readline().decode())

    def entries(self, key: str | None = None) -> list[dict]:
        """Full entries (optionally one key's), oldest first."""
        return [self.read_entry(s) for s in self.summaries(key)]

    def latest(self, key: str) -> dict | None:
        """The newest full entry recorded under ``key``."""
        summaries = self.runs().get(key)
        if not summaries:
            return None
        return self.read_entry(summaries[-1])

    def previous(self, key: str) -> dict | None:
        """The entry before the newest one — the diffing baseline."""
        summaries = self.runs().get(key)
        if not summaries or len(summaries) < 2:
            return None
        return self.read_entry(summaries[-2])

    def resolve_key(self, token: str) -> str:
        """Resolve an exact key or a unique substring of one."""
        keys = self.keys()
        if token in keys:
            return token
        matches = [k for k in keys if token in k]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no run key matches {token!r} "
                           f"(known: {', '.join(keys) or 'none'})")
        raise KeyError(f"run key {token!r} is ambiguous: "
                       f"{', '.join(matches)}")

    def __len__(self) -> int:
        return len(self.summaries())


def _ledger_entry(raw: bytes) -> dict:
    """One segment line as an entry with a ``str`` key and an ``int``
    ``seq``; a ``ValueError`` for anything else."""
    entry = json.loads(raw.decode())
    if not isinstance(entry, dict) or not isinstance(entry.get("key"), str):
        raise ValueError("not a ledger entry")
    if type(entry.get("seq")) is not int:
        raise ValueError("ledger entry without an integer seq")
    return entry


def _summary(entry: dict, segment: str, offset: int) -> dict:
    """The small per-entry record the index keeps for listings."""
    final = entry.get("final")
    return {
        "seq": int(entry["seq"]),
        "segment": segment,
        "offset": int(offset),
        "key": entry["key"],
        "kind": entry.get("kind"),
        "ts": entry.get("ts"),
        "elapsed_s": entry.get("elapsed_s"),
        "final": final if isinstance(final, dict) else {},
        "regressions": len(entry.get("regressions") or []),
        "error": entry.get("error"),
    }


# --------------------------------------------------------------------- #
# Process-wide access                                                    #
# --------------------------------------------------------------------- #
_LEDGERS: dict[str, RunLedger] = {}


def enabled() -> bool:
    """Is run recording on (``REPRO_RUN_DIR`` set)?"""
    return default_run_dir() is not None


def get_ledger(directory: str | None = None) -> RunLedger | None:
    """The ledger at ``directory`` (default: ``REPRO_RUN_DIR``), memoised
    per path; ``None`` when recording is disabled."""
    directory = directory or default_run_dir()
    if not directory:
        return None
    ledger = _LEDGERS.get(directory)
    if ledger is None:
        ledger = _LEDGERS[directory] = RunLedger(directory)
    return ledger


_GIT_DESCRIBE: list | None = None


def git_describe() -> str | None:
    """``git describe --always --dirty`` of the source tree, memoised;
    ``None`` outside a git checkout (e.g. an installed wheel)."""
    global _GIT_DESCRIBE
    if _GIT_DESCRIBE is None:
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True, text=True, timeout=5)
            described = out.stdout.strip() if out.returncode == 0 else ""
            _GIT_DESCRIBE = [described or None]
        except (OSError, subprocess.SubprocessError):
            _GIT_DESCRIBE = [None]
    return _GIT_DESCRIBE[0]


# --------------------------------------------------------------------- #
# Recording hooks                                                        #
# --------------------------------------------------------------------- #
def record(kind: str, key: str, **fields) -> dict | None:
    """Compose and append one entry now (no capture window).

    Used by callers that already hold their telemetry — e.g. the
    benchmark harness, which passes its own ``spans``/``metrics``.
    Returns the appended entry, or ``None`` when recording is disabled.
    """
    ledger = get_ledger()
    if ledger is None:
        return None
    run = {"kind": kind, "key": key, "ts": round(time.time(), 6),
           "mono": round(time.perf_counter(), 6), "git": git_describe(),
           **fields}
    return _commit(ledger, run)


@contextlib.contextmanager
def capture_run(kind: str, key: str, **fields):
    """Record one run entry around a block of instrumented work.

    Yields the mutable entry dict (callers add ``history``, ``final``,
    ``config`` …), or ``None`` when recording is disabled.  On exit the
    entry gains wall/monotonic timestamps, ``elapsed_s``, the span tree
    and metrics-registry **deltas** attributable to the block (a tracer
    is installed for the duration when none is active), the resilience
    counter deltas, ``git``, and the regression findings against the
    ledger's previous entry for the same key — then it is appended
    durably.  An exception inside the block is recorded as an ``error``
    entry (no regression check) and re-raised.
    """
    ledger = get_ledger()
    if ledger is None:
        yield None
        return
    registry = metrics.registry()
    metrics_before = registry.snapshot()
    tracer = trace.get_tracer()
    own_tracer = tracer is None
    if own_tracer:
        tracer = trace.Tracer()
        trace.set_tracer(tracer)
    spans_before = {} if own_tracer else tracer.to_dict()
    wall = time.time()
    mono = time.perf_counter()
    run = {"kind": kind, "key": key, **fields}
    try:
        yield run
    except BaseException as exc:
        run["error"] = type(exc).__name__
        raise
    finally:
        if own_tracer:
            trace.set_tracer(None)
        run.setdefault("elapsed_s", round(time.perf_counter() - mono, 6))
        run.setdefault("ts", round(wall, 6))
        run.setdefault("mono", round(mono, 6))
        run.setdefault("git", git_describe())
        metrics_delta = snapshot_delta(registry.snapshot(), metrics_before)
        run.setdefault("spans", span_delta(tracer.to_dict(), spans_before))
        run.setdefault("metrics", metrics_delta)
        run.setdefault("resilience",
                       {name: value for name, value in metrics_delta.items()
                        if name.startswith(RESILIENCE_PREFIXES)})
        _commit(ledger, run)


def _commit(ledger: RunLedger, run: dict) -> dict:
    """Judge ``run`` against its ledger baseline, then append it."""
    from . import regress
    baseline = None
    if "error" not in run:
        try:
            baseline = ledger.latest(run["key"])
        except (OSError, ValueError):
            baseline = None
    run.setdefault(
        "regressions",
        regress.check(run, baseline) if baseline is not None else [])
    return ledger.append(run)


# --------------------------------------------------------------------- #
# Delta helpers                                                          #
# --------------------------------------------------------------------- #
def span_delta(after: dict, before: dict) -> dict:
    """Subtract one span ``to_dict()`` tree from a later one.

    Span trees only accumulate, so the difference is exactly the spans
    recorded inside a capture window even when an outer tracer (e.g. the
    CLI's ``--trace``) was already active.
    """
    out: dict = {}
    for name, payload in after.items():
        base = before.get(name, {})
        count = int(payload.get("count", 0)) - int(base.get("count", 0))
        total = float(payload.get("total_s", 0.0)) \
            - float(base.get("total_s", 0.0))
        children = span_delta(payload.get("children", {}),
                              base.get("children", {}))
        if count > 0 or children:
            node = {"total_s": round(max(total, 0.0), 9), "count": count}
            if children:
                node["children"] = children
            out[name] = node
    return out


def snapshot_delta(after: dict, before: dict) -> dict:
    """Difference of two :meth:`MetricsRegistry.snapshot` dicts.

    Counters and timers subtract (entries with no movement are dropped);
    gauges are point-in-time, so a gauge that moved reports its final
    value.
    """
    out: dict = {}
    for name, value in after.items():
        base = before.get(name)
        if isinstance(value, dict):  # timer
            count = int(value.get("count", 0)) \
                - int((base or {}).get("count", 0))
            total = float(value.get("total_s", 0.0)) \
                - float((base or {}).get("total_s", 0.0))
            if count > 0 or total > 0:
                out[name] = {"total_s": round(total, 9), "count": count,
                             "mean_s": round(total / count, 9)
                             if count else 0.0}
        elif isinstance(value, float):
            # Gauges snapshot as floats (counters stay int): point-in-time
            # values don't subtract — report the final value if it moved.
            if base != value:
                out[name] = value
        else:
            delta = int(value) - int(base or 0)
            if delta != 0:
                out[name] = delta
    return out

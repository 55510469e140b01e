"""Compare two perf-benchmark result files and flag regressions.

Diffs the per-case timing of every case shared by a baseline and a
current result file and fails when any case slowed down by more than
``--threshold``.  Works on every tracked benchmark format:
``BENCH_train.json`` (``benchmarks/test_perf_training.py``, timing key
``after_s``), ``BENCH_parallel.json``
(``benchmarks/test_perf_parallel.py``, same key — the best parallel
median), ``BENCH_dtype.json`` (``benchmarks/test_perf_dtype.py``,
``after_s`` = the float32 median), ``BENCH_scale.json``
(``benchmarks/test_perf_scale.py``,
``after_s`` = the sampled-mode wall time — whole fit for the parity
case, marginal per-epoch time for the sampled-only scale cases, whose
``before_s`` is null because no full-batch contender fits in memory)
and ``BENCH_serve.json`` (``benchmarks/test_perf_serve.py``,
``after_s`` = seconds per served request for the load-generator cases,
per-lookup/per-query time for the cached-argmax and mmap cases; throughput-style fields like ``rps`` ride along as
context).

A missing baseline, or a baseline written by a smoke run (``"smoke":
true``), is not an error: CI compares against artifacts that may not
exist yet, so those cases print a note and exit 0.

``--ledger DIR`` additionally judges the current payload against the
**run-ledger history** of the same benchmark (the median ``after_s`` per
case across every recorded run — robust to one noisy runner where a
single-baseline diff is not) and records the fresh timings as a new
``bench:<benchmark>`` ledger entry, so the history grows with every CI
run that uploads the ledger artifact.

Run:  python tools/bench_compare.py BENCH_train.json /tmp/BENCH_train.json
      python tools/bench_compare.py old.json new.json --threshold 0.25 --warn-only
      python tools/bench_compare.py BENCH_train.json new.json --ledger /tmp/run-ledger
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def load_payload(path: Path) -> dict:
    return json.loads(path.read_text())


def cases_by_name(payload: dict) -> dict[str, dict]:
    return {case["case"]: case for case in payload.get("cases", [])}


def compare(baseline: dict[str, dict], current: dict[str, dict],
            threshold: float) -> tuple[list[tuple], list[str]]:
    """Per-case rows plus the names of cases regressing past threshold."""
    rows, regressions = [], []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        curr = current.get(name)
        if base is None or curr is None:
            rows.append((name, base and base["after_s"],
                         curr and curr["after_s"], None, "missing"))
            continue
        ratio = curr["after_s"] / base["after_s"] if base["after_s"] else None
        status = "ok"
        if ratio is not None and ratio > 1.0 + threshold:
            status = "REGRESSION"
            regressions.append(name)
        rows.append((name, base["after_s"], curr["after_s"], ratio, status))
    return rows, regressions


def format_table(rows: list[tuple]) -> str:
    def fmt(value, spec):
        return format(value, spec) if value is not None else "-"

    lines = [f"{'case':24s} {'base_s':>9s} {'curr_s':>9s} "
             f"{'ratio':>7s}  status"]
    for name, base_s, curr_s, ratio, status in rows:
        lines.append(f"{name:24s} {fmt(base_s, '9.3f')} "
                     f"{fmt(curr_s, '9.3f')} {fmt(ratio, '7.2f')}  {status}")
    return "\n".join(lines)


def judge_ledger(directory: Path, payload: dict,
                 threshold: float) -> list[dict]:
    """Judge ``payload`` against its ledger history, then record it.

    Smoke payloads get their own key suffix so shrunken-case timings
    never pollute the full-size history (and vice versa).
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.obs import regress, store
    from repro.obs.store import RunLedger

    key = f"bench:{payload.get('benchmark', 'unknown')}"
    if payload.get("smoke"):
        key += ":smoke"
    current = {case["case"]: float(case["after_s"])
               for case in payload.get("cases", []) if "after_s" in case}
    ledger = RunLedger(str(directory))
    history = [entry.get("final") or {} for entry in ledger.entries(key)]
    findings = regress.bench_findings(current, history, threshold)
    ledger.append({"kind": "benchmark", "key": key,
                   "ts": round(time.time(), 6), "git": store.git_describe(),
                   "final": current, "regressions": findings})
    print(f"\nledger: {len(history)} prior run(s) under {key!r} "
          f"in {directory}; recorded seq "
          f"{ledger.summaries(key)[-1]['seq']}")
    for finding in findings:
        print(f"  [ledger] {finding['detail']}")
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_train.json files by after_s per case.")
    parser.add_argument("baseline", type=Path,
                        help="tracked baseline BENCH_train.json")
    parser.add_argument("current", type=Path,
                        help="freshly produced BENCH_train.json")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional slowdown before a case "
                             "counts as a regression (default 0.30)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but always exit 0 "
                             "(for noisy shared CI runners)")
    parser.add_argument("--ledger", type=Path, default=None, metavar="DIR",
                        help="run-ledger directory: also judge the current "
                             "payload against the benchmark's recorded "
                             "history (median per case) and append it as a "
                             "new ledger entry")
    args = parser.parse_args(argv)

    curr_payload = load_payload(args.current)
    ledger_findings = []
    if args.ledger is not None:
        ledger_findings = judge_ledger(args.ledger, curr_payload,
                                       args.threshold)

    regressions: list[str] = []
    if not args.baseline.exists():
        print(f"no baseline: {args.baseline} does not exist — nothing to "
              "compare against yet, skipping")
    else:
        base_payload = load_payload(args.baseline)
        if base_payload.get("smoke"):
            print(f"no baseline: {args.baseline} was written by a smoke "
                  "run — its shrunken cases are not comparable, skipping")
        else:
            if base_payload.get("benchmark") != curr_payload.get("benchmark"):
                print(f"note: comparing different benchmarks "
                      f"({base_payload.get('benchmark')} vs "
                      f"{curr_payload.get('benchmark')}) — only shared case "
                      "names line up")
            if base_payload.get("smoke") != curr_payload.get("smoke"):
                print("note: smoke flags differ between the two files — "
                      "case configs are not the same size, ratios are "
                      "indicative only")
            rows, regressions = compare(cases_by_name(base_payload),
                                        cases_by_name(curr_payload),
                                        args.threshold)
            print(format_table(rows))

    flagged = len(regressions) + len(ledger_findings)
    if flagged:
        verb = "warning" if args.warn_only else "error"
        names = regressions + [f["field"] for f in ledger_findings]
        print(f"\n{verb}: {flagged} case(s) regressed beyond "
              f"+{args.threshold:.0%}: {', '.join(names)}")
        return 0 if args.warn_only else 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())

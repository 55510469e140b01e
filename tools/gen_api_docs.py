"""Generate docs/API.md by introspecting the public API.

Walks every subpackage's ``__all__``, collects signatures and first
docstring lines, and renders one markdown section per module.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

#: The tracked reference this script regenerates.
DEFAULT_OUT = Path(__file__).parent.parent / "docs" / "API.md"

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.nn.backend",
    "repro.graph",
    "repro.core",
    "repro.baselines",
    "repro.attacks",
    "repro.anomalies",
    "repro.tasks",
    "repro.metrics",
    "repro.cluster",
    "repro.outliers",
    "repro.viz",
    "repro.experiments",
    "repro.obs",
    "repro.parallel",
    "repro.resilience",
    "repro.serve",
]

#: Hand-written markdown appended after a package's generated section;
#: survives regeneration because it lives here, not in docs/API.md.
PACKAGE_NOTES = {
    "repro.nn.backend": """\
### Kernel dispatch

The training hot loops (spmm, the fused GCN layer, BCE-with-logits,
softmax, optimizer steps, per-epoch sampling) and the serving index's
GEMM and top-k each call one plain numpy function here — the engine's
historical expressions, pinned by the full-fit digests in
`tests/test_backend.py`.  Every call is counted per op; `repro profile`
prints the counts and `op_counts()` returns them as
`{op: {"fused": 0, "numpy": calls}}`.
""",
    "repro.core": """\
### Performance guide

`AnECI.fit` reuses every epoch-invariant constant through the
process-wide **fit workspace cache**: `get_workspace(graph, config)`
returns a `FitWorkspace` (normalised adjacency, high-order proximity,
modularity terms, densified reconstruction target) keyed by a
`fit_fingerprint` over the adjacency CSR arrays and the proximity/target
config knobs.  Restarts and unchanged-graph refits are cache hits;
structural mutations miss by construction.  Inspect traffic via the
`workspace.hits` / `workspace.misses` / `workspace.evictions` counters,
bound memory with `REPRO_WORKSPACE_CACHE_SIZE` (entries) and
`REPRO_WORKSPACE_DENSE_CAP` (max nodes for a dense sampled-path
target).  For a cold build, clear `workspace_cache()` or call
`workspace.build_workspace` directly.

The losses themselves run on fused single-node autograd kernels
(`repro.nn.fused_bce_with_logits`, transpose-cached `spmm`) that are
bit-exact against the historical op composition; the GCN layer is one
`repro.nn.fused_gcn_layer` node.  There is one code path per kernel:
the tests build the op-by-op references from public `Tensor` ops, and
pin fixed-seed fits by digest.

Benchmarking:

```bash
# rewrite the tracked baseline (repo-root BENCH_train.json)
PYTHONPATH=src python -m pytest benchmarks/test_perf_training.py -q
# quick CI-sized run to a scratch file
REPRO_PERF_SMOKE=1 REPRO_BENCH_OUT=/tmp/BENCH_train.json \\
  PYTHONPATH=src python -m pytest benchmarks/test_perf_training.py -q
# per-case after_s diff; exits 1 on >30% slowdown unless --warn-only
python tools/bench_compare.py BENCH_train.json /tmp/BENCH_train.json
```

Each `BENCH_train.json` case records the median cold-fit `after_s`
(`before_s` is null), per-epoch and profiled backward times, and
`repeats_identical`, which must stay true: repeated fits give
bit-identical loss histories.

### Scaling & sampled training

`AnECIConfig(train_mode="sampled")` (env `REPRO_TRAIN_MODE`, CLI
`--train-mode`) swaps the dense full-batch epoch for three unbiased
sampled estimators whose per-epoch cost depends on the sample-size
knobs, not on `n²`: a node-batch (`batch_nodes`, env
`REPRO_BATCH_NODES`) drawn per epoch; a Horvitz–Thompson subsample of
the generalised modularity (`sampled_modularity_tensor` — exact when
the batch covers the graph); an edge + k-negative reconstruction
estimator (`edge_samples`/`negative_samples`, env
`REPRO_EDGE_SAMPLES`/`REPRO_NEG_SAMPLES`) replacing the dense
σ(PPᵀ)-vs-target BCE; and a fanout-bounded neighbour-sampled GCN
forward (`fanout`, env `REPRO_FANOUT`; a fanout ≥ the maximum degree
matches the full forward to rounding, bit-exactly when the batch covers
the graph).  Sampled-mode workspaces never materialise `Ã`: each
epoch builds its batch's block from adjacency row slabs
(`FitWorkspace.recon_block`, `repro.graph.proximity.ProximityBlocks`),
and they never densify the reconstruction target
(`workspace.dense_skipped` counter +
`workspace.dense_skipped_bytes` gauge record the avoided
allocation), so 100k–1M-node graphs from
`repro.graph.sparse_dcsbm` train in memory the dense path could never
touch.  The default `train_mode="full"` path is byte-identical to
previous releases; sampled fits are themselves deterministic — same
seed ⇒ same embedding at any worker count and across backends.
`repro profile` reports the resolved train
mode plus per-epoch node/edge/negative sample counts;
`benchmarks/test_perf_scale.py` tracks full-vs-sampled wall time,
quality parity (NMI/modularity gaps ≤ 0.02) and peak memory in the
repo-root `BENCH_scale.json`.
""",
    "repro.obs": """\
### Observability guide

All instrumentation is **zero-overhead until something subscribes**: the
event bus short-circuits with no sinks, `trace.span()` returns a shared
no-op without an active tracer, and the op profiler only patches the
autograd engine between `enable()`/`disable()` — results are
bit-identical either way.

CLI integration (flags go before the subcommand):

```bash
# stream epoch/denoise/restart/span records to JSONL
python -m repro --trace run.jsonl embed --method aneci+ --n-init 3 --out z.npy
# print the per-op autograd table after any command
python -m repro --profile evaluate --task community --method aneci
# dedicated profiling run: top-k op table + span tree + op coverage
python -m repro profile --dataset cora --scale 0.25 --epochs 20 --top 10
# machine-readable: evaluate/embed/profile all accept --json
python -m repro evaluate --task classification --json
```

Library usage:

```python
from repro.obs import events, metrics, trace, profile_ops

unsubscribe = events.BUS.subscribe(events.JsonlSink("run.jsonl"))
tracer = trace.Tracer()
with trace.activate(tracer), profile_ops() as prof:
    model.fit(graph)                  # spans: fit, fit/epoch, fit/setup/...
print(tracer.report())                # aggregated wall-time tree
print(prof.report(top=10))            # per-op fwd/bwd time + FLOP estimate
print(metrics.registry().snapshot())  # counters/gauges/timers
unsubscribe()
```

Benchmarks always trace: `benchmarks/_harness.py` installs a
process-wide tracer and `save_results(name, ...)` writes the aggregated
span tree plus the metrics snapshot to
`benchmarks/results/<name>.timing.json` next to each benchmark's result
JSON, then resets both so every benchmark gets its own breakdown.

### Run ledger & exporters

Set `REPRO_RUN_DIR` (CLI: global `--run-dir`, bare form →
`.repro/runs/`) and every fit / denoise pass / experiment runner /
benchmark leaves one durable entry in an append-only **run ledger**
(JSONL segments + an atomic index, written with tmp+fsync+rename):
config fingerprint, dtype, worker count, git describe,
per-epoch loss/modularity history, final metrics, the span tree and
metric **deltas** attributable to the run, and the resilience-counter
deltas.  Entries are keyed by kind-qualified content-derived run keys
(`fit:<run key>`, `denoise:<run key>`, `exp:<name>:<graph>`,
`bench:<name>`), so re-running the same (graph, config) appends to the
same history.

```bash
python -m repro --run-dir embed --method aneci --out z.npy  # record
python -m repro obs runs list                # one line per entry
python -m repro obs show fit                 # full entry JSON
python -m repro obs diff fit                 # newest vs previous
python -m repro obs export fit --out traces/ # Chrome trace + Prometheus
python -m repro obs tail -n 5                # newest entries as JSONL
python -m repro obs regress fit --strict     # exit 3 on findings
```

`repro.obs.export` turns any span tree into Perfetto-loadable Chrome
trace-event JSON (stable path-derived `span_id`s, identical across
serial and pooled runs) and any metrics snapshot into Prometheus text
format.  `repro.obs.regress` judges each fresh entry against the
previous entry under the same key — loss-curve divergence (same key ⇒
deterministic ⇒ exact match), final-metric drops beyond
`REPRO_REGRESS_METRIC_DROP`, epoch-time ratios beyond
`REPRO_REGRESS_TIME_RATIO` (runs shorter than
`REPRO_REGRESS_MIN_SECONDS` are exempt) — emitting `regression` events
and the `obs.regressions` counter, warn-only.  `tools/bench_compare.py
--ledger DIR` extends the same idea to tracked `BENCH_*.json`
benchmarks, judging each payload against the median of its recorded
history.
""",
    "repro.parallel": """\
### Parallelism guide

`ParallelExecutor` maps **pure, picklable task functions** over a
`ProcessPoolExecutor` with deterministic semantics: each task gets an
explicitly derived seed, results are merged in task-index order, and
ties (e.g. equal restart modularities) break toward the lowest index —
so any worker count produces **bit-identical** output to a serial run.
Worker counts resolve as explicit argument > `REPRO_WORKERS` env var >
1 (serial); `"auto"`/`0` means `os.cpu_count()`, and unparsable or
negative values warn and fall back to serial.

Failure policy: a task's own exception always propagates, but
pool-level failures (a crashed child, an unpicklable task, a missing
`os.fork`) emit a `RuntimeWarning` plus a `parallel_fallback` event and
re-run every task serially — parallelism is an optimisation, never a
way to lose a run.

Consumers already wired in: `AnECI.fit(..., workers=N)` fans out
`n_init` restarts (the winner is re-materialised in the parent, and a
per-restart `restart` event is emitted either way);
`grid_search_aneci(..., workers=N)` fans out trials;
`experiments.runners.run_*` sweeps parallelise their outer axis; the
benchmark harness (`benchmarks/_harness.py`) opts in via
`REPRO_WORKERS`.  The CLI exposes all of this through the global
`--workers N` flag.

Telemetry crosses the process boundary: each worker captures its
`repro.obs` events, metrics and spans into a `ChildTelemetry` snapshot
that the parent replays in task order, so `--trace`/`--profile` output
is identical at any worker count.  Two things to know: the fit
workspace cache is per-process, so every worker rebuilds (cheaply, by
fingerprint) its own workspace; and nested parallelism is clamped —
`resolve_workers` returns 1 inside a pool worker.

```bash
REPRO_WORKERS=4 python -m repro embed --method aneci --n-init 8 --out z.npy
python -m repro --workers 4 experiment --name classification
# tracked benchmark: serial vs parallel medians + equivalence hash
PYTHONPATH=src python -m pytest benchmarks/test_perf_parallel.py -q
python tools/bench_compare.py BENCH_parallel.json /tmp/BENCH_parallel.json
```
""",
    "repro.resilience": """\
### Resilience guide

Training has no recovery path: every fit this project runs takes
seconds, so rerunning a failed fit is cheaper than resuming it.  Each
epoch of `AnECI._fit_once` checks its loss and every parameter gradient
for finiteness, in both train modes, and a non-finite value raises
`repro.DivergenceError` naming the epoch and the restart before the
optimizer steps.

**Deterministic fault injection.**  `REPRO_FAULTS` (or
`faultinject.injected(...)` in tests) installs a plan of seeded faults —
`worker_crash@task=1,attempt=0`, `timeout@task=2,s=5` in the process
pool; `slow_index`, `index_error`, `queue_overflow` and
`shard_corrupt_read` in the serving layer, e.g.
`slow_index@p=0.2,seed=7,s=0.3` — that fire at exactly the same points
every run, pool workers included.  Every firing emits a
`fault_injected` event and bumps `faults.injected`, so chaos runs audit
themselves.  CI's chaos-smoke leg runs the critical tests under
worker-crash injection and drives the serving guards through injected
faults; `tests/test_resilience.py` holds the contract.
""",
    "repro.serve": """\
### Serving guide

`AnECI.export_serving(dir)` / `AnECIPlus.export_serving(dir)` publish a
fitted model — float32 embeddings plus softmax memberships — into a
versioned store under `dir/versions/<run key>/`, written atomically and
BLAKE2b-checksummed; `EmbeddingStore.load()` maps the newest usable
version back read-only (`np.load(mmap_mode="r")`), warning and falling
back past a corrupt head to the previous version.

`ExactIndex(store)` answers exact cosine k-NN with a deterministic
total order (score descending, then node id ascending) and a
bit-identity contract between batched and serial queries: it probes
once whether BLAS GEMM columns equal per-query GEMV bit-for-bit and
scores one GEMV per query if not.

The asyncio server micro-batches requests inside
`REPRO_SERVE_BATCH_WINDOW_MS` (mixed `k`s batch at `max(k)` and trim —
sound because ranking is a total order), caches results in an LRU keyed
by `(store version, query)` (`REPRO_SERVE_CACHE`; a `/reload` bumps the
version so stale hits are structurally impossible), and records p50/p99
latency, hit rate and batch occupancy into `repro.obs` metrics and the
run ledger.

The guard (`repro.serve.guard`) hardens that front end for production:
admission is bounded (`REPRO_SERVE_QUEUE`; overflow sheds `503` +
`Retry-After` + `serve.shed`), bodies over `REPRO_SERVE_MAX_BODY` are
refused with `413` before they are read, every request carries a
deadline (`REPRO_SERVE_DEADLINE_MS`; breach answers `504`), and a
`CircuitBreaker` steps the backend down `exact → cache-only`
after `REPRO_SERVE_BREAKER_THRESHOLD` consecutive failures, probing
half-open every `REPRO_SERVE_BREAKER_COOLDOWN_MS` until it recovers.
`/healthz` reports `ok|degraded|draining` (non-200 when not ok);
`stop()` / SIGTERM drains gracefully within
`REPRO_SERVE_DRAIN_TIMEOUT_MS`.  Chaos hooks (`slow_index`,
`index_error`, `queue_overflow`, `shard_corrupt_read` via
`REPRO_FAULTS`) drive the whole ladder deterministically in tests, the
`chaos_degrade_25k` benchmark case, and `tools/serve_chaos_smoke.py`;
`retry_call`/`backoff_delays` give clients (`repro serve query
--retries`, the load generator) deterministic jittered backoff.  With
no faults none of this perturbs the batched==serial bit-identity
contract.

```bash
python -m repro serve export --dataset cora --epochs 100 --store ./store
python -m repro serve query --store ./store --node 7 -k 10 --json
python -m repro serve run --store ./store --port 8707
# tracked benchmark: throughput, recall, cached-argmax, 100k-store
# memory, chaos degradation + recovery
PYTHONPATH=src python -m pytest benchmarks/test_perf_serve.py -q
python tools/bench_compare.py BENCH_serve.json /tmp/BENCH_serve.json
PYTHONPATH=src python tools/serve_chaos_smoke.py
```
""",
}


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0]


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def document_package(name: str) -> list[str]:
    module = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    summary = first_line(module)
    if summary:
        lines += [summary, ""]
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        obj = getattr(module, symbol, None)
        if obj is None or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            lines.append(f"### class `{symbol}{signature_of(obj)}`")
            lines.append("")
            if first_line(obj):
                lines += [first_line(obj), ""]
            methods = [
                (m_name, m) for m_name, m in inspect.getmembers(obj)
                if not m_name.startswith("_")
                and (inspect.isfunction(m) or inspect.ismethod(m))
            ]
            for m_name, m in methods:
                desc = first_line(m)
                entry = f"- `{m_name}{signature_of(m)}`"
                if desc:
                    entry += f" — {desc}"
                lines.append(entry)
            if methods:
                lines.append("")
        elif callable(obj):
            lines.append(f"### `{symbol}{signature_of(obj)}`")
            lines.append("")
            if first_line(obj):
                lines += [first_line(obj), ""]
        else:
            lines.append(f"### `{symbol}` (constant)")
            lines.append("")
    notes = PACKAGE_NOTES.get(name)
    if notes:
        lines += [notes, ""]
    lines.append("")
    return lines


def main(out: Path | None = None) -> Path:
    """Write the API reference to ``out`` (default: the tracked
    ``docs/API.md``) and return its path."""
    lines = ["# API reference", "",
             "Auto-generated by `tools/gen_api_docs.py`; regenerate after "
             "changing any public signature.", ""]
    for package in PACKAGES:
        lines += document_package(package)
    out = Path(out) if out is not None else DEFAULT_OUT
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines))
    print(f"wrote {out} ({len(lines)} lines)")
    return out


if __name__ == "__main__":
    main()

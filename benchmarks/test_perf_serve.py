"""Tracked serving-layer benchmark (``repro.serve``).

Five cases feed the tracked ``BENCH_serve.json`` at the repo root
(override the path with ``REPRO_BENCH_SERVE_OUT``):

* ``serve_cached_25k`` — closed-loop load generator against the async
  front end with the LRU enabled, cycling a small hot set of
  ``similar_nodes`` queries over a 25k-node community-structured store.
  The throughput gate requires ≥ 1000 req/s unless the host is
  ``hardware_limited`` (a single core).
* ``serve_uncached_25k`` — the same front end with the cache disabled
  and every request distinct: the honest per-query cost of the blocked
  exact k-NN scan, batched by the micro-batching window.
* ``argmax_cache_micro`` — the cached-argmax satellite: first
  ``communities()`` call pays the blocked argmax, every later
  ``same_community`` lookup reuses it.  ``after_s`` is the amortised
  cached cost; the gate asserts it beats the cold cost.
* ``mmap_100k`` — serving queries from a 100k × 128 store must stream
  from the memory map: the tracemalloc peak across load + norms +
  argmax + queries stays under half the full embedding matrix, and the
  exact top-k of its queries matches a dense float64 brute force.
* ``chaos_degrade_25k`` — the guard under probabilistic ``slow_index``
  / ``index_error`` faults: the retrying load generator must see only
  ``200``/``503``/``504`` answers, the breaker must register the
  faults, and once they stop the server must probe its way back to
  ``ok``.

``hardware_limited`` is honest: absolute req/s on a single core is
pessimistic; the exactness, caching and memory gates do not
depend on it.  ``REPRO_PERF_SMOKE=1`` shrinks every case for CI smoke
legs (throughput/memory gates are skipped — the shrunken stores are too
small to be meaningful).

Run with: ``PYTHONPATH=src python -m pytest benchmarks/test_perf_serve.py -q``
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.resilience import faultinject
from repro.serve import EmbeddingServer, EmbeddingStore, ExactIndex
from repro.serve.server import load_generator

SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") == "1"
OUT_PATH = Path(os.environ.get(
    "REPRO_BENCH_SERVE_OUT",
    Path(__file__).resolve().parent.parent / "BENCH_serve.json"))

#: One core makes absolute req/s pessimistic; the exactness,
#: cache-correctness and memory gates are hardware-independent.
HARDWARE_LIMITED = (os.cpu_count() or 1) <= 1

#: name -> store/load spec.  ``mmap_100k`` gets its own wide store; the
#: other cases share one.
MAIN_NODES = 2_000 if SMOKE else 25_000
CASES = {
    "serve_cached_25k": dict(
        requests=300 if SMOKE else 4000, hot_set=32, concurrency=16),
    "serve_uncached_25k": dict(
        requests=100 if SMOKE else 400, concurrency=8),
    "argmax_cache_micro": dict(lookups=200 if SMOKE else 2000),
    "mmap_100k": dict(
        nodes=8_000 if SMOKE else 100_000, dim=128,
        queries=5 if SMOKE else 20),
    "chaos_degrade_25k": dict(
        requests=80 if SMOKE else 400, concurrency=8),
}

_RESULTS: dict[str, dict] = {}
_STORES: dict[str, object] = {}
_TMP = tempfile.TemporaryDirectory(prefix="bench-serve-")


def clustered_store(name, nodes, dim, communities, seed):
    """Publish (once) and mmap-load a blob-clustered store."""
    if name not in _STORES:
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((communities, dim)) * 4.0
        labels = rng.integers(0, communities, size=nodes)
        emb = np.empty((nodes, dim), dtype=np.float32)
        step = 16_384  # build blockwise so the benchmark itself stays lean
        for start in range(0, nodes, step):
            stop = min(start + step, nodes)
            emb[start:stop] = (centers[labels[start:stop]]
                               + rng.standard_normal((stop - start, dim)))
        memb = np.full((nodes, communities), 0.02, dtype=np.float32)
        memb[np.arange(nodes), labels] = 1.0
        memb /= memb.sum(axis=1, keepdims=True)
        directory = os.path.join(_TMP.name, name)
        EmbeddingStore(directory).publish(emb, memb, "bench-v1")
        _STORES[name] = EmbeddingStore(directory).load()
    return _STORES[name]


def main_store():
    return clustered_store("main", MAIN_NODES, 64, 10, seed=11)


def store_dir(store):
    return store.directory


async def _drive(directory, paths, requests, concurrency, cache_size):
    server = EmbeddingServer(directory, cache_size=cache_size)
    await server.start()
    report = await load_generator("127.0.0.1", server.port, paths,
                                  requests, concurrency=concurrency)
    stats = server.stats()
    await server.stop()
    return report, stats


def run_cached(name):
    spec = CASES[name]
    store = main_store()
    paths = [f"/similar?node={node}&k=10"
             for node in range(0, spec["hot_set"] * 7, 7)]
    report, stats = asyncio.run(_drive(
        store_dir(store), paths, spec["requests"], spec["concurrency"],
        cache_size=4096))
    result = {
        "case": name,
        "nodes": store.num_nodes,
        "dim": store.dim,
        "requests": report["requests"],
        "concurrency": report["concurrency"],
        "hot_set": spec["hot_set"],
        "before_s": None,
        "after_s": round(report["elapsed_s"] / report["requests"], 6),
        "rps": round(report["rps"], 1),
        "p50_ms": report["p50_ms"],
        "p99_ms": report["p99_ms"],
        "cache_hit_rate": round(stats["cache"]["hit_rate"], 4),
        "batch_occupancy_mean": stats["batch"]["occupancy_mean"],
        "statuses": {str(k): v for k, v in report["statuses"].items()},
        "hardware_limited": HARDWARE_LIMITED,
    }
    _RESULTS[name] = result
    print(f"\n[{name}] rps={result['rps']} p50={result['p50_ms']}ms "
          f"p99={result['p99_ms']}ms hit_rate={result['cache_hit_rate']}")
    return result


def run_uncached(name):
    spec = CASES[name]
    store = main_store()
    # Every request distinct -> zero cache hits even if a cache existed.
    paths = [f"/similar?node={node}&k=10" for node in range(spec["requests"])]
    report, stats = asyncio.run(_drive(
        store_dir(store), paths, spec["requests"], spec["concurrency"],
        cache_size=0))
    result = {
        "case": name,
        "nodes": store.num_nodes,
        "dim": store.dim,
        "requests": report["requests"],
        "concurrency": report["concurrency"],
        "before_s": None,
        "after_s": round(report["elapsed_s"] / report["requests"], 6),
        "rps": round(report["rps"], 1),
        "p50_ms": report["p50_ms"],
        "p99_ms": report["p99_ms"],
        "batch_occupancy_mean": stats["batch"]["occupancy_mean"],
        "statuses": {str(k): v for k, v in report["statuses"].items()},
        "hardware_limited": HARDWARE_LIMITED,
    }
    _RESULTS[name] = result
    print(f"\n[{name}] rps={result['rps']} p50={result['p50_ms']}ms "
          f"occupancy={result['batch_occupancy_mean']}")
    return result


def run_argmax_micro(name):
    spec = CASES[name]
    store = main_store()
    store._communities = None  # force the cold path
    start = time.perf_counter()
    store.communities()
    cold_s = time.perf_counter() - start

    index = ExactIndex(store)
    rng = np.random.default_rng(17)
    nodes = rng.integers(0, store.num_nodes, size=spec["lookups"])
    start = time.perf_counter()
    hits = sum(int(store.communities()[node]) >= 0 for node in nodes)
    cached_total = time.perf_counter() - start
    assert hits == spec["lookups"]
    # One full community query, to show the cached argmax feeding it.
    start = time.perf_counter()
    index.same_community(int(nodes[0]), 10)
    query_s = time.perf_counter() - start

    cached_s = cached_total / spec["lookups"]
    result = {
        "case": name,
        "nodes": store.num_nodes,
        "lookups": spec["lookups"],
        "before_s": round(cold_s, 6),
        "after_s": round(cached_s, 9),
        "speedup": round(cold_s / max(cached_s, 1e-12), 1),
        "community_query_s": round(query_s, 6),
        "hardware_limited": HARDWARE_LIMITED,
    }
    _RESULTS[name] = result
    print(f"\n[{name}] cold_argmax={cold_s * 1e3:.2f}ms "
          f"cached_lookup={cached_s * 1e9:.0f}ns x{result['speedup']}")
    return result


def mmap_store_and_queries():
    """The ``mmap_100k`` store and its query nodes."""
    spec = CASES["mmap_100k"]
    store = clustered_store("wide", spec["nodes"], spec["dim"], 10, seed=19)
    rng = np.random.default_rng(23)
    return store, rng.integers(0, store.num_nodes, size=spec["queries"])


def run_mmap(name):
    spec = CASES[name]
    store, nodes = mmap_store_and_queries()
    matrix_bytes = spec["nodes"] * spec["dim"] * 4  # float32 on disk

    # Fresh mmap so previously touched pages/caches don't hide a full
    # materialisation; small blocks keep the scan buffers bounded.
    fresh = EmbeddingStore(store_dir(store)).load()
    tracemalloc.start()
    index = ExactIndex(fresh, block_rows=4096)
    per_query = []
    for node in nodes:
        t0 = time.perf_counter()
        index.similar_nodes(int(node), 10)
        per_query.append(time.perf_counter() - t0)
    fresh.communities()
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    result = {
        "case": name,
        "nodes": spec["nodes"],
        "dim": spec["dim"],
        "queries": spec["queries"],
        "before_s": None,
        "after_s": round(statistics.median(per_query), 6),
        "peak_bytes": int(peak_bytes),
        "matrix_bytes": int(matrix_bytes),
        "matrix_to_peak_ratio": round(matrix_bytes / max(peak_bytes, 1), 2),
        "hardware_limited": HARDWARE_LIMITED,
    }
    _RESULTS[name] = result
    print(f"\n[{name}] n={spec['nodes']} per_query="
          f"{result['after_s'] * 1e3:.1f}ms peak={peak_bytes / 1e6:.1f}MB "
          f"(full matrix {matrix_bytes / 1e6:.1f}MB)")
    return result


def run_chaos(name):
    spec = CASES[name]
    store = main_store()
    paths = [f"/similar?node={node}&k=10" for node in range(0, 128, 2)]
    # Seeds chosen so both kinds fire within the first handful of batch
    # calls — a smoke-sized run coalesces into few batches, and each
    # batch is exactly one injection-point call.
    plan = "slow_index@p=0.2,seed=6,s=0.3;index_error@p=0.15,seed=6"

    async def drive():
        # cache off + small batches: every request pays an index call,
        # so the fault schedule above is actually reached.
        server = EmbeddingServer(store_dir(store), cache_size=0,
                                 max_batch=8, deadline_ms=250,
                                 breaker_threshold=3,
                                 breaker_cooldown_ms=150)
        await server.start()
        with faultinject.injected(plan):
            report = await load_generator(
                "127.0.0.1", server.port, paths, spec["requests"],
                concurrency=spec["concurrency"], retries=3,
                backoff_base_s=0.02, backoff_cap_s=0.2)
        # Faults off: probe traffic walks the ladder back up to ok.
        recovered = server.health_status() == "ok"
        for _ in range(60):
            if recovered:
                break
            await load_generator("127.0.0.1", server.port, paths[:1], 3,
                                 concurrency=1, retries=0)
            recovered = server.health_status() == "ok"
            await asyncio.sleep(0.1)
        g = server.stats()["guard"]
        await server.stop()
        return report, g, recovered

    report, g, recovered = asyncio.run(drive())
    result = {
        "case": name,
        "nodes": store.num_nodes,
        "dim": store.dim,
        "requests": report["requests"],
        "concurrency": report["concurrency"],
        "before_s": None,
        "after_s": round(report["elapsed_s"] / report["requests"], 6),
        "rps": round(report["rps"], 1),
        "p50_ms": report["p50_ms"],
        "p99_ms": report["p99_ms"],
        "statuses": {str(k): v for k, v in report["statuses"].items()},
        "client_retries": report["retries"],
        "client_gave_up": report["gave_up"],
        "shed": g["shed"]["total"],
        "deadline_timeouts": g["deadline_timeouts"],
        "breaker_failures": g["breaker"]["failures"],
        "breaker_trips": g["breaker"]["trips"],
        "recovered": recovered,
        "hardware_limited": HARDWARE_LIMITED,
    }
    _RESULTS[name] = result
    print(f"\n[{name}] rps={result['rps']} statuses={result['statuses']} "
          f"retries={result['client_retries']} "
          f"breaker_failures={result['breaker_failures']} "
          f"recovered={recovered}")
    return result


_RUNNERS = {
    "serve_cached_25k": run_cached,
    "serve_uncached_25k": run_uncached,
    "argmax_cache_micro": run_argmax_micro,
    "mmap_100k": run_mmap,
    "chaos_degrade_25k": run_chaos,
}


def run_case(name):
    if name not in _RESULTS:
        _RUNNERS[name](name)
    return _RESULTS[name]


@pytest.mark.parametrize("name", list(CASES))
def test_case_runs(name):
    result = run_case(name)
    assert result["after_s"] > 0


def test_cached_throughput_gate():
    result = run_case("serve_cached_25k")
    assert result["statuses"] == {"200": result["requests"]}
    # At most one miss per hot-set path; everything else must hit.
    floor = 1.0 - result["hot_set"] / result["requests"]
    assert result["cache_hit_rate"] >= floor - 1e-3
    if not SMOKE:
        assert result["cache_hit_rate"] > 0.9
        # ≥ 1000 req/s on real hardware; recorded-but-waived on a
        # single core (hardware_limited is honest).
        assert result["rps"] >= 1000 or HARDWARE_LIMITED


def test_argmax_cache_gate():
    result = run_case("argmax_cache_micro")
    # The amortised cached lookup must beat recomputing the argmax.
    assert result["after_s"] < result["before_s"]


@pytest.mark.skipif(SMOKE, reason="memory gate needs the full-size store")
def test_mmap_never_materialises_matrix():
    result = run_case("mmap_100k")
    # Serving must stream: stay under half the full embedding matrix.
    assert result["peak_bytes"] < result["matrix_bytes"] / 2


def test_exact_matches_float64_oracle():
    """The blocked scan's top-k equals a dense float64 brute force over
    the whole ``mmap_100k`` matrix: the same ids, and scores equal up
    to summation order (one full-matrix GEMV vs one per row block)."""
    run_case("mmap_100k")  # the dense copy below stays out of its peak
    store, nodes = mmap_store_and_queries()
    index = ExactIndex(store, block_rows=4096)
    normed = np.asarray(store.embeddings, dtype=np.float64)
    normed /= store.norms()[:, None]
    ids = np.arange(store.num_nodes)
    for node in nodes.tolist():
        query = store.normalized_rows(np.array([node]))[0]
        (got_ids, got_scores), = index.query_vectors(query, 10,
                                                     exclude=[node])
        scores = normed @ (query / np.linalg.norm(query))
        order = np.lexsort((ids, -scores))
        order = order[order != node][:10]
        assert np.array_equal(got_ids, order)
        assert np.abs(got_scores - scores[order]).max() <= 1e-12


def test_chaos_degrade_gate():
    result = run_case("chaos_degrade_25k")
    # Faults never surface as wrong or mystery answers: every request
    # ends shed (503), timed out (504) or correctly answered (200).
    assert set(result["statuses"]) <= {"200", "503", "504"}
    assert result["statuses"].get("200", 0) > 0
    # The injected faults actually bit...
    assert result["breaker_failures"] > 0
    # ...and the breaker probed its way back once they stopped.
    assert result["recovered"] is True


def test_write_results():
    """Aggregate every case into the tracked benchmark file (runs last)."""
    for name in CASES:
        run_case(name)
    payload = {
        "benchmark": "serve_layer",
        "smoke": SMOKE,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "hardware_limited": HARDWARE_LIMITED,
        "cases": [_RESULTS[name] for name in CASES],
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")

"""Tracked full-vs-sampled scaling benchmark (``train_mode="sampled"``).

Two kinds of cases feed the tracked ``BENCH_scale.json`` at the repo
root (override the path with ``REPRO_BENCH_SCALE_OUT``):

* ``parity_2k`` — a 2000-node DC-SBM small enough for the dense
  full-batch path.  Fits the same model through both train modes and
  records wall time (``before_s`` = full, ``after_s`` = sampled) plus
  the *quality parity evidence*: NMI against planted labels and Newman
  modularity of the recovered communities for each mode.  The hard gate
  (full-size runs only) is that both quality gaps stay ≤ 0.02 — the
  sampled estimators must not cost accuracy where both modes fit.
* ``scale_25k`` / ``scale_100k`` — DC-SBMs the dense path cannot touch
  (a 100k-node dense target alone is ~80 GB, recorded per case as
  ``dense_bytes_estimate``).  Sampled-only: ``after_s`` is the marginal
  *per-epoch* wall time with a warm workspace, ``before_s`` is null
  because there is no full-batch contender, and ``peak_bytes`` is the
  tracemalloc high-water mark of a training fit.  The sublinearity gate
  checks that per-epoch time grows far slower than the 16× a quadratic
  epoch would show between 25k and 100k nodes.

``hardware_limited`` is true on a single core, where absolute timings
are pessimistic; the parity and sublinearity gates do not depend on
it.  ``REPRO_PERF_SMOKE=1`` shrinks every
case for CI smoke legs (quality/sublinearity gates are skipped — the
shrunken graphs are too small to be meaningful).

Run with: ``PYTHONPATH=src python -m pytest benchmarks/test_perf_scale.py -q``
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import AnECI, workspace_cache
from repro.graph.generators import sparse_dcsbm
from repro.metrics import newman_modularity, normalized_mutual_info
from repro.nn.autograd import clear_transpose_cache

SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") == "1"
REPEATS = 1 if SMOKE else int(os.environ.get("REPRO_PERF_REPEATS", "3"))
OUT_PATH = Path(os.environ.get(
    "REPRO_BENCH_SCALE_OUT",
    Path(__file__).resolve().parent.parent / "BENCH_scale.json"))

#: One core makes the absolute numbers pessimistic; the parity and
#: sublinearity gates are hardware-independent.
HARDWARE_LIMITED = (os.cpu_count() or 1) <= 1

SAMPLED = dict(train_mode="sampled", batch_nodes=4096, edge_samples=8192,
               negative_samples=5, fanout=10)

#: name -> DC-SBM spec.  ``parity_2k`` runs both modes; scale cases are
#: sampled-only (their dense target would not fit in memory).
CASES = {
    "parity_2k": dict(
        nodes=400 if SMOKE else 2000, communities=4, avg_degree=16.0,
        mixing=0.02, num_features=64, seed=3,
        epochs=6 if SMOKE else 30, modes=("full", "sampled")),
    "scale_25k": dict(
        nodes=3_000 if SMOKE else 25_000, communities=10, avg_degree=10.0,
        mixing=0.1, num_features=64, seed=5,
        epochs=2 if SMOKE else 5, modes=("sampled",)),
    "scale_100k": dict(
        nodes=8_000 if SMOKE else 100_000, communities=10, avg_degree=10.0,
        mixing=0.1, num_features=64, seed=7,
        epochs=2 if SMOKE else 5, modes=("sampled",)),
}

_RESULTS: dict[str, dict] = {}
_GRAPHS: dict[str, object] = {}


def build_graph(name):
    if name not in _GRAPHS:
        spec = CASES[name]
        _GRAPHS[name] = sparse_dcsbm(
            spec["nodes"], spec["communities"],
            np.random.default_rng(spec["seed"]),
            avg_degree=spec["avg_degree"], mixing=spec["mixing"],
            num_features=spec["num_features"])
    return _GRAPHS[name]


def reset_caches():
    workspace_cache().clear()
    clear_transpose_cache()


def make_model(graph, mode, epochs):
    overrides = dict(SAMPLED) if mode == "sampled" else {}
    return AnECI(graph.num_features, num_communities=graph.num_classes,
                 epochs=epochs, lr=0.05, seed=0, **overrides)


def quality(graph, model):
    communities = model.assign_communities()
    return (normalized_mutual_info(graph.labels, communities),
            newman_modularity(graph.adjacency, communities))


def run_parity(name):
    """Both modes, cold fits, quality parity + wall-time comparison."""
    spec = CASES[name]
    graph = build_graph(name)
    times = {"full": [], "sampled": []}
    models = {}
    for _ in range(REPEATS):
        for mode in spec["modes"]:
            reset_caches()
            model = make_model(graph, mode, spec["epochs"])
            start = time.perf_counter()
            model.fit(graph)
            times[mode].append(time.perf_counter() - start)
            models[mode] = model

    nmi_full, mod_full = quality(graph, models["full"])
    nmi_sampled, mod_sampled = quality(graph, models["sampled"])
    before_s = statistics.median(times["full"])
    after_s = statistics.median(times["sampled"])
    result = {
        "case": name,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "epochs": spec["epochs"],
        "repeats": REPEATS,
        "before_s": round(before_s, 4),
        "after_s": round(after_s, 4),
        "speedup": round(before_s / after_s, 3),
        "nmi_full": round(nmi_full, 4),
        "nmi_sampled": round(nmi_sampled, 4),
        "modularity_full": round(mod_full, 4),
        "modularity_sampled": round(mod_sampled, 4),
        "nmi_gap": round(abs(nmi_full - nmi_sampled), 4),
        "modularity_gap": round(abs(mod_full - mod_sampled), 4),
        "hardware_limited": HARDWARE_LIMITED,
    }
    _RESULTS[name] = result
    print(f"\n[{name}] full={before_s:.2f}s sampled={after_s:.2f}s "
          f"speedup={result['speedup']:.2f}x nmi_gap={result['nmi_gap']} "
          f"modularity_gap={result['modularity_gap']}")
    return result


def run_scale(name):
    """Sampled-only: per-epoch marginal time + training peak memory."""
    spec = CASES[name]
    graph = build_graph(name)
    n = graph.num_nodes

    # Cold 1-epoch fit: workspace/proximity build lands in the cache
    # (and in ``setup_s``), so the timed fits below measure epochs only.
    reset_caches()
    start = time.perf_counter()
    make_model(graph, "sampled", 1).fit(graph)
    setup_s = time.perf_counter() - start

    # Peak memory of a warm training fit (tracemalloc slows the run, so
    # it gets its own fit and is excluded from the timed medians).
    tracemalloc.start()
    make_model(graph, "sampled", 2).fit(graph)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    per_epoch = []
    for _ in range(REPEATS):
        model = make_model(graph, "sampled", spec["epochs"])
        start = time.perf_counter()
        model.fit(graph)
        per_epoch.append((time.perf_counter() - start) / spec["epochs"])

    after_s = statistics.median(per_epoch)
    dense_bytes = float(n) * float(n) * 8
    result = {
        "case": name,
        "nodes": n,
        "edges": graph.num_edges,
        "epochs": spec["epochs"],
        "repeats": REPEATS,
        "before_s": None,
        "after_s": round(after_s, 4),
        "setup_s": round(setup_s, 4),
        "peak_bytes": int(peak_bytes),
        "dense_bytes_estimate": int(dense_bytes),
        "dense_to_peak_ratio": round(dense_bytes / max(peak_bytes, 1), 1),
        "samples_per_epoch": dict(SAMPLED),
        "hardware_limited": HARDWARE_LIMITED,
    }
    _RESULTS[name] = result
    print(f"\n[{name}] n={n} per_epoch={after_s:.3f}s setup={setup_s:.2f}s "
          f"peak={peak_bytes / 1e6:.0f}MB "
          f"(dense target would be {dense_bytes / 1e9:.1f}GB)")
    return result


def run_case(name):
    if name in _RESULTS:
        return _RESULTS[name]
    modes = CASES[name]["modes"]
    if "full" in modes:
        return run_parity(name)
    return run_scale(name)


@pytest.mark.parametrize("name", list(CASES))
def test_case_runs(name):
    result = run_case(name)
    assert result["after_s"] > 0


@pytest.mark.skipif(SMOKE, reason="quality gate needs full-size cases")
def test_parity_within_tolerance():
    result = run_case("parity_2k")
    # The sampled estimators must reach full-batch quality, not merely
    # match a degenerate outcome — require real community recovery too.
    assert result["nmi_full"] > 0.8
    assert result["nmi_gap"] <= 0.02
    assert result["modularity_gap"] <= 0.02


@pytest.mark.skipif(SMOKE, reason="scaling gate needs full-size cases")
def test_per_epoch_cost_is_sublinear():
    small = run_case("scale_25k")
    large = run_case("scale_100k")
    # 25k -> 100k is 4x the nodes: a dense epoch would be ~16x slower,
    # a linear one 4x.  The sampled epoch is dominated by fixed sample
    # sizes, so allow generous noise but stay clearly below quadratic.
    assert large["after_s"] / small["after_s"] < 8.0
    # Memory: the sampled path must never approach the dense target.
    assert large["peak_bytes"] < large["dense_bytes_estimate"] / 10


def test_write_results():
    """Aggregate every case into the tracked benchmark file (runs last)."""
    for name in CASES:
        run_case(name)
    payload = {
        "benchmark": "aneci_scale_sampled_vs_full",
        "smoke": SMOKE,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "hardware_limited": HARDWARE_LIMITED,
        "cases": [_RESULTS[name] for name in CASES],
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")

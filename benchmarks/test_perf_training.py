"""Tracked benchmark of the AnECI training hot path.

Times cold :meth:`AnECI.fit` runs (workspace and transpose caches
cleared before each) per case and records the median as ``after_s``.
``before_s`` is null: there is no second engine to time against.  Each
case's correctness gate is that its repeats give bit-identical loss
histories; the equivalence with the engine from before the fused
kernels and caches is pinned by digest in ``tests/test_perf_layer.py``.

Results land in ``BENCH_train.json`` at the repo root (override with
``REPRO_BENCH_OUT``); compare two result files with
``python tools/bench_compare.py``.  ``REPRO_PERF_SMOKE=1`` shrinks every
case for CI smoke runs.

Run with: ``PYTHONPATH=src python -m pytest benchmarks/test_perf_training.py -q``
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import AnECI, workspace_cache
from repro.graph.generators import planted_partition
from repro.nn.autograd import clear_transpose_cache
from repro.obs.profile import profile_ops

SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") == "1"
REPEATS = 1 if SMOKE else int(os.environ.get("REPRO_PERF_REPEATS", "3"))
OUT_PATH = Path(os.environ.get(
    "REPRO_BENCH_OUT", Path(__file__).resolve().parent.parent / "BENCH_train.json"))

#: name -> (graph kwargs, model overrides).  ``epochs``/sizes shrink in
#: smoke mode.
CASES = {
    "small_full": dict(
        communities=3, size=12 if SMOKE else 40, p_in=0.6, p_out=0.05,
        num_features=32, epochs=10 if SMOKE else 40, n_init=1, order=2),
    "medium_full": dict(
        communities=4, size=60 if SMOKE else 250, p_in=0.3, p_out=0.02,
        num_features=48, epochs=5 if SMOKE else 20, n_init=1, order=2),
    "medium_full_n_init3": dict(
        communities=4, size=60 if SMOKE else 250, p_in=0.3, p_out=0.02,
        num_features=48, epochs=5 if SMOKE else 30, n_init=3, order=2),
    "medium_sampled": dict(
        communities=4, size=60 if SMOKE else 250, p_in=0.3, p_out=0.02,
        num_features=48, epochs=5 if SMOKE else 20, n_init=1, order=2,
        recon_sample_size=48 if SMOKE else 300),
}

_RESULTS: dict[str, dict] = {}


def build_case(name):
    spec = dict(CASES[name])
    graph = planted_partition(
        spec.pop("communities"), spec.pop("size"), spec.pop("p_in"),
        spec.pop("p_out"), np.random.default_rng(1),
        num_features=spec.pop("num_features"))
    overrides = dict(lr=0.02, seed=0, **spec)
    return graph, overrides


def make_model(graph, overrides):
    return AnECI(graph.num_features,
                 num_communities=graph.num_classes, **overrides)


def reset_caches():
    workspace_cache().clear()
    clear_transpose_cache()


def timed_fit(graph, overrides):
    """One cold fit (caches cleared)."""
    reset_caches()
    model = make_model(graph, overrides)
    start = time.perf_counter()
    model.fit(graph)
    elapsed = time.perf_counter() - start
    return elapsed, model


def profiled_backward_seconds(graph, overrides):
    """Backward-pass wall time of one fit, via the op profiler."""
    reset_caches()
    model = make_model(graph, overrides)
    with profile_ops() as prof:
        model.fit(graph)
    return sum(s.backward_s for s in prof.stats.values())


def run_case(name):
    graph, overrides = build_case(name)
    # Warm the allocator/import costs outside the timed region.
    timed_fit(graph, {**overrides, "epochs": 2, "n_init": 1})

    times, histories = [], []
    for _ in range(REPEATS):
        elapsed, model = timed_fit(graph, overrides)
        times.append(elapsed)
        histories.append([record["loss"] for record in model.history])

    epochs_run = len(model.history) * overrides.get("n_init", 1)
    after_s = statistics.median(times)
    result = {
        "case": name,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "config": {k: v for k, v in overrides.items()},
        "repeats": REPEATS,
        "before_s": None,
        "after_s": round(after_s, 4),
        "epoch_after_s": round(after_s / epochs_run, 5),
        "backward_after_s": round(
            profiled_backward_seconds(graph, overrides), 4),
        "repeats_identical": all(h == histories[0] for h in histories),
    }
    _RESULTS[name] = result
    print(f"\n[{name}] after={after_s:.3f}s "
          f"epoch={result['epoch_after_s'] * 1e3:.2f}ms")
    return result


@pytest.mark.parametrize("name", list(CASES))
def test_case_deterministic(name):
    # Timings are recorded, not gated in-test (shared-machine noise);
    # compare two result files with tools/bench_compare.py.
    assert run_case(name)["repeats_identical"]


def test_write_results():
    """Aggregate every case into the tracked benchmark file (runs last)."""
    missing = [name for name in CASES if name not in _RESULTS]
    for name in missing:
        run_case(name)
    payload = {
        "benchmark": "aneci_training_hot_path",
        "smoke": SMOKE,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "cases": [_RESULTS[name] for name in CASES],
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")

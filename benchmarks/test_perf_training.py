"""Tracked before/after benchmark of the AnECI training hot path.

Times full :meth:`AnECI.fit` runs twice per case — once in *reference*
mode, which faithfully re-enacts the pre-overhaul implementation
(workspace rebuilt per fit, op-by-op BCE composition, per-call spmm
transposes, reference-cycle graph nodes), and once on the optimised
path.  Both modes produce bit-identical loss histories, which each case
re-asserts, so the timings compare identical numerical work.

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
from repro.core.workspace import cache_disabled
from repro.graph.generators import planted_partition
from repro.nn import functional as F
from repro.nn.autograd import (clear_transpose_cache, legacy_graph_cycles,
                               transpose_cache_disabled)
from repro.obs.profile import profile_ops

SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") == "1"
REPEATS = 1 if SMOKE else int(os.environ.get("REPRO_PERF_REPEATS", "3"))
OUT_PATH = Path(os.environ.get(
    "REPRO_BENCH_OUT", Path(__file__).resolve().parent.parent / "BENCH_train.json"))

#: name -> (graph kwargs, model overrides).  ``epochs``/sizes shrink in
#: smoke mode; the medium/n_init=3 case is the acceptance headline.
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


def timed_fit(graph, overrides, reference):
    """One cold fit (caches cleared) in the requested mode."""
    reset_caches()
    model = make_model(graph, overrides)
    start = time.perf_counter()
    if reference:
        with cache_disabled(), F.reference_loss_kernels(), \
                transpose_cache_disabled(), legacy_graph_cycles():
            model.fit(graph)
    else:
        model.fit(graph)
    elapsed = time.perf_counter() - start
    return elapsed, model


def profiled_backward_seconds(graph, overrides):
    """Backward-pass wall time of one optimised fit, via the op profiler."""
    reset_caches()
    model = make_model(graph, overrides)
    with profile_ops() as prof:
        model.fit(graph)
    return sum(s.backward_s for s in prof.stats.values())


def run_case(name):
    graph, overrides = build_case(name)
    # Warm the allocator/import costs outside the timed region.
    timed_fit(graph, {**overrides, "epochs": 2, "n_init": 1},
              reference=False)

    before, after = [], []
    loss_delta = 0.0
    for _ in range(REPEATS):  # interleaved so machine drift hits both modes
        t_ref, m_ref = timed_fit(graph, overrides, reference=True)
        t_opt, m_opt = timed_fit(graph, overrides, reference=False)
        before.append(t_ref)
        after.append(t_opt)
        deltas = [abs(a["loss"] - b["loss"])
                  for a, b in zip(m_opt.history, m_ref.history)]
        assert len(m_opt.history) == len(m_ref.history)
        loss_delta = max(loss_delta, max(deltas))

    epochs_run = len(m_opt.history) * overrides.get("n_init", 1)
    before_s = statistics.median(before)
    after_s = statistics.median(after)
    result = {
        "case": name,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "config": {k: v for k, v in overrides.items()},
        "repeats": REPEATS,
        "before_s": round(before_s, 4),
        "after_s": round(after_s, 4),
        "speedup": round(before_s / after_s, 3),
        "epoch_before_s": round(before_s / epochs_run, 5),
        "epoch_after_s": round(after_s / epochs_run, 5),
        "backward_after_s": round(
            profiled_backward_seconds(graph, overrides), 4),
        "max_loss_delta": loss_delta,
    }
    _RESULTS[name] = result
    print(f"\n[{name}] before={before_s:.2f}s after={after_s:.2f}s "
          f"speedup={result['speedup']:.2f}x loss_delta={loss_delta:.2e}")
    return result


@pytest.mark.parametrize("name", list(CASES))
def test_case_faster_and_equivalent(name):
    result = run_case(name)
    # Equivalence is the hard gate: identical histories to well under
    # the 1e-8 acceptance tolerance (bit-exact in practice).
    assert result["max_loss_delta"] <= 1e-8
    # Timing gates stay lenient in-test (shared-machine noise); the
    # committed BENCH_train.json carries the representative medians.
    assert result["after_s"] < result["before_s"]
    if name == "medium_full_n_init3" and not SMOKE:
        assert result["speedup"] >= 1.5


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
    headline = _RESULTS["medium_full_n_init3"]
    assert headline["after_s"] < headline["before_s"]

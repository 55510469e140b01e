"""Tests of the benchmark itself (not part of the program's test suite).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

Each workload runs once at its ``tiny`` size, untraced and traced, and
must print exactly the metrics ``BENCHMARK.json`` declares, with their
units.  The checks that make a run fail are exercised directly: a wrong
top-k answer and a sub-floor NMI must each count as a failed operation.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import bench_common  # noqa: E402

bench_common.use_checkout_source()

import bench_serve  # noqa: E402
import bench_train  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "2",
                    "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout[-3000:]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace and workload.startswith("train"):
        # Every sparse matrix power of the proximity (the program's
        # ``proximity/order{k}`` spans) counts towards graph.proximity_s.
        record_line = next(line for line in out.stdout.splitlines()
                           if line.startswith("record: "))
        spans = json.loads(Path(record_line[8:]).read_text())["spans"]
        builds = sum(s["name"] == "workspace.build" for s in spans)
        powers = sum(s["end"] - s["start"] for s in spans
                     if s["name"].startswith("proximity/order"))
        assert builds and powers > 0
        assert result["metrics"]["graph.proximity_s"]["value"] * builds \
            >= powers - 1e-9


def test_run_without_program_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                    "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# --------------------------------------------------------------------- #
# Serving correctness oracle                                             #
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def oracle():
    data = bench_serve.make_store_data(seed=5, nodes=300, versions=1)
    oracle = bench_serve.Oracle(data)
    oracle.prepare(0, [("similar", 7), ("community", 11)], {})
    return oracle


def answer(oracle, key):
    ids, scores = oracle.answers[(0, key)]
    payload = {"ids": ids[:bench_serve.K].tolist(),
               "scores": scores[:bench_serve.K].tolist()}
    if key[0] == "community":
        payload["community"] = int(oracle.communities[key[1]])
    return payload


@pytest.mark.parametrize("key", [("similar", 7), ("community", 11)])
def test_oracle_accepts_the_true_top_k(oracle, key):
    assert oracle.check(0, key, answer(oracle, key)) is None


def test_oracle_rejects_wrong_answers(oracle):
    key = ("similar", 7)
    good = answer(oracle, key)
    outsider = next(i for i in range(300)
                    if i not in oracle.answers[(0, key)][0].tolist()
                    and i != 7)
    wrong_id = dict(good, ids=good["ids"][:-1] + [outsider])
    assert oracle.check(0, key, wrong_id) is not None
    wrong_score = dict(good, scores=[good["scores"][0] + 1e-6]
                       + good["scores"][1:])
    assert oracle.check(0, key, wrong_score) is not None
    swapped = dict(good, ids=[good["ids"][1], good["ids"][0]]
                   + good["ids"][2:],
                   scores=[good["scores"][1], good["scores"][0]]
                   + good["scores"][2:])
    assert oracle.check(0, key, swapped) is not None
    short = dict(good, ids=good["ids"][:-1], scores=good["scores"][:-1])
    assert oracle.check(0, key, short) is not None
    community = ("community", 11)
    wrong_comm = dict(answer(oracle, community),
                      community=(int(oracle.communities[11]) + 1) % 10)
    assert oracle.check(0, community, wrong_comm) is not None


def test_wrong_answer_counts_as_failed_operation(oracle):
    key = ("similar", 7)
    bad = answer(oracle, key)
    bad["ids"] = list(reversed(bad["ids"]))
    body = json.dumps({"version": "v000", **bad}).encode()
    good = json.dumps({"version": "v000", **answer(oracle, key)}).encode()
    requests = [bench_serve.Request(0.0, "similar", key, b"")] * 2
    outcomes = [bench_serve.Outcome(due=0.0, enqueued=0.0, sent=0.0,
                                    done=0.001, status=200, body=b)
                for b in (good, body)]
    phase = bench_serve.PhaseResult("low", 10.0, 1.0, requests, outcomes)
    failures = []
    stats = bench_serve._summarise(phase, oracle, {"v000": 0}, 0.05,
                                   failures, {})
    assert stats["succeeded"] == 1 and stats["failed"] == 1
    assert len(failures) == 1
    assert not stats["meets_limit"]


def _rung(rate, meets):
    window = bench_serve.PhaseResult(f"rung{rate}", rate, 1.0, [], [])
    window.stats = {"rate": rate, "meets_limit": meets,
                    "achieved_rps": 0.99 * rate}
    return window


def test_max_rps_is_the_highest_rung_within_the_limit():
    session = object.__new__(bench_serve.Session)
    session.windows = [_rung(1000, True), _rung(2500, False)] \
        * bench_serve.ROUNDS
    assert session.max_rps() == (1000, 990.0)


def test_max_rps_falls_below_the_ladder_when_every_rung_misses():
    session = object.__new__(bench_serve.Session)
    session.windows = [_rung(1000, False)] * bench_serve.ROUNDS
    rung, value = session.max_rps()
    assert rung == 0 and 0 < value < 1000


# --------------------------------------------------------------------- #
# Training quality gate                                                  #
# --------------------------------------------------------------------- #

class _FixedModel:
    def __init__(self, communities):
        self.communities = communities

    def assign_communities(self, graph):
        return self.communities


@pytest.fixture(scope="module")
def graph():
    return bench_train.make_graph("train_full", "tiny", seed=0)


def test_planted_partition_passes_the_quality_gate(graph):
    check = bench_train._check_model(_FixedModel(graph.labels), graph, 0.5,
                                     [{"loss": 0.7}])
    assert check["ok"] and check["nmi"] == pytest.approx(1.0)


def test_sub_floor_nmi_is_a_failure(graph):
    constant = np.zeros(graph.num_nodes, dtype=np.int64)
    check = bench_train._check_model(_FixedModel(constant), graph, 0.5,
                                     [{"loss": 0.7}])
    assert not check["ok"] and "floor" in check["reason"]


def test_nan_loss_is_a_failure(graph):
    check = bench_train._check_model(_FixedModel(graph.labels), graph, 0.5,
                                     [{"loss": 0.7}, {"loss": float("nan")}])
    assert not check["ok"] and "loss" in check["reason"]

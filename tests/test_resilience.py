"""Failure handling: fault injection, the finite-loss check, bad inputs.

The contract under test: injected pool faults are absorbed
deterministically and leave an audit trail of events and counters; a
non-finite loss or gradient stops a fit with a :class:`DivergenceError`
naming the epoch and restart; and degenerate but valid graphs train to
a finite loss, while malformed ones fail by name at construction.
"""

import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core import AnECI, aneci
from repro.core.aneci import DivergenceError
from repro.core.config import (AnECIConfig, config_fingerprint, run_key)
from repro.graph import Graph
from repro.graph.generators import planted_partition
from repro.obs import events, metrics
from repro.obs.events import MemorySink
from repro.parallel import ParallelExecutor
from repro.resilience import faultinject
from repro.resilience.faultinject import parse_plan


@pytest.fixture
def small_graph():
    return planted_partition(3, 15, 0.6, 0.05, np.random.default_rng(1),
                             num_features=12)


@pytest.fixture
def sink():
    sink = MemorySink()
    unsubscribe = events.BUS.subscribe(sink)
    yield sink
    unsubscribe()


def _model(graph, **overrides):
    params = dict(num_communities=3, epochs=12, lr=0.05, seed=0)
    params.update(overrides)
    return AnECI(graph.num_features, **params)


# --------------------------------------------------------------------- #
# Fault-injection harness                                               #
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_parse_matchers_params_and_count(self):
        plan = parse_plan("worker_crash@task=3;timeout@task=2,s=5.5*2")
        assert len(plan.specs) == 2
        assert plan.specs[0].kind == "worker_crash"
        assert plan.specs[0].matchers == {"task": 3}
        assert plan.specs[1].params == {"s": 5.5}
        assert plan.specs[1].count == 2

    # The parser is kind-agnostic: these kinds need not exist.
    @pytest.mark.parametrize("text", [
        "nan_loss@epoch",           # not key=value
        "nan_loss@epoch=abc",       # non-integer matcher
        "nan_loss*zero",            # bad count
        "nan_loss*0",               # count below 1
        "nan_loss@p=1.5",           # probability out of range
        "bad kind@x=1",             # kind with a space
    ])
    def test_parse_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            parse_plan(text)

    def test_fire_respects_matchers_and_budget(self):
        plan = parse_plan("worker_crash@task=3*1")
        assert plan.fire("worker_crash", task=2) is None
        assert plan.fire("worker_crash", task=3) is not None
        assert plan.fire("worker_crash", task=3) is None  # budget spent

    def test_module_fire_is_noop_without_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faultinject.fire("worker_crash", task=0) is None

    def test_env_plan_is_reread_on_change(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash@task=1")
        assert faultinject.fire("worker_crash", task=1) is not None
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert faultinject.fire("worker_crash", task=1) is None

    def test_injected_override_restores_previous(self):
        with faultinject.injected("worker_crash@task=0"):
            assert faultinject.fire("worker_crash", task=0) is not None
        assert faultinject.fire("worker_crash", task=0) is None

    def test_probabilistic_firing_is_deterministic(self):
        def fired(text, calls):
            plan = parse_plan(text)
            return [plan.fire("slow_index", call=c) is not None
                    for c in range(calls)]

        fires = fired("slow_index@p=0.5,seed=7", 50)
        assert fires == fired("slow_index@p=0.5,seed=7", 50)
        assert any(fires) and not all(fires)
        assert not any(fired("slow_index@p=0", 10))

    def test_firing_emits_event_and_counter(self, sink):
        metrics.registry().reset()
        parse_plan("index_error").fire("index_error", call=4)
        assert sink.by_kind("fault_injected")[0]["call"] == 4
        assert metrics.registry().counter("faults.injected").value == 1

    def test_probabilistic_decisions_identical_across_processes(self):
        """``p=``/``seed=`` firing must hash, not stream: the same plan
        makes the same per-context decision in any process, in any
        evaluation order."""
        import subprocess
        import sys

        plan = "chaosdemo@p=0.35,seed=11"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "from repro.resilience import faultinject\n"
            "print(''.join('1' if faultinject.fire('chaosdemo', call=i)"
            " else '0' for i in range(200)))\n")
        env = {**os.environ, "REPRO_FAULTS": plan,
               "PYTHONPATH": src + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        runs = [subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True
                               ).stdout.strip() for _ in range(2)]
        assert runs[0] == runs[1]
        assert "1" in runs[0] and "0" in runs[0]  # genuinely Bernoulli
        # in-process decisions match the subprocesses...
        with faultinject.injected(plan):
            forward = ["1" if faultinject.fire("chaosdemo", call=i)
                       else "0" for i in range(200)]
        assert "".join(forward) == runs[0]
        # ...and are independent of evaluation order
        with faultinject.injected(plan):
            backward = {i: "1" if faultinject.fire("chaosdemo", call=i)
                        else "0" for i in reversed(range(200))}
        assert "".join(backward[i] for i in range(200)) == runs[0]


# --------------------------------------------------------------------- #
# Run identity                                                          #
# --------------------------------------------------------------------- #
class TestRunIdentity:
    def test_run_key_tracks_config_and_graph(self, small_graph):
        key = run_key(small_graph, _model(small_graph).config)
        assert run_key(small_graph, _model(small_graph).config) == key
        assert run_key(small_graph,
                       _model(small_graph, lr=0.01).config) != key
        other = small_graph.remove_edges(small_graph.edge_list()[:1])
        assert run_key(other, _model(small_graph).config) != key

    def test_config_fingerprint_is_pinned(self):
        # Every env-defaulted field is passed explicitly so any CI env leg
        # builds the same config.  A change here invalidates the run key
        # of every existing ledger entry and serving version.
        config = AnECIConfig(num_communities=3, dtype="float64",
                             train_mode="full", batch_nodes=4096,
                             edge_samples=8192, negative_samples=5,
                             fanout=10)
        assert config_fingerprint(config) == "c94f0d5010beab0b"


# --------------------------------------------------------------------- #
# The finite-loss check                                                 #
# --------------------------------------------------------------------- #
_SAMPLED = dict(train_mode="sampled", batch_nodes=16, edge_samples=64,
                negative_samples=2, fanout=4)


def _mode_kwargs(train_mode):
    return _SAMPLED if train_mode == "sampled" else {"train_mode": "full"}


class _Param:
    def __init__(self, grad):
        self.grad = None if grad is None else np.asarray(grad, dtype=float)


class TestDivergenceCheck:
    def test_finite_check_reads_loss_and_gradients(self):
        assert aneci._finite(1.0, [_Param(None), _Param([0.5, 2.0])])
        assert not aneci._finite(np.nan, [_Param([0.5])])
        assert not aneci._finite(1.0, [_Param([0.5]), _Param([np.inf])])

    @pytest.mark.parametrize("train_mode", ["full", "sampled"])
    def test_nonfinite_loss_raises_naming_epoch(self, small_graph,
                                                monkeypatch, train_mode):
        # The third epoch of the second restart gets a NaN modularity term.
        name = ("sampled_modularity_tensor" if train_mode == "sampled"
                else "generalized_modularity_tensor")
        original = getattr(aneci, name)
        calls = []

        def poisoned(*args, **kwargs):
            calls.append(None)
            term = original(*args, **kwargs)
            return term * np.nan if len(calls) == 4 + 3 else term

        monkeypatch.setattr(aneci, name, poisoned)
        model = _model(small_graph, epochs=4, n_init=2,
                       **_mode_kwargs(train_mode))
        with pytest.raises(DivergenceError, match=r"epoch 2 \(restart 1\)"):
            model.fit(small_graph, workers=1)
        assert len(model.history) == 2
        assert repro.DivergenceError is DivergenceError

    def test_recovery_options_are_unknown(self, capsys):
        from repro.cli import main
        for field in ("divergence_policy", "max_recoveries", "lr_backoff",
                      "reseed_after", "checkpoint_dir", "checkpoint_every"):
            with pytest.raises(TypeError, match=field):
                AnECIConfig(num_communities=3, **{field: None})
        with pytest.raises(SystemExit):
            main(["--checkpoint-dir=ckpts", "datasets"])
        assert "--checkpoint-dir" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Degenerate graphs through fit                                         #
# --------------------------------------------------------------------- #
def _isolated_nodes(graph):
    adjacency = sp.block_diag([graph.adjacency,
                               sp.csr_matrix((5, 5))]).tocsr()
    features = np.vstack([graph.features,
                          np.zeros((5, graph.num_features))])
    return Graph(adjacency=adjacency, features=features)


def _self_loops(graph):
    return (graph.adjacency + sp.eye(graph.num_nodes)).tocsr()


def _duplicate_edges(graph):
    coo = graph.adjacency.tocoo()
    return sp.coo_matrix((np.r_[coo.data, coo.data],
                          (np.r_[coo.row, coo.row], np.r_[coo.col, coo.col])),
                         shape=coo.shape)


def _two_components(graph):
    # Two disconnected copies of the graph: 2 components, K = 3 above it.
    adjacency = sp.block_diag([graph.adjacency, graph.adjacency]).tocsr()
    return Graph(adjacency=adjacency,
                 features=np.vstack([graph.features, graph.features]))


def _below_batch_nodes(graph):
    # 12 nodes against the sampled mode's batch_nodes=16.
    return Graph(adjacency=graph.adjacency[:12, :12],
                 features=graph.features[:12])


DEGENERATE = {
    "isolated_nodes": _isolated_nodes,
    "self_loops": lambda g: Graph(adjacency=_self_loops(g),
                                  features=g.features, validate="off"),
    "duplicate_edges": lambda g: Graph(adjacency=_duplicate_edges(g),
                                       features=g.features, validate="off"),
    "k_above_components": _two_components,
    "n_below_batch_nodes": _below_batch_nodes,
}


class TestDegenerateGraphs:
    @pytest.mark.parametrize("train_mode", ["full", "sampled"])
    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_fit_finishes_with_finite_loss(self, small_graph, case,
                                           train_mode):
        graph = DEGENERATE[case](small_graph)
        model = _model(graph, **_mode_kwargs(train_mode))
        model.fit(graph)
        assert len(model.history) == model.config.epochs
        assert all(np.isfinite(r["loss"]) for r in model.history)
        assert np.isfinite(model.embed(graph)).all()

    @pytest.mark.parametrize("make, message", [
        (_self_loops, "self-loops"), (_duplicate_edges, "binary")])
    def test_malformed_adjacency_fails_by_name(self, small_graph, make,
                                               message):
        with pytest.raises(ValueError, match=message):
            Graph(adjacency=make(small_graph), features=small_graph.features)


# --------------------------------------------------------------------- #
# Pool retry layer                                                      #
# --------------------------------------------------------------------- #
def _double(x):
    return x * 2


class TestTaskRetry:
    def test_crashed_task_retries_with_original_seed(self, monkeypatch,
                                                     sink):
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash@task=1,attempt=0")
        with pytest.warns(RuntimeWarning, match="retrying"):
            results = ParallelExecutor(2, backoff=0.01).map(
                _double, [(x,) for x in (1, 2, 3)])
        assert results == [2, 4, 6]
        retried = sink.by_kind("task_retry")
        assert any(r["task"] == 1 for r in retried)
        assert not sink.by_kind("parallel_fallback")

    def test_timed_out_task_retries(self, monkeypatch, sink):
        monkeypatch.setenv("REPRO_FAULTS", "timeout@task=0,attempt=0,s=20")
        with pytest.warns(RuntimeWarning, match="retrying"):
            results = ParallelExecutor(2, timeout=1.0, backoff=0.01).map(
                _double, [(x,) for x in (1, 2)])
        assert results == [2, 4]
        assert len(sink.by_kind("task_retry")) >= 1

    def test_exhausted_retries_fall_back_to_serial(self, monkeypatch, sink):
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash@task=1")
        with pytest.warns(RuntimeWarning, match="re-running"):
            results = ParallelExecutor(2, retries=1, backoff=0.01).map(
                _double, [(x,) for x in (1, 2, 3)])
        assert results == [2, 4, 6]
        assert len(sink.by_kind("parallel_fallback")) == 1

    def test_retry_config_validation_and_env(self, monkeypatch):
        with pytest.raises(ValueError):
            ParallelExecutor(2, retries=-1)
        monkeypatch.setenv("REPRO_TASK_RETRIES", "4")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        executor = ParallelExecutor(2)
        assert executor.retries == 4
        assert executor.timeout == 2.5


# --------------------------------------------------------------------- #
# Input validation                                                      #
# --------------------------------------------------------------------- #
class TestGraphValidation:
    def _asymmetric(self):
        import scipy.sparse as sp
        adj = sp.lil_matrix((3, 3))
        adj[0, 1] = 1.0  # missing the (1, 0) mirror
        return adj.tocsr()

    def test_asymmetric_adjacency_has_actionable_error(self):
        with pytest.raises(ValueError, match="sanitize"):
            Graph(adjacency=self._asymmetric(), features=np.eye(3))

    def test_sanitize_symmetrises(self):
        graph = Graph(adjacency=self._asymmetric(), features=np.eye(3),
                      validate="sanitize")
        assert graph.has_edge(1, 0)

    def test_nonfinite_features_raise_by_default(self):
        import scipy.sparse as sp
        features = np.eye(3)
        features[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Graph(adjacency=sp.csr_matrix((3, 3)), features=features)

    def test_sanitize_zeroes_nonfinite_features(self):
        import scipy.sparse as sp
        features = np.eye(3)
        features[0, 0] = np.inf
        graph = Graph(adjacency=sp.csr_matrix((3, 3)), features=features,
                      validate="sanitize")
        assert graph.features[0, 0] == 0.0

    def test_env_default_policy(self, monkeypatch):
        import scipy.sparse as sp
        features = np.eye(3)
        features[0, 0] = np.nan
        monkeypatch.setenv("REPRO_VALIDATE", "off")
        graph = Graph(adjacency=sp.csr_matrix((3, 3)), features=features)
        assert np.isnan(graph.features[0, 0])

    def test_unknown_policy_rejected(self):
        import scipy.sparse as sp
        with pytest.raises(ValueError, match="validate"):
            Graph(adjacency=sp.csr_matrix((3, 3)), features=np.eye(3),
                  validate="maybe")


# --------------------------------------------------------------------- #
# CLI surface                                                           #
# --------------------------------------------------------------------- #
class TestResilienceCLI:
    def test_evaluate_json_is_strict(self, capsys):
        from repro.cli import main
        assert main(["evaluate", "--dataset", "cora", "--scale", "0.05",
                     "--method", "aneci", "--epochs", "5",
                     "--task", "community", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["metric"] == "modularity"
        assert record["value"] is None or isinstance(record["value"], float)

    def test_finite_or_null_maps_nonfinite_to_none(self):
        from repro.cli import _finite_or_null, _strict_json
        assert _finite_or_null(float("nan")) is None
        assert _finite_or_null(float("inf")) is None
        assert _finite_or_null(0.25) == 0.25
        assert json.loads(_strict_json({"value": None}))["value"] is None

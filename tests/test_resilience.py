"""The fault-tolerant training runtime: guards, checkpoints, chaos.

The contract under test: with no faults injected the resilience layer
is bit-invisible (guarded == unguarded, checkpointed == plain,
resumed == uninterrupted); with faults injected the run still finishes,
deterministically, and leaves an audit trail of events and counters.
"""

import json
import os

import numpy as np
import pytest

from repro.core import AnECI
from repro.graph import Graph
from repro.graph.generators import planted_partition
from repro.obs import events, metrics
from repro.obs.events import MemorySink
from repro.parallel import ParallelExecutor
from repro.resilience import (CheckpointError, CheckpointManager,
                              DivergenceError, DivergenceGuard,
                              RecoveryPolicy)
from repro.resilience import faultinject
from repro.core.config import AnECIConfig
from repro.resilience.checkpoint import (config_fingerprint, read_checkpoint,
                                         run_key, write_checkpoint)
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
        plan = parse_plan("nan_loss@epoch=3;timeout@task=2,s=5.5*2")
        assert len(plan.specs) == 2
        assert plan.specs[0].kind == "nan_loss"
        assert plan.specs[0].matchers == {"epoch": 3}
        assert plan.specs[1].params == {"s": 5.5}
        assert plan.specs[1].count == 2

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
        plan = parse_plan("nan_loss@epoch=3*1")
        assert plan.fire("nan_loss", epoch=2) is None
        assert plan.fire("nan_loss", epoch=3) is not None
        assert plan.fire("nan_loss", epoch=3) is None  # budget spent

    def test_module_fire_is_noop_without_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faultinject.fire("nan_loss", epoch=0) is None

    def test_env_plan_is_reread_on_change(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "nan_loss@epoch=1")
        assert faultinject.fire("nan_loss", epoch=1) is not None
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert faultinject.fire("nan_loss", epoch=1) is None

    def test_injected_override_restores_previous(self):
        with faultinject.injected("worker_crash@task=0"):
            assert faultinject.fire("worker_crash", task=0) is not None
        assert faultinject.fire("worker_crash", task=0) is None

    def test_probabilistic_firing_is_deterministic(self):
        fires = [parse_plan("nan_loss@p=0.5,seed=7").fire("nan_loss", epoch=e)
                 is not None for e in range(50)]
        again = [parse_plan("nan_loss@p=0.5,seed=7").fire("nan_loss", epoch=e)
                 is not None for e in range(50)]
        assert fires == again
        assert any(fires) and not all(fires)
        assert not any(parse_plan("nan_loss@p=0").fire("nan_loss", epoch=e)
                       is not None for e in range(10))

    def test_firing_emits_event_and_counter(self, sink):
        metrics.registry().reset()
        parse_plan("nan_loss").fire("nan_loss", epoch=4)
        assert sink.by_kind("fault_injected")[0]["epoch"] == 4
        assert metrics.registry().counter("faults.injected").value == 1

    def test_probabilistic_decisions_identical_across_processes(self):
        """``p=``/``seed=`` firing must hash, not stream: the same plan
        makes the same per-context decision in any process, in any
        evaluation order."""
        import subprocess
        import sys

        import repro

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
# Checkpoint file format                                                #
# --------------------------------------------------------------------- #
class TestCheckpointFormat:
    def test_roundtrip_preserves_arrays_meta_and_dtype(self, tmp_path):
        path = str(tmp_path / "x.ckpt")
        arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.array([1.5, -2.5])}
        write_checkpoint(path, arrays, {"epoch": 7, "nested": {"q": 0.5}})
        loaded, meta = read_checkpoint(path)
        assert loaded["w"].dtype == np.float32
        assert np.array_equal(loaded["w"], arrays["w"])
        assert np.array_equal(loaded["b"], arrays["b"])
        assert meta == {"epoch": 7, "nested": {"q": 0.5}}

    def test_truncated_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "x.ckpt")
        write_checkpoint(path, {"w": np.ones(4)}, {"epoch": 0})
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_foreign_file_is_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(str(path))

    def test_run_key_tracks_trajectory_not_plumbing(self, small_graph,
                                                    tmp_path):
        base = _model(small_graph)
        other_lr = _model(small_graph, lr=0.01)
        redirected = _model(small_graph,
                            checkpoint_dir=str(tmp_path / "elsewhere"))
        key = run_key(small_graph, base.config)
        assert run_key(small_graph, other_lr.config) != key
        assert run_key(small_graph, redirected.config) == key


class TestCheckpointManager:
    def test_due_counts_completed_epochs(self):
        manager = CheckpointManager("unused", every=4)
        assert [manager.due(e) for e in range(8)] == \
            [False, False, False, True, False, False, False, True]

    def test_prune_keeps_newest_per_restart(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), every=1, keep=2)
        for epoch in range(5):
            manager.save_epoch({"w": np.full(2, epoch)}, {"epoch": epoch},
                               restart=0, epoch=epoch)
        names = sorted(os.listdir(tmp_path))
        assert names == ["ckpt-r0000-e0000003.ckpt",
                         "ckpt-r0000-e0000004.ckpt"]

    def test_load_latest_falls_back_past_corrupt_newest(self, tmp_path,
                                                        sink):
        manager = CheckpointManager(str(tmp_path), every=1, keep=3)
        for epoch in (0, 1):
            manager.save_epoch({"w": np.full(2, epoch)}, {"epoch": epoch},
                               restart=0, epoch=epoch)
        newest = tmp_path / "ckpt-r0000-e0000001.ckpt"
        newest.write_bytes(newest.read_bytes()[:40])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            arrays, meta = manager.load_latest()
        assert meta["epoch"] == 0
        assert len(sink.by_kind("checkpoint_corrupt")) == 1

    def test_load_latest_none_when_nothing_validates(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "empty"))
        assert manager.load_latest() is None

    def test_final_snapshot_wins_over_epochs(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), every=1)
        manager.save_epoch({"w": np.zeros(2)}, {"epoch": 3}, restart=0,
                           epoch=3)
        manager.save_final({"w": np.ones(2)}, {"kind": "final"})
        _, meta = manager.load_latest()
        assert meta.get("kind") == "final"

    def test_checkpoint_corrupt_injection_damages_file(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), every=1, keep=2)
        with faultinject.injected("checkpoint_corrupt@save=0"):
            manager.save_epoch({"w": np.zeros(2)}, {"epoch": 0}, restart=0,
                               epoch=0)
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path / "ckpt-r0000-e0000000.ckpt"))


class TestRunIdentity:
    def test_config_fingerprint_is_pinned(self):
        # Every env-defaulted field is passed explicitly so any CI env leg
        # builds the same config.  A change here invalidates the run key
        # of every existing checkpoint and ledger entry.
        config = AnECIConfig(num_communities=3, dtype="float64",
                             train_mode="full", divergence_policy="recover",
                             batch_nodes=4096, edge_samples=8192,
                             negative_samples=5, fanout=10)
        assert config_fingerprint(config) == "167d91c40a00b0c9"


# --------------------------------------------------------------------- #
# Divergence guard                                                      #
# --------------------------------------------------------------------- #
class _Param:
    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None


class _StubOptimizer:
    def __init__(self, lr=0.1):
        self.lr = lr

    def capture(self, into=None):
        return {"lr": self.lr}

    def restore(self, state):
        self.lr = state["lr"]


class TestDivergenceGuard:
    def test_diverged_detects_nan_loss_and_grad(self):
        param = _Param([1.0, 2.0])
        assert DivergenceGuard.diverged(np.nan, [param])
        assert not DivergenceGuard.diverged(1.0, [param])
        param.grad = np.array([np.inf, 0.0])
        assert DivergenceGuard.diverged(1.0, [param])

    def test_handle_restores_committed_state_and_backs_off_lr(self):
        param, opt = _Param([1.0, 2.0]), _StubOptimizer(lr=0.2)
        guard = DivergenceGuard([param], opt, RecoveryPolicy(lr_backoff=0.5))
        guard.commit()
        param.data[:] = np.nan
        assert guard.handle(loss=np.nan, epoch=3, restart=0) == "restored"
        assert np.array_equal(param.data, [1.0, 2.0])
        assert opt.lr == pytest.approx(0.1)

    def test_consecutive_failures_escalate_to_reseed(self):
        param = _Param([1.0])
        guard = DivergenceGuard([param], None,
                                RecoveryPolicy(max_recoveries=5,
                                               reseed_after=2))
        guard.commit()
        assert guard.handle(loss=np.nan, epoch=0, restart=0) == "restored"
        assert guard.handle(loss=np.nan, epoch=1, restart=0) == "reseed"
        guard.rebind([param], None)  # what the trainer does after a reseed
        assert guard.handle(loss=np.nan, epoch=2, restart=0) == "restored"

    def test_budget_exhaustion_raises(self):
        guard = DivergenceGuard([_Param([1.0])], None,
                                RecoveryPolicy(max_recoveries=1))
        guard.commit()
        guard.handle(loss=np.nan, epoch=0, restart=0)
        with pytest.raises(DivergenceError, match="after 1 recovery"):
            guard.handle(loss=np.nan, epoch=1, restart=0)

    def test_raise_policy_fails_fast(self):
        guard = DivergenceGuard([_Param([1.0])], None,
                                RecoveryPolicy(mode="raise"))
        with pytest.raises(DivergenceError):
            guard.handle(loss=np.nan, epoch=0, restart=0)

    @pytest.mark.parametrize("kwargs", [
        {"mode": "explode"}, {"max_recoveries": -1},
        {"lr_backoff": 0.0}, {"lr_backoff": 1.5}, {"reseed_after": 0},
    ])
    def test_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)

    def test_state_roundtrips_through_meta(self):
        guard = DivergenceGuard([_Param([1.0])], None, RecoveryPolicy())
        guard.commit()
        guard.handle(loss=np.nan, epoch=0, restart=0)
        other = DivergenceGuard([_Param([1.0])], None, RecoveryPolicy())
        other.load_state(json.loads(json.dumps(guard.state())))
        assert other.recoveries == 1


# --------------------------------------------------------------------- #
# Guarded training                                                      #
# --------------------------------------------------------------------- #
class TestGuardedFit:
    def test_guard_is_bit_invisible_without_faults(self, small_graph):
        guarded = _model(small_graph)
        guarded.fit(small_graph)
        legacy = _model(small_graph, divergence_policy="off")
        legacy.fit(small_graph)
        assert guarded.history == legacy.history
        assert np.array_equal(guarded.embed(small_graph),
                              legacy.embed(small_graph))

    def test_injected_nan_loss_recovers_and_converges(self, small_graph,
                                                      sink):
        model = _model(small_graph, epochs=20)
        with faultinject.injected("nan_loss@epoch=5"):
            model.fit(small_graph)
        # The diverged epoch consumes its index but records no history.
        assert len(model.history) == 19
        assert np.isfinite(model.selection_modularity)
        assert len(sink.by_kind("divergence")) == 1
        recovery, = sink.by_kind("recovery")
        assert recovery["action"] == "restored"

    def test_repeated_divergence_reseeds_and_completes(self, small_graph,
                                                       sink):
        model = _model(small_graph, epochs=20, reseed_after=2)
        with faultinject.injected("nan_loss@epoch=5;nan_loss@epoch=6"):
            model.fit(small_graph)
        assert np.isfinite(model.selection_modularity)
        actions = [r["action"] for r in sink.by_kind("recovery")]
        assert actions == ["restored", "reseed"]

    def test_exhausted_budget_raises_divergence_error(self, small_graph):
        model = _model(small_graph, epochs=20, max_recoveries=1)
        with faultinject.injected("nan_loss"):
            with pytest.raises(DivergenceError):
                model.fit(small_graph)

    def test_raise_policy_surfaces_first_divergence(self, small_graph):
        model = _model(small_graph, divergence_policy="raise")
        with faultinject.injected("nan_loss@epoch=2"):
            with pytest.raises(DivergenceError, match="epoch 2"):
                model.fit(small_graph)

    def test_config_rejects_bad_policy_values(self, small_graph):
        with pytest.raises(ValueError):
            _model(small_graph, divergence_policy="explode")
        with pytest.raises(ValueError):
            _model(small_graph, lr_backoff=0.0)


# --------------------------------------------------------------------- #
# Checkpoint / resume through AnECI                                     #
# --------------------------------------------------------------------- #
def _fit_reference(graph, **overrides):
    model = _model(graph, **overrides)
    model.fit(graph)
    return model


class TestCheckpointedFit:
    def test_checkpointing_does_not_change_the_result(self, small_graph,
                                                      tmp_path):
        plain = _fit_reference(small_graph)
        ckpt = _model(small_graph, checkpoint_dir=str(tmp_path),
                      checkpoint_every=4)
        ckpt.fit(small_graph)
        assert plain.history == ckpt.history
        assert np.array_equal(plain.embed(small_graph),
                              ckpt.embed(small_graph))
        key = run_key(small_graph, ckpt.config)
        assert os.path.exists(tmp_path / key / "final.ckpt")

    def test_resume_from_midrun_snapshot_is_exact(self, small_graph,
                                                  tmp_path, sink):
        reference = _fit_reference(small_graph,
                                   checkpoint_dir=str(tmp_path),
                                   checkpoint_every=4)
        run_dir = tmp_path / run_key(small_graph, reference.config)
        # Simulate the crash: only a mid-run snapshot survives.
        os.remove(run_dir / "final.ckpt")
        for name in sorted(os.listdir(run_dir))[1:]:
            os.remove(run_dir / name)
        resumed = _model(small_graph)
        resumed.fit(small_graph, resume_from=str(tmp_path))
        assert resumed.history == reference.history
        assert np.array_equal(resumed.embed(small_graph),
                              reference.embed(small_graph))
        assert len(sink.by_kind("checkpoint_resume")) == 1

    def test_resume_skips_corrupt_newest_snapshot(self, small_graph,
                                                  tmp_path):
        reference = _fit_reference(small_graph,
                                   checkpoint_dir=str(tmp_path),
                                   checkpoint_every=4)
        run_dir = tmp_path / run_key(small_graph, reference.config)
        os.remove(run_dir / "final.ckpt")
        newest = sorted(run_dir.iterdir())[-1]
        newest.write_bytes(newest.read_bytes()[:64])
        resumed = _model(small_graph)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            resumed.fit(small_graph, resume_from=str(tmp_path))
        assert np.array_equal(resumed.embed(small_graph),
                              reference.embed(small_graph))

    def test_resume_from_final_snapshot_skips_training(self, small_graph,
                                                       tmp_path):
        reference = _fit_reference(small_graph,
                                   checkpoint_dir=str(tmp_path),
                                   checkpoint_every=4)
        metrics.registry().reset()
        resumed = _model(small_graph)
        resumed.fit(small_graph, resume_from=str(tmp_path))
        assert metrics.registry().counter("aneci.epochs").value == 0
        assert resumed.selection_modularity == \
            reference.selection_modularity
        assert np.array_equal(resumed.embed(small_graph),
                              reference.embed(small_graph))

    def test_resume_with_no_checkpoints_starts_fresh(self, small_graph,
                                                     tmp_path):
        reference = _fit_reference(small_graph)
        model = _model(small_graph)
        with pytest.warns(RuntimeWarning, match="starting fresh"):
            model.fit(small_graph, resume_from=str(tmp_path / "empty"))
        assert np.array_equal(model.embed(small_graph),
                              reference.embed(small_graph))

    def test_multi_restart_resume_is_exact(self, small_graph, tmp_path):
        reference = _fit_reference(small_graph, n_init=2, epochs=10,
                                   checkpoint_dir=str(tmp_path),
                                   checkpoint_every=4)
        run_dir = tmp_path / run_key(small_graph, reference.config)
        os.remove(run_dir / "final.ckpt")
        resumed = _model(small_graph, n_init=2, epochs=10)
        resumed.fit(small_graph, resume_from=str(tmp_path))
        assert resumed.selection_modularity == \
            reference.selection_modularity
        assert resumed.history == reference.history
        assert np.array_equal(resumed.embed(small_graph),
                              reference.embed(small_graph))

    def test_pooled_restarts_write_usable_checkpoints(self, small_graph,
                                                      tmp_path):
        reference = _fit_reference(small_graph, n_init=2, epochs=10)
        pooled = _model(small_graph, n_init=2, epochs=10,
                        checkpoint_dir=str(tmp_path), checkpoint_every=4)
        pooled.fit(small_graph, workers=2)
        assert np.array_equal(pooled.embed(small_graph),
                              reference.embed(small_graph))
        run_dir = tmp_path / run_key(small_graph, pooled.config)
        os.remove(run_dir / "final.ckpt")
        resumed = _model(small_graph, n_init=2, epochs=10)
        resumed.fit(small_graph, resume_from=str(tmp_path))
        assert np.array_equal(resumed.embed(small_graph),
                              reference.embed(small_graph))


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

    def test_resume_requires_checkpoint_dir(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.cli import main
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        assert main(["embed", "--dataset", "cora", "--scale", "0.05",
                     "--method", "aneci", "--epochs", "3", "--resume",
                     "--out", str(tmp_path / "z.npy")]) == 2
        assert "checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_dir_flag_then_resume(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.cli import main
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", "unset-by-flag")
        ckpt = tmp_path / "ckpt"
        first, second = tmp_path / "a.npy", tmp_path / "b.npy"
        common = ["embed", "--dataset", "cora", "--scale", "0.05",
                  "--method", "aneci", "--epochs", "5", "--json"]
        assert main(["--checkpoint-dir", str(ckpt)] + common
                    + ["--out", str(first)]) == 0
        assert json.loads(capsys.readouterr().out)["resumed"] is False
        assert main(["--checkpoint-dir", str(ckpt)] + common
                    + ["--resume", "--out", str(second)]) == 0
        assert json.loads(capsys.readouterr().out)["resumed"] is True
        assert np.array_equal(np.load(first), np.load(second))

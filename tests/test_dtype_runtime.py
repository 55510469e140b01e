"""Tests for the precision-aware numeric runtime.

Covers the dtype-parameterised autograd engine (float32/float64 tensors,
op dtype preservation, scalar coercion), the allocation-lean optimizer
step path, dtype threading through config → workspace → fit → inference,
the workspace environment knobs, and the inference-path reuse of the fit
workspace's normalised adjacency.

The float64 contract is *bit-exactness* with the pre-dtype engine: the
default path must not change by a single ULP.  The float32 contract is
tolerance-level parity on small fits.
"""

import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import AnECI, AnECIConfig, workspace_cache
from repro.core.workspace import (WorkspaceCache, build_workspace,
                                  default_cache_size, dense_gather_cap,
                                  get_workspace)
from repro.graph.generators import planted_partition
from repro.graph.graph import normalized_adjacency
from repro.nn import (Adam, SGD, Tensor, default_dtype, dtype_matched_csr,
                      functional as F, get_default_dtype, init, resolve_dtype,
                      spmm)
from repro.obs import metrics


def small_graph(seed=3, num_features=12, nodes_per=12):
    return planted_partition(3, nodes_per, 0.7, 0.05,
                             np.random.default_rng(seed),
                             num_features=num_features)


# --------------------------------------------------------------------- #
# Dtype resolution and defaults                                          #
# --------------------------------------------------------------------- #
class TestDtypeResolution:
    def test_resolve_accepts_both_specs(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype(np.float64) == np.float64
        assert resolve_dtype(np.dtype(np.float32)) == np.float32

    def test_resolve_rejects_unsupported(self):
        with pytest.raises(ValueError, match="unsupported dtype"):
            resolve_dtype(np.int64)
        with pytest.raises(ValueError):
            resolve_dtype("float16")

    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64

    def test_default_dtype_context(self):
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_default_dtype_is_per_thread(self):
        # One thread holding default_dtype("float32") must not change
        # how another thread coerces payloads without a float dtype.
        inside, release = threading.Event(), threading.Event()

        def hold_float32():
            with default_dtype("float32"):
                inside.set()
                release.wait(timeout=60)

        thread = threading.Thread(target=hold_float32)
        thread.start()
        try:
            assert inside.wait(timeout=60)
            assert get_default_dtype() == np.float64
            assert Tensor(1.5).dtype == np.float64
            assert Tensor([1, 2]).dtype == np.float64
            assert init.zeros((2,)).dtype == np.float64
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()


# --------------------------------------------------------------------- #
# Tensor dtype preservation                                              #
# --------------------------------------------------------------------- #
class TestTensorDtype:
    def test_constructor_preserves_float32(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_constructor_coerces_non_float(self):
        assert Tensor([1, 2, 3]).dtype == np.float64
        assert Tensor(np.arange(3)).dtype == np.float64

    def test_explicit_dtype_casts(self):
        t = Tensor(np.ones(3, dtype=np.float64), dtype="float32")
        assert t.dtype == np.float32

    def test_astype_is_differentiable(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = t.astype(np.float64)
        assert out.dtype == np.float64
        out.sum().backward()
        assert t.grad.dtype == np.float32
        np.testing.assert_array_equal(t.grad, np.ones((2, 2)))

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_ops_preserve_dtype(self, dt):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(5, 5)).astype(dt), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 5)).astype(dt))
        for out in (a + b, a * b, a - b, a / (b.abs() + 1.0), a @ b,
                    a.exp(), (a.abs() + 0.1).log(), a.sigmoid(), a.tanh(),
                    a.relu(), a.leaky_relu(0.01), a.softmax(axis=-1),
                    a.log_softmax(axis=-1), a.sum(), a.mean(), a.T,
                    a.reshape((25,)), a.clip(-1.0, 1.0)):
            assert out.data.dtype == dt, out

    def test_python_scalars_do_not_promote_float32(self):
        a = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
        out = ((a * 2.0 + 1.0 - 0.5) / 3.0) ** 2
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert a.grad.dtype == np.float32

    def test_reduction_scalars_keep_dtype(self):
        # arr.sum() returns a numpy scalar, not an ndarray; it must not
        # fall through to the float64 default coercion.
        a = Tensor(np.ones((4, 4), dtype=np.float32))
        assert a.sum().dtype == np.float32
        assert a.mean().dtype == np.float32

    def test_gradients_cast_to_param_dtype(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = a.astype(np.float64) * 3.0
        out.sum().backward()
        assert a.grad.dtype == np.float32

    def test_float64_coercion_unchanged(self):
        # Historical behaviour: python lists / int arrays become float64.
        assert (Tensor([1.5]) * 2).data.dtype == np.float64


class TestSpmmDtype:
    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_spmm_follows_tensor_dtype(self, dt):
        adj = sp.random(8, 8, density=0.4, random_state=1, format="csr")
        x = Tensor(np.ones((8, 3), dtype=dt), requires_grad=True)
        out = spmm(adj, x)
        assert out.data.dtype == dt
        out.sum().backward()
        assert x.grad.dtype == dt

    def test_dtype_matched_csr_cached_per_matrix(self):
        adj = sp.random(6, 6, density=0.5, random_state=2, format="csr")
        f32 = np.dtype(np.float32)
        first = dtype_matched_csr(adj, f32)
        second = dtype_matched_csr(adj, f32)
        assert first is second
        assert first.dtype == np.float32
        assert dtype_matched_csr(adj, np.dtype(np.float64)) is adj

    def test_cast_matches_workspace_cast(self):
        graph = small_graph()
        fresh = normalized_adjacency(graph.adjacency)
        cast = dtype_matched_csr(fresh.tocsr(), np.dtype(np.float32))
        ws = build_workspace(graph, AnECIConfig(num_communities=3,
                                                dtype="float32"))
        np.testing.assert_array_equal(cast.data, ws.adj_norm.data)


# --------------------------------------------------------------------- #
# Initialisers and optimizer state                                       #
# --------------------------------------------------------------------- #
class TestInitDtype:
    def test_float32_init_is_rounded_float64_stream(self):
        a = init.glorot_uniform((7, 5), np.random.default_rng(0))
        b = init.glorot_uniform((7, 5), np.random.default_rng(0),
                                dtype="float32")
        assert a.dtype == np.float64 and b.dtype == np.float32
        np.testing.assert_array_equal(a.astype(np.float32), b)

    def test_all_initialisers_take_dtype(self):
        rng = np.random.default_rng(1)
        for fn in (init.glorot_uniform, init.glorot_normal, init.uniform,
                   init.normal, init.zeros, init.ones):
            assert fn((3, 3), rng, dtype="float32").dtype == np.float32


class TestOptimizerDtype:
    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_adam_state_follows_param_dtype(self, dt):
        p = Tensor(np.ones((4, 3), dtype=dt), requires_grad=True)
        opt = Adam([p], lr=0.01)
        p.grad = np.ones((4, 3), dtype=dt)
        opt.step()
        assert p.data.dtype == dt
        assert opt._m[0].dtype == dt and opt._v[0].dtype == dt

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_sgd_momentum_follows_param_dtype(self, dt):
        p = Tensor(np.ones(6, dtype=dt), requires_grad=True)
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.01)
        p.grad = np.ones(6, dtype=dt)
        opt.step()
        assert p.data.dtype == dt
        assert opt._velocity[0].dtype == dt

    def test_adam_steps_allocate_nothing_steady_state(self):
        rng = np.random.default_rng(0)
        params = [Tensor(rng.normal(size=(60, 40)), requires_grad=True)
                  for _ in range(3)]
        opt = Adam(params, lr=0.01, weight_decay=0.01)
        grads = [np.sin(p.data) for p in params]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()  # first step materialises the scratch buffers
        tracemalloc.start()
        tracemalloc.reset_peak()
        for _ in range(5):
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # 3 params × 60×40 float64 ≈ 57.6 kB per temporary the old step
        # path allocated (it made ~6 of them per param per step).  The
        # scratch-buffer path should stay under a single temporary.
        assert peak < 40_000, f"steady-state step allocated {peak} bytes"


# --------------------------------------------------------------------- #
# Config / env threading                                                 #
# --------------------------------------------------------------------- #
class TestConfigDtype:
    def test_default_is_float64(self, monkeypatch):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        assert AnECIConfig(num_communities=3).dtype == "float64"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        assert AnECIConfig(num_communities=3).dtype == "float32"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        cfg = AnECIConfig(num_communities=3, dtype="float64")
        assert cfg.dtype == "float64"

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            AnECIConfig(num_communities=3, dtype="float16")

    def test_cli_flag_sets_env(self, monkeypatch, tmp_path):
        from repro.cli import main
        # setenv-then-delenv so monkeypatch records a restore point: the
        # command under test mutates os.environ itself.
        monkeypatch.setenv("REPRO_DTYPE", "float64")
        monkeypatch.delenv("REPRO_DTYPE")
        out = tmp_path / "z.npy"
        main(["--dtype", "float32", "embed", "--dataset", "cora",
              "--scale", "0.05", "--epochs", "2", "--out", str(out)])
        import os
        assert os.environ.get("REPRO_DTYPE") == "float32"
        assert np.load(out).dtype == np.float32


# --------------------------------------------------------------------- #
# Workspace dtype + env knobs                                            #
# --------------------------------------------------------------------- #
class TestWorkspaceDtype:
    def setup_method(self):
        workspace_cache().clear()

    def test_float32_constants_cast_once(self):
        graph = small_graph()
        ws64 = build_workspace(graph, AnECIConfig(num_communities=3,
                                                  dtype="float64"))
        ws32 = build_workspace(graph, AnECIConfig(num_communities=3,
                                                  dtype="float32"))
        assert ws64.dtype == np.float64 and ws32.dtype == np.float32
        for name in ("adj_norm", "prox", "recon_target"):
            assert getattr(ws32, name).dtype == np.float32
            np.testing.assert_array_equal(
                getattr(ws64, name).astype(np.float32).toarray(),
                getattr(ws32, name).toarray())
        assert ws32.degrees.dtype == np.float32
        # No float64 copy of Ã is held beside the float32 one.
        assert not [name for name, value in vars(ws32).items()
                    if sp.issparse(value) and value.dtype == np.float64]

    def test_dtype_is_a_cache_key(self):
        graph = small_graph()
        ws64 = get_workspace(graph, AnECIConfig(num_communities=3,
                                                dtype="float64"))
        ws32 = get_workspace(graph, AnECIConfig(num_communities=3,
                                                dtype="float32"))
        assert ws64 is not ws32
        assert ws64.fingerprint != ws32.fingerprint

    def test_dense_cap_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKSPACE_DENSE_CAP", "123")
        assert dense_gather_cap() == 123
        graph = small_graph()  # 36 nodes
        cfg = AnECIConfig(num_communities=3, recon_sample_size=10)
        monkeypatch.setenv("REPRO_WORKSPACE_DENSE_CAP", "100")
        dense = build_workspace(graph, cfg)
        assert dense.recon_dense is not None
        monkeypatch.setenv("REPRO_WORKSPACE_DENSE_CAP", "10")
        blocked = build_workspace(graph, cfg)
        assert blocked.recon_dense is None
        idx = np.arange(5)
        np.testing.assert_array_equal(dense.target_block(idx),
                                      blocked.target_block(idx))

    def test_cache_size_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKSPACE_CACHE_SIZE", "2")
        assert default_cache_size() == 2
        cache = WorkspaceCache()
        assert cache.maxsize == 2
        cfg = AnECIConfig(num_communities=3)
        for seed in (1, 2, 3):
            cache.get(small_graph(seed=seed), cfg)
        assert len(cache) == 2

    def test_cache_size_must_be_positive(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKSPACE_CACHE_SIZE", "0")
        with pytest.raises(ValueError):
            WorkspaceCache()


# --------------------------------------------------------------------- #
# End-to-end precision parity                                            #
# --------------------------------------------------------------------- #
class TestFitParity:
    def setup_method(self):
        workspace_cache().clear()

    def fit(self, dtype, **kwargs):
        graph = small_graph(num_features=16, nodes_per=15)
        model = AnECI(graph.num_features, num_communities=3, epochs=15,
                      lr=0.05, seed=0, dtype=dtype, **kwargs)
        model.fit(graph)
        return graph, model

    def test_float64_explicit_matches_default(self):
        g1, m_default = self.fit(dtype="float64")
        _, m_env = self.fit(dtype="float64")
        for a, b in zip(m_default.encoder.state_dict().values(),
                        m_env.encoder.state_dict().values()):
            np.testing.assert_array_equal(a, b)

    def test_float32_trains_in_float32(self):
        graph, model = self.fit(dtype="float32")
        for value in model.encoder.state_dict().values():
            assert value.dtype == np.float32
        z = model.embed(graph)
        assert z.dtype == np.float32
        assert model.membership(graph).dtype == np.float32

    def test_float32_tracks_float64_loss_curve(self):
        _, m64 = self.fit(dtype="float64")
        _, m32 = self.fit(dtype="float32")
        loss64 = np.array([r["loss"] for r in m64.history])
        loss32 = np.array([r["loss"] for r in m32.history])
        np.testing.assert_allclose(loss32, loss64, rtol=1e-3, atol=1e-4)
        # Community assignments from the two precisions agree on a small
        # well-separated graph.
        q64 = m64.history[-1]["modularity"]
        q32 = m32.history[-1]["modularity"]
        assert abs(q64 - q32) <= 0.02


class TestInferenceReuse:
    def setup_method(self):
        workspace_cache().clear()

    def test_embed_reuses_fit_workspace_adjacency(self, monkeypatch):
        graph = small_graph()
        model = AnECI(graph.num_features, num_communities=3, epochs=2,
                      seed=0)
        model.fit(graph)
        assert model._fit_workspace is not None
        assert (model._inference_adj_norm(graph)
                is model._fit_workspace.adj_norm)
        import repro.core.aneci as aneci_mod
        calls = []
        monkeypatch.setattr(
            aneci_mod, "normalized_adjacency",
            lambda adj: calls.append(1) or normalized_adjacency(adj))
        model.embed()
        model.membership()
        model.assign_communities()
        assert calls == []  # fitted graph never re-normalises

    def test_other_graph_memoised_once(self, monkeypatch):
        graph = small_graph()
        other = small_graph(seed=9)
        model = AnECI(graph.num_features, num_communities=3, epochs=2,
                      seed=0)
        model.fit(graph)
        import repro.core.aneci as aneci_mod
        calls = []
        real = normalized_adjacency
        monkeypatch.setattr(
            aneci_mod, "normalized_adjacency",
            lambda adj: calls.append(1) or real(adj))
        z1 = model.embed(other)
        z2 = model.embed(other)
        assert len(calls) == 1
        np.testing.assert_array_equal(z1, z2)

    def test_membership_matches_stable_softmax(self):
        graph = small_graph()
        model = AnECI(graph.num_features, num_communities=3, epochs=3,
                      seed=0)
        model.fit(graph)
        z = model.embed(graph)
        np.testing.assert_array_equal(model.membership(graph),
                                      F.stable_softmax(z, axis=1))


class TestPeakMemoryGauge:
    def test_track_peak_memory_sets_gauges(self):
        with metrics.track_peak_memory("testmem"):
            _ = np.zeros(300_000)  # ~2.4 MB
        snap = metrics.registry().snapshot()
        assert snap["testmem.peak_bytes"] >= 2_000_000
        assert "testmem.alloc_bytes" in snap

    def test_nested_inside_running_trace(self):
        tracemalloc.start()
        try:
            with metrics.track_peak_memory("testmem2"):
                _ = np.zeros(10_000)
        finally:
            tracemalloc.stop()
        assert metrics.registry().snapshot()["testmem2.peak_bytes"] > 0

    def test_enclosing_peak_survives_a_workspace_build(self):
        tracemalloc.start()
        try:
            outer = np.zeros(2_500_000)  # 20 MB, freed before the build
            del outer
            build_workspace(small_graph(), AnECIConfig(num_communities=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak >= 20_000_000
        # The block still reports its own peak, not the enclosing one.
        snap = metrics.registry().snapshot()
        assert 0 < snap["workspace.build.peak_bytes"] < 20_000_000

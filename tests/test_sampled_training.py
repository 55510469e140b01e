"""Sampled training mode: estimators, determinism and full-mode parity.

Covers the ``train_mode="sampled"`` path end to end:

* full-batch default still reproduces the pre-change digests (both
  dtypes) — the sampled machinery must be invisible when off;
* a sampled-mode AnECI+ fit reproduces its own pinned digests;
* the sampled reconstruction and modularity losses are statistically
  consistent with their exact counterparts on small graphs;
* the fanout-bounded minibatch forward is bit-identical to the full
  forward when the fanout covers every degree;
* sampled-mode fits are bit-identical across worker counts and across
  checkpoint/resume;
* the config knobs validate and read their environment defaults;
* sampled-mode workspaces never densify the reconstruction target.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import AnECI, AnECIConfig, AnECIPlus, workspace_cache
from repro.core.aneci import (_compact_columns, _minibatch_forward,
                              _sampled_reconstruction)
from repro.core.encoder import GCNEncoder
from repro.core.modularity import (generalized_modularity_tensor,
                                   sampled_modularity_tensor)
from repro.core.workspace import (_config_knobs, build_workspace,
                                  cache_disabled, dense_gather_cap,
                                  get_workspace)
from repro.graph.generators import planted_partition, sparse_dcsbm
from repro.nn import Tensor, autograd, functional as F
from repro.nn.backend import NeighborSampler
from repro.obs import metrics


def _hash(a):
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(),
                           digest_size=16).hexdigest()


def small_graph(seed=7):
    return planted_partition(3, 40, 0.3, 0.05, np.random.default_rng(seed),
                             num_features=16)


def _model(graph, **overrides):
    kwargs = dict(num_communities=3, epochs=12, lr=0.02, seed=0)
    kwargs.update(overrides)
    return AnECI(graph.num_features, **kwargs)


# The full_f64 / full_f32 rows of tests/test_backend.py's
# REFERENCE_HASHES — recorded on the engine BEFORE the kernel module
# existed.  Explicit ``train_mode="full"`` must keep reproducing them.
FULL_MODE_HASHES = {
    "float64": ("c9ae5f014985727ab443e94981e751fa",
                "834cfe0c0c85df9a57899fd532853881"),
    "float32": ("32578d9d2f4d75c4b719888b05495bfa",
                "1bb0f44150bcb535fd202e1dbb5470b7"),
}

# AnECI+ (embedding, membership) digests of a sampled-mode fit on a
# 3000-node DC-SBM whose 512-node batches cover part of the graph.
# Recorded once the first GCN layer of a sampled batch aggregated
# before its weight product, ``(B·X)·W``.  These bits depend on the
# BLAS thread count: with one OpenBLAS thread they read
# ("3e5f1a7858be58349c2a1f88171fcca2", "134f3cf5c6af1e97ef1003e13d8fc8d4").
SAMPLED_PLUS_KWARGS = dict(train_mode="sampled", batch_nodes=512,
                           edge_samples=1024, negative_samples=5, fanout=10)
SAMPLED_PLUS_HASHES = ("e86af448e64a072c083c0b9548f83801",
                       "3a7602c9491e423ab873f4b4f8cb98d8")

# AnECI (embedding, membership) digests of a two-epoch sampled fit on a
# 12,000-node DC-SBM: large enough that its proximity may be computed in
# row blocks, which must leave the fit bit-for-bit unchanged.  With one
# OpenBLAS thread they read ("c33ebbc37f76e9e745d9e2f1cec0d05b",
# "c60ba4da45aed7b5d208aac55bda4733").
SAMPLED_12K_HASHES = ("3f802fffffdd8ed7ee786eb284e704d5",
                      "3ec9a1aeded1219e40bd5328f4299348")


# --------------------------------------------------------------------- #
# Full-batch default stays bit-identical                                 #
# --------------------------------------------------------------------- #
class TestFullModeUnchanged:
    @pytest.mark.parametrize("dtype", sorted(FULL_MODE_HASHES))
    def test_explicit_full_mode_matches_prerefactor_hashes(self, dtype):
        workspace_cache().clear()
        graph = small_graph()
        model = _model(graph, dtype=dtype, train_mode="full")
        embedding = model.fit_transform(graph)
        expected_emb, expected_mem = FULL_MODE_HASHES[dtype]
        assert _hash(embedding) == expected_emb
        assert _hash(model.membership()) == expected_mem

    def test_sampled_aneci_plus_matches_pinned_hashes(self):
        workspace_cache().clear()
        graph = sparse_dcsbm(3000, 10, np.random.default_rng(0),
                             avg_degree=10.0, mixing=0.1, num_features=64)
        model = AnECIPlus(graph.num_features, num_communities=10, seed=0,
                          alpha=4.0, epochs=3, lr=0.05, dtype="float64",
                          **SAMPLED_PLUS_KWARGS)
        embedding = model.fit_transform(graph)
        assert model.denoise_result.num_dropped == 1577
        assert _hash(embedding) == SAMPLED_PLUS_HASHES[0]
        assert _hash(model.membership()) == SAMPLED_PLUS_HASHES[1]

    def test_sampled_fit_at_12k_matches_pinned_hashes(self):
        workspace_cache().clear()
        graph = sparse_dcsbm(12_000, 10, np.random.default_rng(0),
                             avg_degree=8.0, mixing=0.1, num_features=64)
        model = AnECI(graph.num_features, num_communities=10, seed=0,
                      epochs=2, lr=0.05, dtype="float64",
                      **SAMPLED_PLUS_KWARGS)
        embedding = model.fit_transform(graph)
        assert _hash(embedding) == SAMPLED_12K_HASHES[0]
        assert _hash(model.membership()) == SAMPLED_12K_HASHES[1]

    def test_default_train_mode_is_full(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRAIN_MODE", raising=False)
        assert AnECIConfig(num_communities=3).train_mode == "full"


# --------------------------------------------------------------------- #
# Estimator consistency                                                  #
# --------------------------------------------------------------------- #
class TestEstimatorConsistency:
    def _membership(self, graph, ws):
        enc = GCNEncoder(graph.num_features, (64, 3),
                         rng=np.random.default_rng(0))
        feats = Tensor(np.asarray(graph.features, dtype=np.float64))
        return enc(feats, ws.adj_norm).softmax(axis=-1)

    def test_sampled_reconstruction_mean_matches_exact_loss(self):
        graph = small_graph()
        ws = build_workspace(graph, AnECIConfig(num_communities=3,
                                                train_mode="sampled"))
        p = self._membership(graph, ws)
        exact = F.binary_cross_entropy_with_logits(
            p @ p.T, ws.recon_target.toarray(), "mean").item()
        idx = np.arange(graph.num_nodes, dtype=np.int64)
        block = ws.recon_block(idx)
        draws = [
            _sampled_reconstruction(p, block, 512, 3,
                                    np.random.default_rng(1000 + i))[0].item()
            for i in range(150)
        ]
        assert abs(np.mean(draws) - exact) < 0.01

    def test_sampled_modularity_equals_exact_on_full_batch(self):
        graph = small_graph()
        ws = build_workspace(graph, AnECIConfig(num_communities=3,
                                                train_mode="sampled"))
        p = self._membership(graph, ws)
        idx = np.arange(graph.num_nodes, dtype=np.int64)
        exact = generalized_modularity_tensor(
            p, ws.prox, ws.degrees, ws.two_m).item()
        full_batch = sampled_modularity_tensor(
            p, idx, ws.prox, ws.degrees, ws.two_m, ws.num_nodes,
            ws.prox_diagonal()).item()
        assert full_batch == pytest.approx(exact, rel=1e-9)

    def test_sampled_modularity_gradient_equals_exact_on_full_batch(self):
        # Row-normalised Ã is not symmetric: a backward pass through Ã
        # instead of Ãᵀ keeps the value exact but bends the gradient.
        graph = sparse_dcsbm(300, 4, np.random.default_rng(0),
                             num_features=16)
        ws = build_workspace(graph, AnECIConfig(num_communities=4,
                                                train_mode="sampled"))
        assert (ws.prox != ws.prox.T).nnz > 0
        logits = np.random.default_rng(1).normal(size=(300, 4))
        p_exact = Tensor(logits, requires_grad=True)
        p_sampled = Tensor(logits.copy(), requires_grad=True)
        exact = generalized_modularity_tensor(
            p_exact.softmax(axis=-1), ws.prox, ws.degrees, ws.two_m)
        sampled = sampled_modularity_tensor(
            p_sampled.softmax(axis=-1), np.arange(300, dtype=np.int64),
            ws.prox, ws.degrees, ws.two_m, ws.num_nodes, ws.prox_diagonal())
        exact.backward()
        sampled.backward()
        assert sampled.item() == exact.item()
        assert np.array_equal(p_sampled.grad, p_exact.grad)

    def test_sampled_modularity_mean_matches_exact(self):
        graph = small_graph()
        ws = build_workspace(graph, AnECIConfig(num_communities=3,
                                                train_mode="sampled"))
        p = self._membership(graph, ws)
        exact = generalized_modularity_tensor(
            p, ws.prox, ws.degrees, ws.two_m).item()
        draws = []
        for i in range(800):
            r = np.random.default_rng(500 + i)
            sub = np.sort(r.choice(graph.num_nodes, 40, replace=False))
            draws.append(sampled_modularity_tensor(
                Tensor(p.data[sub]), sub, ws.prox, ws.degrees, ws.two_m,
                ws.num_nodes, ws.prox_diagonal()).item())
        se = np.std(draws) / np.sqrt(len(draws))
        assert abs(np.mean(draws) - exact) < max(5.0 * se, 1e-4)

    def test_sampled_reconstruction_gradients_flow(self):
        graph = small_graph()
        ws = build_workspace(graph, AnECIConfig(num_communities=3,
                                                train_mode="sampled"))
        p = Tensor(np.random.default_rng(0).random((graph.num_nodes, 3)),
                   requires_grad=True)
        idx = np.arange(graph.num_nodes, dtype=np.int64)
        loss, num_pos, num_neg = _sampled_reconstruction(
            p, ws.recon_block(idx), 128, 2, np.random.default_rng(1))
        loss.backward()
        assert num_pos == 128 and num_neg == 256
        assert p.grad is not None and np.isfinite(p.grad).all()
        assert np.abs(p.grad).sum() > 0


# --------------------------------------------------------------------- #
# Neighbor sampling                                                      #
# --------------------------------------------------------------------- #
class TestNeighborSampler:
    def test_full_fanout_reproduces_rows_exactly(self):
        graph = small_graph()
        ws = build_workspace(graph, AnECIConfig(num_communities=3))
        max_deg = int(np.diff(ws.adj_norm.indptr).max())
        sampler = NeighborSampler(ws.adj_norm, max_deg)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        out_ptr, cols, vals = sampler.sample(seeds,
                                             np.random.default_rng(0))
        assert np.array_equal(out_ptr, ws.adj_norm.indptr)
        assert np.array_equal(cols, ws.adj_norm.indices)
        assert np.array_equal(vals, ws.adj_norm.data)

    def test_oversized_rows_are_rescaled_unbiased(self):
        # A star: node 0 has degree 8, leaves have degree 1.
        n = 9
        row = np.repeat(0, n - 1)
        col = np.arange(1, n)
        adj = sp.csr_matrix(
            (np.ones(2 * (n - 1)),
             (np.concatenate([row, col]), np.concatenate([col, row]))),
            shape=(n, n))
        sampler = NeighborSampler(adj, 4)
        sums = [sampler.sample(np.array([0]),
                               np.random.default_rng(i))[2].sum()
                for i in range(400)]
        # Every draw of an oversized row sums to deg/fanout per entry *
        # fanout entries = deg exactly (all values are 1 here).
        assert np.allclose(sums, 8.0)

    def test_minibatch_forward_matches_full_forward_at_full_fanout(self):
        graph = small_graph()
        cfg = AnECIConfig(num_communities=3, train_mode="sampled")
        ws = build_workspace(graph, cfg)
        enc = GCNEncoder(graph.num_features, (64, 3),
                         rng=np.random.default_rng(0))
        feats = Tensor(np.asarray(graph.features, dtype=np.float64))
        max_deg = int(np.diff(ws.adj_norm.indptr).max())
        idx = np.arange(graph.num_nodes, dtype=np.int64)
        z_blocks = _minibatch_forward(enc, feats, ws, idx, max_deg,
                                      np.random.default_rng(1))
        z_full = enc(feats, ws.adj_norm)
        assert np.array_equal(z_blocks.data, z_full.data)

    def test_minibatch_forward_subset_rows_at_full_fanout(self):
        graph = small_graph()
        cfg = AnECIConfig(num_communities=3, train_mode="sampled")
        ws = build_workspace(graph, cfg)
        enc = GCNEncoder(graph.num_features, (64, 3),
                         rng=np.random.default_rng(0))
        feats = Tensor(np.asarray(graph.features, dtype=np.float64))
        max_deg = int(np.diff(ws.adj_norm.indptr).max())
        idx = np.array([3, 17, 40, 77, 118], dtype=np.int64)
        z_blocks = _minibatch_forward(enc, feats, ws, idx, max_deg,
                                      np.random.default_rng(1))
        z_full = enc(feats, ws.adj_norm)
        assert np.allclose(z_blocks.data, z_full.data[idx], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_compact_columns_matches_unique_searchsorted(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 500))
        cols = np.concatenate([
            rng.integers(0, n, int(rng.integers(1, 3 * n))),
            [n - 1, n - 1, 0]]).astype(np.int64)
        cols = cols[rng.permutation(cols.size)]
        in_nodes, local_cols = _compact_columns(cols, n)
        expected = np.unique(cols)
        assert np.array_equal(in_nodes, expected)
        assert in_nodes.dtype == expected.dtype
        assert np.array_equal(local_cols, np.searchsorted(expected, cols))
        assert np.array_equal(in_nodes[local_cols], cols)

    def test_fanout_validation(self):
        graph = small_graph()
        ws = build_workspace(graph, AnECIConfig(num_communities=3))
        with pytest.raises(ValueError, match="fanout"):
            NeighborSampler(ws.adj_norm, 0)


# --------------------------------------------------------------------- #
# Sampled-mode determinism                                               #
# --------------------------------------------------------------------- #
SAMPLED_KWARGS = dict(train_mode="sampled", batch_nodes=48,
                      edge_samples=256, negative_samples=3, fanout=6)


class TestSampledDeterminism:
    def test_repeat_fits_are_bit_identical(self):
        graph = small_graph()
        runs = []
        for _ in range(2):
            workspace_cache().clear()
            model = _model(graph, **SAMPLED_KWARGS)
            runs.append(model.fit_transform(graph))
        assert np.array_equal(runs[0], runs[1])

    def test_serial_and_two_workers_are_bit_identical(self):
        graph = small_graph()
        workspace_cache().clear()
        serial = _model(graph, n_init=2, **SAMPLED_KWARGS)
        serial.fit(graph, workers=1)
        workspace_cache().clear()
        pooled = _model(graph, n_init=2, **SAMPLED_KWARGS)
        pooled.fit(graph, workers=2)
        assert serial.history == pooled.history
        assert np.array_equal(serial.embed(graph), pooled.embed(graph))

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        from repro.resilience.checkpoint import run_key
        graph = small_graph()
        workspace_cache().clear()
        reference = _model(graph, checkpoint_dir=str(tmp_path),
                           checkpoint_every=4, **SAMPLED_KWARGS)
        reference.fit(graph)
        run_dir = tmp_path / run_key(graph, reference.config)
        # Simulate the crash: only a mid-run snapshot survives.
        os.remove(run_dir / "final.ckpt")
        for name in sorted(os.listdir(run_dir))[1:]:
            os.remove(run_dir / name)
        workspace_cache().clear()
        resumed = _model(graph, **SAMPLED_KWARGS)
        resumed.fit(graph, resume_from=str(tmp_path))
        assert resumed.history == reference.history
        assert np.array_equal(resumed.embed(graph),
                              reference.embed(graph))

    def test_dropout_trains_deterministically(self):
        graph = small_graph()
        runs = []
        for _ in range(2):
            workspace_cache().clear()
            model = _model(graph, dropout=0.3, epochs=6, **SAMPLED_KWARGS)
            runs.append(model.fit_transform(graph))
        assert np.array_equal(runs[0], runs[1])


# --------------------------------------------------------------------- #
# Config knobs and workspace behaviour                                   #
# --------------------------------------------------------------------- #
class TestConfigAndWorkspace:
    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRAIN_MODE", "sampled")
        monkeypatch.setenv("REPRO_BATCH_NODES", "128")
        monkeypatch.setenv("REPRO_EDGE_SAMPLES", "777")
        monkeypatch.setenv("REPRO_NEG_SAMPLES", "2")
        monkeypatch.setenv("REPRO_FANOUT", "4")
        cfg = AnECIConfig(num_communities=3)
        assert (cfg.train_mode, cfg.batch_nodes, cfg.edge_samples,
                cfg.negative_samples, cfg.fanout) == \
            ("sampled", 128, 777, 2, 4)

    @pytest.mark.parametrize("bad", [
        dict(train_mode="minibatch"),
        dict(batch_nodes=1),
        dict(edge_samples=0),
        dict(negative_samples=0),
        dict(fanout=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            AnECIConfig(num_communities=3, **bad)

    def test_train_mode_is_part_of_the_workspace_key(self):
        full = AnECIConfig(num_communities=3, train_mode="full")
        sampled = AnECIConfig(num_communities=3, train_mode="sampled")
        assert _config_knobs(full) != _config_knobs(sampled)

    def test_sampled_workspace_never_densifies(self):
        graph = small_graph()
        assert graph.num_nodes <= dense_gather_cap()
        skipped = metrics.registry().counter("workspace.dense_skipped")
        before = skipped.value
        ws = build_workspace(graph, AnECIConfig(num_communities=3,
                                                train_mode="sampled"))
        assert ws.lazy_dense
        assert ws.recon_dense is None
        assert skipped.value == before + 1
        expected = float(graph.num_nodes) ** 2 * ws.dtype.itemsize
        assert metrics.registry().gauge(
            "workspace.dense_skipped_bytes").value == expected
        with pytest.raises(RuntimeError, match="no dense target"):
            ws.dense_target()

    def test_sampled_fit_never_transposes_the_proximity(self):
        graph = small_graph()
        workspace_cache().clear()
        model = _model(graph, **SAMPLED_KWARGS)
        model.fit(graph)
        ws = get_workspace(graph, model.config)
        assert id(ws.adj_norm) in autograd._TRANSPOSE_CACHE
        assert id(ws.prox) not in autograd._TRANSPOSE_CACHE

    def test_full_fit_prewarms_the_proximity_transpose(self):
        graph = small_graph()
        workspace_cache().clear()
        model = _model(graph, train_mode="full", epochs=2)
        ws = get_workspace(graph, model.config)
        assert id(ws.prox) in autograd._TRANSPOSE_CACHE
        model.fit(graph)
        assert get_workspace(graph, model.config) is ws

    def test_full_workspace_still_densifies(self):
        graph = small_graph()
        ws = build_workspace(graph, AnECIConfig(num_communities=3,
                                                train_mode="full"))
        assert not ws.lazy_dense
        assert ws.recon_dense is not None

    def test_recon_block_is_sorted_csr(self):
        graph = small_graph()
        ws = build_workspace(graph, AnECIConfig(num_communities=3,
                                                train_mode="sampled"))
        idx = np.array([5, 20, 60, 100], dtype=np.int64)
        block = ws.recon_block(idx)
        assert block.shape == (4, 4)
        assert block.has_sorted_indices
        assert np.allclose(block.toarray(),
                           ws.recon_target[idx][:, idx].toarray())

    def test_batch_indices_full_coverage_consumes_no_randomness(self):
        graph = small_graph()
        ws = build_workspace(graph, AnECIConfig(num_communities=3,
                                                train_mode="sampled"))
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        idx = ws.batch_indices(rng, graph.num_nodes + 10)
        assert np.array_equal(idx, np.arange(graph.num_nodes))
        assert rng.bit_generator.state == state

    def test_batch_indices_sorted_unique_subset(self):
        graph = small_graph()
        ws = build_workspace(graph, AnECIConfig(num_communities=3,
                                                train_mode="sampled"))
        idx = ws.batch_indices(np.random.default_rng(3), 30)
        assert idx.size == 30
        assert np.array_equal(idx, np.unique(idx))


# --------------------------------------------------------------------- #
# Generator + integration                                                #
# --------------------------------------------------------------------- #
class TestSparseDCSBMAndIntegration:
    def test_generator_shape_and_structure(self):
        g = sparse_dcsbm(3000, 6, np.random.default_rng(0), avg_degree=8.0,
                         mixing=0.1, num_features=24)
        assert g.num_nodes == 3000
        assert g.features.shape == (3000, 24)
        assert g.labels is not None and g.num_classes == 6
        adj = g.adjacency
        assert (adj != adj.T).nnz == 0
        assert not adj.diagonal().any()
        assert set(np.unique(adj.data)) == {1.0}
        # Degree budget is honoured to within Poisson/collision slack.
        assert g.degrees().mean() == pytest.approx(8.0, rel=0.15)

    def test_generator_indicator_features(self):
        g = sparse_dcsbm(500, 5, np.random.default_rng(1))
        assert g.features.shape == (500, 5)
        assert np.array_equal(g.features.argmax(axis=1), g.labels)

    def test_generator_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sparse_dcsbm(5, 4, rng)
        with pytest.raises(ValueError):
            sparse_dcsbm(100, 4, rng, mixing=1.0)
        with pytest.raises(ValueError):
            sparse_dcsbm(100, 4, rng, avg_degree=0.0)
        with pytest.raises(ValueError):
            sparse_dcsbm(100, 4, rng, num_features=2)

    def test_generator_is_seeded(self):
        a = sparse_dcsbm(800, 4, np.random.default_rng(9), num_features=16)
        b = sparse_dcsbm(800, 4, np.random.default_rng(9), num_features=16)
        assert (a.adjacency != b.adjacency).nnz == 0
        assert np.array_equal(a.features, b.features)

    def test_sampled_fit_recovers_communities(self):
        # End to end: sampled training on a DC-SBM recovers structure
        # well above chance (NMI of random labels on 4 communities ~ 0).
        from repro.metrics import normalized_mutual_info
        g = sparse_dcsbm(1200, 4, np.random.default_rng(2), avg_degree=12.0,
                         mixing=0.05, num_features=32)
        with cache_disabled():
            model = AnECI(g.num_features, num_communities=4, epochs=60,
                          lr=0.05, seed=0, train_mode="sampled",
                          batch_nodes=400, edge_samples=2048,
                          negative_samples=5, fanout=16)
            model.fit(g)
        nmi = normalized_mutual_info(g.labels, model.assign_communities())
        assert nmi > 0.3

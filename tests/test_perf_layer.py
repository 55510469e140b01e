"""Tests for the training hot-path layer: fused kernels, the spmm
transpose cache, the fit workspace cache, and the restart-selection fix.

The contract is *bit-exact* equivalence: the fused BCE kernel matches
the op-by-op composition built here from public ``Tensor`` ops, the
cached spmm transpose matches a fresh one, and fixed-seed fits match
digests recorded on the engine from before the fused kernels and caches
existed.  Most assertions therefore use ``np.array_equal`` or compare
digests, not tolerances.
"""

import gc
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import AnECI, AnECIConfig, workspace_cache
from repro.core.workspace import (_config_knobs, build_workspace,
                                  fit_fingerprint, get_workspace,
                                  WorkspaceCache)
from repro.graph.generators import planted_partition
from repro.nn import Tensor, functional as F, spmm
from repro.nn.autograd import (cached_transpose, clear_transpose_cache,
                               fused_bce_with_logits, transpose_cache_size)
from repro.obs import metrics

RNG = np.random.default_rng(7)


def small_graph(seed=3, num_features=12):
    return planted_partition(3, 12, 0.7, 0.05, np.random.default_rng(seed),
                             num_features=num_features)


def grads_and_value(loss_fn, logits_data):
    logits = Tensor(logits_data.copy(), requires_grad=True)
    loss = loss_fn(logits)
    if loss.data.ndim:
        loss = loss.sum()
    loss.backward()
    return loss.item(), logits.grad.copy()


def composed_bce_with_logits(logits, target, reduction, weights=None):
    """Stable BCE as the op-by-op chain
    ``relu(x) - x*t + log(1 + exp(-|x|))``, optionally weighted: the
    reference the fused kernel reproduces bit for bit."""
    loss = (logits.relu() - logits * Tensor(target)
            + ((-logits.abs()).exp() + 1.0).log())
    if weights is not None:
        loss = loss * Tensor(weights)
    if reduction == "none":
        return loss
    return loss.sum() if reduction == "sum" else loss.mean()


# --------------------------------------------------------------------- #
# Fused BCE kernel                                                       #
# --------------------------------------------------------------------- #
class TestFusedBCE:
    @pytest.mark.parametrize("reduction", ["sum", "mean", "none"])
    def test_bitwise_equal_to_composed(self, reduction):
        logits_data = RNG.normal(scale=3.0, size=(9, 9))
        target = (RNG.random((9, 9)) > 0.6).astype(np.float64)

        def fused(logits):
            return F.binary_cross_entropy_with_logits(logits, target,
                                                      reduction)

        def composed(logits):
            return composed_bce_with_logits(logits, target, reduction)

        value_f, grad_f = grads_and_value(fused, logits_data)
        value_r, grad_r = grads_and_value(composed, logits_data)
        # Bit-exact, not merely close: same float ops in the same order.
        assert value_f == value_r
        assert np.array_equal(grad_f, grad_r)

    def test_weighted_variant_bitwise_equal(self):
        logits_data = RNG.normal(scale=2.0, size=(7, 7))
        target = (RNG.random((7, 7)) > 0.7).astype(np.float64)

        def weighted(logits):
            return F.weighted_binary_cross_entropy_with_logits(
                logits, target, pos_weight=3.5, reduction="mean")

        def composed(logits):
            weights = np.where(target > 0.5, 3.5, 1.0)
            return composed_bce_with_logits(logits, target, "mean", weights)

        value_f, grad_f = grads_and_value(weighted, logits_data)
        value_r, grad_r = grads_and_value(composed, logits_data)
        assert value_f == value_r
        assert np.array_equal(grad_f, grad_r)

    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_finite_difference_gradient(self, reduction):
        x = RNG.normal(scale=1.5, size=(4, 5))
        target = (RNG.random((4, 5)) > 0.5).astype(np.float64)

        def value(arr):
            return fused_bce_with_logits(Tensor(arr), target,
                                         reduction=reduction).item()

        logits = Tensor(x.copy(), requires_grad=True)
        fused_bce_with_logits(logits, target, reduction=reduction).backward()
        eps = 1e-6
        numeric = np.zeros_like(x)
        for i in np.ndindex(*x.shape):
            bumped = x.copy()
            bumped[i] += eps
            plus = value(bumped)
            bumped[i] -= 2 * eps
            minus = value(bumped)
            numeric[i] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(logits.grad, numeric, atol=1e-5)

    def test_weighted_finite_difference_gradient(self):
        x = RNG.normal(size=(3, 4))
        target = (RNG.random((3, 4)) > 0.5).astype(np.float64)
        weights = RNG.uniform(0.5, 4.0, size=(3, 4))

        logits = Tensor(x.copy(), requires_grad=True)
        fused_bce_with_logits(logits, target, weights=weights,
                              reduction="sum").backward()
        eps = 1e-6
        numeric = np.zeros_like(x)
        for i in np.ndindex(*x.shape):
            bumped = x.copy()
            bumped[i] += eps
            plus = fused_bce_with_logits(Tensor(bumped), target,
                                         weights=weights).item()
            bumped[i] -= 2 * eps
            minus = fused_bce_with_logits(Tensor(bumped), target,
                                          weights=weights).item()
            numeric[i] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(logits.grad, numeric, atol=1e-5)

    def test_reduction_none_matches_elementwise(self):
        x = RNG.normal(size=(5, 5))
        target = (RNG.random((5, 5)) > 0.5).astype(np.float64)
        out = fused_bce_with_logits(Tensor(x), target, reduction="none")
        expected = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0) - x * target
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


# --------------------------------------------------------------------- #
# spmm transpose cache                                                   #
# --------------------------------------------------------------------- #
class TestTransposeCache:
    def setup_method(self):
        clear_transpose_cache()

    def test_cached_transpose_is_correct_and_reused(self):
        matrix = sp.random(20, 20, density=0.2, format="csr",
                           random_state=5)
        first = cached_transpose(matrix)
        second = cached_transpose(matrix)
        assert first is second  # same object: computed once per matrix
        np.testing.assert_allclose(first.toarray(), matrix.T.toarray())

    def test_spmm_gradient_matches_with_and_without_cache(self):
        matrix = sp.random(15, 15, density=0.3, format="csr",
                           random_state=2)
        x_data = RNG.normal(size=(15, 4))

        def run(transpose=None):
            x = Tensor(x_data.copy(), requires_grad=True)
            spmm(matrix, x, transpose=transpose).sum().backward()
            return x.grad.copy()

        cached = run()
        assert transpose_cache_size() == 1
        clear_transpose_cache()
        uncached = run(transpose=matrix.T.tocsr())
        assert transpose_cache_size() == 0
        assert np.array_equal(cached, uncached)

    def test_explicit_transpose_override(self):
        matrix = sp.random(10, 10, density=0.3, format="csr",
                           random_state=3)
        precomputed = matrix.T.tocsr()
        x = Tensor(RNG.normal(size=(10, 3)), requires_grad=True)
        spmm(matrix, x, transpose=precomputed).sum().backward()
        expected = precomputed @ np.ones((10, 3))
        np.testing.assert_allclose(x.grad, expected)
        assert transpose_cache_size() == 0  # override bypasses the cache

    def test_entries_evicted_when_matrix_collected(self):
        matrix = sp.random(8, 8, density=0.4, format="csr", random_state=4)
        cached_transpose(matrix)
        assert transpose_cache_size() == 1
        del matrix
        gc.collect()
        assert transpose_cache_size() == 0


# --------------------------------------------------------------------- #
# Workspace cache                                                        #
# --------------------------------------------------------------------- #
def counter_value(name):
    return metrics.registry().counter(name).value


class TestWorkspaceCache:
    def setup_method(self):
        workspace_cache().clear()

    def test_same_graph_and_config_hits(self):
        graph = small_graph()
        config = AnECIConfig(num_communities=3)
        misses = counter_value("workspace.misses")
        hits = counter_value("workspace.hits")
        first = get_workspace(graph, config)
        second = get_workspace(graph, config)
        assert first is second
        assert counter_value("workspace.misses") == misses + 1
        assert counter_value("workspace.hits") == hits + 1

    def test_structural_mutation_misses(self):
        graph = small_graph()
        config = AnECIConfig(num_communities=3)
        first = get_workspace(graph, config)
        mutated = graph.add_edges([(0, 30), (1, 25)])
        second = get_workspace(mutated, config)
        assert first is not second
        assert first.fingerprint != second.fingerprint

    def test_knob_change_misses(self):
        graph = small_graph()
        first = get_workspace(graph, AnECIConfig(num_communities=3, order=1))
        second = get_workspace(graph, AnECIConfig(num_communities=3, order=2))
        assert first is not second
        # Seed-like knobs that do not affect the constants share an entry.
        third = get_workspace(graph, AnECIConfig(num_communities=3, order=2,
                                                 seed=999, lr=0.5))
        assert third is second

    def test_fingerprint_covers_csr_arrays(self):
        graph = small_graph()
        knobs = _config_knobs(AnECIConfig(num_communities=3))
        base = fit_fingerprint(graph.adjacency, knobs)
        assert base == fit_fingerprint(graph.adjacency.copy(), knobs)
        mutated = graph.add_edges([(0, 20)])
        assert base != fit_fingerprint(mutated.adjacency, knobs)

    def test_lru_eviction(self):
        cache = WorkspaceCache(maxsize=2)
        config = AnECIConfig(num_communities=3)
        graphs = [small_graph(seed=s) for s in (1, 2, 3)]
        evictions = counter_value("workspace.evictions")
        for g in graphs:
            cache.get(g, config)
        assert len(cache) == 2
        assert counter_value("workspace.evictions") == evictions + 1
        assert cache.get(graphs[0], config).fingerprint == fit_fingerprint(
            graphs[0].adjacency, _config_knobs(config))

    def test_build_workspace_bypasses_cache(self):
        graph = small_graph()
        config = AnECIConfig(num_communities=3)
        first = build_workspace(graph, config)
        second = build_workspace(graph, config)
        assert first is not second
        assert len(workspace_cache()) == 0

    def test_workspace_matches_uncached_build(self):
        graph = small_graph()
        config = AnECIConfig(num_communities=3)
        cached = get_workspace(graph, config)
        fresh = build_workspace(graph, config)
        np.testing.assert_allclose(cached.prox.toarray(),
                                   fresh.prox.toarray())
        np.testing.assert_allclose(cached.degrees, fresh.degrees)
        assert cached.two_m == fresh.two_m
        np.testing.assert_allclose(cached.dense_target(),
                                   fresh.dense_target())

    def test_sampled_path_target_block(self):
        graph = small_graph()
        config = AnECIConfig(num_communities=3, recon_sample_size=10)
        workspace = get_workspace(graph, config)
        assert workspace.sample_nodes == 10
        idx = np.array([0, 5, 17, 30, 2, 9, 21, 33, 4, 11])
        expected = workspace.recon_target[idx][:, idx].toarray()
        np.testing.assert_allclose(workspace.target_block(idx), expected)


# --------------------------------------------------------------------- #
# End-to-end fixed-seed equivalence                                      #
# --------------------------------------------------------------------- #
RECORD_KEYS = ("epoch", "restart", "loss", "modularity", "reconstruction",
               "rigidity")

#: blake2b-128 of every epoch record the fit callback observes (all
#: restarts, ``RECORD_KEYS`` as float64) followed by the embedding bytes.
#: Recorded by replaying the engine from before the fused kernels and
#: caches (workspace rebuilt per fit, op-by-op BCE, per-call spmm
#: transposes, reference-cycle graph nodes); the optimised engine gave
#: the same digests, at one and at two BLAS threads.
REFERENCE_DIGESTS = {
    "full": "68abb5b3e4906c30b1f2e460b44edbb7",
    "sampled": "1ac3677d61a4ccff128a42748a7b4e01",
    "restarts": "4615a1ea2b0347aa6d85439211e1d3cc",
}


def fit_digest(**kwargs):
    """Cold fixed-seed fit on the 36-node graph; digest of its history
    and embedding.  ``dtype`` is explicit so the REPRO_DTYPE CI leg
    cannot skew the recipe."""
    workspace_cache().clear()
    clear_transpose_cache()
    graph = small_graph(num_features=16)
    records = []
    model = AnECI(graph.num_features, num_communities=3, epochs=8,
                  lr=0.05, seed=11, dtype="float64", **kwargs)
    model.fit(graph, callback=lambda epoch, m, record:
              records.append([record[k] for k in RECORD_KEYS]))
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(records, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(model.embed()).tobytes())
    return digest.hexdigest()


class TestFixedSeedEquivalence:
    """Fixed-seed fits reproduce the pre-optimisation engine bit for
    bit: loss history, every restart, and the embedding."""

    def test_full_graph_history_matches_reference(self):
        assert fit_digest() == REFERENCE_DIGESTS["full"]

    def test_sampled_path_history_matches_reference(self):
        assert (fit_digest(recon_sample_size=12)
                == REFERENCE_DIGESTS["sampled"])

    def test_restarts_match_reference(self):
        assert fit_digest(n_init=2) == REFERENCE_DIGESTS["restarts"]


# --------------------------------------------------------------------- #
# Restart selection                                                      #
# --------------------------------------------------------------------- #
class TestRestartSelection:
    def test_selection_modularity_is_best_epoch_under_patience(self):
        graph = small_graph(num_features=16)
        model = AnECI(graph.num_features, num_communities=3, epochs=40,
                      lr=0.05, seed=0, patience=3)
        model.fit(graph)
        best_recorded = max(r["modularity"] for r in model.history)
        # The kept state is the restored best, so the ranking value must
        # be that record's modularity — not the last epoch's.
        assert model.selection_modularity == pytest.approx(best_recorded,
                                                           abs=1e-12)

    def test_selection_modularity_is_last_epoch_without_patience(self):
        graph = small_graph(num_features=16)
        model = AnECI(graph.num_features, num_communities=3, epochs=6,
                      lr=0.05, seed=0)
        model.fit(graph)
        assert model.selection_modularity == \
            model.history[-1]["modularity"]

    def test_restarts_rank_by_restored_best(self):
        graph = small_graph(num_features=16)
        per_restart_best = {}

        def callback(epoch, model, record):
            r = record["restart"]
            prev = per_restart_best.get(r, -np.inf)
            per_restart_best[r] = max(prev, record["modularity"])

        model = AnECI(graph.num_features, num_communities=3, epochs=25,
                      lr=0.05, seed=0, n_init=3, patience=4)
        model.fit(graph, callback=callback)
        # The kept restart is the argmax over restored-best modularities.
        assert model.selection_modularity == pytest.approx(
            max(per_restart_best.values()), abs=1e-12)

"""Tests for the kernel module (:mod:`repro.nn.backend`).

The hard contract under test: the kernels reproduce the engine's
historical embeddings **bit for bit**.  The recorded hashes below were
produced by the engine *before* the kernel module existed (same graph
recipe, same config), so full-fit equality against them proves that
moving the kernels — fused GCN layer, fused BCE loss, optimizer steps
and all — changed nothing, down to the last ULP.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import AnECI, workspace_cache
from repro.graph.generators import planted_partition
from repro.nn import Tensor, spmm
from repro.nn.autograd import transpose_cache_size
from repro.nn.backend import op_counts, reset_op_counts
from repro.nn.layers import GCNConv


def _hash(a):
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(),
                           digest_size=16).hexdigest()


def _assert_close(got, want, tol):
    """``got`` within ``tol`` of ``want``, relative to ``want``'s largest
    magnitude."""
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def small_graph(seed=7):
    return planted_partition(3, 40, 0.3, 0.05, np.random.default_rng(seed),
                             num_features=16)


# --------------------------------------------------------------------- #
# Full-fit bit-exactness against the engine before the kernel module    #
# --------------------------------------------------------------------- #
#: (embedding hash, membership hash) recorded on the engine BEFORE the
#: kernel module existed — planted_partition(3, 40, 0.3, 0.05, rng(7),
#: num_features=16); AnECI(16, num_communities=3, epochs=12, lr=0.02,
#: seed=0, **case kwargs); blake2b-128 of the contiguous array bytes.
REFERENCE_HASHES = {
    "full_f64": ("c9ae5f014985727ab443e94981e751fa",
                 "834cfe0c0c85df9a57899fd532853881"),
    "full_f32": ("32578d9d2f4d75c4b719888b05495bfa",
                 "1bb0f44150bcb535fd202e1dbb5470b7"),
    "sampled_f64": ("9b92638de72a23ae083fc7a9cbb2798a",
                    "b6c02b2b62435c86b7e2033c00766157"),
    "restarts_f64": ("e8647aca575ff23e71d0ae69a7b18753",
                     "24ca89bc232d07cce46638fb1bfc939b"),
}

CASE_KWARGS = {
    "full_f64": dict(dtype="float64"),
    "full_f32": dict(dtype="float32"),
    "sampled_f64": dict(dtype="float64", recon_sample_size=40),
    "restarts_f64": dict(dtype="float64", n_init=2),
}


class TestFullFitBitExactness:
    @pytest.mark.parametrize("case", sorted(REFERENCE_HASHES))
    def test_fit_matches_prerefactor_hashes(self, case):
        # dtype is explicit so the REPRO_DTYPE CI env leg cannot skew
        # the recipe.
        workspace_cache().clear()
        graph = small_graph()
        model = AnECI(graph.num_features, num_communities=3, epochs=12,
                      lr=0.02, seed=0, **CASE_KWARGS[case])
        embedding = model.fit_transform(graph)
        membership = model.membership()
        expected_emb, expected_mem = REFERENCE_HASHES[case]
        assert _hash(embedding) == expected_emb
        assert _hash(membership) == expected_mem


# --------------------------------------------------------------------- #
# Fused GCN layer vs the historical composed chain                       #
# --------------------------------------------------------------------- #
def composed_gcn_layer(conv, x, matrix, slope):
    """``spmm(Ā, x W) [+ b]`` then ``.leaky_relu``: the op-by-op chain
    :class:`GCNConv` ran before the layer was fused into one node."""
    out = spmm(matrix, x @ conv.weight)
    if conv.bias is not None:
        out = out + conv.bias
    if slope is not None:
        out = out.leaky_relu(slope)
    return out


class TestFusedLayerEquivalence:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("slope", [None, 0.01])
    def test_values_and_grads_bit_equal(self, dtype, bias, slope):
        # A square matrix (every full-batch layer) keeps the weight-first
        # B·(x·W) of the composed chain, bit for bit.
        rng = np.random.default_rng(11)
        adj = sp.random(30, 30, density=0.2, random_state=3,
                        dtype=np.float64).tocsr().astype(dtype)
        x_data = rng.standard_normal((30, 8)).astype(dtype)
        upstream = rng.standard_normal((30, 5)).astype(dtype)

        def run(composed):
            conv = GCNConv(8, 5, np.random.default_rng(5), bias=bias,
                           dtype=dtype)
            x = Tensor(x_data.copy(), requires_grad=True)
            if composed:
                out = composed_gcn_layer(conv, x, adj, slope)
            else:
                out = conv(x, adj, negative_slope=slope)
            out.backward(upstream.copy())
            grads = [x.grad, conv.weight.grad]
            if bias:
                grads.append(conv.bias.grad)
            return out.data, grads

        fused_out, fused_grads = run(composed=False)
        ref_out, ref_grads = run(composed=True)
        assert fused_out.dtype == dtype
        assert fused_out.tobytes() == ref_out.tobytes()
        for got, want in zip(fused_grads, ref_grads):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("slope", [None, 0.01])
    @pytest.mark.parametrize("input_grad", [False, True])
    def test_wide_block_aggregates_first(self, dtype, bias, slope,
                                         input_grad):
        # A 12 × 40 block (more inputs than outputs, like a sampled
        # first layer) evaluates (B·x)·W; it matches the weight-first
        # composition to rounding and computes x̄ only when asked.
        tol = 1e-12 if dtype == np.float64 else 1e-5
        rng = np.random.default_rng(11)
        block = sp.random(12, 40, density=0.2, random_state=3,
                          dtype=np.float64).tocsr().astype(dtype)
        x_data = rng.standard_normal((40, 8)).astype(dtype)
        upstream = rng.standard_normal((12, 5)).astype(dtype)
        bias_data = rng.standard_normal(5).astype(dtype)

        def run(composed):
            conv = GCNConv(8, 5, np.random.default_rng(5), bias=bias,
                           dtype=dtype)
            if bias:
                conv.bias.data[...] = bias_data
            x = Tensor(x_data.copy(), requires_grad=input_grad)
            if composed:
                out = composed_gcn_layer(conv, x, block, slope)
            else:
                out = conv(x, block, negative_slope=slope)
            out.backward(upstream.copy())
            grads = {"x": x.grad, "w": conv.weight.grad}
            if bias:
                grads["b"] = conv.bias.grad
            return out.data, grads, conv.weight.data

        before = transpose_cache_size()
        fused_out, fused_grads, weight = run(composed=False)
        if not input_grad:
            # Nothing needs Bᵀ: the fused layer never builds it.
            assert transpose_cache_size() == before
        ref_out, ref_grads, _ = run(composed=True)
        assert fused_out.dtype == dtype
        pre = (block @ x_data) @ weight
        if slope is None and not bias:
            assert fused_out.tobytes() == pre.tobytes()
        _assert_close(fused_out, ref_out, tol)
        assert fused_grads.keys() == ref_grads.keys()
        for name, want in ref_grads.items():
            got = fused_grads[name]
            if want is None:
                assert got is None
            else:
                assert got.dtype == dtype
                _assert_close(got, want, tol)

    def test_fused_requires_sparse_matrix(self):
        from repro.nn.autograd import fused_gcn_layer
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(TypeError):
            fused_gcn_layer(x, w, np.ones((4, 4)))


# --------------------------------------------------------------------- #
# Per-op call counts                                                     #
# --------------------------------------------------------------------- #
class TestOpCounts:
    def test_counts_accumulate_and_reset(self):
        reset_op_counts()
        g = small_graph()
        workspace_cache().clear()
        model = AnECI(g.num_features, num_communities=3, epochs=3,
                      seed=0, dtype="float64")
        model.fit(g)
        counts = op_counts()
        assert {"gcn_layer", "bce", "softmax", "adam"} <= set(counts)
        # One numpy implementation: every call lands in "numpy".
        assert all(c["fused"] == 0 and c["numpy"] > 0
                   for c in counts.values())
        # One Adam step per parameter per epoch.
        num_params = len(list(model.encoder.parameters()))
        assert counts["adam"]["numpy"] == 3 * num_params
        reset_op_counts()
        assert op_counts() == {}

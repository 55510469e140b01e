"""Tests for high-order proximity (paper Eq. 1 and Section IV-C3)."""

import functools
import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parallel
from repro.core import AnECIConfig
from repro.core.workspace import build_workspace
from repro.graph import (high_order_proximity, katz_proximity,
                         load_dataset, modularity_degree,
                         proximity_statistics)
from repro.graph.generators import sparse_dcsbm
from repro.graph.proximity import (ProximityBlocks, katz_weights,
                                   proximity_weights)
from repro.obs import trace


def path_graph(n: int) -> sp.csr_matrix:
    adj = sp.lil_matrix((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = 1
        adj[i + 1, i] = 1
    return adj.tocsr()


class TestHighOrderProximity:
    def test_rows_sum_to_one(self):
        prox = high_order_proximity(path_graph(6), order=3)
        np.testing.assert_allclose(
            np.asarray(prox.sum(axis=1)).ravel(), np.ones(6), atol=1e-12)

    def test_order_one_is_normalised_adjacency_with_loops(self):
        adj = path_graph(4)
        prox = high_order_proximity(adj, order=1).toarray()
        expected = (adj + sp.eye(4)).toarray()
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(prox, expected)

    def test_higher_order_reaches_farther(self):
        adj = path_graph(5)
        prox1 = high_order_proximity(adj, order=1).toarray()
        prox3 = high_order_proximity(adj, order=3).toarray()
        # Node 0 and node 3 are 3 hops apart: invisible at order 1.
        assert prox1[0, 3] == 0.0
        assert prox3[0, 3] > 0.0

    def test_symmetric_sparsity_pattern(self):
        prox = high_order_proximity(path_graph(6), order=2)
        a = (prox.toarray() > 0)
        np.testing.assert_array_equal(a, a.T)

    def test_custom_weights(self):
        adj = path_graph(5)
        # Zero weight on order 1, all on order 2.
        prox = high_order_proximity(adj, order=2, weights=[0.0, 1.0]).toarray()
        dense = (adj + sp.eye(5)).toarray()
        expected = dense @ dense
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(prox, expected)

    def test_no_self_loops_variant(self):
        adj = path_graph(4)
        prox = high_order_proximity(adj, order=1, self_loops=False).toarray()
        assert np.all(np.diag(prox) == 0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            high_order_proximity(path_graph(3), order=0)

    def test_wrong_weight_count(self):
        with pytest.raises(ValueError):
            high_order_proximity(path_graph(3), order=2, weights=[1.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            high_order_proximity(path_graph(3), order=2, weights=[1.0, -1.0])


def csr_digest(matrix: sp.csr_matrix) -> str:
    """blake2b of ``indptr``, ``indices`` and ``data`` with their dtypes."""
    digest = hashlib.blake2b(digest_size=16)
    for array in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(str(array.dtype).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def graph_12k():
    """A 12,000-node DC-SBM whose self-loop-augmented adjacency stores
    ~1.08·10⁵ entries."""
    return sparse_dcsbm(12_000, 10, np.random.default_rng(0),
                        avg_degree=8.0, mixing=0.1, num_features=64)


# Digests of the exact CSR arrays — values, the order of the indices
# within each row, and the dtypes.  That order sets the rounding of every
# later row sum and spmm, so any change to how Ã is computed must keep
# reproducing these bytes, not merely close values.
PROXIMITY_DIGESTS = {
    "dcsbm12k_order2": "5f50ff8ab0bae224d3ff20b54ee6ecda",
    # Weights of 1/3 are not exact in binary: the order of rounding shows.
    "dcsbm12k_order3": "9744109f5bdcf880619d7ad1b030fa85",
    "dcsbm12k_katz3": "dce9e8d242434d07cc5772f04eaa701b",
    "cora015_order2": "66b8ac5494442536471bce42356d39a0",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("order", [2, 3])
    def test_dcsbm_12k(self, order):
        prox = high_order_proximity(graph_12k().adjacency, order=order)
        assert csr_digest(prox) == PROXIMITY_DIGESTS[f"dcsbm12k_order{order}"]

    def test_katz_as_the_workspace_calls_it(self):
        prox = katz_proximity(graph_12k().adjacency, beta=0.2, order=3,
                              self_loops=True)
        assert csr_digest(prox) == PROXIMITY_DIGESTS["dcsbm12k_katz3"]

    def test_cora(self):
        graph = load_dataset("cora", scale=0.15, seed=0)
        assert graph.num_nodes == 406
        prox = high_order_proximity(graph.adjacency, order=2)
        assert csr_digest(prox) == PROXIMITY_DIGESTS["cora015_order2"]


def reference_proximity(adjacency, weights, self_loops):
    """Eq. 1 as one loop over the whole matrix, normalised by scipy's
    diagonal product."""
    base = sp.csr_matrix(adjacency, dtype=np.float64)
    if self_loops:
        base = base + sp.eye(base.shape[0], format="csr")
    power = sp.eye(base.shape[0], format="csr")
    total = sp.csr_matrix(base.shape, dtype=np.float64)
    for w in weights:
        power = (power @ base).tocsr()
        if w:
            total = total + w * power
    sums = np.asarray(total.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv = 1.0 / sums
    inv[~np.isfinite(inv)] = 0.0
    return (sp.diags(inv) @ total).tocsr()


def assert_same_bytes(actual, expected):
    assert type(actual) is type(expected)
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        np.testing.assert_array_equal(a, e, err_msg=name)


@st.composite
def proximity_inputs(draw):
    """A small weighted graph (often with isolated nodes) and Eq. 1
    weights."""
    n = draw(st.integers(min_value=1, max_value=12))
    dense = np.zeros((n, n))
    for i, j, w in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from([1.0, 0.5, 2.0, 3.0])),
            max_size=2 * n)):
        if i != j:
            dense[i, j] = dense[j, i] = w
    order = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        weights = np.full(order, 1.0 / order)
    else:
        beta = draw(st.floats(min_value=0.05, max_value=0.95))
        weights = np.array([beta ** (l + 1) for l in range(order)])
    return sp.csr_matrix(dense), weights, draw(st.booleans())


class TestRowBlocks:
    """``Ã`` has the one-loop reference's bytes, also when traced and
    when built inside a pool worker."""

    @settings(max_examples=200, deadline=None)
    @given(proximity_inputs())
    def test_blocks_concatenate_to_the_whole_matrix(self, inputs):
        adjacency, weights, self_loops = inputs
        assert_same_bytes(
            high_order_proximity(adjacency, order=len(weights),
                                 weights=weights, self_loops=self_loops),
            reference_proximity(adjacency, weights, self_loops))

    def test_traced_build_nests_orders_under_the_workspace(self):
        # A full-batch build: a sampled one never forms Ã (its per-order
        # spans time the row-sum mat-vecs, see TestProximityBlocksOracle).
        graph = graph_12k()
        config = AnECIConfig(num_communities=10, dtype="float64",
                             train_mode="full")
        tracer = trace.Tracer()
        with trace.activate(tracer):
            traced = build_workspace(graph, config)
        for k in (1, 2):
            node = tracer.find(f"workspace/build/proximity/order{k}")
            assert node is not None and node.count == 1
        # The span stack is back at its root: a new span is top-level.
        with tracer.span("after"):
            pass
        assert "after" in tracer.root.children
        untraced = build_workspace(graph, config)
        assert csr_digest(traced.prox) == csr_digest(untraced.prox) \
            == PROXIMITY_DIGESTS["dcsbm12k_order2"]

    def test_pool_workers_build_the_pinned_bytes(self):
        adjacency = graph_12k().adjacency
        results = parallel.ParallelExecutor(2).map(
            _proximity_in_worker, [(adjacency,), (adjacency,)])
        assert results == [PROXIMITY_DIGESTS["dcsbm12k_order2"]] * 2


@functools.lru_cache(maxsize=2)
def oracle_12k(order, weights=None, self_loops=True):
    """``high_order_proximity`` of :func:`graph_12k`, the slow and
    obviously correct reference of every sampled batch block (an order-3
    oracle stores ~100 MB, so only the last two are kept)."""
    return high_order_proximity(graph_12k().adjacency, order=order,
                                weights=None if weights is None
                                else np.array(weights),
                                self_loops=self_loops)


def oracle_block(prox, idx):
    block = prox[idx][:, idx].tocsr()
    block.sort_indices()
    return block


def batches(count=3, size=1024, seed=11):
    rng = np.random.default_rng(seed)
    return [np.sort(rng.choice(12_000, size, replace=False))
            for _ in range(count)]


def max_ulps(actual, expected):
    """Largest distance of two equal-structure CSR blocks in units in the
    last place of ``expected``'s dtype."""
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert actual.dtype == expected.dtype
    gap = np.abs(actual.data.astype(np.float64) - expected.data)
    return float((gap / np.spacing(np.abs(expected.data))).max())


#: Order 2 with the default weights is exact: every weighted count is a
#: multiple of ½, so the block and the sliced Ã round identically.  With
#: other weights the oracle's row sums add each row's rounded entries,
#: while a block's row sums weight exact walk counts; the two sums part
#: by a few units in the last place (up to 6 measured on these batches).
#: The gap is the oracle's: a block's row sums sit within 1 ulp of the
#: exact sums (``test_row_sums_are_the_exact_walk_sums``), the oracle's
#: up to 4 ulp away.  This bound is wider than the 4 ulp first asked of
#: these cases, which the oracle's own rounding does not allow.
ULP_BOUND = 8


class TestProximityBlocksOracle:
    """Sampled batch blocks against ``high_order_proximity(...)[S][:, S]``
    at 12,000 nodes (28 of them isolated), the size the sampled fit
    pins train at."""

    def test_order2_default_weights_bit_equal(self):
        ws = build_workspace(graph_12k(), AnECIConfig(
            num_communities=10, train_mode="sampled",
            dtype="float64"))
        for idx in batches():
            expected = oracle_block(oracle_12k(2), idx)
            block = ws.recon_block(idx)
            assert block.has_sorted_indices
            assert max_ulps(block, expected) == 0
            assert np.array_equal(block.data, expected.data)

    @pytest.mark.parametrize("overrides,oracle_args", [
        (dict(order=1), (1,)),
        (dict(order=3), (3,)),
        (dict(order=2, proximity_weights=(0.3, 0.7)), (2, (0.3, 0.7))),
        (dict(order=3, proximity_kind="katz", katz_beta=0.2),
         (3, (0.2, 0.2 ** 2, 0.2 ** 3))),
    ])
    def test_other_weights_within_bound(self, overrides, oracle_args):
        ws = build_workspace(graph_12k(), AnECIConfig(
            num_communities=10, train_mode="sampled", dtype="float64",
            **overrides))
        assert ws.shared_target
        for idx in batches():
            expected = oracle_block(oracle_12k(*oracle_args), idx)
            assert max_ulps(ws.recon_block(idx), expected) <= ULP_BOUND

    def test_first_order_target(self):
        ws = build_workspace(graph_12k(), AnECIConfig(
            num_communities=10, train_mode="sampled", dtype="float64",
            recon_target="first_order"))
        assert not ws.shared_target
        for idx in batches():
            assert max_ulps(ws.recon_block(idx),
                            oracle_block(oracle_12k(1), idx)) <= ULP_BOUND
            assert max_ulps(ws.prox_block(idx),
                            oracle_block(oracle_12k(2), idx)) == 0

    def test_float32_blocks_are_the_rounded_oracle(self):
        ws = build_workspace(graph_12k(), AnECIConfig(
            num_communities=10, train_mode="sampled", order=3,
            dtype="float32"))
        assert ws.degrees.dtype == np.float32
        for idx in batches():
            expected = oracle_block(oracle_12k(3), idx).astype(np.float32)
            assert max_ulps(ws.recon_block(idx), expected) <= 1

    def test_modularity_terms_are_exact(self):
        # Every row of Ã sums to 1 (isolated nodes keep their self-loop):
        # k̃ = 1 and 2M̃ = N, where the oracle's row sums sit within a
        # few ulp of 1.
        ws = build_workspace(graph_12k(), AnECIConfig(
            num_communities=10, train_mode="sampled",
            dtype="float64"))
        oracle = oracle_12k(2)
        sums = np.asarray(oracle.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-15
        assert np.array_equal(ws.degrees, np.ones(12_000))
        assert ws.two_m == 12_000.0
        assert ws.prox is None and ws.recon_target is None

    @pytest.mark.parametrize("order", [2, 3])
    def test_isolated_nodes_without_self_loops(self, order):
        # Without self-loops an isolated node has no mass: k̃ = 0, its
        # row and column of every block stay empty.
        adjacency = graph_12k().adjacency
        isolated = np.flatnonzero(np.diff(adjacency.indptr) == 0)
        assert isolated.size == 28
        blocks = ProximityBlocks(adjacency, proximity_weights(order),
                                 self_loops=False)
        degrees, two_m = blocks.modularity_terms()
        assert np.array_equal(np.flatnonzero(degrees == 0), isolated)
        assert two_m == 12_000 - 28
        for idx in batches() + [np.union1d(batches(1, 512, 3)[0],
                                           isolated)]:
            expected = oracle_block(oracle_12k(order, None, False), idx)
            ulps = max_ulps(blocks.block(idx), expected)
            assert ulps == 0 if order == 2 else ulps <= ULP_BOUND

    @pytest.mark.parametrize("weights", [
        proximity_weights(3), (0.3, 0.7), katz_weights(0.2, 3)])
    def test_row_sums_are_the_exact_walk_sums(self, weights):
        # r_i = Σ_k w_k·(B^k·1)_i, with integer walk counts and the
        # float64 weights taken as exact rationals.
        adjacency = graph_12k().adjacency
        blocks = ProximityBlocks(adjacency, weights)
        base = (adjacency + sp.eye(12_000, format="csr")).astype(np.int64)
        walks = [np.ones(12_000, dtype=np.int64)]
        for _ in weights:
            walks.append(base @ walks[-1])
        rows = batches(1, 300)[0]
        exact = np.array([float(sum(
            Fraction(float(w)) * int(walks[k][i])
            for k, w in enumerate(weights, start=1))) for i in rows])
        gap = np.abs(blocks.row_sums[rows] - exact) / np.spacing(exact)
        assert gap.max() <= 1

    def test_row_sums_open_one_span_per_order(self):
        tracer = trace.Tracer()
        with trace.activate(tracer):
            build_workspace(graph_12k(), AnECIConfig(
                num_communities=10, train_mode="sampled", order=3,
                dtype="float64"))
        for k in (1, 2, 3):
            node = tracer.find(f"workspace/build/proximity/order{k}")
            assert node is not None and node.count == 1


class TestBuildMemory:
    """The build keeps about one transient copy of ``A^l`` beside ``Ã``.

    A build that also kept ``w * A^l`` and the unscaled last power alive
    through the row normalisation peaks at 3.3× the output here.
    """

    @pytest.mark.parametrize("order", [2, 3])
    def test_peak_is_at_most_two_and_a_half_outputs(self, order):
        adjacency = graph_12k().adjacency
        tracemalloc.start()
        try:
            prox = high_order_proximity(adjacency, order=order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = prox.data.nbytes + prox.indices.nbytes + prox.indptr.nbytes
        assert peak <= 2.5 * output, peak / output
        assert csr_digest(prox) == PROXIMITY_DIGESTS[f"dcsbm12k_order{order}"]


def _proximity_in_worker(adjacency):
    return csr_digest(high_order_proximity(adjacency, order=2))


class TestModularityDegree:
    def test_degree_sum_equals_total(self):
        prox = high_order_proximity(path_graph(7), order=2)
        degrees, total = modularity_degree(prox)
        assert degrees.sum() == pytest.approx(total)

    def test_row_normalised_total_is_n(self):
        prox = high_order_proximity(path_graph(7), order=2)
        _, total = modularity_degree(prox)
        assert total == pytest.approx(7.0)


class TestStatistics:
    def test_statistics_keys(self):
        stats = proximity_statistics(high_order_proximity(path_graph(5), order=2))
        assert set(stats) == {"nnz", "density", "max", "row_sum_min",
                              "row_sum_max"}
        assert stats["row_sum_max"] == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=4))
def test_property_rows_normalised_any_path(n, order):
    prox = high_order_proximity(path_graph(n), order=order)
    sums = np.asarray(prox.sum(axis=1)).ravel()
    np.testing.assert_allclose(sums, np.ones(n), atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_random_graph_entries_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((8, 8)) < 0.3).astype(float)
    dense = np.triu(dense, 1)
    dense = dense + dense.T
    prox = high_order_proximity(sp.csr_matrix(dense), order=3)
    assert prox.nnz == 0 or (prox.data.min() >= 0 and prox.data.max() <= 1.0)

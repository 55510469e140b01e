"""Tests for high-order proximity (paper Eq. 1 and Section IV-C3)."""

import functools
import hashlib
import os

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
from repro.graph.proximity import (_BLOCK_MIN_ENTRIES, _blocked_proximity,
                                   _row_cuts)
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
    """Eq. 1 as one loop over the whole matrix — how ``Ã`` was computed
    before it was split into row blocks."""
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
def blocked_inputs(draw):
    """A small weighted graph (often with isolated nodes), Eq. 1 weights
    and arbitrary row cuts — repeated cuts make empty blocks."""
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
    inner = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return (sp.csr_matrix(dense), weights, draw(st.booleans()),
            [0, *inner, n])


class TestRowBlocks:
    @settings(max_examples=200, deadline=None)
    @given(blocked_inputs())
    def test_blocks_concatenate_to_the_whole_matrix(self, inputs):
        adjacency, weights, self_loops, cuts = inputs
        expected = reference_proximity(adjacency, weights, self_loops)
        assert_same_bytes(
            high_order_proximity(adjacency, order=len(weights),
                                 weights=weights, self_loops=self_loops),
            expected)
        assert_same_bytes(
            _blocked_proximity(adjacency, weights, self_loops, cuts),
            expected)

    def test_sorted_rows_in_one_block_still_follow_the_whole(self):
        # Rows 3 and 4 form an isolated edge: without self-loops each of
        # their operands holds one entry, so a block of those rows alone
        # is sorted while the whole matrix is not.
        adjacency = sp.csr_matrix(np.array([
            [0, 1, 1, 0, 0], [1, 0, 1, 0, 0], [1, 1, 0, 0, 0],
            [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]], dtype=float))
        weights = np.array([0.5, 0.5])
        expected = reference_proximity(adjacency, weights, False)
        for cuts in ([0, 3, 5], [0, 4, 5], [0, 1, 2, 3, 4, 5]):
            assert_same_bytes(
                _blocked_proximity(adjacency, weights, False, cuts), expected)

    def test_small_graphs_run_as_one_block(self):
        base = sp.csr_matrix(load_dataset("cora", scale=0.15,
                                          seed=0).adjacency)
        assert base.nnz < _BLOCK_MIN_ENTRIES
        assert _row_cuts(base) == [0, base.shape[0]]

    def test_12k_graph_is_split_by_usable_core(self, monkeypatch):
        base = graph_12k().adjacency + sp.eye(12_000, format="csr")
        assert base.nnz >= _BLOCK_MIN_ENTRIES
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        cuts = _row_cuts(base)
        assert len(cuts) == 4 and cuts[0] == 0 and cuts[-1] == 12_000
        # Balanced by stored entries, not by rows.
        entries = np.diff(base.indptr[cuts])
        assert entries.max() - entries.min() < 0.01 * base.nnz
        monkeypatch.setattr(parallel, "in_worker", lambda: True)
        assert _row_cuts(base) == [0, 12_000]

    def test_traced_build_nests_orders_under_the_workspace(self):
        graph = graph_12k()
        config = AnECIConfig(num_communities=10, dtype="float64",
                             train_mode="sampled", batch_nodes=512)
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
        assert csr_digest(traced.proximity) == csr_digest(untraced.proximity) \
            == PROXIMITY_DIGESTS["dcsbm12k_order2"]

    def test_pool_workers_run_one_block_each(self):
        adjacency = graph_12k().adjacency
        results = parallel.ParallelExecutor(2).map(
            _proximity_in_worker, [(adjacency,), (adjacency,)])
        assert results == [(True, 1, PROXIMITY_DIGESTS["dcsbm12k_order2"])] * 2


def _proximity_in_worker(adjacency):
    base = adjacency + sp.eye(adjacency.shape[0], format="csr")
    return (parallel.in_worker(), len(_row_cuts(base)) - 1,
            csr_digest(high_order_proximity(adjacency, order=2)))


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

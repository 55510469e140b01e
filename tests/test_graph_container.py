"""Tests for the Graph container and adjacency normalisation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import Graph, edges_from_adjacency, normalized_adjacency


def triangle_graph(**kwargs) -> Graph:
    adj = sp.csr_matrix(np.array([
        [0, 1, 1],
        [1, 0, 1],
        [1, 1, 0],
    ], dtype=float))
    return Graph(adjacency=adj, features=np.eye(3), **kwargs)


class TestConstruction:
    def test_basic_statistics(self):
        g = triangle_graph()
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.num_features == 3
        assert g.density() == pytest.approx(1.0)

    def test_degrees(self):
        g = triangle_graph()
        np.testing.assert_allclose(g.degrees(), [2, 2, 2])

    def test_rejects_asymmetric(self):
        adj = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        with pytest.raises(ValueError, match="symmetric"):
            Graph(adjacency=adj, features=np.eye(2))

    def test_rejects_self_loops(self):
        adj = sp.csr_matrix(np.eye(2))
        with pytest.raises(ValueError, match="self-loops"):
            Graph(adjacency=adj, features=np.eye(2))

    def test_rejects_nonbinary(self):
        adj = sp.csr_matrix(np.array([[0, 2.0], [2.0, 0]]))
        with pytest.raises(ValueError, match="binary"):
            Graph(adjacency=adj, features=np.eye(2))

    def test_rejects_feature_mismatch(self):
        adj = sp.csr_matrix(np.array([[0, 1.0], [1.0, 0]]))
        with pytest.raises(ValueError, match="rows"):
            Graph(adjacency=adj, features=np.eye(3))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            Graph(adjacency=sp.csr_matrix(np.ones((2, 3))), features=np.eye(2))

    def test_rejects_bad_labels(self):
        adj = sp.csr_matrix(np.array([[0, 1.0], [1.0, 0]]))
        with pytest.raises(ValueError, match="labels"):
            Graph(adjacency=adj, features=np.eye(2), labels=np.array([0]))

    def test_num_classes(self):
        g = triangle_graph(labels=np.array([0, 1, 1]))
        assert g.num_classes == 2

    def test_num_classes_requires_labels(self):
        with pytest.raises(ValueError, match="labels"):
            triangle_graph().num_classes


class TestEdgeOperations:
    def test_edge_list_upper_triangle(self):
        edges = triangle_graph().edge_list()
        assert edges.shape == (3, 2)
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_edge_set(self):
        assert triangle_graph().edge_set() == {(0, 1), (0, 2), (1, 2)}

    def test_has_edge(self):
        g = triangle_graph().remove_edges([(0, 1)])
        assert not g.has_edge(0, 1)
        assert g.has_edge(1, 2)

    def test_add_edges_symmetric(self):
        g = triangle_graph().remove_edges([(0, 1)]).add_edges([(0, 1)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_add_edges_returns_new_graph(self):
        g = triangle_graph().remove_edges([(0, 1)])
        g2 = g.add_edges([(0, 1)])
        assert not g.has_edge(0, 1)
        assert g2.has_edge(0, 1)

    def test_add_self_loop_rejected(self):
        with pytest.raises(ValueError):
            triangle_graph().add_edges([(1, 1)])

    def test_remove_missing_edge_is_noop(self):
        g = triangle_graph().remove_edges([(0, 1)])
        g2 = g.remove_edges([(0, 1)])
        assert g2.num_edges == g.num_edges

    def test_flip_edges(self):
        g = triangle_graph().flip_edges([(0, 1)])
        assert not g.has_edge(0, 1)
        g2 = g.flip_edges([(0, 1)])
        assert g2.has_edge(0, 1)

    def test_with_adjacency_keeps_features(self):
        g = triangle_graph()
        g2 = g.with_adjacency(g.adjacency, attacked=True)
        assert g2.metadata["attacked"]
        np.testing.assert_allclose(g2.features, g.features)

    def test_edges_from_adjacency_helper(self):
        edges = edges_from_adjacency(triangle_graph().adjacency)
        assert len(edges) == 3


def _lil_remove_edges(graph: Graph, edges) -> Graph:
    """Reference edge removal: one LIL assignment per orientation."""
    adj = graph.adjacency.tolil(copy=True)
    for u, v in edges:
        adj[u, v] = 0.0
        adj[v, u] = 0.0
    result = adj.tocsr()
    result.eliminate_zeros()
    return graph.with_adjacency(result)


def _random_graph(rng, n: int, p: float) -> Graph:
    upper = sp.triu(sp.random(n, n, density=p, random_state=rng,
                              format="csr"), k=1)
    upper.data[:] = 1.0
    return Graph(adjacency=(upper + upper.T).tocsr(), features=np.eye(n))


def _assert_same_csr(got: Graph, want: Graph) -> None:
    a, b = got.adjacency, want.adjacency
    assert a.shape == b.shape
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices),
                 (a.data, b.data)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


class TestRemoveEdgesMatchesLIL:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_drops(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        g = _random_graph(rng, n, float(rng.uniform(0.02, 0.2)))
        edges = g.edge_list()
        present = edges[rng.choice(len(edges), len(edges) // 3,
                                   replace=False)]
        drop = np.concatenate([
            present,                          # present edges
            present[: len(present) // 4, ::-1],  # reversed orientation
            present[:5],                      # duplicate pairs
            rng.integers(0, n, (20, 2)),      # mostly missing edges
        ])
        drop = drop[rng.permutation(len(drop))]
        _assert_same_csr(g.remove_edges(drop), _lil_remove_edges(g, drop))
        as_tuples = [(int(u), int(v)) for u, v in drop]
        _assert_same_csr(g.remove_edges(as_tuples),
                         _lil_remove_edges(g, as_tuples))

    def test_every_edge_removed(self):
        g = _random_graph(np.random.default_rng(1), 50, 0.1)
        drop = g.edge_list()
        result = g.remove_edges(drop)
        assert result.num_edges == 0
        _assert_same_csr(result, _lil_remove_edges(g, drop))

    @pytest.mark.parametrize("empty", [[], np.empty((0, 2), dtype=np.int64)])
    def test_empty_drop_list(self, empty):
        g = _random_graph(np.random.default_rng(2), 30, 0.2)
        _assert_same_csr(g.remove_edges(empty), _lil_remove_edges(g, []))

    def test_negative_ids_count_from_the_end(self):
        g = _random_graph(np.random.default_rng(3), 40, 0.3)
        drop = [(-1, 3), (-40, -2), (5, -7)]
        _assert_same_csr(g.remove_edges(drop), _lil_remove_edges(g, drop))

    @pytest.mark.parametrize("bad", [[(0, 40)], [(40, 0)], [(-41, 1)],
                                     [(1, 2), (3, 99)]])
    def test_out_of_range_endpoint_raises_like_lil(self, bad):
        g = _random_graph(np.random.default_rng(4), 40, 0.2)
        with pytest.raises(IndexError):
            _lil_remove_edges(g, bad)
        with pytest.raises(IndexError):
            g.remove_edges(bad)

    def test_unsorted_input_indices(self):
        # A 4-cycle whose CSR rows list their columns in reverse order.
        adj = sp.csr_matrix((np.ones(8), [3, 1, 2, 0, 3, 1, 2, 0],
                             [0, 2, 4, 6, 8]), shape=(4, 4))
        g = Graph(adjacency=adj, features=np.eye(4))
        assert not g.adjacency.has_canonical_format
        got = g.remove_edges([(0, 1)])
        _assert_same_csr(got, _lil_remove_edges(g, [(0, 1)]))

    def test_input_graph_untouched(self):
        g = _random_graph(np.random.default_rng(5), 30, 0.3)
        before = g.adjacency.copy()
        g.remove_edges(g.edge_list()[:10])
        assert (g.adjacency != before).nnz == 0


class TestInterop:
    def test_to_networkx(self):
        g = triangle_graph(labels=np.array([0, 0, 1])).to_networkx()
        assert g.number_of_edges() == 3
        assert g.nodes[2]["label"] == 1

    def test_networkx_imported_only_by_to_networkx(self):
        snippet = (
            "import sys\n"
            "import numpy as np, scipy.sparse as sp\n"
            "import repro.graph\n"
            "assert 'networkx' not in sys.modules\n"
            "g = repro.graph.Graph(adjacency=sp.csr_matrix(np.ones((2, 2))"
            " - np.eye(2)), features=np.eye(2))\n"
            "print(g.to_networkx().number_of_edges())\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", snippet], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "1"

    def test_copy_is_deep_for_arrays(self):
        g = triangle_graph()
        g2 = g.copy()
        g2.features[0, 0] = 99.0
        assert g.features[0, 0] == 1.0

    def test_repr(self):
        assert "nodes=3" in repr(triangle_graph())


class TestNormalizedAdjacency:
    def test_row_stochastic_on_regular_graph(self):
        # For a k-regular graph with self-loops, rows sum to 1.
        norm = normalized_adjacency(triangle_graph().adjacency)
        np.testing.assert_allclose(
            np.asarray(norm.sum(axis=1)).ravel(), np.ones(3), atol=1e-12)

    def test_symmetric(self):
        norm = normalized_adjacency(triangle_graph().adjacency)
        assert (norm != norm.T).nnz == 0

    def test_isolated_node_row_is_zero_without_self_loops(self):
        adj = sp.csr_matrix((3, 3))
        norm = normalized_adjacency(adj, self_loops=False)
        assert norm.nnz == 0

    def test_self_loops_flag(self):
        norm = normalized_adjacency(triangle_graph().adjacency, self_loops=False)
        assert norm.diagonal().sum() == 0

"""Tests for synthetic generators, dataset registry and splits."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (DATASETS, attributed_sbm, load_dataset,
                         planetoid_split, planted_partition, topic_features)
from repro.graph.generators import sparse_dcsbm


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestAttributedSBM:
    def test_shapes_and_labels(self, rng):
        g = attributed_sbm([30, 30, 40], 0.3, 0.02, 50, rng)
        assert g.num_nodes == 100
        assert g.num_features == 50
        assert g.num_classes == 3
        np.testing.assert_array_equal(np.bincount(g.labels), [30, 30, 40])

    def test_homophily_planted(self, rng):
        g = attributed_sbm([50, 50], 0.3, 0.02, 20, rng)
        edges = g.edge_list()
        same = (g.labels[edges[:, 0]] == g.labels[edges[:, 1]]).mean()
        assert same > 0.7

    def test_no_self_loops_and_symmetric(self, rng):
        g = attributed_sbm([40, 40], 0.2, 0.05, 10, rng)
        assert g.adjacency.diagonal().sum() == 0
        assert (g.adjacency != g.adjacency.T).nnz == 0

    def test_identity_features(self, rng):
        g = attributed_sbm([10, 10], 0.4, 0.05, 5, rng, identity_features=True)
        np.testing.assert_allclose(g.features, np.eye(20))

    def test_invalid_probabilities(self, rng):
        with pytest.raises(ValueError):
            attributed_sbm([10, 10], 0.1, 0.5, 5, rng)  # p_out > p_in

    def test_empty_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            attributed_sbm([], 0.3, 0.1, 5, rng)

    def test_deterministic_given_seed(self):
        a = attributed_sbm([20, 20], 0.3, 0.05, 10, np.random.default_rng(3))
        b = attributed_sbm([20, 20], 0.3, 0.05, 10, np.random.default_rng(3))
        assert (a.adjacency != b.adjacency).nnz == 0
        np.testing.assert_allclose(a.features, b.features)

    def test_p_in_controls_density(self):
        dense = attributed_sbm([50, 50], 0.5, 0.01, 10, np.random.default_rng(1))
        sparse = attributed_sbm([50, 50], 0.1, 0.01, 10, np.random.default_rng(1))
        assert dense.num_edges > sparse.num_edges


class TestTopicFeatures:
    def test_class_signal_exists(self, rng):
        labels = np.repeat([0, 1], 100)
        feats = topic_features(labels, 40, rng)
        # Average within-class cosine similarity beats between-class.
        norm = feats / (np.linalg.norm(feats, axis=1, keepdims=True) + 1e-12)
        sim = norm @ norm.T
        within = (sim[:100, :100].sum() - 100) / (100 * 99)
        between = sim[:100, 100:].mean()
        assert within > between

    def test_no_empty_rows(self, rng):
        feats = topic_features(np.repeat([0, 1, 2], 30), 30, rng)
        assert feats.sum(axis=1).min() >= 1

    def test_binary_values(self, rng):
        feats = topic_features(np.repeat([0, 1], 20), 20, rng)
        assert set(np.unique(feats)).issubset({0.0, 1.0})

    def test_too_few_features_rejected(self, rng):
        with pytest.raises(ValueError):
            topic_features(np.repeat([0, 1], 10), 4, rng, topics_per_class=5)


class TestPlantedPartition:
    def test_identity_features_by_default(self, rng):
        g = planted_partition(3, 20, 0.4, 0.02, rng)
        np.testing.assert_allclose(g.features, np.eye(60))

    def test_feature_mode(self, rng):
        g = planted_partition(3, 20, 0.4, 0.02, rng, num_features=30)
        assert g.num_features == 30


class TestPlanetoidSplit:
    def test_sizes(self, rng):
        labels = np.repeat([0, 1, 2], 100)
        train, val, test = planetoid_split(labels, 20, 50, 100, rng)
        assert len(train) == 60
        assert len(val) == 50
        assert len(test) == 100

    def test_disjoint(self, rng):
        labels = np.repeat([0, 1], 200)
        train, val, test = planetoid_split(labels, 20, 100, 150, rng)
        assert not set(train) & set(val)
        assert not set(train) & set(test)
        assert not set(val) & set(test)

    def test_train_balanced(self, rng):
        labels = np.repeat([0, 1, 2], 50)
        train, _, _ = planetoid_split(labels, 10, 20, 20, rng)
        np.testing.assert_array_equal(np.bincount(labels[train]), [10, 10, 10])

    def test_class_too_small(self, rng):
        labels = np.array([0] * 5 + [1] * 100)
        with pytest.raises(ValueError, match="class 0"):
            planetoid_split(labels, 20, 10, 10, rng)

    def test_pool_too_small(self, rng):
        labels = np.repeat([0, 1], 30)
        with pytest.raises(ValueError, match="remain"):
            planetoid_split(labels, 20, 100, 100, rng)


class TestDatasetRegistry:
    def test_four_datasets_registered(self):
        assert set(DATASETS) == {"cora", "citeseer", "polblogs", "pubmed"}

    def test_specs_match_table2(self):
        spec = DATASETS["cora"]
        assert (spec.num_nodes, spec.num_edges, spec.num_classes,
                spec.num_features) == (2708, 5429, 7, 1433)
        spec = DATASETS["pubmed"]
        assert (spec.num_nodes, spec.num_edges, spec.num_classes,
                spec.num_features) == (19717, 44338, 3, 500)

    def test_proportions_sum_to_one(self):
        for spec in DATASETS.values():
            assert sum(spec.class_proportions) == pytest.approx(1.0, abs=1e-6)
            assert len(spec.class_proportions) == spec.num_classes

    def test_load_scaled_cora(self):
        g = load_dataset("cora", scale=0.2, seed=1)
        assert abs(g.num_nodes - 2708 * 0.2) < 10
        assert g.num_classes == 7
        assert g.train_idx is not None and g.val_idx is not None

    def test_load_polblogs_identity(self):
        g = load_dataset("polblogs", scale=0.2, seed=1)
        assert g.num_features == g.num_nodes
        np.testing.assert_allclose(g.features, np.eye(g.num_nodes))

    def test_edge_count_roughly_calibrated(self):
        g = load_dataset("cora", scale=0.5, seed=0)
        target = 5429 * 0.5
        # Degree-corrected sampling is stochastic; require the right ballpark.
        assert 0.5 * target < g.num_edges < 2.0 * target

    def test_determinism(self):
        a = load_dataset("citeseer", scale=0.1, seed=5)
        b = load_dataset("citeseer", scale=0.1, seed=5)
        assert (a.adjacency != b.adjacency).nnz == 0
        np.testing.assert_array_equal(a.train_idx, b.train_idx)

    def test_different_seeds_differ(self):
        a = load_dataset("cora", scale=0.1, seed=1)
        b = load_dataset("cora", scale=0.1, seed=2)
        assert (a.adjacency != b.adjacency).nnz > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("reddit")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            load_dataset("cora", scale=0.0)

    def test_splits_disjoint(self):
        g = load_dataset("cora", scale=0.25, seed=0)
        assert not set(g.train_idx) & set(g.test_idx)
        assert not set(g.val_idx) & set(g.test_idx)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_property_sbm_graph_valid(seed):
    rng = np.random.default_rng(seed)
    g = attributed_sbm([15, 15, 15], 0.3, 0.03, 12, rng)
    assert g.adjacency.diagonal().sum() == 0
    assert (g.adjacency != g.adjacency.T).nnz == 0
    assert g.features.shape == (45, 12)


def _digest(*arrays):
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _graph_digests(graph):
    adj = graph.adjacency
    return (_digest(adj.indptr, adj.indices, adj.data),
            _digest(graph.features), _digest(graph.labels))


# (adjacency CSR arrays, features, labels) digests of the generated
# graphs the benchmarks and sampled-training pins train on.  The
# generators may get faster; their output may not change.
GENERATOR_DIGESTS = {
    3000: ("1669fa3d892f6d2560a291493e37704d",
           "7343d217de98334693f7779979e73459",
           "48a20c849e3f6c88b5db13cab8ab1cb4"),
    12_000: ("c90f2c98166055d510c7aa50808fb9ec",
             "e0f49e27077cfddfd3c61568f81d9578",
             "40e2cf8cd9eda8b9e32a7dff58b339ee"),
    100_000: ("9108a32102bf6976228eba7df367ce48",
              "4ff711aae0f82556f6037dc3ec69272f",
              "d4e7d7db32745bff6248ed48a10f2810"),
}
CORA_015_DIGESTS = ("3e5c29e6c5fbfed26c8dea80af1eec23",
                    "dda27877d77cec6e1d64b5dd453ce293",
                    "43050a9ee3ba54c1d6b02e8f241e5f19")


class TestPinnedGeneratorOutput:
    @pytest.mark.parametrize("num_nodes", sorted(GENERATOR_DIGESTS))
    def test_sparse_dcsbm_digests(self, num_nodes):
        graph = sparse_dcsbm(num_nodes, 10, np.random.default_rng(0),
                             avg_degree=10.0, mixing=0.1, num_features=64)
        assert _graph_digests(graph) == GENERATOR_DIGESTS[num_nodes]

    def test_calibrated_cora_digests(self):
        assert _graph_digests(load_dataset("cora", 0.15)) == \
            CORA_015_DIGESTS

    @pytest.mark.parametrize("topics", [1, 2, 3, 5, 7, 64])
    def test_empty_row_fill_matches_per_row_draws(self, topics):
        # The vectorised fill of all-zero feature rows draws the same
        # words, and leaves the generator in the same state, as one
        # ``rng.choice`` per empty row.
        labels = np.repeat(np.arange(2), 300)
        rng = np.random.default_rng(topics)
        features = topic_features(labels, 2 * topics, rng,
                                  topics_per_class=topics, active_in=0.01,
                                  active_out=0.0)
        ref_rng = np.random.default_rng(topics)
        permutation = ref_rng.permutation(2 * topics)
        expected = (ref_rng.random((600, 2 * topics)) < 0.0).astype(float)
        for c in range(2):
            members = np.flatnonzero(labels == c)
            words = permutation[c * topics:(c + 1) * topics]
            hits = ref_rng.random((members.size, topics)) < 0.01
            expected[np.ix_(members, words)] = np.maximum(
                expected[np.ix_(members, words)], hits.astype(float))
        empty = np.flatnonzero(expected.sum(axis=1) == 0)
        assert empty.size > 0
        for node in empty:
            words = permutation[labels[node] * topics:
                                (labels[node] + 1) * topics]
            expected[node, ref_rng.choice(words)] = 1.0
        np.testing.assert_array_equal(features, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

"""Exactness and determinism tests for the k-NN index."""

import numpy as np
import pytest

from repro.nn.backend import topk_indices
from repro.serve.index import ExactIndex
from repro.serve.store import EmbeddingStore


@pytest.fixture(scope="module")
def clustered_store(tmp_path_factory):
    """A community-structured store: gaussian blobs around 6 centers."""
    rng = np.random.default_rng(7)
    n, d, c = 2500, 24, 6
    centers = rng.standard_normal((c, d)) * 4.0
    labels = rng.integers(0, c, size=n)
    emb = (centers[labels] + rng.standard_normal((n, d))).astype(np.float32)
    memb = np.full((n, c), 0.02, dtype=np.float32)
    memb[np.arange(n), labels] = 1.0
    memb /= memb.sum(axis=1, keepdims=True)
    tmp = tmp_path_factory.mktemp("idx-store")
    EmbeddingStore(str(tmp)).publish(emb, memb, "v1")
    store = EmbeddingStore(str(tmp)).load()
    return store, emb, memb


def _brute_force(store, query, k, exclude=None):
    """Reference ranking replicating the index's normalisation exactly."""
    emb = np.asarray(store.embeddings, dtype=np.float64)
    normed = emb / store.norms()[:, None]
    q = np.asarray(query, dtype=np.float64)
    norm = np.linalg.norm(q[None, :], axis=1)[0] or 1.0
    scores = normed @ (q / norm)
    order = np.lexsort((np.arange(store.num_nodes), -scores))
    if exclude is not None:
        order = order[order != exclude]
    order = order[:k]
    return order, scores[order]


# --------------------------------------------------------------------- #
# top-k kernel                                                           #
# --------------------------------------------------------------------- #

def test_topk_matches_full_sort():
    rng = np.random.default_rng(0)
    for shape in [(50,), (7, 40), (3, 5)]:
        scores = rng.standard_normal(shape)
        for k in (1, 3, shape[-1], shape[-1] + 5):
            got = topk_indices(scores, k)
            flat = scores.reshape(-1, shape[-1])
            want = np.stack([
                np.lexsort((np.arange(shape[-1]), -row))[:min(k, shape[-1])]
                for row in flat])
            want = want.reshape(got.shape)
            assert np.array_equal(got, want), (shape, k)


def test_topk_ties_break_toward_lower_id():
    scores = np.array([1.0, 3.0, 3.0, 2.0, 3.0])
    assert topk_indices(scores, 3).tolist() == [1, 2, 4]
    assert topk_indices(scores, 5).tolist() == [1, 2, 4, 3, 0]


def test_topk_zero_k():
    assert topk_indices(np.array([1.0, 2.0]), 0).shape == (0,)


# --------------------------------------------------------------------- #
# exact index                                                            #
# --------------------------------------------------------------------- #

def test_exact_matches_brute_force_bitwise(clustered_store):
    store, _, _ = clustered_store
    index = ExactIndex(store)
    for node in (0, 17, 2499):
        query = store.normalized_rows(np.array([node]))[0]
        want_ids, want_scores = _brute_force(store, query, 10, exclude=node)
        ids, scores = index.similar_nodes(node, 10)
        assert np.array_equal(ids, want_ids)
        assert scores.tobytes() == want_scores.tobytes()


def test_exact_block_size_invariance(clustered_store):
    store, _, _ = clustered_store
    full = ExactIndex(store)
    blocked = ExactIndex(store, block_rows=97)
    for node in (3, 1234):
        a_ids, a_scores = full.similar_nodes(node, 8)
        b_ids, b_scores = blocked.similar_nodes(node, 8)
        assert np.array_equal(a_ids, b_ids)
        assert a_scores.tobytes() == b_scores.tobytes()


def test_batched_queries_bit_identical_to_serial(clustered_store):
    store, _, _ = clustered_store
    index = ExactIndex(store)
    vectors = store.normalized_rows(np.arange(9))
    batched = index.query_vectors(vectors, 6)
    for row in range(9):
        ids, scores = index.query_vectors(vectors[row], 6)[0]
        assert np.array_equal(ids, batched[row][0])
        assert scores.tobytes() == batched[row][1].tobytes()


def test_larger_k_prefix_is_smaller_k(clustered_store):
    # The server batches mixed-k requests at max(k) and trims, so the
    # first k rows of a k' > k answer must BE the k answer.
    store, _, _ = clustered_store
    index = ExactIndex(store)
    vectors = store.normalized_rows(np.arange(4))
    small = index.query_vectors(vectors, 5)
    large = index.query_vectors(vectors, 23)
    for (s_ids, s_scores), (l_ids, l_scores) in zip(small, large):
        assert np.array_equal(l_ids[:5], s_ids)
        assert l_scores[:5].tobytes() == s_scores.tobytes()


def test_query_vector_free_form(clustered_store):
    store, _, _ = clustered_store
    rng = np.random.default_rng(3)
    query = rng.standard_normal(store.dim)
    ids, scores = ExactIndex(store).query_vector(query, 7)
    want_ids, want_scores = _brute_force(store, query, 7)
    assert np.array_equal(ids, want_ids)
    assert scores.tobytes() == want_scores.tobytes()


def test_same_community_uses_cached_argmax(clustered_store):
    store, _, memb = clustered_store
    index = ExactIndex(store)
    communities = np.asarray(memb).argmax(axis=1)
    ids, scores = index.same_community(11, 12)
    assert 11 not in ids
    assert (communities[ids] == communities[11]).all()
    assert len(ids) == 12
    # Scores descend; result restricted to the community and ranked
    # identically to a brute-force scan of its members.
    members = np.where(communities == communities[11])[0]
    query = store.normalized_rows(np.array([11]))[0]
    normed = store.normalized_rows(members)
    mscores = normed @ query
    order = np.lexsort((members, -mscores))
    want = members[order]
    want = want[want != 11][:12]
    assert np.array_equal(ids, want)
    # The argmax is computed once and reused (cached on the store).
    assert store.communities() is store.communities()

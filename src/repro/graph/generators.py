"""Synthetic attributed-network generators.

The paper evaluates on Cora/Citeseer/Pubmed/Polblogs.  Those files are not
available offline, so the library generates *degree-corrected stochastic
block models with class-correlated sparse binary attributes* — the two
properties every AnECI experiment exercises (recoverable community
structure; attributes that echo it) are planted explicitly.  See DESIGN.md
§2 for the substitution rationale.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import Graph

__all__ = ["attributed_sbm", "planted_partition", "topic_features",
           "lfr_like", "sparse_dcsbm"]


def attributed_sbm(sizes: list[int], p_in: float, p_out: float,
                   num_features: int, rng: np.random.Generator,
                   feature_topics_per_class: int | None = None,
                   feature_active_in: float = 0.18,
                   feature_active_out: float = 0.01,
                   degree_exponent: float = 2.5,
                   identity_features: bool = False,
                   name: str = "sbm") -> Graph:
    """Generate an attributed degree-corrected SBM.

    Parameters
    ----------
    sizes:
        Community sizes; ``sum(sizes) = N`` and the class label of each node
        is its community.
    p_in / p_out:
        Within- and between-community edge probabilities (before degree
        correction, which preserves the expected edge count).
    num_features:
        Attribute dimensionality ``d``.
    feature_topics_per_class:
        Number of "topic words" assigned to each class; defaults to
        ``num_features // (2 * #classes)``.
    feature_active_in / feature_active_out:
        Bernoulli rates for topic words of the node's own class vs. other
        words — this plants the attribute homophily the paper relies on.
    degree_exponent:
        Pareto exponent for per-node degree propensities (heavy tail like
        real citation graphs).
    identity_features:
        Use the identity matrix instead of generated attributes (the
        paper's Polblogs convention).
    """
    sizes = list(sizes)
    if not sizes or any(s <= 0 for s in sizes):
        raise ValueError("community sizes must be positive")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("require 0 <= p_out <= p_in <= 1")
    n = int(sum(sizes))
    labels = np.repeat(np.arange(len(sizes)), sizes)

    # Degree propensities: unit-mean heavy-tailed weights.
    theta = rng.pareto(degree_exponent, size=n) + 1.0
    theta /= theta.mean()
    theta = np.clip(theta, 0.2, 6.0)

    adjacency = _sample_block_edges(labels, theta, p_in, p_out, rng)

    if identity_features:
        features = np.eye(n)
    else:
        features = topic_features(
            labels, num_features, rng,
            topics_per_class=feature_topics_per_class,
            active_in=feature_active_in, active_out=feature_active_out)

    return Graph(adjacency=adjacency, features=features, labels=labels,
                 name=name, metadata={"p_in": p_in, "p_out": p_out})


def _sample_block_edges(labels: np.ndarray, theta: np.ndarray,
                        p_in: float, p_out: float,
                        rng: np.random.Generator) -> sp.csr_matrix:
    """Sample edges with probability ``θᵢθⱼ·p_block`` per unordered pair.

    Works block-pair by block-pair so only candidate pairs are enumerated
    for moderate N; probabilities are clipped to [0, 1].
    """
    n = labels.size
    classes = np.unique(labels)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for a in classes:
        idx_a = np.flatnonzero(labels == a)
        for b in classes[classes >= a]:
            idx_b = np.flatnonzero(labels == b)
            p_block = p_in if a == b else p_out
            if p_block <= 0:
                continue
            probs = np.clip(
                np.outer(theta[idx_a], theta[idx_b]) * p_block, 0.0, 1.0)
            mask = rng.random(probs.shape) < probs
            if a == b:
                mask = np.triu(mask, k=1)
            r, c = np.nonzero(mask)
            rows.append(idx_a[r])
            cols.append(idx_b[c])
    if rows:
        row = np.concatenate(rows)
        col = np.concatenate(cols)
    else:
        row = col = np.empty(0, dtype=np.int64)
    data = np.ones(row.size)
    upper = sp.csr_matrix((data, (row, col)), shape=(n, n))
    upper = upper.maximum(upper.T)
    upper.setdiag(0)
    upper.eliminate_zeros()
    upper.data[:] = 1.0
    return upper


def sparse_dcsbm(num_nodes: int, num_communities: int,
                 rng: np.random.Generator, avg_degree: float = 10.0,
                 mixing: float = 0.15, degree_exponent: float = 2.5,
                 num_features: int = 0, name: str = "dcsbm") -> Graph:
    """Streamed degree-corrected SBM for 100k–1M-node graphs.

    :func:`attributed_sbm` enumerates every candidate node pair per block
    pair (a dense ``|a| × |b|`` Bernoulli matrix), which is quadratic in
    the community sizes and tops out around 10⁴ nodes.  This generator is
    linear in the *edge* count instead: it draws a Poisson number of
    edges per block pair from a fixed degree budget
    (``M = n · avg_degree / 2``, split ``1 − mixing`` within / ``mixing``
    between communities, blocks weighted by size), then places each
    edge's endpoints independently with probability proportional to the
    per-node degree propensity ``θ`` — the classic Poisson multigraph
    construction of the DC-SBM, collapsed to a simple graph by dropping
    self-pairs and duplicates.  No dense intermediate ever exists; the
    working set is a few int64 arrays of edge length and the final CSR.

    Features (``num_features > 0``) come from :func:`topic_features`;
    ``num_features = 0`` plants one *one-hot community indicator* per
    node instead of the identity matrix (which would be a dense ``n × n``
    allocation at this scale).
    """
    if num_nodes < 2 * num_communities:
        raise ValueError("need at least two nodes per community")
    if not 0.0 <= mixing < 1.0:
        raise ValueError("mixing must be in [0, 1)")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    n = int(num_nodes)
    k = int(num_communities)
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[:n % k] += 1
    labels = np.repeat(np.arange(k), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    theta = rng.pareto(degree_exponent, size=n) + 1.0
    theta = np.clip(theta / theta.mean(), 0.2, 6.0)
    # Endpoint distributions, normalised per community.
    probs = [theta[offsets[a]:offsets[a + 1]] for a in range(k)]
    probs = [p / p.sum() for p in probs]

    budget = n * avg_degree / 2.0
    share = sizes / n
    within = (1.0 - mixing) * budget * share
    cross_weight = np.outer(share, share)
    cross_mass = np.triu(cross_weight, k=1).sum()
    codes_chunks: list[np.ndarray] = []
    for a in range(k):
        for b in range(a, k):
            if a == b:
                mean = within[a]
            elif cross_mass > 0:
                mean = mixing * budget * cross_weight[a, b] / cross_mass
            else:
                mean = 0.0
            count = int(rng.poisson(mean))
            if count == 0:
                continue
            u = offsets[a] + rng.choice(sizes[a], size=count, p=probs[a])
            v = offsets[b] + rng.choice(sizes[b], size=count, p=probs[b])
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            keep = lo != hi
            codes_chunks.append(lo[keep] * np.int64(n) + hi[keep])
    if codes_chunks:
        # ``np.unique`` without its bookkeeping: sort in place, then keep
        # the first of each run of equal codes.
        codes = np.concatenate(codes_chunks)
        codes.sort()
        first = np.ones(codes.size, dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        codes = codes[first]
    else:
        codes = np.empty(0, dtype=np.int64)
    row = codes // n
    col = codes - row * n
    data = np.ones(2 * codes.size, dtype=np.float64)
    adjacency = sp.csr_matrix(
        (data, (np.concatenate([row, col]), np.concatenate([col, row]))),
        shape=(n, n))

    if num_features > 0:
        if num_features < k:
            raise ValueError("need at least one feature per community")
        features = topic_features(labels, num_features, rng,
                                  topics_per_class=max(1, num_features
                                                       // (2 * k)))
    else:
        features = np.zeros((n, k), dtype=np.float64)
        features[np.arange(n), labels] = 1.0

    # The construction is symmetric, loop-free and binary by build;
    # skip the O(nnz) re-verification at million-node scale.
    return Graph(adjacency=adjacency, features=features, labels=labels,
                 name=name, validate="off",
                 metadata={"avg_degree": avg_degree, "mixing": mixing,
                           "generator": "sparse_dcsbm"})


def topic_features(labels: np.ndarray, num_features: int,
                   rng: np.random.Generator,
                   topics_per_class: int | None = None,
                   active_in: float = 0.18,
                   active_out: float = 0.01) -> np.ndarray:
    """Sparse binary bag-of-words features correlated with class labels."""
    labels = np.asarray(labels)
    num_classes = int(labels.max()) + 1
    if topics_per_class is None:
        topics_per_class = max(2, num_features // (2 * num_classes))
    if topics_per_class * num_classes > num_features:
        raise ValueError("not enough features for the requested topics")

    permutation = rng.permutation(num_features)
    # Row c holds class c's topic words.
    class_words = permutation[:num_classes * topics_per_class].reshape(
        num_classes, topics_per_class)
    features = (rng.random((labels.size, num_features)) < active_out)
    features = features.astype(np.float64)
    for c in range(num_classes):
        members = np.flatnonzero(labels == c)
        words = class_words[c]
        hits = rng.random((members.size, words.size)) < active_in
        features[np.ix_(members, words)] = np.maximum(
            features[np.ix_(members, words)], hits.astype(np.float64))
    # Guarantee no all-zero rows (every document has at least one word):
    # one draw of a class word per empty row — the same draws, in row
    # order, as one ``rng.choice(words)`` per row.
    empty = np.flatnonzero(features.sum(axis=1) == 0)
    if empty.size:
        picks = rng.choice(topics_per_class, size=empty.size)
        features[empty, class_words[labels[empty], picks]] = 1.0
    return features


def lfr_like(num_nodes: int, rng: np.random.Generator,
             mixing: float = 0.2, avg_degree: float = 8.0,
             community_exponent: float = 1.5,
             min_community: int = 10, num_features: int = 0,
             name: str = "lfr") -> Graph:
    """LFR-flavoured benchmark: power-law community sizes + mixing μ.

    A lighter-weight cousin of the Lancichinetti–Fortunato–Radicchi
    benchmark: community sizes follow a truncated power law, each node
    spends ``1 − μ`` of its (heavy-tailed) degree inside its community,
    and features (when requested) echo the communities.  Used by the
    extension community-detection benchmarks where unequal, skewed
    community sizes stress the methods more than a planted partition.
    """
    if not 0.0 <= mixing < 1.0:
        raise ValueError("mixing must be in [0, 1)")
    if min_community * 2 > num_nodes:
        raise ValueError("num_nodes too small for the minimum community size")

    sizes: list[int] = []
    remaining = num_nodes
    while remaining > 0:
        draw = int(min_community * (rng.pareto(community_exponent) + 1.0))
        draw = min(max(draw, min_community), remaining)
        if remaining - draw < min_community and remaining != draw:
            draw = remaining  # absorb the tail into the last community
        sizes.append(draw)
        remaining -= draw

    mean_size = num_nodes / len(sizes)
    p_in = min(1.0, (1.0 - mixing) * avg_degree / max(mean_size - 1.0, 1.0))
    p_out = min(1.0, mixing * avg_degree / max(num_nodes - mean_size, 1.0))
    return attributed_sbm(
        sizes, p_in, p_out,
        num_features=max(num_features, len(sizes) * 4), rng=rng,
        identity_features=num_features == 0, name=name)


def planted_partition(num_communities: int, community_size: int,
                      p_in: float, p_out: float, rng: np.random.Generator,
                      num_features: int = 0, name: str = "planted") -> Graph:
    """Uniform-size planted-partition convenience wrapper."""
    sizes = [community_size] * num_communities
    identity = num_features == 0
    return attributed_sbm(
        sizes, p_in, p_out,
        num_features=max(num_features, num_communities * 4),
        rng=rng, identity_features=identity, name=name)

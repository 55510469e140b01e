"""Scoring functions from Section VI-B: edge anomaly, defense score, rigidity.

These are evaluation/diagnostic quantities computed on finished embeddings,
so everything here is plain numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["edge_anomaly_scores", "defense_score", "rigidity",
           "membership_entropy_scores", "community_attribute_scores",
           "community_anomaly_scores"]


def edge_anomaly_scores(embedding: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Cosine anomaly score ``s(e) = 1 − cos(zᵢ, zⱼ)`` per edge.

    A higher score means the edge connects dissimilar embeddings, i.e. the
    edge had *less* influence on the representation.
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    edges = np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (M, 2) array")
    z_i = embedding[edges[:, 0]]
    z_j = embedding[edges[:, 1]]
    # One norm per node, gathered per endpoint: the same per-row values
    # as norming the gathered rows, at a fraction of the work.
    node_norms = np.linalg.norm(embedding, axis=1)
    norms = node_norms[edges[:, 0]] * node_norms[edges[:, 1]]
    norms = np.maximum(norms, 1e-12)
    cosine = np.sum(z_i * z_j, axis=1) / norms
    return 1.0 - cosine


def defense_score(embedding: np.ndarray, clean_edges: np.ndarray,
                  fake_edges: np.ndarray) -> float:
    """Defense score ``DS(δ)`` from Section VI-B1.

    With ``|E*| = δ|E|`` the paper's expression
    ``Σ_{e∈E*} s(e) / (δ Σ_{e∈E} s(e))`` is exactly the ratio of the mean
    anomaly score of fake edges to that of clean edges, which is what we
    compute (robust to either edge set being passed at any size).
    """
    clean_edges = np.asarray(clean_edges)
    fake_edges = np.asarray(fake_edges)
    if fake_edges.size == 0:
        raise ValueError("no fake edges supplied")
    clean_scores = edge_anomaly_scores(embedding, clean_edges)
    fake_scores = edge_anomaly_scores(embedding, fake_edges)
    denominator = clean_scores.mean()
    if denominator <= 0:
        return float("inf") if fake_scores.mean() > 0 else 1.0
    return float(fake_scores.mean() / denominator)


def rigidity(membership: np.ndarray) -> float:
    """Hard-partition index ``tr(PᵀP)/N`` (Section VI-E3, Fig. 9b).

    Equals 1 exactly when every row of ``P`` is one-hot; strictly smaller
    for overlapped (soft) community structure.
    """
    membership = np.asarray(membership, dtype=np.float64)
    n = membership.shape[0]
    return float(np.sum(membership * membership) / n)


def membership_entropy_scores(membership: np.ndarray) -> np.ndarray:
    """Structural anomaly score from community membership (Eq. 19).

    The printed equation in the paper is garbled; its cited source scores a
    node by how *uncommitted* its membership vector is.  We use the Shannon
    entropy of ``pᵢ``: anomalous nodes straddle communities (high entropy),
    normal nodes commit to one (low entropy).
    """
    membership = np.asarray(membership, dtype=np.float64)
    clipped = np.clip(membership, 1e-12, 1.0)
    return -np.sum(clipped * np.log(clipped), axis=1)


def community_attribute_scores(membership: np.ndarray,
                               features: np.ndarray) -> np.ndarray:
    """Attribute anomaly score: distance to the community feature profile.

    Each community's attribute centroid is the membership-weighted mean of
    the feature matrix; a node is suspicious when its own attributes are
    far (cosine) from the profile its membership predicts.  This is the
    attribute-side complement of :func:`membership_entropy_scores` —
    structural outliers break the membership, attribute outliers break
    the community's feature signature.
    """
    membership = np.asarray(membership, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    if membership.shape[0] != features.shape[0]:
        raise ValueError("membership and features must cover the same nodes")
    mass = membership.sum(axis=0)[:, None] + 1e-12
    centroids = (membership.T @ features) / mass
    expected = membership @ centroids
    inner = np.sum(features * expected, axis=1)
    norms = (np.linalg.norm(features, axis=1)
             * np.linalg.norm(expected, axis=1))
    return 1.0 - inner / np.maximum(norms, 1e-12)


def community_anomaly_scores(membership: np.ndarray,
                             features: np.ndarray | None = None) -> np.ndarray:
    """AnECI's node anomaly score (our concretisation of Eq. 19).

    Sum of standardised membership entropy and (when features are given)
    standardised community-attribute inconsistency, covering the
    structural, attribute and combined outlier types of Section V-C.
    """
    entropy = _standardize(membership_entropy_scores(membership))
    if features is None:
        return entropy
    return entropy + _standardize(
        community_attribute_scores(membership, features))


def _standardize(values: np.ndarray) -> np.ndarray:
    return (values - values.mean()) / (values.std() + 1e-12)

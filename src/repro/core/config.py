"""Hyper-parameter configuration for AnECI.

The paper's supplementary S.I is not available; values below follow the
main text where stated (LeakyReLU slope 0.01, 150 epochs for node
classification, 600 for community detection, early-stopping patience 20/40
for anomaly detection) and conventional defaults elsewhere.  Everything is
a plain dataclass so experiments can record the exact configuration used.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["AnECIConfig", "TASK_EPOCHS", "config_key", "config_fingerprint",
           "graph_fingerprint", "run_key"]

#: Per-task epoch budgets from Section V-D.
TASK_EPOCHS = {
    "classification": 150,
    "community": 600,
    "anomaly": 300,  # early stopping bounds the actual count
}


@dataclass
class AnECIConfig:
    """All knobs of the AnECI model.

    Attributes
    ----------
    num_communities:
        ``|C|`` — also the embedding width ``h`` (Section IV-B).
    hidden_dims:
        Widths of the intermediate GCN layers.
    order:
        High-order proximity order ``l`` (Eq. 1).
    proximity_weights:
        Optional per-order weights ``w``; uniform when ``None``.
    beta1 / beta2:
        Loss weights of Eq. 18 (−β₁·Q̃ + β₂·L_R).
    lr / weight_decay / epochs / patience:
        Optimisation schedule; ``patience=None`` disables early stopping.
    recon_sample_size:
        If the graph has more nodes than this, each epoch reconstructs a
        random node-subset block of ``Ã`` instead of the full ``N × N``
        matrix (keeps Pubmed-scale graphs tractable).
    dropout:
        Dropout applied between GCN layers during training.
    seed:
        Seed for weight init and any sampling.
    n_init:
        Independent restarts; the run with the best (highest) final
        modularity is kept.  Guards against rare collapse to a single
        community when ``|C|`` is small.
    decoder_source:
        What the decoder inner-products: ``"membership"`` (the paper's
        choice, Eq. 15 uses ``P``) or ``"embedding"`` (``Z``, the GAE
        convention) — exposed for the ablation benchmark.
    recon_target:
        What the decoder reconstructs: ``"high_order"`` (the paper's ``Ã``)
        or ``"first_order"`` (``A + I`` row-normalised, the GAE
        convention) — exposed for the ablation benchmark.
    proximity_kind / katz_beta:
        ``"uniform"`` uses the paper's equal per-order weights (or
        ``proximity_weights`` when given); ``"katz"`` uses the geometric
        Katz weighting ``w_l = βˡ`` (Definition 3's cited family).
    dtype:
        Numeric precision of the training path: ``"float64"`` (the
        default — bit-identical to the historical engine) or
        ``"float32"`` (half the memory bandwidth, faster on large
        graphs, metric parity within small tolerances).  The default is
        taken from the ``REPRO_DTYPE`` environment variable when set.
    train_mode:
        ``"full"`` (the default — the historical full-batch epoch,
        bit-identical to every release so far) or ``"sampled"``
        (edge/negative-sampled reconstruction, subsampled modularity and
        a fanout-bounded minibatch GCN forward; sublinear per-epoch cost
        and memory, the mode that makes 100k–1M-node graphs trainable).
        Default from the ``REPRO_TRAIN_MODE`` environment variable (the
        global CLI ``--train-mode`` flag sets it).
    batch_nodes:
        Sampled mode only: nodes per epoch batch — the seed set of the
        minibatch GCN forward and the subsample of the modularity
        estimator.  Default from ``REPRO_BATCH_NODES``.
    edge_samples:
        Sampled mode only: positive target entries drawn per epoch for
        the stratified reconstruction estimator.  Default from
        ``REPRO_EDGE_SAMPLES``.
    negative_samples:
        Sampled mode only: negative pairs drawn per positive (the ``k``
        of k-negative sampling).  Default from ``REPRO_NEG_SAMPLES``.
    fanout:
        Sampled mode only: per-layer neighbor cap of the minibatch GCN
        forward; rows above the cap are subsampled without replacement
        and rescaled so the sampled aggregation is an unbiased estimate
        of the full convolution.  Default from ``REPRO_FANOUT``.
    """

    num_communities: int
    hidden_dims: tuple[int, ...] = (64,)
    order: int = 2
    proximity_weights: tuple[float, ...] | None = None
    beta1: float = 1.0
    beta2: float = 1.0
    lr: float = 0.01
    weight_decay: float = 0.0
    epochs: int = 150
    patience: int | None = None
    recon_sample_size: int = 2048
    dropout: float = 0.0
    seed: int = 0
    n_init: int = 1
    decoder_source: str = "membership"
    recon_target: str = "high_order"
    proximity_kind: str = "uniform"
    katz_beta: float = 0.2
    dtype: str = field(
        default_factory=lambda: os.environ.get("REPRO_DTYPE", "float64"))
    train_mode: str = field(
        default_factory=lambda: os.environ.get("REPRO_TRAIN_MODE", "full"))
    batch_nodes: int = field(
        default_factory=lambda: int(os.environ.get("REPRO_BATCH_NODES",
                                                   "4096")))
    edge_samples: int = field(
        default_factory=lambda: int(os.environ.get("REPRO_EDGE_SAMPLES",
                                                   "8192")))
    negative_samples: int = field(
        default_factory=lambda: int(os.environ.get("REPRO_NEG_SAMPLES", "5")))
    fanout: int = field(
        default_factory=lambda: int(os.environ.get("REPRO_FANOUT", "10")))
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_init < 1:
            raise ValueError("n_init must be >= 1")
        if self.decoder_source not in ("membership", "embedding"):
            raise ValueError("decoder_source must be 'membership' or "
                             "'embedding'")
        if self.recon_target not in ("high_order", "first_order"):
            raise ValueError("recon_target must be 'high_order' or "
                             "'first_order'")
        if self.proximity_kind not in ("uniform", "katz"):
            raise ValueError("proximity_kind must be 'uniform' or 'katz'")
        if not 0.0 < self.katz_beta < 1.0:
            raise ValueError("katz_beta must be in (0, 1)")
        if self.num_communities < 1:
            raise ValueError("num_communities must be >= 1")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")
        if self.train_mode not in ("full", "sampled"):
            raise ValueError("train_mode must be 'full' or 'sampled'")
        if self.batch_nodes < 2:
            # The modularity estimator needs at least one node pair.
            raise ValueError("batch_nodes must be >= 2")
        if self.edge_samples < 1:
            raise ValueError("edge_samples must be >= 1")
        if self.negative_samples < 1:
            raise ValueError("negative_samples must be >= 1")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")


# --------------------------------------------------------------------- #
# Run identity                                                           #
# --------------------------------------------------------------------- #
def config_key(config) -> str:
    """Canonical string of every config field."""
    fields = asdict(config)
    items = sorted((k, repr(v)) for k, v in fields.items())
    return repr(items)


def config_fingerprint(config) -> str:
    """Short digest of :func:`config_key` — the config half of the run
    identity, recorded on its own in run-ledger entries so two runs can
    be told apart as "same graph, different config" at a glance."""
    return hashlib.blake2b(config_key(config).encode(),
                           digest_size=8).hexdigest()


def graph_fingerprint(graph) -> str:
    """Digest of the graph content (adjacency CSR arrays + features)."""
    adjacency = graph.adjacency
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(adjacency.shape).encode())
    digest.update(adjacency.indptr.tobytes())
    digest.update(adjacency.indices.tobytes())
    digest.update(adjacency.data.tobytes())
    digest.update(np.ascontiguousarray(graph.features).tobytes())
    return digest.hexdigest()


def run_key(graph, config) -> str:
    """Content-derived identity of one (graph, config) fit."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(config_key(config).encode())
    digest.update(graph_fingerprint(graph).encode())
    return digest.hexdigest()

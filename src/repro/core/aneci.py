"""AnECI — Attributed Network Embedding preserving Community Information.

The model of Section IV: a GCN encoder whose unsupervised training signal
combines (a) the generalised high-order/overlapped-community modularity
``Q̃`` and (b) reconstruction of the high-order proximity from the softmax
community membership, ``L = −β₁·Q̃ + β₂·L_R`` (Eq. 18).

``AnECIPlus`` (Algorithm 1) adds a two-stage denoising pass and lives in
:mod:`repro.core.denoise`; it is re-exported here for convenience.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..graph.graph import Graph, normalized_adjacency
from ..nn import Adam, Tensor, functional as F, no_grad
from ..nn import backend as kernels
from ..nn.autograd import pair_dots
from ..obs import events, metrics, store, trace
from .config import AnECIConfig, config_fingerprint, run_key
from .encoder import GCNEncoder
from .modularity import (generalized_modularity_tensor,
                         sampled_modularity_tensor)
from .scores import (community_anomaly_scores, membership_entropy_scores,
                     rigidity)
from .workspace import FitWorkspace, get_workspace

__all__ = ["AnECI", "AnECIPlus", "DivergenceError"]


class DivergenceError(RuntimeError):
    """An epoch produced a non-finite loss or gradient."""


class AnECI:
    """The AnECI embedding model.

    Parameters mirror :class:`~repro.core.config.AnECIConfig`; pass either a
    ready-made ``config`` or individual keyword arguments.

    Examples
    --------
    >>> from repro import AnECI, load_dataset
    >>> graph = load_dataset("cora", scale=0.1)
    >>> model = AnECI(graph.num_features, num_communities=7, epochs=30)
    >>> embedding = model.fit_transform(graph)
    >>> embedding.shape == (graph.num_nodes, 7)
    True
    """

    def __init__(self, num_features: int, num_communities: int | None = None,
                 config: AnECIConfig | None = None, **kwargs):
        if config is None:
            if num_communities is None:
                raise ValueError("num_communities is required without a config")
            config = AnECIConfig(num_communities=num_communities, **kwargs)
        elif kwargs or num_communities is not None:
            raise ValueError("pass either a config or keyword arguments, not both")
        self.config = config
        self.num_features = int(num_features)
        self.encoder: GCNEncoder | None = None
        self.history: list[dict[str, float]] = []
        self._fitted_graph: Graph | None = None
        #: Workspace of the last in-process fit; lets inference reuse the
        #: cached normalised adjacency instead of rebuilding it per call.
        self._fit_workspace: FitWorkspace | None = None
        #: One-slot (graph, adj_norm) memo for inference on other graphs.
        self._adj_norm_memo: tuple[Graph, object] | None = None
        #: Modularity of the state the encoder actually holds after a fit
        #: (the restored-best record under early stopping, the final
        #: record otherwise) — what restart selection ranks by.
        self.selection_modularity: float = -np.inf

    # ------------------------------------------------------------------ #
    # Training                                                            #
    # ------------------------------------------------------------------ #
    def fit(self, graph: Graph, callback=None,
            workers: int | None = None) -> "AnECI":
        """Train on ``graph``; each call restarts from fresh weights.

        ``callback(epoch, model, record)`` runs after every epoch, where
        ``record`` carries the epoch's loss decomposition, rigidity and
        the ``restart`` index — used by the validation-selection and
        Fig. 9(b) experiments.

        With ``n_init > 1`` the whole run is repeated from different
        initialisations and the restart with the highest final modularity
        is kept; the callback observes every restart (distinguishable by
        the record's ``restart`` key).

        ``workers`` (default: the ``REPRO_WORKERS`` environment variable,
        else serial) runs the restarts in a process pool via
        :mod:`repro.parallel` — results, selected weights and the emitted
        telemetry stream are bit-identical to the serial loop.  A
        non-``None`` ``callback`` forces the serial path: per-epoch
        callbacks observe live model state, which cannot cross a process
        boundary.

        An epoch whose loss or any parameter gradient is non-finite
        raises :class:`DivergenceError` naming the epoch and restart.

        With ``REPRO_RUN_DIR`` set (CLI: ``--run-dir``) the fit leaves
        one durable entry in the run ledger — keyed ``fit:<run key>`` —
        carrying the epoch history, final metrics, span/metric deltas
        and regression findings against the previous run under the same
        key (see :mod:`repro.obs.store`).
        """
        if not store.enabled():
            return self._fit_impl(graph, callback, workers)
        from ..parallel import resolve_workers
        cfg = self.config
        with store.capture_run(
                "fit", f"fit:{run_key(graph, cfg)}",
                model="aneci",
                graph={"name": graph.name, "nodes": graph.num_nodes,
                       "edges": graph.num_edges,
                       "features": graph.num_features},
                config=config_fingerprint(cfg),
                config_summary={
                    "num_communities": cfg.num_communities, "lr": cfg.lr,
                    "epochs": cfg.epochs, "n_init": cfg.n_init,
                    "seed": cfg.seed, "patience": cfg.patience},
                dtype=str(cfg.dtype),
                workers=resolve_workers(workers)) as run:
            self._fit_impl(graph, callback, workers)
            run["epochs"] = len(self.history)
            run["history"] = [
                {"epoch": r["epoch"], "restart": r["restart"],
                 "loss": r["loss"], "modularity": r["modularity"]}
                for r in self.history]
            last = self.history[-1] if self.history else {}
            run["final"] = {
                "selection_modularity": _finite_or_none(
                    self.selection_modularity),
                "loss": _finite_or_none(last.get("loss", np.nan)),
                "modularity": _finite_or_none(
                    last.get("modularity", np.nan)),
            }
        return self

    def _fit_impl(self, graph: Graph, callback,
                  workers: int | None) -> "AnECI":
        if self.config.n_init > 1:
            return self._fit_with_restarts(graph, callback, workers)
        self._fit_once(graph, callback, self.config.seed)
        # Single-init fits emit the same per-restart record as n_init > 1
        # runs, so telemetry consumers see one uniform stream shape.
        events.emit("restart", restart=0,
                    final_modularity=self.selection_modularity,
                    epochs_run=len(self.history), best_so_far=True)
        return self

    def _fit_with_restarts(self, graph: Graph, callback,
                           workers: int | None = None) -> "AnECI":
        from ..parallel import resolve_workers
        if callback is None and resolve_workers(workers) > 1:
            return self._fit_restarts_pooled(graph, workers)
        best = {"q": -np.inf, "restart": -1, "state": None, "history": None}
        for restart in range(self.config.n_init):
            self._fit_once(graph, callback, self.config.seed + restart,
                           restart=restart)
            # Rank by the modularity of the weights the restart actually
            # kept: under early stopping that is the restored-best state,
            # not the last epoch before patience ran out.
            final_q = self.selection_modularity
            if final_q > best["q"]:
                best.update(q=final_q, restart=restart,
                            state=self.encoder.state_dict(),
                            history=self.history)
            events.emit("restart", restart=restart, final_modularity=final_q,
                        epochs_run=len(self.history),
                        best_so_far=restart == best["restart"])
        metrics.registry().counter("aneci.restarts").inc(self.config.n_init)
        self.encoder.load_state_dict(best["state"])
        self.history = best["history"]
        self.selection_modularity = best["q"]
        return self

    def _fit_restarts_pooled(self, graph: Graph,
                             workers: int | None) -> "AnECI":
        """Run the restarts in worker processes, keep the best in-parent.

        Each restart is a pure task (graph, config, derived seed) whose
        result — weights, selection modularity, history — is merged in
        restart order, so selection (including the lowest-index tie
        break) and the replayed epoch/restart event stream match the
        serial loop exactly.  Workers rebuild the fit workspace cache per
        process; the content-addressed fingerprints make that a single
        cheap rebuild per worker.
        """
        from ..parallel import ParallelExecutor
        cfg = self.config
        best = {"q": -np.inf, "restart": -1, "state": None, "history": None}

        def select(restart: int, value) -> None:
            state, final_q, history = value
            if final_q > best["q"]:
                best.update(q=final_q, restart=restart, state=state,
                            history=history)
            events.emit("restart", restart=restart, final_modularity=final_q,
                        epochs_run=len(history),
                        best_so_far=restart == best["restart"])

        ParallelExecutor(workers).map(
            _restart_task,
            [(graph, cfg, cfg.seed + restart, restart)
             for restart in range(cfg.n_init)],
            on_result=select)
        metrics.registry().counter("aneci.restarts").inc(cfg.n_init)
        rng = np.random.default_rng(cfg.seed + best["restart"])
        self.encoder = GCNEncoder(
            self.num_features, (*cfg.hidden_dims, cfg.num_communities),
            rng=rng, dropout=cfg.dropout, dtype=cfg.dtype)
        self.encoder.load_state_dict(best["state"])
        self._fitted_graph = graph
        self._fit_workspace = None
        self.history = best["history"]
        self.selection_modularity = best["q"]
        return self

    def _fit_once(self, graph: Graph, callback, seed: int,
                  restart: int = 0) -> "AnECI":
        with trace.span("fit"):
            return self._fit_once_traced(graph, callback, seed, restart)

    def _fit_once_traced(self, graph: Graph, callback, seed: int,
                         restart: int) -> "AnECI":
        cfg = self.config
        if graph.num_features != self.num_features:
            raise ValueError(
                f"model built for {self.num_features} features, graph has "
                f"{graph.num_features}")
        rng = np.random.default_rng(seed)
        dtype = np.dtype(cfg.dtype)
        self.encoder = GCNEncoder(
            self.num_features, (*cfg.hidden_dims, cfg.num_communities),
            rng=rng, dropout=cfg.dropout, dtype=dtype)
        self.history = []
        self._fitted_graph = graph

        with trace.span("setup"):
            # Every epoch-invariant constant (normalised adjacency,
            # proximity, modularity terms, densified recon target) comes
            # from the content-addressed workspace cache, so restarts and
            # unchanged-graph refits skip the whole rebuild.  All of it —
            # and the feature tensor — is held in the configured dtype so
            # the entire epoch runs at one precision.
            workspace = get_workspace(graph, cfg)
            self._fit_workspace = workspace
            features = Tensor(np.asarray(graph.features, dtype=dtype))
            optimizer = Adam(self.encoder.parameters(), lr=cfg.lr,
                             weight_decay=cfg.weight_decay)
            # One set of dense arrays for the reconstruction term, reused
            # by every epoch of this fit (N×N, or k×k on the sampled-block
            # path) and dropped when it returns.  Arrays allocated per
            # epoch would go back to the OS when the epoch frees them
            # (glibc trims the heap top) and be faulted in again.
            # A sampled epoch's large arrays — each layer's aggregate,
            # activations and their gradients, and the logits of each
            # reconstruction stratum — get the same treatment: one
            # buffer pool per layer and per stratum.
            k = workspace.sample_nodes
            sampled = cfg.train_mode == "sampled"
            recon_buffers = (None if sampled else kernels.bce_buffers(
                (workspace.num_nodes,) * 2 if k is None else (k, k), dtype))
            pools = (dict(layers=[kernels.BufferPool()
                                  for _ in self.encoder.convs],
                          edges=kernels.BufferPool(),
                          negatives=kernels.BufferPool())
                     if sampled else None)

        epoch_counter = metrics.registry().counter("aneci.epochs")

        best_loss = np.inf
        best_state = None
        best_q = -np.inf
        stall = 0
        for epoch in range(cfg.epochs):
            with trace.span("epoch"):
                self.encoder.train()
                optimizer.zero_grad()
                if cfg.train_mode == "sampled":
                    q_tilde, recon, p = self._sampled_epoch(
                        features, workspace, rng, pools)
                else:
                    z = self.encoder(features, workspace.adj_norm)
                    p = z.softmax(axis=-1)

                    q_tilde = generalized_modularity_tensor(
                        p, workspace.prox, workspace.degrees,
                        workspace.two_m)
                    decoder_input = (p if cfg.decoder_source == "membership"
                                     else z)
                    recon = self._reconstruction_loss(
                        decoder_input, workspace, rng, recon_buffers)
                loss = q_tilde * (-cfg.beta1) + recon * cfg.beta2
                loss.backward()
                loss_value = loss.item()
                modularity, reconstruction = q_tilde.item(), recon.item()
                membership = p.data
                # Free this epoch's autograd graph before the next forward.
                # Its large arrays live in ``recon_buffers`` or ``pools``,
                # so what is freed here is small.
                if cfg.train_mode != "sampled":
                    del z, decoder_input
                del loss, q_tilde, recon, p
                if not _finite(loss_value, self.encoder.parameters()):
                    raise DivergenceError(
                        f"non-finite loss or gradient at epoch {epoch} "
                        f"(restart {restart})")
                optimizer.step()

            record = {
                "epoch": epoch,
                "restart": restart,
                "loss": loss_value,
                "modularity": modularity,
                "reconstruction": reconstruction,
                "rigidity": rigidity(membership),
            }
            self.history.append(record)
            epoch_counter.inc()
            events.emit("epoch", model="aneci", **record)
            if callback is not None:
                callback(epoch, self, record)

            if cfg.patience is not None:
                # Early stopping on the modularity training loss (Section V-D).
                modularity_loss = -record["modularity"]
                if modularity_loss < best_loss - 1e-6:
                    best_loss = modularity_loss
                    best_state = self.encoder.state_dict()
                    best_q = record["modularity"]
                    stall = 0
                else:
                    stall += 1
                    if stall >= cfg.patience:
                        break
        if cfg.patience is not None and best_state is not None:
            self.encoder.load_state_dict(best_state)
            self.selection_modularity = best_q
        else:
            self.selection_modularity = self.history[-1]["modularity"]
        return self

    def _sampled_epoch(self, features: Tensor, workspace: FitWorkspace,
                       rng: np.random.Generator, pools=None
                       ) -> tuple[Tensor, Tensor, Tensor]:
        """One sampled-mode epoch: batch draw → minibatch GCN forward →
        subsampled modularity → edge/negative-sampled reconstruction.

        Every per-epoch cost is bounded by the sample-size knobs — no
        O(N·d) forward, no O(N²) (or dense-block) loss — which is what
        makes 100k–1M-node graphs trainable.  Both loss terms are
        unbiased estimators of their full-batch counterparts *for the
        batch membership matrix* (see
        :func:`~repro.core.modularity.sampled_modularity_tensor` and
        :func:`_sampled_reconstruction`); the minibatch forward itself is
        the standard fanout-bounded GraphSAGE-style estimate of the full
        convolution, exact whenever ``fanout`` ≥ the maximum degree.

        The batch's ``S×S`` block of ``Ã`` is built once
        (:meth:`~repro.core.workspace.FitWorkspace.recon_block`) and read
        by both terms.  ``pools`` holds the fit's buffer pools (one per
        layer, one per reconstruction stratum), so the epoch's large
        arrays are allocated once per fit, not once per epoch.

        Returns ``(q_tilde, recon, p)`` where ``p`` holds the batch
        membership rows (what the epoch record's rigidity is computed
        on).
        """
        cfg = self.config
        idx = workspace.batch_indices(rng, cfg.batch_nodes)
        z = _minibatch_forward(self.encoder, features, workspace, idx,
                               cfg.fanout, rng,
                               None if pools is None else pools["layers"])
        p = z.softmax(axis=-1)
        target = workspace.recon_block(idx)
        block = (target if workspace.shared_target
                 else workspace.prox_block(idx))
        q_tilde = sampled_modularity_tensor(
            p, block, workspace.degrees[idx], workspace.two_m,
            workspace.num_nodes)
        decoder_input = p if cfg.decoder_source == "membership" else z
        recon, num_pos, num_neg = _sampled_reconstruction(
            decoder_input, target, cfg.edge_samples, cfg.negative_samples,
            rng, pools)
        registry = metrics.registry()
        registry.counter("sample.nodes").inc(int(idx.size))
        registry.counter("sample.edges").inc(num_pos)
        registry.counter("sample.negatives").inc(num_neg)
        return q_tilde, recon, p

    def _reconstruction_loss(self, p: Tensor, workspace: FitWorkspace,
                             rng: np.random.Generator,
                             buffers: dict | None = None) -> Tensor:
        """High-order reconstruction ``L_R`` (Eq. 17) on ``Â = σ(PPᵀ)``.

        The paper sums Eq. 17 over all pairs; we reduce by the pair count so
        the two loss terms of Eq. 18 share a common O(1) scale and β₁/β₂
        keep their balancing role across graph sizes.  For large graphs a
        random node block is reconstructed per epoch (same mean scale).
        ``buffers`` (:func:`repro.nn.backend.bce_buffers`) receive the
        logits and the loss's intermediates.
        """
        if workspace.sample_nodes is None:
            target = workspace.dense_target()
        else:
            idx = workspace.sample_indices(rng)
            p = p[idx]
            target = workspace.target_block(idx)
        logits = p.matmul(p.T, out=None if buffers is None
                          else buffers["logits"])
        return F.binary_cross_entropy_with_logits(logits, target, "mean",
                                                  buffers=buffers)

    # ------------------------------------------------------------------ #
    # Inference                                                           #
    # ------------------------------------------------------------------ #
    def embed(self, graph: Graph | None = None) -> np.ndarray:
        """Return the embedding matrix ``Z`` for ``graph`` (default: the
        graph the model was fitted on)."""
        if self.encoder is None:
            raise RuntimeError("call fit() before embed()")
        graph = graph or self._fitted_graph
        adj_norm = self._inference_adj_norm(graph)
        dtype = np.dtype(self.config.dtype)
        self.encoder.eval()
        with no_grad():
            z = self.encoder(
                Tensor(np.asarray(graph.features, dtype=dtype)), adj_norm)
        return z.data.copy()

    def _inference_adj_norm(self, graph: Graph) -> sp.csr_matrix:
        """The normalised adjacency for inference on ``graph``.

        For the graph the model was fitted on this is the fit
        workspace's cached matrix — no rebuild; any other graph's
        normalisation is memoised per graph object so repeated
        ``embed``/``membership``/``assign_communities`` calls pay for it
        once.
        """
        workspace = self._fit_workspace
        if workspace is not None and graph is self._fitted_graph:
            return workspace.adj_norm
        memo = self._adj_norm_memo
        if memo is not None and memo[0] is graph:
            return memo[1]
        adj_norm = normalized_adjacency(graph.adjacency)
        self._adj_norm_memo = (graph, adj_norm)
        return adj_norm

    def fit_transform(self, graph: Graph, callback=None,
                      workers: int | None = None) -> np.ndarray:
        return self.fit(graph, callback=callback,
                        workers=workers).embed(graph)

    def membership(self, graph: Graph | None = None) -> np.ndarray:
        """Soft community membership ``P = softmax(Z)`` (Eq. 3)."""
        return F.stable_softmax(self.embed(graph), axis=1)

    def assign_communities(self, graph: Graph | None = None) -> np.ndarray:
        """Hard community labels ``argmax_k pᵢᵏ`` (Section VI-D)."""
        return self.membership(graph).argmax(axis=1)

    def anomaly_scores(self, graph: Graph | None = None,
                       use_attributes: bool = True) -> np.ndarray:
        """Node anomaly scores (Section VI-C).

        Membership entropy catches structural outliers; the
        community-attribute inconsistency term catches attribute and
        combined outliers.  Set ``use_attributes=False`` for the pure
        entropy score (e.g. on identity-feature graphs).
        """
        graph = graph or self._fitted_graph
        membership = self.membership(graph)
        if not use_attributes:
            return membership_entropy_scores(membership)
        return community_anomaly_scores(membership, graph.features)

    def export_serving(self, directory: str, graph: Graph | None = None,
                       meta: dict | None = None) -> str:
        """Publish this fit's embeddings to a serving store; return the
        version key.

        One forward pass produces the embedding matrix and its softmax
        membership; both land in :class:`repro.serve.store.EmbeddingStore`
        under ``directory`` as float32 shards.  The version is the
        content-derived :func:`repro.core.config.run_key` of
        (graph, config), so re-exporting the same fit overwrites its own
        version while any changed fit publishes a fresh one — and
        ``repro serve run`` can hot-reload between them.
        """
        if self.encoder is None:
            raise RuntimeError("call fit() before export_serving()")
        from ..serve.store import EmbeddingStore
        graph = graph or self._fitted_graph
        embeddings = self.embed(graph)
        memberships = F.stable_softmax(embeddings, axis=1)
        version = run_key(graph, self.config)
        info = {"model": "aneci",
                "config": config_fingerprint(self.config),
                "graph": getattr(graph, "name", None)}
        if meta:
            info.update(meta)
        EmbeddingStore(directory).publish(
            embeddings.astype(np.float32, copy=False),
            memberships.astype(np.float32, copy=False), version, meta=info)
        return version


def _minibatch_forward(encoder, features: Tensor, workspace: FitWorkspace,
                       idx: np.ndarray, fanout: int,
                       rng: np.random.Generator,
                       pools=None) -> Tensor:
    """Fanout-bounded minibatch GCN forward over the batch ``idx``.

    Builds one rectangular block matrix per conv layer from the output
    seeds down to the inputs: layer ``ℓ``'s block rows are its output
    nodes and its columns the union of their (sampled) neighbours, which
    become the next layer down's rows.  The innermost block keeps global
    column ids: it is ``n₁ × N`` and multiplies the whole feature
    matrix, so no input rows are gathered, and being wider than tall its
    layer aggregates first (see :func:`repro.nn.fused_gcn_layer`).  Each
    block row holds the node's full normalised-adjacency row when its
    degree is within ``fanout``, else ``fanout`` neighbours sampled with
    replacement and rescaled by ``deg/fanout`` (an unbiased row estimate
    — see :class:`repro.nn.backend.NeighborSampler`).  Because ``adj_norm``
    carries self-loops, ``fanout`` ≥ the maximum degree keeps every row
    exact: the result then matches ``encoder(features, adj_norm)[idx]``
    to rounding, and bit for bit when ``idx`` covers the graph (every
    block is then square and takes the full forward's expressions).

    The neighbour draws come from the fit's single RNG, so the sample
    stream — and hence the whole trajectory — is bit-identical across
    dtypes and worker counts.  ``pools`` are the layers' buffer pools
    (see :meth:`~repro.core.encoder.GCNEncoder.forward_blocks`).
    """
    sampler = workspace.neighbor_sampler(fanout)
    num_nodes = workspace.num_nodes
    blocks = []
    seeds = np.asarray(idx, dtype=np.int64)
    for layer in reversed(range(len(encoder.convs))):
        out_ptr, cols, vals = sampler.sample(seeds, rng)
        num_rows = seeds.size
        if layer:
            seeds, cols = _compact_columns(cols, num_nodes)
        blocks.append(sp.csr_matrix(
            (vals, cols.astype(np.int32, copy=False),
             out_ptr.astype(np.int32, copy=False)),
            shape=(num_rows, seeds.size if layer else num_nodes)))
    blocks.reverse()
    return encoder.forward_blocks(features, blocks, pools)


def _compact_columns(cols: np.ndarray,
                     num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct node ids of ``cols`` and each entry's rank among
    them — ``np.unique(cols)`` and ``np.searchsorted`` of it, from one
    boolean mark over the nodes instead of a sort."""
    mark = np.zeros(num_nodes, dtype=bool)
    mark[cols] = True
    return np.flatnonzero(mark), (np.cumsum(mark) - 1)[cols]


def _sampled_reconstruction(dec: Tensor, block: sp.csr_matrix,
                            edge_samples: int, negative_samples: int,
                            rng: np.random.Generator, pools=None
                            ) -> tuple[Tensor, int, int]:
    """Edge/negative-sampled estimate of the block-mean BCE (Eq. 17).

    A stratified estimator of ``BCE_mean(σ(D Dᵀ), T)`` over the ``S×S``
    batch block ``T`` without materialising any ``S×S`` matrix:
    ``edge_samples`` positive entries are drawn uniformly (with
    replacement) from the block's stored entries and
    ``edge_samples × negative_samples`` zero pairs uniformly by
    rejection against the entry codes, then the two stratum means are
    recombined with their population weights ``nnz/S²`` and
    ``(S²−nnz)/S²``.  The expectation over draws equals the exact
    block-mean loss, so the full-batch and sampled objectives share the
    same O(1) scale and ``β₂`` keeps its role.

    ``pools`` (``edges`` and ``negatives``
    :class:`~repro.nn.backend.BufferPool`\ s) hold each stratum's
    logits and BCE arrays, whose sizes are fixed for a fit.

    Returns ``(loss, positives_drawn, negatives_drawn)``.
    """
    def buffers(stratum, size):
        if pools is None:
            return None
        return kernels.bce_buffers((size,), dtype, pools[stratum])

    def logits_of(stratum, rows, cols):
        return pair_dots(dec, rows, cols,
                         None if pools is None else pools[stratum])

    s = block.shape[0]
    total = s * s
    nnz = int(block.nnz)
    dtype = dec.data.dtype
    terms = []
    num_pos = num_neg = 0
    if nnz:
        num_pos = int(edge_samples)
        entry_ids = np.asarray(
            kernels.sample_pairs(rng, nnz, num_pos), dtype=np.int64)
        rows = np.searchsorted(block.indptr, entry_ids, side="right") - 1
        cols = block.indices[entry_ids].astype(np.int64, copy=False)
        targets = block.data[entry_ids].astype(dtype, copy=False)
        pos_mean = F.binary_cross_entropy_with_logits(
            logits_of("edges", rows, cols), targets, "mean",
            buffers("edges", num_pos))
        terms.append(pos_mean * (nnz / total))
    if nnz < total:
        num_neg = int(edge_samples) * int(negative_samples)
        # Entry codes are strictly increasing for a sorted-index CSR
        # block, so zero-pair rejection is one binary search per draw.
        entry_codes = (np.repeat(np.arange(s, dtype=np.int64),
                                 np.diff(block.indptr)) * s
                       + block.indices)
        kept_chunks: list[np.ndarray] = []
        kept_total = 0
        while kept_total < num_neg:
            cand = np.asarray(
                kernels.sample_pairs(rng, total, num_neg), dtype=np.int64)
            slot = np.searchsorted(entry_codes, cand)
            stored = np.zeros(cand.size, dtype=bool)
            inside = slot < entry_codes.size
            stored[inside] = entry_codes[slot[inside]] == cand[inside]
            kept = cand[~stored]
            kept_chunks.append(kept)
            kept_total += kept.size
        codes = np.concatenate(kept_chunks)[:num_neg]
        rows = codes // s
        cols = codes - rows * s
        neg_mean = F.binary_cross_entropy_with_logits(
            logits_of("negatives", rows, cols),
            np.zeros(num_neg, dtype=dtype), "mean",
            buffers("negatives", num_neg))
        terms.append(neg_mean * ((total - nnz) / total))
    loss = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    return loss, num_pos, num_neg


def _finite(loss_value: float, params) -> bool:
    """Are this epoch's loss and every parameter gradient finite?"""
    if not np.isfinite(loss_value):
        return False
    return all(param.grad is None or np.isfinite(param.grad).all()
               for param in params)


def _finite_or_none(value: float) -> float | None:
    """Strict-JSON-safe scalar for ledger entries (±inf/NaN → None)."""
    value = float(value)
    return value if np.isfinite(value) else None


def _restart_task(graph: Graph, config: AnECIConfig, seed: int,
                  restart: int) -> tuple[dict, float, list[dict]]:
    """One restart as a pure, picklable task for :mod:`repro.parallel`.

    Returns the trained weights, the selection modularity and the epoch
    history — everything the parent needs to pick a winner without the
    model object crossing the process boundary.
    """
    model = AnECI(graph.num_features, config=config)
    model._fit_once(graph, None, seed, restart=restart)
    return model.encoder.state_dict(), model.selection_modularity, model.history


# Re-export so ``from repro.core.aneci import AnECIPlus`` works; the class
# definition lives in denoise.py to keep Algorithm 1 in one place.
from .denoise import AnECIPlus  # noqa: E402  (circular-free: denoise imports nothing from here at import time)

"""AnECI+ — the two-stage denoising variant (Algorithm 1).

Stage 1 trains a plain AnECI model and scores every edge by the cosine
anomaly ``s(e) = 1 − cos(zᵢ, zⱼ)``.  The drop ratio is derived from the
average anomaly score through the smoothing function ψ, the top-ρ scored
edges are removed, and stage 2 retrains AnECI (same hyper-parameters) on
the cleaned graph.

The paper prints ``ψ(x) = γ / (1 + exp(α(x − β)))`` while describing ψ as
"an incremental function" whose output should grow with the attack scale.
The printed form *decreases* in ``x``; we implement the increasing sigmoid
``ψ(x) = γ · σ(α(x − β))``, which matches the stated intent and the fixed
constants β = 0.5, γ = 0.75.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.graph import Graph
from ..obs import events, metrics, store, trace
from .config import config_fingerprint, run_key
from .scores import edge_anomaly_scores

__all__ = ["AnECIPlus", "DenoiseResult", "smoothing_psi"]


def _finite_or_none(value: float) -> float | None:
    """Strict-JSON-safe scalar for ledger entries (±inf/NaN → None)."""
    value = float(value)
    return value if np.isfinite(value) else None


def smoothing_psi(x: float, alpha: float, beta: float = 0.5,
                  gamma: float = 0.75) -> float:
    """Drop-ratio smoothing ``ψ(x) = γ·σ(α(x − β))`` mapping [0,1]→[0,γ]."""
    return float(gamma / (1.0 + np.exp(-alpha * (x - beta))))


@dataclass
class DenoiseResult:
    """Diagnostics of the denoising phase."""

    drop_ratio: float
    num_dropped: int
    dropped_edges: np.ndarray
    mean_anomaly_score: float


class AnECIPlus:
    """AnECI with the Algorithm-1 denoising front end.

    Parameters
    ----------
    num_features / num_communities / **kwargs:
        Forwarded to :class:`~repro.core.aneci.AnECI` for both stages.
    alpha / beta / gamma:
        ψ parameters; the paper fixes β = 0.5 and γ = 0.75 and tunes α per
        dataset and attack (Section VI-B2).
    """

    def __init__(self, num_features: int, num_communities: int | None = None,
                 alpha: float = 4.0, beta: float = 0.5, gamma: float = 0.75,
                 **kwargs):
        from .aneci import AnECI
        self._factory = lambda: AnECI(num_features, num_communities, **kwargs)
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.stage1: "AnECI | None" = None
        self.stage2: "AnECI | None" = None
        self.denoise_result: DenoiseResult | None = None
        self._denoised_graph: Graph | None = None

    # ------------------------------------------------------------------ #
    def fit(self, graph: Graph, workers: int | None = None) -> "AnECIPlus":
        """Run both phases of Algorithm 1 on ``graph``.

        ``workers`` is forwarded to both stage fits, parallelising their
        ``n_init`` restarts (see :meth:`repro.core.aneci.AnECI.fit`).

        With ``REPRO_RUN_DIR`` set the whole pass records a
        ``denoise:<run key>`` ledger entry (keyed by the *input* graph
        and the shared stage config); the two stage fits additionally
        record their own ``fit:`` entries.
        """
        if not store.enabled():
            return self._fit_impl(graph, workers)
        cfg = self._factory().config
        with store.capture_run(
                "denoise", f"denoise:{run_key(graph, cfg)}",
                model="aneci+",
                graph={"name": graph.name, "nodes": graph.num_nodes,
                       "edges": graph.num_edges,
                       "features": graph.num_features},
                config=config_fingerprint(cfg), dtype=str(cfg.dtype),
                psi={"alpha": self.alpha, "beta": self.beta,
                     "gamma": self.gamma}) as run:
            self._fit_impl(graph, workers)
            result = self.denoise_result
            run["final"] = {
                "drop_ratio": result.drop_ratio,
                "edges_dropped": result.num_dropped,
                "mean_anomaly_score": result.mean_anomaly_score,
                "stage2_modularity": _finite_or_none(
                    self.stage2.selection_modularity),
            }
        return self

    def _fit_impl(self, graph: Graph, workers: int | None) -> "AnECIPlus":
        with trace.span("denoise/stage1"):
            self.stage1 = self._factory().fit(graph, workers=workers)
            embedding = self.stage1.embed(graph)

        with trace.span("denoise/score"):
            edges = graph.edge_list()
            scores = edge_anomaly_scores(embedding, edges)
            # s(e) ∈ [0, 2]; fold into [0, 1] so ψ's β = 0.5 sits mid-range.
            mean_score = float(np.clip(scores.mean() / 2.0, 0.0, 1.0))
            drop_ratio = smoothing_psi(mean_score, self.alpha, self.beta,
                                       self.gamma)

            num_drop = int(round(drop_ratio * len(edges)))
            if num_drop > 0:
                order = np.argsort(scores)[::-1]
                dropped = edges[order[:num_drop]]
                denoised = graph.remove_edges(dropped)
            else:
                dropped = np.empty((0, 2), dtype=np.int64)
                denoised = graph
        registry = metrics.registry()
        registry.counter("denoise.edges_scored").inc(len(edges))
        registry.counter("denoise.edges_dropped").inc(num_drop)
        events.emit("denoise", edges_scored=len(edges),
                    edges_dropped=num_drop, drop_ratio=drop_ratio,
                    mean_anomaly_score=mean_score)
        self.denoise_result = DenoiseResult(
            drop_ratio=drop_ratio, num_dropped=num_drop,
            dropped_edges=dropped, mean_anomaly_score=mean_score)
        self._denoised_graph = denoised

        with trace.span("denoise/stage2"):
            self.stage2 = self._factory().fit(denoised, workers=workers)
        return self

    # ------------------------------------------------------------------ #
    def embed(self, graph: Graph | None = None) -> np.ndarray:
        """Stage-2 embedding (on the denoised graph by default)."""
        self._require_fitted()
        return self.stage2.embed(graph or self._denoised_graph)

    def fit_transform(self, graph: Graph,
                      workers: int | None = None) -> np.ndarray:
        return self.fit(graph, workers=workers).embed()

    def membership(self, graph: Graph | None = None) -> np.ndarray:
        self._require_fitted()
        return self.stage2.membership(graph or self._denoised_graph)

    def assign_communities(self, graph: Graph | None = None) -> np.ndarray:
        return self.membership(graph).argmax(axis=1)

    def anomaly_scores(self, graph: Graph | None = None) -> np.ndarray:
        self._require_fitted()
        return self.stage2.anomaly_scores(graph or self._denoised_graph)

    def export_serving(self, directory: str, graph: Graph | None = None,
                       meta: dict | None = None) -> str:
        """Publish the stage-2 fit to a serving store (see
        :meth:`AnECI.export_serving`); the version key derives from the
        denoised graph, so a different noise draw exports separately."""
        self._require_fitted()
        info = {"model": "aneci_plus"}
        if meta:
            info.update(meta)
        return self.stage2.export_serving(
            directory, graph or self._denoised_graph, meta=info)

    @property
    def denoised_graph(self) -> Graph:
        self._require_fitted()
        return self._denoised_graph

    def _require_fitted(self) -> None:
        if self.stage2 is None:
            raise RuntimeError("call fit() before using the model")

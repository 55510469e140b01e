"""Programmatic experiment runners — one per paper artefact family.

Each runner is self-contained: give it a graph (or dataset name) and it
returns an :class:`~repro.experiments.base.ExperimentResult`.  The pytest
benchmarks in ``benchmarks/`` exercise the same protocols with shape
assertions; these runners are the library API for downstream users and
the CLI.

Every sweep-shaped runner takes ``workers`` (default: the
``REPRO_WORKERS`` environment variable, else serial) and fans its outer
axis — seeds, perturbation rates, outlier kinds — over a process pool
through :mod:`repro.parallel`.  The per-axis work lives in top-level
``_*_task`` functions of picklable arguments; results merge in axis
order, so rows, averages and the replayed telemetry stream are identical
to a serial run.  ``run_timing`` stays serial by design: its rows *are*
wall-clock measurements, and sharing cores would distort them.
"""

from __future__ import annotations

import functools

import numpy as np

from ..anomalies import seed_outliers
from ..attacks import FGA, Nettack, RandomAttack, select_target_nodes
from ..attacks.surrogate import LinearSurrogate
from ..core import defense_score, newman_modularity
from ..graph.graph import Graph
from ..metrics import accuracy
from ..obs import events, metrics, store, trace
from ..parallel import ParallelExecutor
from ..tasks import (anomaly_auc, communities_from_embedding,
                     evaluate_embedding, isolation_forest_scores)
from .base import (ExperimentResult, MethodSpec, aneci_factory,
                   aneci_plus_factory, default_embedding_methods,
                   default_supervised_methods, timer)

__all__ = [
    "run_node_classification",
    "run_defense_curve",
    "run_targeted_attack",
    "run_random_attack_curve",
    "run_anomaly_detection",
    "run_community_detection",
    "run_timing",
]


#: Fault-tolerance counters surfaced per experiment: how often the run
#: leaned on a recovery path (injected faults, task retries, pool
#: fallbacks) while producing its result.
_RESILIENCE_COUNTERS = ("faults.injected", "parallel.retries",
                        "parallel.fallbacks")


def _resilience_counts() -> dict[str, int]:
    registry = metrics.registry()
    return {name: registry.counter(name).value
            for name in _RESILIENCE_COUNTERS}


def _observed(fn):
    """Trace a runner under ``experiment/<fn name>`` and emit a
    structured completion event built from its :class:`ExperimentResult`.

    The event carries the run's resilience-counter deltas, so a chaos
    run (or a flaky machine) shows *how* the result was produced — e.g.
    ``faults_injected=2, task_retries=1`` — right next to the metrics.

    With ``REPRO_RUN_DIR`` set the result additionally lands in the run
    ledger as an ``exp:<name>:<graph>`` entry whose ``final`` dict holds
    every numeric ``method.metric`` cell, so a repeated experiment is
    regression-checked against its previous outcome."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = _resilience_counts()
        with trace.span(f"experiment/{fn.__name__}"):
            result = fn(*args, **kwargs)
        after = _resilience_counts()
        deltas = {name: after[name] - before[name]
                  for name in _RESILIENCE_COUNTERS}
        events.emit("experiment", name=result.name,
                    duration_s=result.duration_s,
                    methods=sorted(result.rows),
                    faults_injected=deltas["faults.injected"],
                    task_retries=deltas["parallel.retries"],
                    pool_fallbacks=deltas["parallel.fallbacks"],
                    **result.metadata)
        if store.enabled():
            store.record(
                "experiment",
                f"exp:{result.name}:{result.metadata.get('graph', '')}",
                final=_flatten_rows(result.rows),
                elapsed_s=result.duration_s,
                resilience={k: v for k, v in deltas.items() if v},
                meta=result.metadata)
        return result

    return wrapper


def _flatten_rows(rows: dict) -> dict[str, float]:
    """``{method: {metric: value}}`` → finite ``{"method.metric": value}``."""
    out: dict[str, float] = {}
    for method, row in rows.items():
        for metric, value in row.items():
            if isinstance(value, (int, float, np.integer, np.floating)) \
                    and not isinstance(value, bool) and np.isfinite(value):
                out[f"{method}.{metric}"] = float(value)
    return out


def _classification_seed_task(graph: Graph, seed: int,
                              fast: bool) -> dict[str, float]:
    """One Table III round: every method's test accuracy at one seed."""
    scores: dict[str, float] = {}
    specs = default_embedding_methods(fast) + [aneci_factory(graph)]
    for spec in specs:
        z = spec.build(seed).fit_transform(graph)
        scores[spec.name] = evaluate_embedding(z, graph, seed=seed)
    for spec in default_supervised_methods():
        pred = spec.build(seed).fit(graph).predict()
        scores[spec.name] = accuracy(
            graph.labels[graph.test_idx], pred[graph.test_idx])
    return scores


@_observed
def run_node_classification(graph: Graph, rounds: int = 2, fast: bool = True,
                            workers: int | None = None) -> ExperimentResult:
    """Table III protocol on one graph (seed axis parallelisable)."""
    with timer() as t:
        per_seed = ParallelExecutor(workers).map(
            _classification_seed_task,
            [(graph, seed, fast) for seed in range(rounds)])
        scores: dict[str, list[float]] = {}
        for seed_scores in per_seed:
            for name, value in seed_scores.items():
                scores.setdefault(name, []).append(value)
        rows = {name: {"acc": float(np.mean(vals)),
                       "std": float(np.std(vals))}
                for name, vals in scores.items()}
    return ExperimentResult("node_classification", rows,
                            {"graph": graph.name, "rounds": rounds},
                            t.elapsed)


def _defense_rate_task(graph: Graph, rate: float,
                       seed: int) -> dict[str, float]:
    """One Fig. 2 point: every method's defense score at one rate."""
    from .. import baselines as B
    result = RandomAttack(rate, seed=seed + 1).attack(graph)
    attacked, fake = result.graph, result.added_edges
    clean = graph.edge_list()
    specs = [
        MethodSpec("LINE", lambda s: B.LINE(
            dim=32, samples_per_edge=150, seed=s)),
        MethodSpec("GAE", lambda s: B.GAE(epochs=80, seed=s)),
        MethodSpec("DGI", lambda s: B.DGI(dim=32, epochs=60, seed=s)),
        aneci_factory(attacked),
    ]
    return {spec.name: defense_score(
                spec.build(seed).fit_transform(attacked), clean, fake)
            for spec in specs}


@_observed
def run_defense_curve(graph: Graph, rates=(0.1, 0.3, 0.5), seed: int = 0,
                      workers: int | None = None) -> ExperimentResult:
    """Fig. 2 protocol: defense score vs perturbation rate (rate axis
    parallelisable)."""
    rows: dict[str, dict[str, float]] = {}
    with timer() as t:
        per_rate = ParallelExecutor(workers).map(
            _defense_rate_task, [(graph, rate, seed) for rate in rates])
        for rate, row in zip(rates, per_rate):
            for name, value in row.items():
                rows.setdefault(name, {})[f"d={rate}"] = value
    return ExperimentResult("defense_curve", rows,
                            {"graph": graph.name, "rates": list(rates)},
                            t.elapsed)


def _targeted_pert_task(graph: Graph, attack: str, n_pert: int,
                        targets: np.ndarray, surrogate,
                        seed: int) -> dict[str, float]:
    """One Figs. 3/4 point: targeted accuracy at one perturbation budget."""
    attacked = graph
    for target in targets:
        if attack == "nettack":
            attacker = Nettack(n_pert, surrogate=surrogate,
                               candidate_limit=150, seed=int(target))
        elif attack == "fga":
            attacker = FGA(n_pert, surrogate=surrogate, seed=int(target))
        else:
            raise ValueError("attack must be 'nettack' or 'fga'")
        attacked = attacker.attack(attacked, int(target)).graph

    row: dict[str, float] = {}
    for spec in default_supervised_methods():
        pred = spec.build(seed).fit(attacked).predict()
        row[spec.name] = accuracy(graph.labels[targets], pred[targets])
    # Targeted poisoning: the shorter robust budget keeps the decoder
    # from memorising the adversarial edges (see
    # benchmarks/_harness.ROBUST_OVERRIDES).
    z = aneci_factory(attacked, epochs=80,
                      beta2=1.0).build(seed).fit_transform(attacked)
    row["AnECI"] = evaluate_embedding(z, attacked, nodes=targets)
    plus = aneci_plus_factory(attacked, epochs=80,
                              beta2=1.0).build(seed).fit(attacked)
    row["AnECI+"] = evaluate_embedding(
        plus.stage2.embed(attacked), attacked, nodes=targets)
    return row


@_observed
def run_targeted_attack(graph: Graph, attack: str = "nettack",
                        perturbations=(1, 3, 5), num_targets: int = 6,
                        seed: int = 0,
                        workers: int | None = None) -> ExperimentResult:
    """Figs. 3/4 protocol: targeted-node accuracy under poisoning
    (perturbation-budget axis parallelisable)."""
    rng = np.random.default_rng(seed)
    targets = select_target_nodes(graph, min_degree=5, limit=num_targets,
                                  rng=rng)
    surrogate = LinearSurrogate(seed=seed).fit(graph)
    rows: dict[str, dict[str, float]] = {}
    with timer() as t:
        per_budget = ParallelExecutor(workers).map(
            _targeted_pert_task,
            [(graph, attack, n_pert, targets, surrogate, seed)
             for n_pert in perturbations])
        for n_pert, row in zip(perturbations, per_budget):
            for name, value in row.items():
                rows.setdefault(name, {})[f"p={n_pert}"] = value
    return ExperimentResult(f"targeted_{attack}", rows,
                            {"graph": graph.name,
                             "targets": targets.tolist()}, t.elapsed)


def _random_rate_task(graph: Graph, rate: float,
                      seed: int) -> dict[str, float]:
    """One Fig. 5 point: overall accuracy at one random-poisoning rate."""
    from .. import baselines as B
    attacked = (RandomAttack(rate, seed=seed + 3).attack(graph).graph
                if rate else graph)
    row: dict[str, float] = {}
    gcn = B.GCNClassifier(epochs=80, seed=seed).fit(attacked)
    row["GCN"] = accuracy(graph.labels[graph.test_idx],
                          gcn.predict()[graph.test_idx])
    for name, method in {
        "GAE": B.GAE(epochs=80, seed=seed),
        "DGI": B.DGI(dim=32, epochs=60, seed=seed),
    }.items():
        row[name] = evaluate_embedding(method.fit_transform(attacked),
                                       attacked)
    z = aneci_factory(attacked).build(seed).fit_transform(attacked)
    row["AnECI"] = evaluate_embedding(z, attacked)
    plus = aneci_plus_factory(attacked, alpha=4.0).build(seed).fit(attacked)
    row["AnECI+"] = evaluate_embedding(plus.stage2.embed(attacked), attacked)
    return row


@_observed
def run_random_attack_curve(graph: Graph, rates=(0.0, 0.2, 0.5),
                            seed: int = 0,
                            workers: int | None = None) -> ExperimentResult:
    """Fig. 5 protocol: overall accuracy under random poisoning (rate
    axis parallelisable)."""
    rows: dict[str, dict[str, float]] = {}
    with timer() as t:
        per_rate = ParallelExecutor(workers).map(
            _random_rate_task, [(graph, rate, seed) for rate in rates])
        for rate, row in zip(rates, per_rate):
            for name, value in row.items():
                rows.setdefault(name, {})[f"noise={rate}"] = value
    return ExperimentResult("random_attack_curve", rows,
                            {"graph": graph.name, "rates": list(rates)},
                            t.elapsed)


def _anomaly_kind_task(graph: Graph, kind: str, fraction: float,
                       seed: int) -> dict[str, float]:
    """One Fig. 6 column: every method's AUC for one outlier kind."""
    from .. import baselines as B
    rng = np.random.default_rng(seed + 7)
    augmented, mask = seed_outliers(graph, rng, fraction=fraction, kind=kind)
    methods = {
        "GAE": B.GAE(epochs=80, seed=seed),
        "DGI": B.DGI(dim=32, epochs=60, seed=seed),
        "Dominant": B.Dominant(epochs=60, seed=seed),
        "AnomalyDAE": B.AnomalyDAE(epochs=60, seed=seed),
        "DONE": B.DONE(epochs=60, seed=seed),
        "ADONE": B.ADONE(epochs=60, seed=seed),
    }
    row: dict[str, float] = {}
    for name, method in methods.items():
        method.fit(augmented)
        scores = method.anomaly_scores()
        if scores is None:
            scores = isolation_forest_scores(method.embed(), seed=seed)
        row[name] = anomaly_auc(mask, scores)
    model = aneci_factory(augmented, patience=20).build(seed).fit(augmented)
    row["AnECI"] = anomaly_auc(mask, model.anomaly_scores())
    return row


@_observed
def run_anomaly_detection(graph: Graph, kinds=("structural", "attribute",
                                               "combined", "mix"),
                          fraction: float = 0.05, seed: int = 0,
                          workers: int | None = None) -> ExperimentResult:
    """Fig. 6 protocol: AUC per outlier type (kind axis parallelisable)."""
    rows: dict[str, dict[str, float]] = {}
    with timer() as t:
        per_kind = ParallelExecutor(workers).map(
            _anomaly_kind_task,
            [(graph, kind, fraction, seed) for kind in kinds])
        for kind, row in zip(kinds, per_kind):
            for name, value in row.items():
                rows.setdefault(name, {})[kind] = value
    return ExperimentResult("anomaly_detection", rows,
                            {"graph": graph.name, "fraction": fraction},
                            t.elapsed)


def _community_method_task(graph: Graph, name: str, seed: int) -> float:
    """One Fig. 7 row: one method's modularity on ``graph``."""
    from .. import baselines as B
    k = graph.num_classes
    if name == "vGraph":
        labels = B.VGraph(k, seed=seed).fit(graph).assign_communities()
    elif name == "ComE":
        labels = B.ComE(k, walks_per_node=4, walk_length=15,
                        seed=seed).fit(graph).assign_communities()
    elif name == "AnECI":
        labels = aneci_factory(graph, epochs=150).build(
            seed).fit(graph).assign_communities()
    else:
        builders = {
            "DeepWalk": lambda: B.DeepWalk(dim=32, walks_per_node=4,
                                           walk_length=15, seed=seed),
            "GAE": lambda: B.GAE(epochs=80, seed=seed),
            "DGI": lambda: B.DGI(dim=32, epochs=60, seed=seed),
        }
        z = builders[name]().fit_transform(graph)
        labels = communities_from_embedding(z, k, seed=seed)
    return newman_modularity(graph.adjacency, labels)


@_observed
def run_community_detection(graph: Graph, seed: int = 0,
                            workers: int | None = None) -> ExperimentResult:
    """Fig. 7 protocol (caller should pass an identity-feature graph);
    the method axis is parallelisable."""
    names = ["vGraph", "ComE", "DeepWalk", "GAE", "DGI", "AnECI"]
    rows: dict[str, dict[str, float]] = {}
    with timer() as t:
        values = ParallelExecutor(workers).map(
            _community_method_task,
            [(graph, name, seed) for name in names])
        for name, q in zip(names, values):
            rows[name] = {"Q": q}
        if graph.labels is not None:
            rows["(true labels)"] = {"Q": newman_modularity(
                graph.adjacency, graph.labels)}
    return ExperimentResult("community_detection", rows,
                            {"graph": graph.name}, t.elapsed)


@_observed
def run_timing(graph: Graph, fast: bool = True,
               seed: int = 0) -> ExperimentResult:
    """Table V protocol: wall-clock fit time per method.

    Deliberately serial: the rows are timing measurements, and running
    methods concurrently would have them contend for cores and distort
    every number.
    """
    rows: dict[str, dict[str, float]] = {}
    with timer() as t:
        specs = default_embedding_methods(fast) + [aneci_factory(graph)]
        for spec in specs:
            method = spec.build(seed)
            with timer() as fit_timer:
                method.fit(graph)
            rows[spec.name] = {"total_s": fit_timer.elapsed}
            epochs = getattr(method, "epochs", None) or getattr(
                getattr(method, "config", None), "epochs", None)
            if epochs:
                rows[spec.name]["per_epoch_s"] = fit_timer.elapsed / epochs
    return ExperimentResult("timing", rows, {"graph": graph.name}, t.elapsed)

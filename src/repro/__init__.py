"""Reproduction of AnECI (ICDE 2022).

Robust Attributed Network Embedding Preserving Community Information.

Top-level convenience re-exports::

    from repro import AnECI, load_dataset
    graph = load_dataset("cora")
    model = AnECI(graph.num_features, num_communities=7)
    embedding = model.fit_transform(graph)
"""

__version__ = "1.0.0"


def __getattr__(name):
    """Lazy re-exports so ``import repro`` stays cheap and cycle-free."""
    if name in {"AnECI", "AnECIPlus", "DivergenceError"}:
        from .core import aneci
        return getattr(aneci, name)
    if name in {"load_dataset", "DATASETS"}:
        from .graph import datasets
        return getattr(datasets, name)
    if name == "Graph":
        from .graph.graph import Graph
        return Graph
    if name in {"ParallelExecutor", "parallel_map", "resolve_workers"}:
        from . import parallel
        return getattr(parallel, name)
    if name == "FaultPlan":
        from .resilience import FaultPlan
        return FaultPlan
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = ["AnECI", "AnECIPlus", "Graph", "load_dataset", "DATASETS",
           "ParallelExecutor", "parallel_map", "resolve_workers",
           "DivergenceError", "FaultPlan",
           "__version__"]

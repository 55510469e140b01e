"""Command-line interface: ``python -m repro <command>``.

Commands
--------
datasets
    List the calibrated benchmark datasets and their Table II statistics.
generate
    Generate a dataset and save it as ``.npz`` (see ``repro.graph.io``).
embed
    Train an embedding method on a dataset and save the embedding.
attack
    Poison a dataset with one of the implemented attacks and save it.
evaluate
    Run one downstream task (classification / anomaly / community /
    link-prediction) for a method on a dataset and print the metric.
profile
    Train a model on a synthetic graph under the op profiler and print
    the top-k per-op time table plus the traced span tree.
obs
    Browse the persistent run ledger: ``repro obs runs list`` /
    ``show`` / ``diff`` / ``export`` / ``tail`` / ``regress`` (the
    ``runs`` noun is optional).  ``export`` writes Chrome trace-event
    JSON (load it in Perfetto / ``chrome://tracing``) and Prometheus
    text files from a recorded entry.
serve
    The embedding serving layer: ``repro serve export`` trains a method
    and publishes its embeddings + memberships to a versioned,
    checksummed, memory-mapped store; ``repro serve query`` answers
    ``similar`` / ``community`` / free-vector k-NN against a store
    directly; ``repro serve run`` starts the asyncio HTTP front end
    (micro-batching + LRU cache) over it.

Global observability flags (before the subcommand): ``--trace PATH``
streams every structured event the run emits to a JSONL file and
appends the final span tree; ``--profile`` prints the per-op autograd
table after the command finishes; ``--run-dir [PATH]`` records every
fit/denoise/experiment the command performs into the run ledger at
PATH (bare flag: the one-slot default ``.repro/runs/``).

``--workers N`` (default: the ``REPRO_WORKERS`` environment variable,
else 1) fans the parallelisable layers — ``n_init`` restarts, grid
trials, experiment sweep axes — over a process pool with deterministic
merging, so any command's output is identical at any worker count.

``--dtype {float32,float64}`` (default: the ``REPRO_DTYPE`` environment
variable, else float64) selects the numeric precision of the training
path for every model the command builds.

``--train-mode {full,sampled}`` (default: the ``REPRO_TRAIN_MODE``
environment variable, else full) selects the training regime for every
AnECI fit the command performs: ``full`` is the historical full-batch
epoch (bit-identical to every release so far); ``sampled`` switches to
edge/negative-sampled reconstruction, subsampled modularity and a
fanout-bounded minibatch GCN forward — sublinear per-epoch cost for
100k–1M-node graphs (tune with ``REPRO_BATCH_NODES`` /
``REPRO_EDGE_SAMPLES`` / ``REPRO_NEG_SAMPLES`` / ``REPRO_FANOUT``).

``--checkpoint-dir PATH`` (default: the ``REPRO_CHECKPOINT_DIR``
environment variable, else off) makes every fit write crash-safe
snapshots under PATH; ``repro embed --resume`` continues an interrupted
run from its newest valid snapshot, bit-identically.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AnECI reproduction toolkit (ICDE 2022)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write structured event records (epochs, "
                             "denoising, restarts, spans) as JSONL")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-op autograd profile after "
                             "the command finishes")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="process-pool workers for restarts/sweeps "
                             "(default: $REPRO_WORKERS, else 1; results "
                             "are identical at any worker count)")
    parser.add_argument("--dtype", choices=["float32", "float64"],
                        default=None,
                        help="numeric precision of the training path "
                             "(default: $REPRO_DTYPE, else float64)")
    parser.add_argument("--train-mode", choices=["full", "sampled"],
                        default=None,
                        help="training regime for AnECI fits (default: "
                             "$REPRO_TRAIN_MODE, else full; 'sampled' "
                             "trades exactness for sublinear per-epoch "
                             "cost on very large graphs)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="PATH",
                        help="write crash-safe training snapshots under "
                             "PATH (default: $REPRO_CHECKPOINT_DIR, else "
                             "off)")
    from .obs.store import DEFAULT_RUN_DIR
    parser.add_argument("--run-dir", nargs="?", const=DEFAULT_RUN_DIR,
                        default=None, metavar="PATH",
                        help="record every run this command performs into "
                             "the persistent run ledger at PATH (bare flag: "
                             f"{DEFAULT_RUN_DIR}; default: $REPRO_RUN_DIR, "
                             "else off)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list calibrated benchmark datasets")

    gen = sub.add_parser("generate", help="generate a dataset to .npz")
    _dataset_args(gen)
    gen.add_argument("--out", required=True, help="output .npz path")

    emb = sub.add_parser("embed", help="train a method, save the embedding")
    _dataset_args(emb)
    emb.add_argument("--method", default="aneci",
                     help="aneci, aneci+ or a registered baseline name")
    emb.add_argument("--epochs", type=int, default=None)
    emb.add_argument("--n-init", type=int, default=None,
                     help="independent restarts (aneci/aneci+ only)")
    emb.add_argument("--out", required=True, help="output .npy path")
    emb.add_argument("--json", action="store_true",
                     help="print a structured JSON record instead of text")
    emb.add_argument("--resume", action="store_true",
                     help="resume an interrupted fit from the newest valid "
                          "snapshot under --checkpoint-dir (aneci/aneci+ "
                          "only)")

    att = sub.add_parser("attack", help="poison a dataset, save to .npz")
    _dataset_args(att)
    att.add_argument("--attack", choices=["random", "dice"],
                     default="random")
    att.add_argument("--rate", type=float, default=0.2,
                     help="perturbation rate (fraction of |E|)")
    att.add_argument("--out", required=True, help="output .npz path")

    ev = sub.add_parser("evaluate", help="run a downstream task")
    _dataset_args(ev)
    ev.add_argument("--method", default="aneci")
    ev.add_argument("--task", required=True,
                    choices=["classification", "anomaly", "community",
                             "link-prediction"])
    ev.add_argument("--epochs", type=int, default=None)
    ev.add_argument("--json", action="store_true",
                    help="print a structured JSON record instead of text")

    prof = sub.add_parser(
        "profile", help="profile a model fit on a synthetic graph")
    _dataset_args(prof)
    prof.add_argument("--method", default="aneci",
                      help="aneci or aneci+ (autograd-op level profile)")
    prof.add_argument("--epochs", type=int, default=20)
    prof.add_argument("--top", type=int, default=10,
                      help="number of ops in the table")
    prof.add_argument("--json", action="store_true",
                      help="print the profile as JSON instead of a table")

    ex = sub.add_parser(
        "experiment", help="regenerate one of the paper's artefacts")
    _dataset_args(ex)
    ex.add_argument("name", choices=[
        "classification", "defense", "nettack", "fga", "random-attack",
        "anomaly", "community", "timing"])
    ex.add_argument("--out", default=None,
                    help="optional path for a markdown report")

    obs = sub.add_parser(
        "obs", help="browse the run ledger (list/show/diff/export/tail)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    # ``repro obs runs <verb>`` and ``repro obs <verb>`` are synonyms:
    # the same verb parsers hang off both levels with a shared dest.
    runs = obs_sub.add_parser("runs", help="alias namespace for the verbs")
    _obs_verbs(runs.add_subparsers(dest="obs_command", required=True))
    _obs_verbs(obs_sub)

    srv = sub.add_parser(
        "serve", help="export / query / run the embedding serving layer")
    srv_sub = srv.add_subparsers(dest="serve_command", required=True)
    sx = srv_sub.add_parser(
        "export", help="train a method and publish it to a serving store")
    _dataset_args(sx)
    sx.add_argument("--method", default="aneci",
                    help="aneci or aneci+ (needs export_serving support)")
    sx.add_argument("--epochs", type=int, default=None)
    sx.add_argument("--store", required=True, metavar="DIR",
                    help="serving store directory")
    sx.add_argument("--json", action="store_true",
                    help="print a structured JSON record instead of text")
    sq = srv_sub.add_parser(
        "query", help="answer one k-NN query against a store (no server)")
    sq.add_argument("--store", required=True, metavar="DIR")
    sq.add_argument("--node", type=int, default=None,
                    help="query node id (similar / community modes)")
    sq.add_argument("--vector", default=None, metavar="V1,V2,...",
                    help="free query vector (overrides --node)")
    sq.add_argument("--mode", choices=["similar", "community"],
                    default="similar")
    sq.add_argument("-k", "--k", type=int, default=10)
    sq.add_argument("--retries", type=int, default=2,
                    help="jittered-backoff retries on transient store/"
                         "index failures (default 2)")
    sq.add_argument("--retry-base-ms", type=float, default=50.0,
                    help="base backoff delay in ms (default 50)")
    sq.add_argument("--json", action="store_true",
                    help="print a structured JSON record instead of text")
    sr = srv_sub.add_parser(
        "run", help="serve a store over HTTP (micro-batching + LRU cache)")
    sr.add_argument("--store", required=True, metavar="DIR")
    sr.add_argument("--host", default="127.0.0.1")
    sr.add_argument("--port", type=int, default=8707)
    sr.add_argument("--queue", type=int, default=None,
                    help="admission queue bound (default: "
                         "$REPRO_SERVE_QUEUE, else 1024; 0 = unbounded)")
    sr.add_argument("--deadline-ms", type=float, default=None,
                    help="per-request deadline (default: "
                         "$REPRO_SERVE_DEADLINE_MS, else 1000; 0 disables)")
    return parser


def _obs_verbs(sub) -> None:
    """Attach the ledger verbs to one ``add_subparsers`` result."""
    ls = sub.add_parser("list", help="one line per recorded run")
    ls.add_argument("--key", default=None,
                    help="restrict to one run key (substring ok)")
    show = sub.add_parser("show", help="print one full entry as JSON")
    show.add_argument("key", help="run key (unique substring ok)")
    show.add_argument("--seq", type=int, default=None,
                      help="entry sequence number (default: newest)")
    diff = sub.add_parser("diff", help="compare two entries of one key")
    diff.add_argument("key", help="run key (unique substring ok)")
    diff.add_argument("--a", type=int, default=None, metavar="SEQ",
                      help="baseline entry (default: second newest)")
    diff.add_argument("--b", type=int, default=None, metavar="SEQ",
                      help="candidate entry (default: newest)")
    diff.add_argument("--json", action="store_true",
                      help="print the structured diff instead of text")
    exp = sub.add_parser("export", help="write Chrome-trace + Prometheus "
                                        "files from one entry")
    exp.add_argument("key", help="run key (unique substring ok)")
    exp.add_argument("--seq", type=int, default=None,
                     help="entry sequence number (default: newest)")
    exp.add_argument("--out", default=".", metavar="DIR",
                     help="output directory (default: cwd)")
    exp.add_argument("--format", choices=["chrome", "prom", "both"],
                     default="both")
    tail = sub.add_parser("tail", help="print the newest entries as JSONL")
    tail.add_argument("-n", "--lines", type=int, default=10)
    reg = sub.add_parser("regress", help="re-judge the newest entry "
                                         "against its baseline")
    reg.add_argument("key", help="run key (unique substring ok)")
    reg.add_argument("--strict", action="store_true",
                     help="exit 3 when findings exist (default: warn only)")


def _dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="cora",
                        help="cora / citeseer / polblogs / pubmed")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)


def _load(args):
    from .graph import load_dataset
    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


# Every ``--json`` surface funnels through the one shared serializer in
# :mod:`repro.jsonio` (non-finite → null, ``allow_nan=False``) instead
# of per-command copies.
from .jsonio import dumps as _strict_json  # noqa: E402
from .jsonio import finite_or_none as _finite_or_null  # noqa: E402


def _build_method(name: str, graph, epochs: int | None, seed: int,
                  n_init: int | None = None):
    """Instantiate AnECI, AnECI+ or any registered baseline by name."""
    from . import baselines
    from .core import AnECI, AnECIPlus
    lowered = name.lower()
    extra = {"epochs": epochs} if epochs else {}
    if n_init and lowered in ("aneci", "aneci+", "aneciplus"):
        extra["n_init"] = n_init
    if lowered == "aneci":
        return AnECI(graph.num_features, num_communities=graph.num_classes,
                     seed=seed, **extra)
    if lowered in ("aneci+", "aneciplus"):
        return AnECIPlus(graph.num_features,
                         num_communities=graph.num_classes, seed=seed,
                         **extra)
    kwargs = dict(extra)
    if lowered in ("vgraph", "come"):
        kwargs = {"num_communities": graph.num_classes}
    return baselines.get_method(lowered, seed=seed, **kwargs)


def cmd_datasets(_args) -> int:
    from .graph.datasets import DATASETS
    print(f"{'name':10s} {'N':>6s} {'M':>6s} {'classes':>8s} {'d':>6s} "
          f"{'mixing':>7s}")
    for spec in DATASETS.values():
        d = spec.num_features if spec.num_features else "(id)"
        print(f"{spec.name:10s} {spec.num_nodes:>6d} {spec.num_edges:>6d} "
              f"{spec.num_classes:>8d} {str(d):>6s} {spec.mixing:>7.2f}")
    return 0


def cmd_generate(args) -> int:
    from .graph.io import save_graph
    graph = _load(args)
    save_graph(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def cmd_embed(args) -> int:
    from .obs import events
    graph = _load(args)
    method = _build_method(args.method, graph, args.epochs, args.seed,
                           n_init=getattr(args, "n_init", None))
    fit_kwargs = {}
    if getattr(args, "resume", False):
        directory = os.environ.get("REPRO_CHECKPOINT_DIR")
        if not directory:
            print("--resume needs --checkpoint-dir (or "
                  "$REPRO_CHECKPOINT_DIR) to locate the snapshots",
                  file=sys.stderr)
            return 2
        import inspect
        if "resume_from" not in inspect.signature(
                method.fit_transform).parameters:
            print(f"--resume is not supported by method "
                  f"{args.method!r}", file=sys.stderr)
            return 2
        fit_kwargs["resume_from"] = directory
    start = time.perf_counter()
    embedding = method.fit_transform(graph, **fit_kwargs)
    elapsed = time.perf_counter() - start
    np.save(args.out, embedding)
    record = {"command": "embed", "method": args.method,
              "dataset": args.dataset, "scale": args.scale,
              "seed": args.seed, "shape": list(embedding.shape),
              "out": str(args.out), "elapsed_s": elapsed,
              "resumed": bool(fit_kwargs)}
    events.emit("embed", **record)
    if getattr(args, "json", False):
        print(_strict_json(record))
    else:
        print(f"wrote {embedding.shape} embedding to {args.out}")
    return 0


def cmd_attack(args) -> int:
    from .attacks import DICE, RandomAttack
    from .graph.io import save_graph
    graph = _load(args)
    attack = (RandomAttack(args.rate, seed=args.seed) if args.attack == "random"
              else DICE(args.rate, seed=args.seed))
    result = attack.attack(graph)
    save_graph(result.graph, args.out)
    print(f"{args.attack} attack: +{len(result.added_edges)} edges, "
          f"-{len(result.removed_edges)} edges -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from .obs import events
    graph = _load(args)
    method = _build_method(args.method, graph, args.epochs, args.seed)
    rng = np.random.default_rng(args.seed)

    start = time.perf_counter()
    if args.task == "classification":
        from .tasks import evaluate_embedding
        value = evaluate_embedding(method.fit_transform(graph), graph)
        metric, text = "accuracy", f"classification accuracy: {value:.4f}"
    elif args.task == "anomaly":
        from .anomalies import seed_outliers
        from .tasks import anomaly_auc, isolation_forest_scores
        augmented, mask = seed_outliers(graph, rng, fraction=0.05,
                                        kind="mix")
        method = _build_method(args.method, augmented, args.epochs, args.seed)
        method.fit(augmented)
        scores = method.anomaly_scores() if hasattr(method, "anomaly_scores") \
            else None
        if scores is None:
            scores = isolation_forest_scores(method.embed(), seed=args.seed)
        value = anomaly_auc(mask, scores)
        metric, text = "auc", f"anomaly AUC: {value:.4f}"
    elif args.task == "community":
        from .core import newman_modularity
        from .tasks import communities_from_embedding
        method.fit(graph)
        if hasattr(method, "assign_communities"):
            communities = method.assign_communities()
        else:
            communities = communities_from_embedding(
                method.embed(), graph.num_classes, seed=args.seed)
        value = newman_modularity(graph.adjacency, communities)
        metric, text = "modularity", f"modularity: {value:.4f}"
    else:  # link-prediction
        from .tasks import link_prediction_auc, link_prediction_split
        train, pos, neg = link_prediction_split(graph, 0.1, rng)
        method = _build_method(args.method, train, args.epochs, args.seed)
        z = method.fit_transform(train)
        value = link_prediction_auc(z, pos, neg)
        metric, text = "auc", f"link-prediction AUC: {value:.4f}"
    elapsed = time.perf_counter() - start

    record = {"command": "evaluate", "task": args.task,
              "method": args.method, "dataset": args.dataset,
              "scale": args.scale, "seed": args.seed, "metric": metric,
              "value": _finite_or_null(value), "elapsed_s": elapsed}
    events.emit("evaluate", **record)
    if getattr(args, "json", False):
        print(_strict_json(record))
    else:
        print(text)
    return 0


def cmd_profile(args) -> int:
    """Fit a model on a synthetic graph under full observability.

    Prints the per-op autograd table and the span tree; the table's
    total is the profiled share of the traced ``fit`` span (reported as
    coverage so regressions in un-profiled code stand out).
    """
    from .nn import backend as kernels
    from .obs import metrics, profile as op_profile, trace
    from .parallel import resolve_workers
    graph = _load(args)
    method = _build_method(args.method, graph, args.epochs, args.seed)
    workers = resolve_workers()
    tracer = trace.Tracer()
    kernels.reset_op_counts()
    registry = metrics.registry()
    sample_counters = ("aneci.epochs", "sample.nodes", "sample.edges",
                       "sample.negatives", "workspace.dense_skipped")
    before = {name: registry.counter(name).value
              for name in sample_counters}
    with trace.activate(tracer), op_profile.profile_ops() as prof:
        method.fit(graph)
    deltas = {name: registry.counter(name).value - before[name]
              for name in sample_counters}

    fit_node = tracer.find("fit")  # aneci+ nests fits under denoise/*
    fit_s = fit_node.total_s if fit_node is not None else tracer.total_seconds()
    op_s = prof.total_seconds()
    coverage = op_s / fit_s if fit_s else 0.0
    kernel_ops = kernels.op_counts()
    train_mode = getattr(getattr(method, "config", None), "train_mode",
                         "full")
    epochs_run = max(deltas["aneci.epochs"], 1)
    sampling = {
        "train_mode": train_mode,
        "epochs": deltas["aneci.epochs"],
        "nodes_per_epoch": deltas["sample.nodes"] / epochs_run,
        "edges_per_epoch": deltas["sample.edges"] / epochs_run,
        "negatives_per_epoch": deltas["sample.negatives"] / epochs_run,
        "dense_targets_skipped": deltas["workspace.dense_skipped"],
        "workspace_peak_bytes": registry.gauge(
            "workspace.build.peak_bytes").value,
    }
    if getattr(args, "json", False):
        print(json.dumps({"command": "profile", "method": args.method,
                          "dataset": args.dataset, "scale": args.scale,
                          "epochs": args.epochs, "workers": workers,
                          "kernel_ops": kernel_ops, "sampling": sampling,
                          "profile": prof.to_dict(),
                          "spans": tracer.to_dict(),
                          "fit_s": fit_s, "op_coverage": coverage}))
        return 0
    print(f"profiled {args.method} on {graph.name} "
          f"({graph.num_nodes} nodes, {args.epochs} epochs, "
          f"workers={workers})\n")
    print(prof.report(top=args.top))
    print(f"\ntraced wall time: {fit_s:.4f}s   "
          f"op coverage: {100.0 * coverage:.1f}%\n")
    calls = "  ".join(f"{op}={c['numpy']}"
                      for op, c in kernel_ops.items()) or "none"
    print(f"kernel ops (calls): {calls}")
    if train_mode == "sampled":
        print(f"train mode: sampled   per-epoch samples: "
              f"{sampling['nodes_per_epoch']:.0f} nodes, "
              f"{sampling['edges_per_epoch']:.0f} edges, "
              f"{sampling['negatives_per_epoch']:.0f} negatives   "
              f"dense targets skipped: "
              f"{sampling['dense_targets_skipped']}   "
              f"workspace peak: "
              f"{sampling['workspace_peak_bytes'] / 1e6:.1f} MB\n")
    else:
        print(f"train mode: {train_mode}\n")
    print(tracer.report())
    return 0


def cmd_experiment(args) -> int:
    from . import experiments as E
    graph = _load(args)
    runners = {
        "classification": lambda: E.run_node_classification(graph, rounds=1),
        "defense": lambda: E.run_defense_curve(graph),
        "nettack": lambda: E.run_targeted_attack(graph, attack="nettack"),
        "fga": lambda: E.run_targeted_attack(graph, attack="fga"),
        "random-attack": lambda: E.run_random_attack_curve(graph),
        "anomaly": lambda: E.run_anomaly_detection(graph),
        "community": lambda: E.run_community_detection(graph),
        "timing": lambda: E.run_timing(graph),
    }
    result = runners[args.name]()
    print(result.to_markdown())
    if args.out:
        E.write_report([result], args.out)
        print(f"report written to {args.out}")
    return 0


def cmd_obs(args) -> int:
    """Ledger browsing: list / show / diff / export / tail / regress."""
    from .obs import export, regress, store
    directory = os.environ.get("REPRO_RUN_DIR") or store.DEFAULT_RUN_DIR
    ledger = store.RunLedger(directory)
    verb = args.obs_command

    if verb == "list":
        rows = ledger.summaries()
        if getattr(args, "key", None):
            key = ledger.resolve_key(args.key)
            rows = [s for s in rows if s["key"] == key]
        if not rows:
            print(f"no runs recorded under {directory}")
            return 0
        print(f"{'seq':>4}  {'kind':<10}  {'key':<32}  {'elapsed':>9}  "
              f"{'regr':>4}  final")
        for s in rows:
            elapsed = f"{s['elapsed_s']:.3f}s" if s.get("elapsed_s") \
                is not None else "-"
            final = ", ".join(
                f"{k}={v:.4g}" for k, v in sorted(s["final"].items())
                if isinstance(v, (int, float)))[:60] or "-"
            flag = s["regressions"] or ("ERR" if s.get("error") else "")
            print(f"{s['seq']:>4}  {s['kind'] or '-':<10}  "
                  f"{s['key']:<32}  {elapsed:>9}  {str(flag):>4}  {final}")
        return 0

    if verb == "tail":
        rows = ledger.summaries()[-max(args.lines, 0):]
        for summary in rows:
            print(json.dumps(ledger.read_entry(summary), sort_keys=True))
        return 0

    key = ledger.resolve_key(args.key)
    entries = ledger.entries(key)

    def by_seq(seq):
        for entry in entries:
            if entry["seq"] == seq:
                return entry
        raise KeyError(f"key {key!r} has no entry with seq {seq} "
                       f"(known: {[e['seq'] for e in entries]})")

    if verb == "show":
        entry = entries[-1] if args.seq is None else by_seq(args.seq)
        print(json.dumps(entry, indent=2, sort_keys=True))
        return 0

    if verb == "export":
        entry = entries[-1] if args.seq is None else by_seq(args.seq)
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(
            args.out,
            f"{_slug(key)}-{entry['seq']}")
        written = []
        if args.format in ("chrome", "both"):
            written.append(export.write_chrome_trace(
                f"{stem}.trace.json", entry.get("spans") or {}))
        if args.format in ("prom", "both"):
            written.append(export.write_prometheus(
                f"{stem}.prom", entry.get("metrics") or {}))
        for path in written:
            print(f"wrote {path}")
        return 0

    if verb in ("diff", "regress"):
        if verb == "diff":
            current = entries[-1] if args.b is None else by_seq(args.b)
            baseline = by_seq(args.a) if args.a is not None else (
                entries[-2] if len(entries) > 1 else None)
        else:
            current, baseline = entries[-1], (
                entries[-2] if len(entries) > 1 else None)
        if baseline is None:
            print(f"key {key!r} has a single entry — nothing to compare")
            return 2
        diff = regress.compare_runs(baseline, current)
        findings = regress.detect(current, baseline)
        if verb == "diff" and args.json:
            print(_strict_json({"key": key, "a": baseline["seq"],
                                "b": current["seq"], "diff": diff,
                                "findings": findings}))
            return 0
        print(f"{key}: seq {baseline['seq']} (baseline) vs "
              f"seq {current['seq']}")
        for name, row in diff["final"].items():
            if row.get("a") is None or row.get("b") is None:
                continue
            print(f"  {name:<28} {row['a']:>12.6g} -> {row['b']:>12.6g}  "
                  f"({row['delta']:+.4g})")
        for label in ("elapsed_s", "epoch_s"):
            row = diff[label]
            if row["a"] is not None and row["b"] is not None:
                ratio = f"{row['ratio']:.2f}x" if row["ratio"] else "-"
                print(f"  {label:<28} {row['a']:>12.4g} -> "
                      f"{row['b']:>12.4g}  ({ratio})")
        curve = diff["curve"]
        if curve["compared"]:
            print(f"  loss curve: {curve['compared']} shared epochs, "
                  f"max |Δ| {curve['max_abs_diff']:.3g}")
        if findings:
            print(f"\n{len(findings)} regression finding(s):")
            for finding in findings:
                print(f"  [{finding['check']}] {finding['detail']}")
        else:
            print("\nno regressions detected")
        if verb == "regress" and args.strict and findings:
            return 3
        return 0

    raise AssertionError(f"unhandled obs verb {verb!r}")


def cmd_serve(args) -> int:
    """Serving layer verbs: export / query / run."""
    verb = args.serve_command

    if verb == "export":
        from .obs import events
        graph = _load(args)
        method = _build_method(args.method, graph, args.epochs, args.seed)
        if not hasattr(method, "export_serving"):
            print(f"method {args.method!r} does not support serving export",
                  file=sys.stderr)
            return 2
        start = time.perf_counter()
        method.fit(graph)
        version = method.export_serving(args.store)
        elapsed = time.perf_counter() - start
        record = {"command": "serve-export", "method": args.method,
                  "dataset": args.dataset, "scale": args.scale,
                  "seed": args.seed, "store": str(args.store),
                  "version": version, "elapsed_s": elapsed}
        events.emit("serve_export", **record)
        if getattr(args, "json", False):
            print(_strict_json(record))
        else:
            print(f"published version {version} to {args.store}")
        return 0

    if verb == "query":
        from .serve import EmbeddingStore, ExactIndex, retry_call

        vector = None
        if args.vector is not None:
            try:
                vector = np.asarray(
                    [float(v) for v in args.vector.split(",")])
            except ValueError:
                pass
            if vector is None or not np.isfinite(vector).all():
                print("serve query --vector needs finite numbers, got "
                      f"{args.vector!r}", file=sys.stderr)
                return 2

        def _answer():
            # The whole load→index→query pipeline retries as one unit:
            # a transient fault (e.g. an injected shard_corrupt_read)
            # reloads the store, which falls back down the version
            # pointer history if the newest shards really are damaged.
            serving = EmbeddingStore(args.store).load()
            index = ExactIndex(serving)
            if vector is not None:
                ids, scores = index.query_vector(vector, args.k)
                mode = "vector"
            elif args.node is not None:
                query = (index.same_community if args.mode == "community"
                         else index.similar_nodes)
                ids, scores = query(args.node, args.k)
                mode = args.mode
            else:
                return None
            return serving, index, mode, ids, scores

        answer = retry_call(_answer, retries=max(0, args.retries),
                            base_s=max(0.0, args.retry_base_ms) / 1000.0)
        if answer is None:
            print("serve query needs --node or --vector", file=sys.stderr)
            return 2
        serving, index, mode, ids, scores = answer
        record = {"command": "serve-query", "store": str(args.store),
                  "version": serving.version, "index": index.name,
                  "mode": mode, "node": args.node, "k": args.k,
                  "ids": ids, "scores": scores}
        if getattr(args, "json", False):
            print(_strict_json(record))
        else:
            print(f"store {args.store} version {serving.version} "
                  f"({index.name} index, {mode})")
            for node_id, score in zip(ids.tolist(), scores.tolist()):
                print(f"  {node_id:>10d}  {score:.6f}")
        return 0

    if verb == "run":
        import asyncio
        import signal
        from .serve import EmbeddingServer

        async def _run() -> None:
            server = EmbeddingServer(args.store, host=args.host,
                                     port=args.port,
                                     queue_limit=args.queue,
                                     deadline_ms=args.deadline_ms)
            await server.start()
            print(f"serving {args.store} version {server.serving.version} "
                  f"({server.index.name} index) on "
                  f"http://{server.host}:{server.port}", flush=True)
            done = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, done.set)
                except (NotImplementedError, RuntimeError):
                    pass  # non-Unix loop: fall back to KeyboardInterrupt
            serving_task = asyncio.create_task(server.serve_forever())
            waiter = asyncio.create_task(done.wait())
            try:
                await asyncio.wait({serving_task, waiter},
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                serving_task.cancel()
                waiter.cancel()
                print("draining...", flush=True)
                # Graceful drain: finish in-flight requests, flush the
                # run-ledger entry, then exit.
                await server.stop()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
        return 0

    raise AssertionError(f"unhandled serve verb {verb!r}")


def _slug(key: str) -> str:
    """Filesystem-safe stem for export files derived from a run key."""
    import re
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key)


@contextlib.contextmanager
def _observability(args):
    """Install the ``--trace`` / ``--profile`` globals for one command.

    ``--trace PATH`` activates a tracer and streams every event-bus
    record to ``PATH`` as JSONL, appending final ``trace`` (span tree)
    and ``metrics`` (registry snapshot) records on exit.  ``--profile``
    wraps the run in an op profiler and prints its table afterwards.
    """
    from .obs import events, metrics, profile as op_profile, trace
    sink = unsubscribe = tracer = profiler = None
    if getattr(args, "trace", None):
        sink = events.JsonlSink(args.trace)
        unsubscribe = events.BUS.subscribe(sink)
        tracer = trace.Tracer()
        trace.set_tracer(tracer)
    if getattr(args, "profile", False) and args.command != "profile":
        profiler = op_profile.OpProfiler().enable()
    try:
        yield
    finally:
        if profiler is not None:
            profiler.disable()
            print("\nper-op autograd profile:", file=sys.stderr)
            print(profiler.report(), file=sys.stderr)
        if sink is not None:
            trace.set_tracer(None)
            sink({"kind": "trace", "spans": tracer.to_dict(),
                  "total_s": tracer.total_seconds()})
            sink({"kind": "metrics", "values": metrics.registry().snapshot()})
            unsubscribe()
            sink.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers is not None:
        # The env var is how worker counts thread through every layer
        # (fit restarts, grid search, runners) without changing each
        # call signature on the way down.
        os.environ["REPRO_WORKERS"] = str(args.workers)
    if args.dtype is not None:
        # Same pattern as --workers: every AnECIConfig built downstream
        # (including in worker processes) reads REPRO_DTYPE as its
        # default precision.
        os.environ["REPRO_DTYPE"] = args.dtype
    if args.train_mode is not None:
        # Same pattern: every AnECIConfig built downstream (including in
        # worker processes) reads REPRO_TRAIN_MODE as its default
        # training regime.
        os.environ["REPRO_TRAIN_MODE"] = args.train_mode
    if args.checkpoint_dir is not None:
        # And again: every fit the command triggers — any method, any
        # nesting depth, any worker process — checkpoints under this
        # directory, namespaced by its own content-derived run key.
        os.environ["REPRO_CHECKPOINT_DIR"] = args.checkpoint_dir
    if args.run_dir is not None:
        # Every ledger hook downstream — fits, denoise passes, experiment
        # runners, worker processes — reads REPRO_RUN_DIR, so one flag
        # turns recording on for the whole command.
        os.environ["REPRO_RUN_DIR"] = args.run_dir
    handler = {
        "datasets": cmd_datasets,
        "generate": cmd_generate,
        "embed": cmd_embed,
        "attack": cmd_attack,
        "evaluate": cmd_evaluate,
        "experiment": cmd_experiment,
        "profile": cmd_profile,
        "obs": cmd_obs,
        "serve": cmd_serve,
    }[args.command]
    with _observability(args):
        return handler(args)


if __name__ == "__main__":
    sys.exit(main())

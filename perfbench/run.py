#!/usr/bin/env python3
"""Run one benchmark workload against the program in ``<checkout>/src``.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced (half of ``--seconds`` each) and prints
every per-layer metric, with ``trace.overhead`` comparing the two halves.
A layer a workload does not exercise reads 0.  The last line of standard
output is the result object; the full record (environment, per-phase
counts, spans) goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

import bench_common as common

WORKLOADS = ("train_full", "train_sampled", "serve_hot", "serve_cold")

#: End-to-end metric -> unit.  Where a workload has no such operation it
#: reports the analogue listed in ``perfbench/README.md``.
END_TO_END = {
    "setup_s": "s", "fit_s": "s", "denoise_s": "s", "epoch_s": "s",
    "peak_mb": "MB", "nmi": "score",
    "p50_ms.low": "ms", "p50_ms.high": "ms",
    "max_rps": "1/s", "reload_ms": "ms",
}

#: Per-layer metric -> unit.
PER_LAYER = {
    "graph.proximity_s": "s", "workspace.build_s": "s",
    "workspace.hit_ratio": "ratio", "sampler.s": "s",
    "encoder.forward_s": "s", "modularity.s": "s", "recon.s": "s",
    "backward.s": "s", "optim.step_s": "s",
    "backend.ops_per_epoch": "count", "epoch.other_s": "s",
    "denoise.score_s": "s",
    "store.publish_s": "s", "store.load_s": "s",
    "index.scan_s": "s", "index.batch_occupancy": "count",
    "index.community_s": "s",
    "cache.hit_ratio": "ratio", "cache.get_s": "s",
    "server.residual_ms": "ms", "server.shed": "count",
    "server.deadline_timeouts": "count", "server.errors": "count",
    "client.wait_ms": "ms", "client.lateness_ms": "ms",
    "trace.overhead": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every input, for the "
                             "benchmark's own tests")
    return parser.parse_args(argv)


def result_line(out: dict, trace: bool) -> dict:
    """The final result object: exactly the four contract keys."""
    if trace:
        layers = out["layers"] or {}
        metrics = {name: {"value": float(layers.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            value, emitted_unit = out["metrics"][name]
            if emitted_unit != unit:
                raise RuntimeError(f"{name} emitted in {emitted_unit}, "
                                   f"declared in {unit}")
            metrics[name] = {"value": float(value), "unit": unit}
    failed = len(out["failures"])
    return {"correct": failed == 0, "attempted": int(out["attempted"]),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.use_checkout_source()
    except common.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload.startswith("train"):
        import bench_train as workload
    else:
        import bench_serve as workload
    trace = bool(args.trace)
    out = workload.run(args.workload, args.seed, args.seconds, trace,
                       size=args.size)
    result = result_line(out, trace)
    env = common.environment()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    path = common.write_record(name, {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "environment": env, "result": result,
        "failures": out["failures"], "record": out["record"],
        "end_to_end": {k: v[0] for k, v in out["metrics"].items()},
        "layers": out["layers"], "spans": out["spans"]})
    for metric, entry in result["metrics"].items():
        print(f"{args.workload:14s} {metric:26s} {entry['value']:14.6g} "
              f"{entry['unit']}")
    tails = out["record"].get("p99_ms")
    if tails:
        print(f"{args.workload:14s} p99_ms.low / .high (recorded, not "
              f"bounded) {tails['low']:.6g} / {tails['high']:.6g} ms")
    for reason in out["failures"][:20]:
        print(f"FAILED: {reason}")
    print(f"record: {path}")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Server process of the serving workloads: the program's CLI, unchanged.

Usage::

    python3 perfbench/bench_server.py --trace 0|1 --spans PATH [--core N] \
        serve run --store DIR --port 0

Runs ``repro.cli.main`` on the arguments after the options.  With
``--trace 1`` it first wraps the public entry points of the serving
layers (store load, index scan and community lookup, cache get) and the
program's own ``repro.obs.trace`` spans; when the CLI returns (SIGTERM
drains the server) the spans are written to ``PATH`` as JSON.  With
``--core N`` the process runs on core ``N`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import bench_common as common
from bench_trace import SpanRecorder


def instrument(recorder: SpanRecorder) -> None:
    from repro.serve import cache, index, store

    recorder.wrap(store.EmbeddingStore, "load", "store.load")
    recorder.wrap(index.ExactIndex, "query_vectors", "index.scan",
                  rows_of=lambda args: len(args[1]))
    recorder.wrap(index.KNNIndex, "same_community", "index.community")
    recorder.wrap(cache.LRUCache, "get", "cache.get")
    recorder.install_tracer()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--core", type=int, default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.core is not None:
        os.sched_setaffinity(0, {args.core})
    common.use_checkout_source()
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        instrument(recorder)
    from repro.cli import main as cli_main

    code = cli_main(args.cli)
    if recorder is not None:
        recorder.restore()
        with open(args.spans, "w") as fh:
            json.dump(recorder.to_records(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

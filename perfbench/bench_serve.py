"""Serving workloads: ``serve_hot`` and ``serve_cold``.

The server is the program's own ``repro serve run`` in a separate process
(:mod:`bench_server`); this process is the only client.  It opens at most
``nproc`` keep-alive connections and sends open-loop traffic: every
request has a due time fixed in advance from the seed, waits for a free
connection if both are busy, and its latency runs from when it was due
to when its response was read.  Requests not yet sent when their phase's
window (plus the latency limit) closes are counted as unsent, which
fails the phase as a growing backlog.

Before anything is timed, a float64 brute-force oracle answers every
distinct request against every published version; each ``200`` is
checked against the oracle of the version it reports.  A wrong answer
or a non-``200`` status is a failed operation.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

import bench_common as common
from bench_common import mean, median, percentile
from bench_trace import SpanRecorder

K = 10
DIM = 64
COMMUNITIES = 10
#: Connections the client may hold open: one per core.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: The client and the server each run on a core of their own.
CLIENT_CORE, SERVER_CORE = common.core_split()
#: Score tolerance of the oracle comparison: the server and the oracle
#: both compute float64 cosines of the same float32 rows, but may sum in
#: different orders.
SCORE_TOL = 1e-9

#: Each workload mixes two request kinds in equal shares: no traffic
#: record gives a ratio (the serving layer's tracked benchmark sends
#: /similar only), and equal shares weight both served paths the same.
SPECS = {
    "serve_hot": {
        # Uniform over 32 keys, the hot set of the serving layer's
        # tracked benchmark (its ``serve_cached_25k`` case), half of them
        # /similar and half /community: well inside the 4096-entry LRU,
        # so every request hits except the first of each key after a
        # reload.  A popularity skew would only reorder those few misses,
        # not change the work, so there is none.  Before each low- and
        # high-rate window the client publishes a version, and it POSTs
        # /reload half-way through the window (a reload blocks the server
        # loop and empties the cache for the new version); the ladder
        # rungs run without reloads.
        # The hot path's capacity on the 2-core test machine ranged from
        # 3000 to 10000 req/s between runs (the client's own speed sets
        # much of it), so any rung inside that range passes in some runs
        # and misses in others.  The top rung is below the range:
        # max_rps flags a regression below 2500 req/s, not a gain.
        "full": dict(nodes=25_000, hot_keys=32, rates=(500, 1000),
                     ladder=(1000, 2500)),
        "tiny": dict(nodes=2_000, hot_keys=32, rates=(100, 200),
                     ladder=(200, 400)),
        "p99_limit_ms": 25.0, "versions": 3, "reload_under_load": True,
        # Share of a round for each fixed-rate window; the ladder rungs
        # split the rest.
        "window_share": 0.35,
    },
    "serve_cold": {
        # Uniform /similar over every node (no key repeats) and JSON
        # /query requests with random vectors, in equal shares: the
        # working set dwarfs the LRU, so every request pays the exact
        # scan.  The two fixed rates are the whole ladder: the cold
        # path's capacity ranged from ~175 to over 300 req/s between
        # runs, so a higher rung flipped.  Each round ends with eight
        # reloads on the idle server.
        "full": dict(nodes=25_000, rates=(50, 100), ladder=()),
        "tiny": dict(nodes=2_000, rates=(30, 60), ladder=()),
        "p99_limit_ms": 50.0, "query_share": 0.5, "versions": 1,
        "reload_under_load": False, "window_share": 0.5,
    },
}
#: A run is this many rounds of [low window, high window, ladder rungs]:
#: each figure is a median over rounds, so a stall of the shared host
#: during one round does not move it.
ROUNDS = 5
#: Reloads per round on the idle server, for workloads that do not
#: reload under load.
IDLE_RELOADS = 8
#: How far ahead of a due time the client stops sleeping and polls.
SPIN_S = 0.0015
#: Store opens per set-up and per round (``fit_s`` on the serving
#: workloads): a single open takes ~20 ms and moves with the host.
OPENS_PER_SETUP = 2
OPENS_PER_ROUND = 4
#: Set-ups per run (``setup_s`` is their median): one before the timed
#: rounds, the rest after them.
SETUP_REPEATS = 5


# --------------------------------------------------------------------- #
# Inputs                                                                 #
# --------------------------------------------------------------------- #

@dataclass
class StoreData:
    labels: np.ndarray
    memberships: np.ndarray
    contents: list  # float32 embedding matrices, one per version content


def make_store_data(seed: int, nodes: int, versions: int) -> StoreData:
    """Blob-clustered embeddings around planted community centres, as in
    the serving layer's tracked benchmark; each version content redraws
    the noise around the same centres."""
    rng = np.random.default_rng([seed, 0x5E7E])
    centers = rng.standard_normal((COMMUNITIES, DIM)) * 4.0
    labels = rng.integers(0, COMMUNITIES, size=nodes)
    memberships = np.full((nodes, COMMUNITIES), 0.02, dtype=np.float32)
    memberships[np.arange(nodes), labels] = 1.0
    memberships /= memberships.sum(axis=1, keepdims=True)
    contents = []
    for _ in range(versions):
        emb = (centers[labels]
               + rng.standard_normal((nodes, DIM))).astype(np.float32)
        contents.append(emb)
    return StoreData(labels, memberships, contents)


@dataclass
class Request:
    offset: float          # due time within its phase, seconds
    kind: str              # similar | community | query
    key: tuple             # oracle key
    wire: bytes            # the HTTP request


def _get(path: str) -> bytes:
    return (f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").encode()


def _post(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class RequestSource:
    """Deterministic request stream of one workload and seed."""

    def __init__(self, workload: str, spec: dict, sizes: dict, seed: int):
        self.spec = spec
        self.rng = np.random.default_rng([seed, 0xC11E])
        self.nodes = sizes["nodes"]
        self.vectors: dict[int, np.ndarray] = {}
        if workload == "serve_hot":
            nodes = self.rng.choice(self.nodes, size=sizes["hot_keys"],
                                    replace=False)
            self.keys = [(("similar", "community")[i % 2], int(node))
                         for i, node in enumerate(nodes)]
        else:
            self.keys = None
            self.order = self.rng.permutation(self.nodes)
            self.next_node = 0

    def _cold(self, offset: float) -> Request:
        if self.rng.random() < self.spec["query_share"]:
            qid = len(self.vectors)
            vector = self.rng.standard_normal(DIM)
            self.vectors[qid] = vector
            body = json.dumps({"vector": vector.tolist(), "k": K}).encode()
            return Request(offset, "query", ("query", qid),
                           _post("/query", body))
        node = int(self.order[self.next_node % self.nodes])
        self.next_node += 1
        return _node_request(offset, "similar", node)

    def warmup(self) -> list[Request]:
        """Requests sent once, closed loop, before anything is timed:
        every hot key (so the LRU starts full), or a few cold ones (so
        lazy per-version state such as the row norms is built)."""
        if self.keys is None:
            return self.phase(20.0, 0.25)
        return [_node_request(0.0, kind, node) for kind, node in self.keys]

    def phase(self, rate: float, seconds: float) -> list[Request]:
        """Evenly spaced arrivals at ``rate`` over ``seconds``."""
        count = int(rate * seconds)
        if self.keys is None:
            return [self._cold(i / rate) for i in range(count)]
        picks = self.rng.integers(len(self.keys), size=count)
        return [_node_request(i / rate, *self.keys[pick])
                for i, pick in enumerate(picks)]


def _node_request(offset: float, kind: str, node: int) -> Request:
    return Request(offset, kind, (kind, node),
                   _get(f"/{kind}?node={node}&k={K}"))


# --------------------------------------------------------------------- #
# Oracle                                                                 #
# --------------------------------------------------------------------- #

def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    rows = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0.0] = 1.0
    return rows / norms[:, None]


def _top(ids: np.ndarray, scores: np.ndarray, depth: int):
    """Best ``depth`` candidates by score descending, then id ascending."""
    depth = min(depth, scores.size)
    if depth < scores.size:
        part = np.argpartition(-scores, depth - 1)[:depth]
        cut = scores[part].min()
        part = np.flatnonzero(scores >= cut)  # keep every tie at the cut
    else:
        part = np.arange(scores.size)
    order = np.lexsort((ids[part], -scores[part]))[:depth]
    return ids[part][order], scores[part][order]


class Oracle:
    """float64 brute-force top-k per (content, request key).

    Each entry keeps the best ``K + EXTRA`` candidates, so a response may
    swap neighbours whose scores tie within :data:`SCORE_TOL`.
    """

    EXTRA = 8

    def __init__(self, data: StoreData):
        self.data = data
        self.answers: dict[tuple, tuple] = {}
        self.communities = data.memberships.argmax(axis=1)

    def prepare(self, content: int, keys, vectors: dict) -> None:
        unit = _unit_rows(self.data.contents[content])
        all_ids = np.arange(unit.shape[0])
        depth = K + self.EXTRA
        pending = [key for key in set(keys)
                   if (content, key) not in self.answers]
        knn = [key for key in pending if key[0] in ("similar", "query")]
        for start in range(0, len(knn), 256):
            chunk = knn[start:start + 256]
            queries = np.stack([
                unit[key[1]] if key[0] == "similar"
                else _unit_rows(vectors[key[1]][None, :])[0]
                for key in chunk])
            scores = queries @ unit.T
            for row, key in enumerate(chunk):
                keep = all_ids != key[1] if key[0] == "similar" else \
                    slice(None)
                self.answers[(content, key)] = _top(
                    all_ids[keep], scores[row][keep], depth)
        for key in pending:
            if key[0] != "community":
                continue
            node = key[1]
            members = np.flatnonzero(
                self.communities == self.communities[node])
            members = members[members != node]
            scores = unit[members] @ unit[node]
            self.answers[(content, key)] = _top(members, scores, depth)

    def check(self, content: int, key: tuple, payload: dict) -> str | None:
        """``None`` if ``payload`` is a correct answer, else the reason."""
        want_ids, want_scores = self.answers[(content, key)]
        ids = payload.get("ids")
        scores = payload.get("scores")
        if not isinstance(ids, list) or not isinstance(scores, list) \
                or len(ids) != len(scores):
            return "malformed answer"
        expected = min(K, want_ids.size)
        if len(ids) != expected:
            return f"{len(ids)} neighbours, expected {expected}"
        if len(set(ids)) != len(ids):
            return "duplicate neighbour"
        known = dict(zip(want_ids.tolist(), want_scores.tolist()))
        for i, (node, score) in enumerate(zip(ids, scores)):
            if node not in known:
                return f"neighbour {node} is not in the true top-{K}"
            if abs(known[node] - score) > SCORE_TOL:
                return f"score of {node} is {score}, oracle {known[node]}"
            if abs(want_scores[i] - score) > SCORE_TOL:
                return f"rank {i} score {score}, oracle {want_scores[i]}"
            if i and (scores[i - 1] < score or (scores[i - 1] == score
                                                and ids[i - 1] > node)):
                return "answers out of (score desc, id asc) order"
        if key[0] == "community" and \
                payload.get("community") != int(self.communities[key[1]]):
            return "wrong community"
        return None


# --------------------------------------------------------------------- #
# Server process                                                         #
# --------------------------------------------------------------------- #

class ServerProcess:
    """``repro serve run`` behind :mod:`bench_server`, in its own process."""

    def __init__(self, store: str, trace: bool, spans_path: str):
        cmd = [sys.executable, str(common.BENCH_DIR / "bench_server.py"),
               "--trace", str(int(trace)), "--spans", spans_path]
        if SERVER_CORE is not None:
            cmd += ["--core", str(SERVER_CORE)]
        cmd += ["serve", "run", "--store", store, "--port", "0"]
        self.spans_path = spans_path
        self.log_path = spans_path + ".log"
        self.stopped = False
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                env=common.server_env(), cwd=common.ROOT)
        line = self.proc.stdout.readline()
        if " on http://" not in line:
            self.stop()
            with open(self.log_path) as log:
                raise RuntimeError(f"server failed to start: {line!r} "
                                   f"{log.read()[-2000:]}")
        self.port = int(line.rsplit(":", 1)[1])

    def status_field(self, name: str) -> int:
        """A ``kB`` field of ``/proc/<pid>/status`` (e.g. ``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith(name + ":"):
                    return int(line.split()[1])
        return 0

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.stopped:
            return
        self.stopped = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def spans(self) -> list:
        try:
            with open(self.spans_path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return []


# --------------------------------------------------------------------- #
# Client                                                                 #
# --------------------------------------------------------------------- #

async def _read_response(reader) -> tuple[int, bytes]:
    line = await reader.readline()
    if not line:
        raise ConnectionResetError("server closed the connection")
    status = int(line.split(None, 2)[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


@dataclass
class Outcome:
    due: float
    enqueued: float = 0.0
    sent: float | None = None
    done: float | None = None
    status: int | None = None
    body: bytes = b""


@dataclass
class PhaseResult:
    name: str
    rate: float
    seconds: float
    requests: list
    outcomes: list
    stats: dict = field(default_factory=dict)
    reloaded: bool = False


class _Connection(asyncio.Protocol):
    """One keep-alive connection carrying one request at a time.

    A protocol rather than a stream pair: the client's own cost per
    request must stay far below the server's, or the client would set
    the measured capacity."""

    def __init__(self, client: "Client"):
        self.client = client
        self.transport = None
        self.buffer = bytearray()
        self.item = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def send(self, item) -> None:
        self.item = item
        item[1].sent = self.client.loop.time()
        self.transport.write(item[0])

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        while self.item is not None:
            head_end = self.buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = bytes(self.buffer[:head_end]).split(b"\r\n")
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            total = head_end + 4 + length
            if len(self.buffer) < total:
                return
            item, self.item = self.item, None
            outcome = item[1]
            outcome.status = int(head[0].split(None, 2)[1])
            outcome.body = bytes(self.buffer[head_end + 4:total])
            outcome.done = self.client.loop.time()
            del self.buffer[:total]
            item[3]()
            self.client.release(self)

    def connection_lost(self, exc) -> None:
        if self.item is not None:
            item, self.item = self.item, None
            item[1].status = 0
            item[1].body = f"connection lost: {exc}".encode()
            item[1].done = self.client.loop.time()
            item[3]()


class Client:
    """One process, ``CONNECTIONS`` keep-alive connections, open loop.

    A due request takes an idle connection, or waits in a FIFO backlog
    for the next one to free up; a request still waiting when its
    deadline passes is dropped unsent."""

    def __init__(self, port: int):
        self.port = port
        self.loop = None
        self.conns: list[_Connection] = []
        self.idle: list[_Connection] = []
        self.backlog: deque = deque()

    async def __aenter__(self):
        self.loop = asyncio.get_running_loop()
        for _ in range(CONNECTIONS):
            _, conn = await self.loop.create_connection(
                lambda: _Connection(self), "127.0.0.1", self.port)
            self.conns.append(conn)
            self.idle.append(conn)
        return self

    async def __aexit__(self, *exc):
        for conn in self.conns:
            conn.transport.close()

    def submit(self, item) -> None:
        """``item = (wire, outcome, deadline, finished_callback)``."""
        item[1].enqueued = self.loop.time()
        if self.idle:
            self.idle.pop().send(item)
        else:
            self.backlog.append(item)

    def release(self, conn: _Connection) -> None:
        now = self.loop.time()
        while self.backlog:
            item = self.backlog.popleft()
            if item[2] is not None and now > item[2]:
                item[1].done = now  # backlog past the window: unsent
                item[3]()
                continue
            conn.send(item)
            return
        self.idle.append(conn)

    async def request(self, wire: bytes) -> Outcome:
        """Send one request through the pool now and wait for it."""
        finished = self.loop.create_future()
        outcome = Outcome(due=self.loop.time())
        self.submit((wire, outcome, None, lambda: finished.set_result(None)))
        await finished
        return outcome

    async def phase(self, name: str, rate: float, seconds: float,
                    requests: list, limit_s: float,
                    on_start=None) -> PhaseResult:
        loop = self.loop
        start = loop.time() + 0.01
        window_end = start + seconds + limit_s
        outcomes = [Outcome(due=start + r.offset) for r in requests]
        remaining = [len(requests)]
        finished = loop.create_future()

        def done():
            remaining[0] -= 1
            if remaining[0] == 0 and not finished.done():
                finished.set_result(None)

        if on_start is not None:
            on_start(start)
        i = 0
        while i < len(requests):
            now = loop.time()
            while i < len(requests) and outcomes[i].due <= now:
                self.submit((requests[i].wire, outcomes[i], window_end,
                             done))
                i += 1
            if i < len(requests):
                # The loop's timers fire up to a millisecond late; sleep
                # short of the due time, then poll (still serving I/O).
                ahead = outcomes[i].due - now
                await asyncio.sleep(ahead - SPIN_S if ahead > 2 * SPIN_S
                                    else 0)
        if requests:
            await finished
        return PhaseResult(name, rate, seconds, requests, outcomes)


# --------------------------------------------------------------------- #
# Workload                                                               #
# --------------------------------------------------------------------- #

def _publish(store_dir: str, data: StoreData, content: int,
             version: str) -> float:
    from repro.serve import EmbeddingStore

    t0 = time.perf_counter()
    EmbeddingStore(store_dir).publish(data.contents[content],
                                      data.memberships, version)
    return time.perf_counter() - t0


def _open_store(store_dir: str) -> float:
    """Cold open of the current version until it can answer: checksum
    verification, mmap, index, norms and community argmax."""
    from repro.serve import EmbeddingStore, ExactIndex

    t0 = time.perf_counter()
    serving = EmbeddingStore(store_dir).load()
    ExactIndex(serving)
    serving.norms()
    serving.communities()
    return time.perf_counter() - t0


async def _wait_healthy(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(_get("/healthz"))
        await writer.drain()
        status, body = await _read_response(reader)
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}: {body!r}")
    finally:
        writer.close()


def _set_up(work, name: str, data: StoreData, trace: bool):
    """Publish the first version and start a server on it; returns
    ``(store_dir, server, seconds until /healthz answered 200, seconds
    the publish took)``."""
    store_dir = str(work / name)
    t0 = time.perf_counter()
    publish_s = _publish(store_dir, data, 0, "v000")
    server = ServerProcess(store_dir, trace, str(work / f"{name}.spans"))
    try:
        asyncio.run(_wait_healthy(server.port))
    except BaseException:
        server.stop()
        raise
    return store_dir, server, time.perf_counter() - t0, publish_s


def _summarise(phase: PhaseResult, oracle: Oracle, versions: dict,
               limit_s: float, failures: list, answers: dict) -> dict:
    """Check every answer of one window and reduce it to its figures."""
    latencies = []
    ok = failed = unsent = 0
    for req, out in zip(phase.requests, phase.outcomes):
        if out.sent is None:
            # Dropped unsent: at least as late as when it was dropped,
            # and it misses the limit.
            unsent += 1
            latencies.append(max(out.done - out.due, limit_s))
            continue
        reason = None
        if out.status != 200:
            reason = f"status {out.status}: {out.body[:120]!r}"
        else:
            payload = json.loads(out.body)
            version = payload.get("version")
            if version not in versions:
                reason = f"unknown version {version!r}"
            else:
                reason = oracle.check(versions[version], req.key, payload)
                answers.setdefault((version, req.key), payload["ids"])
        if reason is None:
            ok += 1
            latencies.append(out.done - out.due)
        else:
            # A failed request misses any latency limit.
            failed += 1
            latencies.append(max(out.done - out.due, limit_s))
            failures.append(f"{phase.name} {req.kind} {req.key}: {reason}")
    sent = [o for o in phase.outcomes if o.sent is not None]
    span = (max(o.done for o in sent) - phase.outcomes[0].due) \
        if sent else 0.0
    p99 = percentile(latencies, 0.99)
    tail = latencies[int(len(latencies) * 0.9):]
    stats = {
        "name": phase.name, "rate": phase.rate, "seconds": phase.seconds,
        "sent": ok + failed, "succeeded": ok, "failed": failed,
        "unsent": unsent, "reloaded": phase.reloaded,
        "p50_ms": 1e3 * percentile(latencies, 0.5), "p99_ms": 1e3 * p99,
        "achieved_rps": ok / span if span > 0 else 0.0,
        "round_trip_s": [o.done - o.sent for o in sent],
        "latencies_ms": [round(1e3 * v, 3) for v in latencies],
        "wait_ms": 1e3 * mean(o.sent - o.enqueued for o in sent)
        if sent else 0.0,
        "lateness_ms": 1e3 * mean(o.enqueued - o.due
                                  for o in phase.outcomes),
        # A growing backlog leaves requests unsent at the window's end,
        # or a last tenth whose median already misses the limit.
        "backlog": unsent > 0 or (bool(tail) and median(tail) > limit_s),
    }
    stats["meets_limit"] = (failed == 0 and not stats["backlog"]
                            and p99 <= limit_s)
    phase.stats = stats
    return stats


class Session:
    """One server process driven through ``ROUNDS`` rounds."""

    def __init__(self, workload: str, spec: dict, sizes: dict, seed: int,
                 seconds: float, data: StoreData, oracle: Oracle,
                 store_dir: str, server: ServerProcess, recorder=None):
        self.workload = workload
        self.spec = spec
        self.sizes = sizes
        self.data = data
        self.oracle = oracle
        self.store_dir = store_dir
        self.server = server
        self.recorder = recorder
        self.limit_s = spec["p99_limit_ms"] / 1e3
        self.failures: list[str] = []
        self.answers: dict = {}
        self.versions = {"v000": 0}
        self.publish_s: list[float] = []
        self.reload_ms: list[float] = []
        self.open_s: list[float] = []
        self.windows: list[PhaseResult] = []
        self.warmed = 0
        self.reloads = 0
        self.stats: dict = {}
        self.plan = self._plan(seed, seconds)

    def _plan(self, seed: int, seconds: float) -> dict:
        """Every request of the run, fixed by the seed, so traced and
        untraced sessions send identical traffic."""
        source = RequestSource(self.workload, self.spec, self.sizes, seed)
        round_s = seconds / ROUNDS
        fixed_s = round_s * self.spec["window_share"]
        rung_s = (round_s - 2 * fixed_s) / max(1, len(self.sizes["ladder"]))
        low, high = self.sizes["rates"]
        plan = {"warmup": source.warmup(), "rounds": []}
        for _ in range(ROUNDS):
            plan["rounds"].append(
                [("low", low, fixed_s, source.phase(low, fixed_s)),
                 ("high", high, fixed_s, source.phase(high, fixed_s))]
                + [(f"rung{rate}", rate, rung_s, source.phase(rate, rung_s))
                   for rate in self.sizes["ladder"]])
        self.vectors = source.vectors
        return plan

    def keys(self) -> list:
        return [r.key for r in self.plan["warmup"]] + [
            r.key for rnd in self.plan["rounds"]
            for _, _, _, reqs in rnd for r in reqs]

    async def drive(self) -> None:
        # The client's own garbage collections would stall its event loop
        # and show up as server latency; it allocates little while timed.
        gc.collect()
        gc.disable()
        try:
            async with Client(self.server.port) as client:
                await self._warmup(client)
                for rnd in self.plan["rounds"]:
                    await self._round(client, rnd)
                self.stats = await self._stats(client)
        finally:
            gc.enable()

    async def _round(self, client: Client, windows: list) -> None:
        under_load = self.spec["reload_under_load"]
        climbing = True
        for name, rate, seconds, requests in windows:
            fixed = name in ("low", "high")
            if not fixed and not climbing:
                break  # a lower rung already missed the limit
            reloading = under_load and fixed
            reload_task = []
            if reloading:
                # Publish before the window, so the client's own writes do
                # not compete with its traffic; /reload half-way through.
                self._publish_next()

            def on_start(start, seconds=seconds):
                reload_task.append(asyncio.create_task(
                    self._reload(client, start + seconds / 2)))

            result = await client.phase(
                name, rate, seconds, requests, self.limit_s,
                on_start if reloading else None)
            for task in reload_task:
                await task
            result.reloaded = bool(reload_task)
            self.windows.append(result)
            stats = _summarise(result, self.oracle, self.versions,
                               self.limit_s, self.failures, self.answers)
            if not result.reloaded:
                climbing = stats["meets_limit"]
        if not under_load:
            for _ in range(IDLE_RELOADS):
                self._publish_next()
                await self._reload(client, client.loop.time())
        for _ in range(OPENS_PER_ROUND):
            self.open_s.append(_open_store(self.store_dir))

    def _publish_next(self) -> None:
        """Publish the next version; the server serves it after /reload."""
        self.reloads += 1
        version = f"v{self.reloads:03d}"
        content = self.reloads % len(self.data.contents)
        self.publish_s.append(self._publish(content, version))
        self.versions[version] = content

    async def _reload(self, client: Client, due: float) -> None:
        await asyncio.sleep(max(0.0, due - client.loop.time()))
        outcome = await client.request(_post("/reload", b""))
        if outcome.status != 200:
            self.failures.append(f"/reload answered {outcome.status}")
        else:
            self.reload_ms.append(1e3 * (outcome.done - outcome.sent))

    def _publish(self, content: int, version: str) -> float:
        if self.recorder is None:
            return _publish(self.store_dir, self.data, content, version)
        with self.recorder.span("store.publish"):
            return _publish(self.store_dir, self.data, content, version)

    async def _warmup(self, client: Client) -> None:
        for req in self.plan["warmup"]:
            outcome = await client.request(req.wire)
            self.warmed += 1
            reason = f"status {outcome.status}" if outcome.status != 200 \
                else self.oracle.check(0, req.key, json.loads(outcome.body))
            if reason is not None:
                self.failures.append(f"warmup {req.key}: {reason}")

    async def _stats(self, client: Client) -> dict:
        outcome = await client.request(_get("/stats"))
        return json.loads(outcome.body) if outcome.status == 200 else {}

    # -- figures -------------------------------------------------------- #
    def by_name(self) -> dict[str, list[dict]]:
        out: dict[str, list[dict]] = {}
        for window in self.windows:
            out.setdefault(window.name, []).append(window.stats)
        return out

    def max_rps(self) -> tuple[float, float]:
        """``(rung, figure)``: the highest rung meeting the limit in most
        rounds and its median achieved req/s there.  Without one the rung
        is 0 and the figure half the lowest rung, below the ladder, so a
        missed limit reads as a regression rather than as the lowest
        rung's rate."""
        rungs = {}
        for stats in (w.stats for w in self.windows if not w.reloaded):
            rungs.setdefault(stats["rate"], []).append(stats)
        passing = [rate for rate, runs in rungs.items()
                   if sum(s["meets_limit"] for s in runs) * 2 > ROUNDS]
        if not passing:
            return 0.0, min(rungs) / 2.0
        rate = max(passing)
        return rate, median(s["achieved_rps"] for s in rungs[rate]
                            if s["meets_limit"])

    def sent(self) -> int:
        return sum(w.stats["sent"] for w in self.windows)


def _server_layers(spans: list, stats: dict, session: Session,
                   client_spans: SpanRecorder) -> dict:
    totals: dict[str, list] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], [0.0, 0, 0])
        entry[0] += span["end"] - span["start"]
        entry[1] += 1
        entry[2] += span.get("rows") or 0

    def per_call(name):
        total, calls, _ = totals.get(name, (0.0, 0, 0))
        return total / calls if calls else 0.0

    scan = totals.get("index.scan", [0.0, 0, 0])
    sent = [o for w in session.windows for o in w.outcomes
            if o.sent is not None]
    requests = max(1, len(sent))
    round_trip = mean(o.done - o.sent for o in sent) if sent else 0.0
    attributed = sum(totals.get(name, [0.0])[0] for name in
                     ("index.scan", "index.community", "cache.get"))
    guard = stats.get("guard", {})
    publish = client_spans.totals("store.publish")
    return {
        "store.publish_s": publish[0] / publish[1] if publish[1] else 0.0,
        "store.load_s": per_call("store.load"),
        "index.scan_s": per_call("index.scan"),
        "index.batch_occupancy": scan[2] / scan[1] if scan[1] else 0.0,
        "index.community_s": per_call("index.community"),
        "cache.hit_ratio": stats.get("cache", {}).get("hit_rate") or 0.0,
        "cache.get_s": per_call("cache.get"),
        "server.residual_ms": 1e3 * (round_trip - attributed / requests),
        "server.shed": guard.get("shed", {}).get("total", 0),
        "server.deadline_timeouts": guard.get("deadline_timeouts", 0),
        "server.errors": guard.get("errors", {}).get("total", 0),
        "client.wait_ms": 1e3 * mean(o.sent - o.enqueued for o in sent)
        if sent else 0.0,
        "client.lateness_ms": 1e3 * mean(
            o.enqueued - o.due for w in session.windows for o in w.outcomes),
    }


def _request_spans(session: Session) -> list[dict]:
    """Client-side request spans: due→sent wait and sent→done round trip,
    tagged with the window and request number."""
    out = []
    for n, window in enumerate(session.windows):
        for i, o in enumerate(window.outcomes):
            if o.sent is None:
                continue
            tag = f"{n}:{window.name}/{i}"
            out.append({"name": "request.wait", "start": o.due,
                        "end": o.sent, "parent": -1, "tag": tag})
            out.append({"name": "request", "start": o.sent, "end": o.done,
                        "parent": -1, "tag": tag})
    return out


def _served_nmi(session: Session) -> float:
    """NMI between each query node's planted community and the planted
    communities of the neighbours it was served."""
    from repro.metrics import normalized_mutual_info

    labels = session.data.labels
    query, neighbour = [], []
    for (_, key), ids in session.answers.items():
        if key[0] in ("similar", "community"):
            query += [labels[key[1]]] * len(ids)
            neighbour += [labels[i] for i in ids]
    if not query:
        return 0.0
    return float(normalized_mutual_info(np.asarray(query),
                                        np.asarray(neighbour)))


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> dict:
    spec = SPECS[workload]
    sizes = spec[size]
    if CLIENT_CORE is not None:
        os.sched_setaffinity(0, {CLIENT_CORE})
    work = common.OUT_DIR / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    servers: list[ServerProcess] = []
    try:
        return _run(workload, spec, sizes, seed, seconds, trace, work,
                    servers)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, spec, sizes, seed, seconds, trace, work, servers):
    t0 = time.perf_counter()
    data = make_store_data(seed, sizes["nodes"], spec["versions"])
    generate_s = time.perf_counter() - t0
    store_dir, server, up_s, publish_s = _set_up(work, "store0", data, False)
    servers.append(server)
    setup_s = [generate_s + up_s]
    publishes = [publish_s]
    open_s = [_open_store(store_dir) for _ in range(OPENS_PER_SETUP)]

    oracle = Oracle(data)
    timed_seconds = seconds / 2.0 if trace else seconds
    session = Session(workload, spec, sizes, seed, timed_seconds, data,
                      oracle, store_dir, server)
    for content in range(spec["versions"]):
        oracle.prepare(content, session.keys(), session.vectors)

    cpu0 = server.cpu_seconds()
    asyncio.run(session.drive())
    cpu_plain = server.cpu_seconds() - cpu0
    peak_kb = server.status_field("VmHWM")
    server.stop()
    failures = list(session.failures)
    attempted = session.sent() + session.warmed + session.reloads

    layers = spans = None
    record: dict = {}
    if trace:
        traced_dir, tserver, _, _ = _set_up(work, "traced", data, True)
        servers.append(tserver)
        recorder = SpanRecorder()
        traced = Session(workload, spec, sizes, seed, timed_seconds, data,
                         oracle, traced_dir, tserver, recorder)
        cpu0 = tserver.cpu_seconds()
        asyncio.run(traced.drive())
        cpu_traced = tserver.cpu_seconds() - cpu0
        tserver.stop()
        failures += traced.failures
        attempted += traced.sent() + traced.warmed + traced.reloads
        # Tracing must not change an answer: every (version, request)
        # answered in both sessions carries the same neighbours.
        for key, ids in traced.answers.items():
            if key in session.answers and session.answers[key] != ids:
                failures.append(f"traced answer to {key} differs")
        server_spans = tserver.spans()
        layers = _server_layers(server_spans, traced.stats, traced,
                                recorder)
        # Server CPU per request, traced over untraced.
        layers["trace.overhead"] = (
            (cpu_traced / max(1, traced.sent()))
            / (cpu_plain / max(1, session.sent()))) if cpu_plain else 0.0
        spans = {"server": server_spans,
                 "client": recorder.to_records() + _request_spans(traced)}
        record["traced_windows"] = [
            {k: v for k, v in w.stats.items() if k != "round_trip_s"}
            for w in traced.windows]

    # More set-ups after the timed phase, so a slow spell of the host
    # during one of them does not set the median.
    for rep in range(1, SETUP_REPEATS):
        t0 = time.perf_counter()
        extra = make_store_data(seed, sizes["nodes"], spec["versions"])
        extra_dir, extra_server, _, publish_s = _set_up(
            work, f"store{rep}", extra, False)
        servers.append(extra_server)
        setup_s.append(time.perf_counter() - t0)
        publishes.append(publish_s)
        extra_server.stop()
        open_s += [_open_store(extra_dir) for _ in range(OPENS_PER_SETUP)]

    windows = session.by_name()
    rate, max_rps = session.max_rps()
    round_trips = [t for w in session.windows
                   for t in w.stats["round_trip_s"]]

    def fixed(name, key):
        return median(s[key] for s in windows[name])

    metrics = {
        "setup_s": (median(setup_s), "s"),
        "fit_s": (median(open_s + session.open_s), "s"),
        "denoise_s": (median(publishes + session.publish_s), "s"),
        "epoch_s": (median(round_trips), "s"),
        "peak_mb": (peak_kb / 1024.0, "MB"),
        "nmi": (_served_nmi(session), "score"),
        "p50_ms.low": (fixed("low", "p50_ms"), "ms"),
        "p50_ms.high": (fixed("high", "p50_ms"), "ms"),
        "max_rps": (max_rps, "1/s"),
        "reload_ms": (median(session.reload_ms), "ms"),
    }
    phases = {}
    for name, runs in windows.items():
        phases[name] = {
            "rate": runs[0]["rate"], "windows": len(runs),
            **{k: sum(s[k] for s in runs)
               for k in ("sent", "succeeded", "failed", "unsent")},
            "meets_limit": sum(s["meets_limit"] for s in runs),
            "p50_ms": median(s["p50_ms"] for s in runs),
            "p99_ms": median(s["p99_ms"] for s in runs),
            "achieved_rps": median(s["achieved_rps"] for s in runs),
        }
        p = phases[name]
        print(f"{workload} {name:9s} rate {p['rate']:6.0f}/s windows "
              f"{p['windows']} sent {p['sent']:6d} ok {p['succeeded']:6d} "
              f"failed {p['failed']:4d} unsent {p['unsent']:4d} "
              f"p50 {p['p50_ms']:8.3f} ms p99 {p['p99_ms']:8.3f} ms "
              f"within limit {p['meets_limit']}/{p['windows']}")
    record.update({
        "nodes": sizes["nodes"], "connections": CONNECTIONS,
        "rounds": ROUNDS, "p99_limit_ms": spec["p99_limit_ms"],
        "server_env": common.SERVER_BLAS_ENV,
        "cores": {"client": CLIENT_CORE, "server": SERVER_CORE},
        "setup_s": setup_s, "open_s": open_s + session.open_s,
        "publish_s": publishes + session.publish_s,
        "reload_ms": session.reload_ms,
        "phases": phases,
        "windows": [{k: v for k, v in w.stats.items() if k != "round_trip_s"}
                    for w in session.windows],
        "p99_ms": {"low": fixed("low", "p99_ms"),
                   "high": fixed("high", "p99_ms")},
        "max_rps_rung": rate,
        "server_stats": session.stats, "server_cpu_s": cpu_plain,
    })
    return {"metrics": metrics, "layers": layers, "attempted": attempted,
            "failures": failures, "record": record, "spans": spans}

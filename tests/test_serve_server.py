"""Front-end tests: batching, concurrency bit-identity, hot reload,
cache versioning, and the shared strict-JSON serializer."""

import asyncio
import json
import logging
import math

import numpy as np
import pytest

from repro import jsonio
from repro.serve import EmbeddingServer, EmbeddingStore, LRUCache
from repro.serve.server import _read_response, load_generator, percentile


def _publish(tmp_path, version, seed):
    rng = np.random.default_rng(seed)
    n, d, c = 600, 12, 4
    emb = rng.standard_normal((n, d)).astype(np.float32)
    memb = rng.dirichlet(np.ones(c), size=n).astype(np.float32)
    EmbeddingStore(str(tmp_path)).publish(emb, memb, version)
    return emb


async def _get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    status, _, body = await _read_response(reader)
    writer.close()
    return status, json.loads(body)


async def _post(port, path, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write((f"POST {path} HTTP/1.1\r\nHost: t\r\n"
                  f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
    await writer.drain()
    status, _, raw = await _read_response(reader)
    writer.close()
    return status, json.loads(raw)


def test_concurrent_clients_bit_identical_to_serial(tmp_path):
    _publish(tmp_path, "v1", seed=1)

    async def scenario():
        # Serial baseline: uncached, unbatched (window 0, one at a time).
        serial_srv = EmbeddingServer(str(tmp_path), batch_window_ms=0.0,
                                     cache_size=0)
        await serial_srv.start()
        serial = []
        for node in range(24):
            _, res = await _get(serial_srv.port, f"/similar?node={node}&k=7")
            serial.append(res)
        await serial_srv.stop()

        # Hammered: 24 concurrent clients against a batching server.
        batch_srv = EmbeddingServer(str(tmp_path), batch_window_ms=10.0,
                                    cache_size=0)
        await batch_srv.start()
        burst = await asyncio.gather(*(
            _get(batch_srv.port, f"/similar?node={node}&k=7")
            for node in range(24)))
        stats = batch_srv.stats()
        await batch_srv.stop()
        return serial, [res for _, res in burst], stats

    serial, burst, stats = asyncio.run(scenario())
    for want, got in zip(serial, burst):
        # Bit-identical: ids AND float scores match exactly after the
        # JSON round trip (repr round-trips float64 losslessly).
        assert got["ids"] == want["ids"]
        assert got["scores"] == want["scores"]
    # The burst actually coalesced (some batch held > 1 request).
    assert stats["batch"]["occupancy_max"] > 1


def test_mixed_k_batches_match_serial(tmp_path):
    _publish(tmp_path, "v1", seed=2)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), batch_window_ms=10.0,
                              cache_size=0)
        await srv.start()
        ks = [3, 9, 5, 12, 7, 4]
        burst = await asyncio.gather(*(
            _get(srv.port, f"/similar?node={node}&k={k}")
            for node, k in enumerate(ks)))
        serial = []
        srv2 = EmbeddingServer(str(tmp_path), batch_window_ms=0.0,
                               cache_size=0)
        await srv2.start()
        for node, k in enumerate(ks):
            serial.append(await _get(srv2.port,
                                     f"/similar?node={node}&k={k}"))
        await srv.stop()
        await srv2.stop()
        return burst, serial, ks

    burst, serial, ks = asyncio.run(scenario())
    for (_, got), (_, want), k in zip(burst, serial, ks):
        assert len(got["ids"]) == k
        assert got["ids"] == want["ids"]
        assert got["scores"] == want["scores"]


def test_cache_hits_and_version_keying_after_reload(tmp_path):
    emb1 = _publish(tmp_path, "v1", seed=3)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), batch_window_ms=0.0,
                              cache_size=64)
        await srv.start()
        _, first = await _get(srv.port, "/similar?node=5&k=4")
        _, second = await _get(srv.port, "/similar?node=5&k=4")
        # Publish a different fit and hot-reload: the LRU must never
        # serve the v1 result under v2.
        emb2 = _publish(tmp_path, "v2", seed=99)
        _, reloaded = await _post(srv.port, "/reload")
        _, third = await _get(srv.port, "/similar?node=5&k=4")
        _, fourth = await _get(srv.port, "/similar?node=5&k=4")
        await srv.stop()
        return first, second, reloaded, third, fourth, emb2

    first, second, reloaded, third, fourth, emb2 = asyncio.run(scenario())
    assert first["version"] == "v1" and not first["cached"]
    assert second["cached"] and second["ids"] == first["ids"]
    assert reloaded == {"status": "reloaded", "version": "v2"}
    assert third["version"] == "v2" and not third["cached"]
    # v2's embeddings differ, so the answer must differ from v1's
    # (a stale cache hit would reproduce first["scores"] exactly).
    assert third["scores"] != first["scores"]
    assert fourth["cached"] and fourth["ids"] == third["ids"]
    # Independent check against the new store content.
    normed = emb2.astype(np.float64)
    normed /= np.linalg.norm(normed, axis=1, keepdims=True)
    q = normed[5] / np.linalg.norm(normed[5:6], axis=1)[0]
    scores = normed @ q
    order = np.lexsort((np.arange(len(scores)), -scores))
    want = [i for i in order if i != 5][:4]
    assert third["ids"] == want


def test_community_query_vector_and_errors(tmp_path):
    _publish(tmp_path, "v1", seed=4)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), batch_window_ms=0.0)
        await srv.start()
        out = {}
        out["health"] = await _get(srv.port, "/healthz")
        out["community"] = await _get(srv.port, "/community?node=3&k=5")
        vec = ",".join("0.5" for _ in range(srv.serving.dim))
        out["query"] = await _get(srv.port, f"/query?vector={vec}&k=3")
        out["post_query"] = await _post(
            srv.port, "/query",
            {"vector": [0.5] * srv.serving.dim, "k": 3})
        out["bad_node"] = await _get(srv.port, "/similar?node=100000&k=2")
        out["bad_vector"] = await _get(srv.port, "/query?vector=1,2&k=2")
        out["missing"] = await _get(srv.port, "/nope")
        out["reload_get"] = await _get(srv.port, "/reload")
        out["stats"] = await _get(srv.port, "/stats")
        await srv.stop()
        return out

    out = asyncio.run(scenario())
    assert out["health"][0] == 200 and out["health"][1]["status"] == "ok"
    communities = out["community"][1]
    assert out["community"][0] == 200
    assert len(communities["ids"]) == 5
    assert communities["community"] >= 0
    assert out["query"][0] == 200 and len(out["query"][1]["ids"]) == 3
    # GET and POST forms of the same query agree exactly.
    assert out["post_query"][1]["ids"] == out["query"][1]["ids"]
    assert out["post_query"][1]["scores"] == out["query"][1]["scores"]
    assert out["bad_node"][0] == 400
    assert out["bad_vector"][0] == 400
    assert out["missing"][0] == 404
    assert out["reload_get"][0] == 405
    stats = out["stats"][1]
    assert stats["requests"] >= 7
    assert stats["latency_ms"]["p50"] is not None


#: Store dimension of ``_publish`` (the /query vector length).
_DIM = 12
_ZEROS = [0] * (_DIM - 1)


@pytest.mark.parametrize("method, target, body", [
    ("POST", "/query", b"[1,2,3,4]"),
    ("POST", "/query", b'"x"'),
    ("POST", "/query", json.dumps({"vector": [0.5] * _DIM,
                                   "k": [1]}).encode()),
    ("POST", "/query", json.dumps({"vector": [0.5] * _DIM,
                                   "k": True}).encode()),
    ("POST", "/query", json.dumps({"vector": ["nan"] + _ZEROS}).encode()),
    ("POST", "/query",
     b'{"vector": [1e400' + b", 0" * (_DIM - 1) + b"]}"),
    ("GET", "/query?vector=nan" + ",1" * (_DIM - 1), b""),
    ("POST", "/query", json.dumps({"vector": "1" * _DIM}).encode()),
], ids=["body_list", "body_string", "k_list", "k_bool", "vector_nan",
        "vector_overflow", "query_param_nan", "vector_string"])
def test_malformed_query_answers_400_before_admission(tmp_path, caplog,
                                                      method, target, body):
    """Bad ``/query`` input is the client's fault: ``400``, never a
    ``500`` or a ``200`` over non-finite scores, and never a breaker
    failure (which could degrade the server to cache-only)."""
    _publish(tmp_path, "v1", seed=4)
    caplog.set_level(logging.ERROR, logger="asyncio")

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), batch_window_ms=0.0)
        await srv.start()
        assert srv.serving.dim == _DIM
        failures = srv.breaker.failures_total
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       srv.port)
        writer.write((f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
                      f"Content-Length: {len(body)}\r\n\r\n").encode()
                     + body)
        await writer.drain()
        status, _, raw = await _read_response(reader)
        writer.close()
        assert status == 400, raw
        assert srv.breaker.failures_total == failures
        await srv.stop()

    asyncio.run(scenario())
    assert [r for r in caplog.records if r.name == "asyncio"] == []


def test_cli_query_rejects_non_finite_vector(tmp_path, capsys):
    from repro.cli import main
    _publish(tmp_path, "v1", seed=4)
    vector = ",".join(["nan"] + ["1"] * (_DIM - 1))
    assert main(["serve", "query", "--store", str(tmp_path),
                 "--vector", vector]) == 2
    assert "finite" in capsys.readouterr().err


def test_load_generator_round_trip(tmp_path):
    _publish(tmp_path, "v1", seed=5)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), batch_window_ms=1.0,
                              cache_size=128)
        await srv.start()
        report = await load_generator("127.0.0.1", srv.port,
                                      ["/similar?node=9&k=5"], 200,
                                      concurrency=4)
        stats = srv.stats()
        await srv.stop()
        return report, stats

    report, stats = asyncio.run(scenario())
    assert report["requests"] == 200
    assert report["statuses"] == {200: 200}
    assert report["rps"] > 0
    assert report["p50_ms"] is not None and report["p99_ms"] is not None
    assert stats["cache"]["hits"] >= 198  # all but the first are hits


# --------------------------------------------------------------------- #
# LRU cache unit behaviour                                               #
# --------------------------------------------------------------------- #

def test_lru_eviction_and_stats():
    cache = LRUCache(2)
    cache.put(("v1", "a"), 1)
    cache.put(("v1", "b"), 2)
    assert cache.get(("v1", "a")) == 1  # refresh recency
    cache.put(("v1", "c"), 3)           # evicts b
    assert cache.get(("v1", "b")) is None
    assert cache.get(("v1", "a")) == 1
    assert cache.get(("v1", "c")) == 3
    stats = cache.stats()
    assert stats["size"] == 2 and stats["capacity"] == 2
    assert stats["evictions"] >= 1
    assert 0.0 < stats["hit_rate"] < 1.0


def test_lru_zero_capacity_disables():
    cache = LRUCache(0)
    cache.put(("v1", "a"), 1)
    assert cache.get(("v1", "a")) is None
    assert len(cache) == 0


def test_percentile():
    assert percentile([], 0.5) is None
    assert percentile([3.0], 0.99) == 3.0
    values = list(range(1, 101))
    assert percentile(values, 0.0) == 1
    assert percentile(values, 1.0) == 100


# --------------------------------------------------------------------- #
# Shared strict-JSON serializer (regression: NaN must never leak)        #
# --------------------------------------------------------------------- #

def test_jsonio_nan_never_emits_invalid_json():
    record = {"value": float("nan"), "inf": float("inf"),
              "neg": float("-inf"),
              "arr": np.array([1.0, np.nan, np.inf]),
              "scalar": np.float32("nan"),
              "nested": {"v": [math.nan, 1.5]}}
    text = jsonio.dumps(record)
    decoded = json.loads(text)  # strict parse must succeed
    assert decoded["value"] is None
    assert decoded["inf"] is None and decoded["neg"] is None
    assert decoded["arr"] == [1.0, None, None]
    assert decoded["scalar"] is None
    assert decoded["nested"]["v"] == [None, 1.5]
    assert "NaN" not in text and "Infinity" not in text


def test_jsonio_finite_or_none():
    assert jsonio.finite_or_none(1.5) == 1.5
    assert jsonio.finite_or_none(np.float64(2.0)) == 2.0
    assert jsonio.finite_or_none(float("nan")) is None
    assert jsonio.finite_or_none(float("inf")) is None


def test_cli_json_paths_share_serializer():
    from repro import cli
    assert cli._strict_json is jsonio.dumps
    assert cli._finite_or_null is jsonio.finite_or_none


def test_serve_query_json_with_nan_scores(tmp_path, capsys):
    # A store containing a NaN embedding row yields NaN cosine scores;
    # ``repro serve query --json`` must still print strict JSON.
    from repro.cli import main
    rng = np.random.default_rng(6)
    emb = rng.standard_normal((30, 6)).astype(np.float32)
    emb[4] = np.nan
    memb = rng.dirichlet(np.ones(3), size=30).astype(np.float32)
    EmbeddingStore(str(tmp_path)).publish(emb, memb, "v1")
    assert main(["serve", "query", "--store", str(tmp_path), "--node",
                 "4", "-k", "3", "--json"]) == 0
    out = capsys.readouterr().out
    record = json.loads(out)  # must be strict JSON despite NaN scores
    assert record["command"] == "serve-query"
    assert all(s is None or isinstance(s, float)
               for s in record["scores"])

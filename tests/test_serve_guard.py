"""Serving resilience tests: admission control, deadlines, the breaker
degradation ladder, graceful drain, body caps, client retry, and the
chaos acceptance matrix (no wrong 200s under injected faults)."""

import asyncio
import json
import logging
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import metrics
from repro.obs.store import RunLedger
from repro.resilience import faultinject
from repro.serve import EmbeddingServer, EmbeddingStore
from repro.serve.guard import (CircuitBreaker, backoff_delays, retry_call)
from repro.serve import guard
from repro.serve.server import _HttpError, _read_response, load_generator


def _publish(tmp_path, version, seed):
    rng = np.random.default_rng(seed)
    n, d, c = 400, 10, 4
    emb = rng.standard_normal((n, d)).astype(np.float32)
    memb = rng.dirichlet(np.ones(c), size=n).astype(np.float32)
    EmbeddingStore(str(tmp_path)).publish(emb, memb, version)
    return emb


async def _get(port, path):
    """GET returning (status, headers, parsed payload)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    status, headers, body = await _read_response(reader)
    writer.close()
    return status, headers, json.loads(body)


async def _post(port, path, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write((f"POST {path} HTTP/1.1\r\nHost: t\r\n"
                  f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
    await writer.drain()
    status, headers, raw = await _read_response(reader)
    writer.close()
    return status, headers, json.loads(raw)


async def _raw(port, payload: bytes):
    """Send raw bytes, read one response (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    status, headers, body = await _read_response(reader)
    writer.close()
    return status, headers, body


# --------------------------------------------------------------------- #
# guard unit tests                                                       #
# --------------------------------------------------------------------- #

class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def test_trip_ladder_halfopen_and_recovery(self):
        clk = _Clock()
        br = CircuitBreaker(["primary", "exact", "cache-only"], threshold=2,
                            cooldown_s=1.0, clock=clk)
        assert (br.backend, br.state) == ("primary", "closed")
        br.record_failure("error")
        assert br.level == 0  # below threshold
        br.record_failure("error")
        assert (br.level, br.backend, br.state) == (1, "exact", "open")
        br.record_failure("deadline")
        br.record_failure("deadline")
        assert (br.level, br.backend) == (2, "cache-only")
        # already at the bottom rung: more failures don't walk off the end
        br.record_failure("error")
        br.record_failure("error")
        assert br.level == 2 and br.trips == 2

        assert not br.probe_due()
        clk.t += 1.5
        assert br.probe_due()
        assert br.begin_operation() == "exact"  # half-open probe
        assert br.state == "half-open"
        br.record_failure("error")  # failed probe re-arms the cooldown
        assert br.level == 2 and not br.probe_due()

        clk.t += 1.5
        assert br.begin_operation() == "exact"
        br.record_success()
        assert (br.level, br.backend) == (1, "exact")
        assert not br.probe_due()  # fresh cooldown before the next rung
        clk.t += 1.5
        assert br.begin_operation() == "primary"
        br.record_success()
        assert (br.level, br.state) == (0, "closed")
        snap = br.snapshot()
        assert snap["trips"] == 2 and snap["recoveries"] == 2
        assert snap["ladder"] == ["primary", "exact", "cache-only"]

    def test_success_resets_failure_streak(self):
        br = CircuitBreaker(["exact", "cache-only"], threshold=3,
                            cooldown_s=1.0, clock=_Clock())
        br.record_failure("error")
        br.record_failure("error")
        br.record_success()
        br.record_failure("error")
        br.record_failure("error")
        assert br.level == 0  # never threshold consecutive

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker([])


def test_backoff_delays_deterministic_and_capped():
    a = backoff_delays(5, seed=3)
    assert a == backoff_delays(5, seed=3)
    assert a != backoff_delays(5, seed=4)
    assert len(a) == 5 and all(d > 0 for d in a)
    big = backoff_delays(10, base_s=1.0, cap_s=2.0, seed=0)
    assert max(big) <= 2.0 * 1.5  # cap before jitter in [0.5, 1.5)


def test_retry_call_retries_then_succeeds_and_exhausts():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise ValueError("boom")
        return "ok"

    assert retry_call(flaky, retries=4, base_s=0.001) == "ok"
    assert calls["n"] == 3

    def hopeless():
        raise ValueError("always")

    with pytest.raises(ValueError):
        retry_call(hopeless, retries=1, base_s=0.001)


def test_env_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_QUEUE", "77")
    assert guard.queue_limit() == 77
    assert guard.queue_limit(5) == 5  # explicit value beats env
    monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "250")
    assert guard.deadline_s() == 0.25
    assert guard.deadline_s(0) == 0.0
    monkeypatch.setenv("REPRO_SERVE_MAX_BODY", "2048")
    assert guard.max_body_bytes() == 2048
    monkeypatch.setenv("REPRO_SERVE_BREAKER_THRESHOLD", "0")
    assert guard.breaker_threshold() == 1  # floor
    monkeypatch.setenv("REPRO_SERVE_QUEUE", "abc")
    with pytest.raises(ValueError):
        guard.queue_limit()


# --------------------------------------------------------------------- #
# admission control + deadlines                                          #
# --------------------------------------------------------------------- #

def test_queue_full_sheds_and_deadline_cancels(tmp_path):
    """Direct _submit exercise: no batcher drains the queue, so the
    bound and the per-request deadline both fire deterministically."""
    _publish(tmp_path, "v1", seed=1)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), cache_size=0, queue_limit=1,
                              deadline_ms=100)
        srv._loop = asyncio.get_running_loop()
        srv._queue = asyncio.Queue(maxsize=1)
        first = asyncio.create_task(srv._submit("similar", 0, None, 5, None))
        await asyncio.sleep(0.01)  # first fills the queue
        with pytest.raises(_HttpError) as shed:
            await srv._submit("similar", 1, None, 5, None)
        assert shed.value.status == 503
        assert shed.value.retry_after == 1
        with pytest.raises(_HttpError) as late:
            await first  # nobody answers: deadline 504s it
        assert late.value.status == 504
        g = srv.stats()["guard"]
        assert g["shed"]["queue"] == 1
        assert g["deadline_timeouts"] == 1
        assert g["queue"]["limit"] == 1

    asyncio.run(scenario())


def test_injected_queue_overflow_sheds_with_retry_after(tmp_path):
    _publish(tmp_path, "v1", seed=1)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), cache_size=0)
        await srv.start()
        with faultinject.injected("queue_overflow@call=0"):
            status, headers, body = await _get(srv.port,
                                               "/similar?node=1&k=5")
            assert status == 503
            assert headers["retry-after"] == "1"
            assert "overflow" in body["error"]
            status, _, _ = await _get(srv.port, "/similar?node=1&k=5")
            assert status == 200  # call=1: no match
        g = srv.stats()["guard"]
        assert g["shed"]["queue"] == 1 and g["shed"]["total"] == 1
        assert g["errors"]["by_status"]["503"] == 1
        await srv.stop()

    asyncio.run(scenario())


def test_slow_index_breaches_deadline_with_504(tmp_path):
    _publish(tmp_path, "v1", seed=1)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), cache_size=0, deadline_ms=80,
                              breaker_threshold=10)
        await srv.start()
        with faultinject.injected("slow_index@call=0,s=0.2"):
            status, headers, body = await _get(srv.port,
                                               "/similar?node=2&k=5")
            assert status == 504
            assert "deadline" in body["error"]
            status, _, _ = await _get(srv.port, "/similar?node=2&k=5")
            assert status == 200
        g = srv.stats()["guard"]
        assert g["deadline_timeouts"] == 1
        assert g["errors"]["by_status"]["504"] == 1
        assert g["breaker"]["failures"] == 1  # deadline fed the breaker
        await srv.stop()

    asyncio.run(scenario())


# --------------------------------------------------------------------- #
# degradation ladder over HTTP                                           #
# --------------------------------------------------------------------- #

def test_breaker_degrades_exact_to_cache_only(tmp_path):
    _publish(tmp_path, "v1", seed=2)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), cache_size=64,
                              breaker_threshold=1,
                              breaker_cooldown_ms=60_000)
        await srv.start()
        assert srv.breaker.ladder == ["exact", "cache-only"]
        # prime one cache entry while healthy
        status, _, healthy = await _get(srv.port, "/similar?node=0&k=5")
        assert status == 200
        with faultinject.injected("index_error*1"):
            status, _, _ = await _get(srv.port, "/similar?node=1&k=5")
            assert status == 503
            assert srv.breaker.level == 1
        assert srv.breaker.backend == "cache-only"
        # cache hits still answer; misses shed with the cooldown hint
        status, _, cached = await _get(srv.port, "/similar?node=0&k=5")
        assert status == 200 and cached["cached"]
        assert cached["ids"] == healthy["ids"]
        status, headers, _ = await _get(srv.port, "/similar?node=3&k=5")
        assert status == 503
        assert int(headers["retry-after"]) >= 1
        status, _, health = await _get(srv.port, "/healthz")
        assert status == 503
        assert health["status"] == "degraded"
        assert health["serving_backend"] == "cache-only"
        assert health["breaker"]["trips"] == 1
        assert health["breaker"]["ladder"] == ["exact", "cache-only"]
        g = srv.stats()["guard"]
        assert g["status"] == "degraded"
        assert g["shed"]["cache_only"] >= 1
        await srv.stop()

    asyncio.run(scenario())


def test_breaker_recovers_after_faults_stop(tmp_path):
    _publish(tmp_path, "v1", seed=2)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), cache_size=0,
                              breaker_threshold=1, breaker_cooldown_ms=100)
        await srv.start()
        with faultinject.injected("index_error*2"):
            status, _, _ = await _get(srv.port, "/similar?node=1&k=5")
            assert status == 503 and srv.breaker.backend == "cache-only"
            # cooldown not elapsed: misses shed without touching the index
            status, _, _ = await _get(srv.port, "/similar?node=2&k=5")
            assert status == 503
            await asyncio.sleep(0.15)
            # probe admitted, but the fault budget still has one firing:
            # the failed probe re-arms the cooldown
            status, _, _ = await _get(srv.port, "/similar?node=3&k=5")
            assert status == 503 and srv.breaker.level == 1
            status, _, _ = await _get(srv.port, "/similar?node=4&k=5")
            assert status == 503  # sheds again until the next cooldown
            await asyncio.sleep(0.15)
            # budget exhausted: the probe succeeds and closes the breaker
            status, _, res = await _get(srv.port, "/similar?node=5&k=5")
            assert status == 200 and len(res["ids"]) == 5
        assert srv.breaker.state == "closed" and srv.breaker.level == 0
        status, _, health = await _get(srv.port, "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["breaker"]["recoveries"] == 1
        await srv.stop()

    asyncio.run(scenario())


# --------------------------------------------------------------------- #
# request framing: body caps                                             #
# --------------------------------------------------------------------- #

def test_oversized_and_garbled_bodies_rejected(tmp_path):
    _publish(tmp_path, "v1", seed=1)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), max_body=512)
        await srv.start()
        # Content-Length over the cap: 413 before any body byte is read
        status, headers, body = await _raw(
            srv.port, b"POST /query HTTP/1.1\r\nHost: t\r\n"
                      b"Content-Length: 1024\r\n\r\n")
        assert status == 413
        assert headers["connection"] == "close"
        assert b"REPRO_SERVE_MAX_BODY" in body
        # garbage length: 400
        status, _, _ = await _raw(
            srv.port, b"POST /query HTTP/1.1\r\nHost: t\r\n"
                      b"Content-Length: banana\r\n\r\n")
        assert status == 400
        # negative length: 400
        status, _, _ = await _raw(
            srv.port, b"POST /query HTTP/1.1\r\nHost: t\r\n"
                      b"Content-Length: -5\r\n\r\n")
        assert status == 400
        status, _, _ = await _get(srv.port, "/nope")
        assert status == 404
        g = srv.stats()["guard"]
        assert g["errors"]["by_status"] == {"400": 2, "404": 1, "413": 1}
        assert g["errors"]["total"] == 4
        assert 0.0 < g["errors"]["rate"] <= 1.0
        await srv.stop()

    asyncio.run(scenario())


#: Past asyncio's default 64 KiB StreamReader line limit.
_OVERLONG = 70_000


def _asyncio_errors(caplog):
    return [r for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR]


@pytest.mark.parametrize("payload, expected, message", [
    (b"GET /" + b"a" * _OVERLONG + b" HTTP/1.1\r\nHost: t\r\n\r\n",
     431, b"64 KiB"),
    (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * _OVERLONG + b"\r\n\r\n",
     431, b"64 KiB"),
    (b"GET //[ HTTP/1.1\r\nHost: t\r\n\r\n", 400, b"bad request target"),
], ids=["request_line", "header_line", "bad_target"])
def test_overlong_line_answers_431(tmp_path, caplog, payload, expected,
                                   message):
    """Framing errors (over-long lines: 431, an unparseable target: 400)
    answer and close instead of escaping the connection handler."""
    _publish(tmp_path, "v1", seed=1)
    caplog.set_level(logging.ERROR, logger="asyncio")
    counter = metrics.registry().counter(f"serve.errors.{expected}")

    async def scenario():
        srv = EmbeddingServer(str(tmp_path))
        await srv.start()
        before = counter.value
        status, headers, body = await _raw(srv.port, payload)
        assert status == expected
        assert headers["connection"] == "close"
        assert message in body
        assert counter.value == before + 1
        assert srv.stats()["guard"]["errors"]["by_status"] == {
            str(expected): 1}
        status, _, health = await _get(srv.port, "/healthz")
        assert status == 200 and health["status"] == "ok"
        await srv.stop()

    asyncio.run(scenario())
    assert _asyncio_errors(caplog) == []


def test_truncated_body_closes_quietly(tmp_path, caplog):
    _publish(tmp_path, "v1", seed=1)
    caplog.set_level(logging.ERROR, logger="asyncio")

    async def scenario():
        srv = EmbeddingServer(str(tmp_path))
        await srv.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
        # 10 of the 100 announced body bytes, then the client hangs up.
        writer.write(b"POST /query HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: 100\r\n\r\n" + b"{\"node\": 1}")
        await writer.drain()
        writer.write_eof()
        assert await asyncio.wait_for(reader.read(), timeout=10) == b""
        writer.close()
        assert srv.stats()["guard"]["errors"]["by_status"] == {}
        status, _, health = await _get(srv.port, "/healthz")
        assert status == 200 and health["status"] == "ok"
        await srv.stop()

    asyncio.run(scenario())
    assert _asyncio_errors(caplog) == []


@pytest.fixture(scope="module")
def framing_server(tmp_path_factory):
    """A server whose ``_read_request`` the framing fuzz drives."""
    directory = tmp_path_factory.mktemp("framing-store")
    _publish(directory, "v1", seed=1)
    return EmbeddingServer(str(directory), max_body=256)


_header = st.one_of(
    st.tuples(st.just("Content-Length"),
              st.one_of(st.integers(-10, 600).map(str),
                        st.text(max_size=8))),
    st.tuples(st.text(max_size=12), st.text(max_size=24)),
).map(lambda kv: f"{kv[0]}:{kv[1]}\r\n")

_request_shaped = st.builds(
    lambda method, target, headers, body: (
        f"{method} {target} HTTP/1.1\r\n{''.join(headers)}\r\n"
        .encode("latin-1", "replace") + body),
    st.sampled_from(["GET", "POST", "get", "PUT", ""]),
    st.one_of(st.sampled_from(["/", "/query", "//[", "/similar?node=1&k=",
                               "http://[::1/x", "?%zz=&&"]),
              st.text(max_size=40)),
    st.lists(_header, max_size=4),
    st.binary(max_size=64))


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(st.binary(max_size=400), _request_shaped),
       limit=st.sampled_from([32, 2 ** 16]))
def test_read_request_fuzz_yields_request_or_http_error(framing_server,
                                                         data, limit):
    """Any bytes on the wire parse to a request, end the connection
    (``None`` or a truncated body), or raise a 400/413/431 that the
    handler answers — nothing else escapes."""

    async def parse():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        return await framing_server._read_request(reader)

    try:
        request = asyncio.run(parse())
    except _HttpError as exc:
        assert exc.status in {400, 413, 431}
    except asyncio.IncompleteReadError:
        pass
    else:
        if request is not None:
            method, path, params, body = request
            assert isinstance(method, str) and isinstance(path, str)
            assert all(isinstance(k, str) and isinstance(v, str)
                       for k, v in params.items())
            assert isinstance(body, bytes)
            assert len(body) <= framing_server.max_body


# --------------------------------------------------------------------- #
# graceful drain                                                         #
# --------------------------------------------------------------------- #

def test_graceful_drain_closes_idle_and_records_ledger(tmp_path,
                                                       monkeypatch):
    store_dir = tmp_path / "store"
    run_dir = tmp_path / "runs"
    _publish(store_dir, "v1", seed=1)
    monkeypatch.setenv("REPRO_RUN_DIR", str(run_dir))

    async def scenario():
        srv = EmbeddingServer(str(store_dir), cache_size=16)
        await srv.start()
        port = srv.port
        # a keep-alive client that answered one request and went idle
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET /similar?node=0&k=5 HTTP/1.1\r\nHost: t\r\n\r\n")
        await writer.drain()
        status, _, _ = await _read_response(reader)
        assert status == 200
        started = time.perf_counter()
        await srv.stop()
        # the idle connection must not stall the drain for its timeout
        assert time.perf_counter() - started < 2.0
        assert srv.health_status() == "draining"
        with pytest.raises(OSError):
            r, w = await asyncio.open_connection("127.0.0.1", port)
            # some platforms accept then reset; force the failure
            w.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            await w.drain()
            await _read_response(r)
        writer.close()

    asyncio.run(scenario())
    entries = [e for e in RunLedger(str(run_dir)).entries()
               if e["kind"] == "serve"]
    assert len(entries) == 1
    entry = entries[0]
    assert entry["key"] == "serve:v1"
    assert entry["drained"] is True
    assert entry["breaker_trips"] == 0
    assert entry["error_rate"] == 0.0
    assert "shed" in entry and "errors" in entry


def test_drain_finishes_inflight_requests(tmp_path):
    _publish(tmp_path, "v1", seed=1)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), cache_size=0,
                              batch_window_ms=30.0)
        await srv.start()
        # requests sitting in the batch window when the drain begins
        inflight = [asyncio.create_task(
            _get(srv.port, f"/similar?node={n}&k=5")) for n in range(4)]
        await asyncio.sleep(0.005)
        await srv.stop()
        answers = await asyncio.gather(*inflight)
        for status, _, res in answers:
            assert status == 200 and len(res["ids"]) == 5

    asyncio.run(scenario())


# --------------------------------------------------------------------- #
# client-side retry                                                      #
# --------------------------------------------------------------------- #

def test_load_generator_retries_through_faults(tmp_path):
    _publish(tmp_path, "v1", seed=4)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), cache_size=0,
                              breaker_threshold=10)
        await srv.start()
        with faultinject.injected("index_error*2"):
            report = await load_generator(
                "127.0.0.1", srv.port, ["/similar?node=3&k=5"],
                total_requests=12, concurrency=3, retries=4,
                backoff_base_s=0.01, backoff_cap_s=0.05)
        await srv.stop()
        return report

    report = asyncio.run(scenario())
    assert report["statuses"] == {200: 12}
    assert report["retries"] >= 1
    assert report["gave_up"] == 0


def test_cli_query_retries_through_injected_fault(tmp_path, monkeypatch,
                                                  capsys):
    _publish(tmp_path, "v1", seed=5)
    monkeypatch.setenv("REPRO_FAULTS", "shard_corrupt_read*1")
    rc = main(["serve", "query", "--store", str(tmp_path), "--node", "3",
               "-k", "5", "--retries", "2", "--retry-base-ms", "5",
               "--json"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["version"] == "v1" and len(record["ids"]) == 5


# --------------------------------------------------------------------- #
# store corruption racing /reload                                        #
# --------------------------------------------------------------------- #

def test_corrupt_new_version_reload_falls_back_under_traffic(tmp_path):
    _publish(tmp_path, "v1", seed=1)

    async def scenario():
        srv = EmbeddingServer(str(tmp_path), cache_size=0)
        await srv.start()
        # a newer version lands, then rots on disk before the reload
        _publish(tmp_path, "v2", seed=2)
        shard = tmp_path / "versions" / "v2" / "embeddings.npy"
        blob = bytearray(shard.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        shard.write_bytes(blob)

        async def traffic():
            out = []
            for node in range(10):
                out.append(await _get(srv.port, f"/similar?node={node}&k=5"))
            return out

        corrupt_before = metrics.registry().counter(
            "serve.store.corrupt").value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            answers, reload_answer = await asyncio.gather(
                traffic(), _post(srv.port, "/reload"))
        rstatus, _, rbody = reload_answer
        assert rstatus == 200
        assert rbody["version"] == "v1"  # fell back down the history
        for status, _, res in answers:
            assert status == 200 and res["version"] == "v1"
        assert metrics.registry().counter(
            "serve.store.corrupt").value > corrupt_before
        status, _, health = await _get(srv.port, "/healthz")
        assert status == 200 and health["status"] == "ok"
        await srv.stop()

    asyncio.run(scenario())


# --------------------------------------------------------------------- #
# acceptance: chaos matrix                                               #
# --------------------------------------------------------------------- #

def test_chaos_matrix_no_wrong_answers_then_recovery(tmp_path):
    """Under probabilistic slow/error faults every answer is shed (503),
    timed out (504) or **bit-identical to the clean baseline** (200);
    after the faults stop the breaker probes back to ``ok``."""
    _publish(tmp_path, "v1", seed=3)

    async def scenario():
        base = EmbeddingServer(str(tmp_path), batch_window_ms=0.0,
                               cache_size=0)
        await base.start()
        baseline = {}
        for node in range(12):
            status, _, res = await _get(base.port,
                                        f"/similar?node={node}&k=6")
            assert status == 200
            baseline[node] = res
        await base.stop()

        srv = EmbeddingServer(str(tmp_path), batch_window_ms=1.0,
                              cache_size=256, deadline_ms=150,
                              breaker_threshold=3, breaker_cooldown_ms=100)
        await srv.start()
        statuses: dict[int, int] = {}
        plan = "slow_index@p=0.3,seed=7,s=0.2;index_error@p=0.2,seed=9"
        with faultinject.injected(plan):
            for _ in range(3):
                for node in range(12):
                    status, _, res = await _get(
                        srv.port, f"/similar?node={node}&k=6")
                    statuses[status] = statuses.get(status, 0) + 1
                    assert status in (200, 503, 504), status
                    if status == 200:
                        assert res["ids"] == baseline[node]["ids"]
                        assert res["scores"] == baseline[node]["scores"]
        assert statuses.get(200, 0) > 0  # the chaos wasn't total
        assert statuses.get(503, 0) + statuses.get(504, 0) > 0
        g = srv.stats()["guard"]
        assert g["breaker"]["failures"] > 0

        # faults stop: probes step the ladder back up to ok
        health = None
        for _ in range(40):
            status, _, health = await _get(srv.port, "/healthz")
            if status == 200 and health["status"] == "ok":
                break
            await _get(srv.port, "/similar?node=0&k=6")  # drive probes
            await asyncio.sleep(0.12)
        assert health is not None and health["status"] == "ok"
        await srv.stop()

    asyncio.run(scenario())

"""The observability subsystem: events, metrics, tracing, profiling."""

import io
import json

import numpy as np
import pytest

from repro.graph import planted_partition
from repro.nn import Tensor
from repro.obs import (events, metrics, profile as op_profile, trace)
from repro.obs.events import EventBus, JsonlSink, MemorySink
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import OpProfiler, profile_ops
from repro.obs.trace import Tracer


@pytest.fixture(scope="module")
def small_graph():
    rng = np.random.default_rng(0)
    return planted_partition(3, 15, 0.6, 0.03, rng, num_features=12)


# --------------------------------------------------------------------- #
# Event bus                                                             #
# --------------------------------------------------------------------- #
class TestEventBus:
    def test_emit_without_sinks_is_noop(self):
        bus = EventBus()
        assert not bus.enabled
        bus.emit("anything", x=1)  # must not raise or allocate records

    def test_fanout_and_unsubscribe(self):
        bus = EventBus()
        a, b = MemorySink(), MemorySink()
        unsub_a = bus.subscribe(a)
        bus.subscribe(b)
        bus.emit("tick", n=1)
        unsub_a()
        unsub_a()  # idempotent
        bus.emit("tick", n=2)
        assert [r["n"] for r in a.records] == [1]
        assert [r["n"] for r in b.records] == [1, 2]

    def test_memory_sink_by_kind(self):
        bus = EventBus()
        sink = MemorySink()
        bus.subscribe(sink)
        bus.emit("epoch", epoch=0)
        bus.emit("denoise", dropped=3)
        assert len(sink.by_kind("epoch")) == 1
        assert sink.by_kind("denoise")[0]["dropped"] == 3

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        with JsonlSink(path) as sink:
            bus.subscribe(sink)
            bus.emit("epoch", epoch=0, loss=1.25,
                     arr=np.array([1.0, 2.0]), npint=np.int64(7))
            bus.emit("epoch", epoch=1, loss=0.5)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 2 and sink.count == 2
        assert records[0]["kind"] == "epoch"
        assert records[0]["arr"] == [1.0, 2.0]
        assert records[0]["npint"] == 7
        assert all("ts" in r for r in records)

    def test_jsonl_sink_deterministic_without_timestamps(self):
        buf = io.StringIO()
        sink = JsonlSink(buf, timestamps=False)
        sink({"kind": "epoch", "epoch": 0})
        assert json.loads(buf.getvalue()) == {"kind": "epoch", "epoch": 0}


# --------------------------------------------------------------------- #
# Metrics registry                                                      #
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("edges").inc()
        reg.counter("edges").inc(4)
        assert reg.counter("edges").value == 5
        with pytest.raises(ValueError):
            reg.counter("edges").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("ratio").set(0.25)
        reg.gauge("ratio").add(0.5)
        assert reg.gauge("ratio").value == pytest.approx(0.75)

    def test_timer_accumulates(self):
        reg = MetricsRegistry()
        t = reg.timer("work")
        for _ in range(3):
            with t.time():
                pass
        assert t.count == 3
        assert t.total_s >= 0.0
        assert t.mean_s == pytest.approx(t.total_s / 3)

    def test_timer_stop_without_start(self):
        with pytest.raises(RuntimeError):
            MetricsRegistry().timer("t").stop()

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        with reg.timer("b").time():
            pass
        snap = reg.snapshot()
        assert snap["a"] == 2
        assert snap["b"]["count"] == 1
        assert "a" in reg and len(reg) == 2
        reg.reset()
        assert len(reg) == 0


# --------------------------------------------------------------------- #
# Tracing spans                                                         #
# --------------------------------------------------------------------- #
class TestTracer:
    def test_nesting_and_aggregation(self):
        tracer = Tracer()
        with tracer.span("fit"):
            for _ in range(5):
                with tracer.span("epoch"):
                    pass
            with tracer.span("epoch"):
                pass
        fit = tracer.find("fit")
        epoch = tracer.find("fit/epoch")
        assert fit.count == 1 and epoch.count == 6
        assert fit.total_s >= epoch.total_s
        assert fit.self_s() == pytest.approx(
            fit.total_s - epoch.total_s)

    def test_slash_names_open_nested_levels(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("fit/epoch"):
                pass
        assert tracer.find("fit").count == 3
        assert tracer.find("fit/epoch").count == 3
        # both levels were timed together
        assert tracer.find("fit").total_s == pytest.approx(
            tracer.find("fit/epoch").total_s)

    def test_to_dict_and_report(self):
        tracer = Tracer()
        with tracer.span("fit"):
            with tracer.span("epoch"):
                pass
        tree = tracer.to_dict()
        assert tree["fit"]["count"] == 1
        assert tree["fit"]["children"]["epoch"]["count"] == 1
        report = tracer.report()
        assert "fit" in report and "epoch" in report and "%" in report
        assert tracer.total_seconds() == pytest.approx(
            tracer.find("fit").total_s)

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("fit"):
            pass
        tracer.reset()
        assert tracer.find("fit") is None
        assert tracer.to_dict() == {}

    def test_module_level_span_is_noop_without_tracer(self):
        assert trace.get_tracer() is None
        with trace.span("anything"):  # must not record anywhere
            pass
        assert trace.get_tracer() is None

    def test_activate_restores_previous(self):
        outer, inner = Tracer(), Tracer()
        with trace.activate(outer):
            with trace.activate(inner):
                with trace.span("x"):
                    pass
            assert trace.get_tracer() is outer
            with trace.span("y"):
                pass
        assert trace.get_tracer() is None
        assert inner.find("x") is not None and inner.find("y") is None
        assert outer.find("y") is not None

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("fit"):
                raise RuntimeError("boom")
        assert tracer.find("fit").count == 1
        assert len(tracer._stack) == 1  # back at the root


# --------------------------------------------------------------------- #
# Op profiler                                                           #
# --------------------------------------------------------------------- #
class TestOpProfiler:
    def test_forward_backward_attribution(self):
        with profile_ops() as prof:
            a = Tensor(np.ones((30, 10)), requires_grad=True)
            b = Tensor(np.ones((10, 20)), requires_grad=True)
            ((a @ b).relu().sum()).backward()
        assert prof.stats["matmul"].calls == 1
        assert prof.stats["matmul"].flops == 2 * 30 * 10 * 20
        assert prof.stats["matmul"].backward_s > 0.0
        assert prof.stats["relu"].calls == 1
        assert prof.total_seconds() == pytest.approx(
            sum(s.total_s for s in prof.stats.values()))

    def test_spmm_interception_through_layers(self, small_graph):
        from repro.core import AnECI
        with profile_ops() as prof:
            AnECI(small_graph.num_features, num_communities=3,
                  epochs=2, seed=0).fit(small_graph)
        assert prof.stats["spmm"].calls > 0
        assert prof.stats["spmm"].flops > 0

    def test_disable_restores_engine(self):
        from repro.nn.autograd import Tensor as T
        original = T.matmul
        prof = OpProfiler().enable()
        assert T.matmul is not original
        prof.disable()
        assert T.matmul is original
        import repro.nn.layers as layers
        from repro.nn import autograd
        assert layers.fused_gcn_layer is autograd.fused_gcn_layer

    def test_only_one_profiler_at_a_time(self):
        with profile_ops():
            with pytest.raises(RuntimeError):
                OpProfiler().enable()

    def test_results_bit_identical_with_profiler(self, small_graph):
        from repro.core import AnECI

        def run():
            model = AnECI(small_graph.num_features, num_communities=3,
                          epochs=4, seed=1)
            return model.fit_transform(small_graph)

        baseline = run()
        with profile_ops():
            profiled = run()
        after = run()
        np.testing.assert_array_equal(baseline, profiled)
        np.testing.assert_array_equal(baseline, after)

    def test_report_and_to_dict(self):
        with profile_ops() as prof:
            a = Tensor(np.ones((5, 5)), requires_grad=True)
            (a.exp().sum()).backward()
        text = prof.report(top=3)
        assert "exp" in text and "TOTAL" in text
        payload = prof.to_dict()
        assert payload["total_s"] == pytest.approx(prof.total_seconds())
        assert {op["op"] for op in payload["ops"]} == set(prof.stats)


# --------------------------------------------------------------------- #
# Instrumented hot paths                                                #
# --------------------------------------------------------------------- #
class TestInstrumentation:
    def test_callback_sees_every_restart(self, small_graph):
        """Regression: restarts 1..k used to bypass the callback."""
        from repro.core import AnECI
        seen: list[tuple[int, int]] = []
        model = AnECI(small_graph.num_features, num_communities=3,
                      epochs=3, seed=0, n_init=3)
        model.fit(small_graph,
                  callback=lambda e, m, r: seen.append((r["restart"], e)))
        assert sorted({restart for restart, _ in seen}) == [0, 1, 2]
        assert len(seen) == 9  # 3 restarts x 3 epochs

    def test_restart_events_emitted(self, small_graph):
        from repro.core import AnECI
        sink = MemorySink()
        unsubscribe = events.BUS.subscribe(sink)
        try:
            AnECI(small_graph.num_features, num_communities=3,
                  epochs=2, seed=0, n_init=2).fit(small_graph)
        finally:
            unsubscribe()
        restarts = sink.by_kind("restart")
        assert [r["restart"] for r in restarts] == [0, 1]
        assert all("final_modularity" in r for r in restarts)
        epochs = sink.by_kind("epoch")
        assert {r["restart"] for r in epochs} == {0, 1}

    def test_denoise_event_and_counters(self, small_graph):
        from repro.core import AnECIPlus
        metrics.registry().reset()
        sink = MemorySink()
        unsubscribe = events.BUS.subscribe(sink)
        try:
            AnECIPlus(small_graph.num_features, num_communities=3,
                      epochs=2, seed=0).fit(small_graph)
        finally:
            unsubscribe()
        (record,) = sink.by_kind("denoise")
        assert record["edges_scored"] == len(small_graph.edge_list())
        assert record["edges_dropped"] >= 0
        snap = metrics.registry().snapshot()
        assert snap["denoise.edges_scored"] == record["edges_scored"]
        assert snap["denoise.edges_dropped"] == record["edges_dropped"]

    def test_fit_spans_cover_epochs_and_proximity(self, small_graph):
        from repro.core import AnECI, workspace_cache
        workspace_cache().clear()  # force the traced fit to rebuild
        tracer = Tracer()
        with trace.activate(tracer):
            AnECI(small_graph.num_features, num_communities=3,
                  epochs=4, seed=0).fit(small_graph)
        assert tracer.find("fit").count == 1
        assert tracer.find("fit/epoch").count == 4
        assert tracer.find(
            "fit/setup/workspace/build/proximity/order1") is not None

    def test_denoise_spans(self, small_graph):
        from repro.core import AnECIPlus
        tracer = Tracer()
        with trace.activate(tracer):
            AnECIPlus(small_graph.num_features, num_communities=3,
                      epochs=2, seed=0).fit(small_graph)
        for path in ("denoise/stage1/fit", "denoise/score",
                     "denoise/stage2/fit"):
            assert tracer.find(path) is not None, path

    def test_runner_emits_experiment_event(self, small_graph):
        from repro.experiments import run_timing
        sink = MemorySink()
        unsubscribe = events.BUS.subscribe(sink)
        try:
            result = run_timing(small_graph)
        finally:
            unsubscribe()
        (record,) = sink.by_kind("experiment")
        assert record["name"] == result.name == "timing"
        assert record["duration_s"] == result.duration_s
        assert "AnECI" in record["methods"]

    def test_history_records_carry_restart_key(self, small_graph):
        from repro.core import AnECI
        model = AnECI(small_graph.num_features, num_communities=3,
                      epochs=2, seed=0).fit(small_graph)
        assert all(r["restart"] == 0 for r in model.history)

"""Run ledger, telemetry exporters and automatic regression detection."""

import io
import json
import os
import re
import warnings

import numpy as np
import pytest

from repro.core import AnECI
from repro.graph import planted_partition
from repro.obs import events, metrics, trace
from repro.obs import export, regress, store
from repro.obs.events import JsonlSink, MemorySink
from repro.obs.store import RunLedger
from repro.obs.trace import Tracer
from repro.resilience.checkpoint import config_fingerprint, run_key


@pytest.fixture(scope="module")
def small_graph():
    rng = np.random.default_rng(0)
    return planted_partition(3, 15, 0.6, 0.03, rng, num_features=12)


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    """Point REPRO_RUN_DIR at a fresh ledger directory."""
    directory = str(tmp_path / "runs")
    monkeypatch.setenv("REPRO_RUN_DIR", directory)
    yield directory
    store._LEDGERS.clear()


def _entry(key="fit:abc", seq_free=True, **fields):
    base = {"kind": "fit", "key": key, "ts": 1.0, "elapsed_s": 1.0,
            "final": {"modularity": 0.5},
            "history": [{"epoch": 0, "loss": 1.0}]}
    base.update(fields)
    return base


# --------------------------------------------------------------------- #
# Ledger storage                                                        #
# --------------------------------------------------------------------- #
class TestRunLedger:
    def test_append_assigns_monotonic_seq(self, tmp_path):
        ledger = RunLedger(tmp_path)
        seqs = [ledger.append(_entry())["seq"] for _ in range(3)]
        assert seqs == [0, 1, 2]
        assert len(ledger) == 3

    def test_readers(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i in range(3):
            ledger.append(_entry(final={"modularity": 0.5 + i}))
        ledger.append(_entry(key="bench:train", final={"s": 1.0}))
        assert ledger.keys() == ["bench:train", "fit:abc"]
        assert len(ledger.summaries("fit:abc")) == 3
        assert ledger.latest("fit:abc")["final"]["modularity"] == 2.5
        assert ledger.previous("fit:abc")["final"]["modularity"] == 1.5
        assert ledger.previous("bench:train") is None
        assert ledger.latest("missing") is None
        entries = ledger.entries()
        assert [e["seq"] for e in entries] == [0, 1, 2, 3]

    def test_resolve_key(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry(key="fit:abc123"))
        ledger.append(_entry(key="denoise:abc123"))
        assert ledger.resolve_key("fit:abc123") == "fit:abc123"
        assert ledger.resolve_key("denoise") == "denoise:abc123"
        with pytest.raises(KeyError, match="ambiguous"):
            ledger.resolve_key("abc123")
        with pytest.raises(KeyError, match="no run key"):
            ledger.resolve_key("zzz")

    def test_segment_rotation(self, tmp_path):
        ledger = RunLedger(tmp_path, segment_bytes=200)
        for _ in range(4):
            ledger.append(_entry())
        segments = ledger._segment_files()
        assert len(segments) > 1
        # Entries remain readable across the rotation boundary.
        assert [e["seq"] for e in ledger.entries()] == [0, 1, 2, 3]

    def test_summary_fields(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry(error="ValueError", regressions=[{"x": 1}]))
        (summary,) = ledger.summaries()
        assert summary["kind"] == "fit"
        assert summary["error"] == "ValueError"
        assert summary["regressions"] == 1
        assert summary["final"] == {"modularity": 0.5}

    def test_append_emits_event_and_counter(self, tmp_path):
        registry = metrics.registry()
        registry.reset()
        sink = MemorySink()
        unsubscribe = events.BUS.subscribe(sink)
        try:
            RunLedger(tmp_path).append(_entry())
        finally:
            unsubscribe()
        assert registry.counter("obs.runs_recorded").value == 1
        (record,) = sink.by_kind("run_recorded")
        assert record["key"] == "fit:abc"
        registry.reset()


class TestCrashRecovery:
    def test_rebuild_after_index_loss(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for _ in range(3):
            ledger.append(_entry())
        os.remove(ledger.index_path)
        assert [e["seq"] for e in RunLedger(tmp_path).entries()] == [0, 1, 2]

    def test_unindexed_line_recovered(self, tmp_path):
        """A line fsynced before the crash but never indexed is found."""
        ledger = RunLedger(tmp_path)
        ledger.append(_entry())
        segment = ledger._segment_files()[-1]
        orphan = dict(_entry(key="fit:orphan"), seq=1)
        with open(os.path.join(str(tmp_path), segment), "ab") as fh:
            fh.write((json.dumps(orphan) + "\n").encode())
        reloaded = RunLedger(tmp_path)
        assert "fit:orphan" in reloaded.keys()
        # seq keeps rising past the recovered line
        assert reloaded.append(_entry())["seq"] == 2

    def test_torn_tail_skipped_silently(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry())
        segment = ledger._segment_files()[-1]
        with open(os.path.join(str(tmp_path), segment), "ab") as fh:
            fh.write(b'{"kind": "fit", "key"')  # crash mid-append
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = RunLedger(tmp_path)
            assert len(reloaded) == 1
            # The torn tail does not force a rebuild on every load.
            assert len(RunLedger(tmp_path)) == 1
        assert reloaded.append(_entry())["seq"] == 1

    def test_corrupt_middle_line_warns(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry())
        segment = ledger._segment_files()[-1]
        path = os.path.join(str(tmp_path), segment)
        with open(path, "ab") as fh:
            fh.write(b"garbage not json\n")
            fh.write((json.dumps(dict(_entry(), seq=1)) + "\n").encode())
        os.remove(ledger.index_path)
        reloaded = RunLedger(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt ledger line"):
            entries = reloaded.entries()
        assert [e["seq"] for e in entries] == [0, 1]


# --------------------------------------------------------------------- #
# Recording hooks                                                       #
# --------------------------------------------------------------------- #
class TestCaptureRun:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
        assert not store.enabled()
        assert store.get_ledger() is None
        with store.capture_run("fit", "fit:x") as run:
            assert run is None
        assert store.record("fit", "fit:x") is None

    def test_capture_records_deltas(self, run_dir):
        registry = metrics.registry()
        before = registry.counter("test.work").value
        with store.capture_run("fit", "fit:x", model="aneci") as run:
            registry.counter("test.work").inc(3)
            with trace.span("fit"):
                with trace.span("epoch"):
                    pass
            run["final"] = {"modularity": 0.4}
        entry = store.get_ledger().latest("fit:x")
        assert entry["kind"] == "fit"
        assert entry["model"] == "aneci"
        assert entry["metrics"]["test.work"] == 3
        assert entry["spans"]["fit"]["count"] == 1
        assert entry["spans"]["fit"]["children"]["epoch"]["count"] == 1
        assert entry["elapsed_s"] >= 0
        assert entry["ts"] > 0 and entry["mono"] > 0
        assert entry["regressions"] == []
        assert trace.get_tracer() is None  # own tracer uninstalled
        assert registry.counter("test.work").value == before + 3

    def test_capture_under_outer_tracer_uses_deltas(self, run_dir):
        tracer = Tracer()
        with trace.activate(tracer):
            with trace.span("outer"):
                pass
            with store.capture_run("fit", "fit:x") as run:
                with trace.span("fit"):
                    pass
        entry = store.get_ledger().latest("fit:x")
        # Only the spans recorded inside the window are attributed.
        assert set(entry["spans"]) == {"fit"}
        assert trace.get_tracer() is None

    def test_error_recorded_and_reraised(self, run_dir):
        with pytest.raises(ValueError):
            with store.capture_run("fit", "fit:x"):
                raise ValueError("boom")
        entry = store.get_ledger().latest("fit:x")
        assert entry["error"] == "ValueError"
        assert entry["regressions"] == []

    def test_git_field_present(self, run_dir):
        store.record("fit", "fit:x")
        entry = store.get_ledger().latest("fit:x")
        assert "git" in entry  # a string inside a checkout, else None


class TestFitIntegration:
    def test_fit_records_entry(self, run_dir, small_graph):
        model = AnECI(small_graph.num_features, num_communities=3,
                      epochs=4, seed=1)
        model.fit(small_graph)
        key = f"fit:{run_key(small_graph, model.config)}"
        entry = store.get_ledger().latest(key)
        assert entry["kind"] == "fit"
        assert entry["epochs"] == 4
        assert [r["epoch"] for r in entry["history"]] == [0, 1, 2, 3]
        assert entry["final"]["modularity"] == pytest.approx(
            model.history[-1]["modularity"])
        assert entry["final"]["selection_modularity"] == pytest.approx(
            model.selection_modularity)
        assert entry["config"] == config_fingerprint(model.config)
        assert entry["dtype"] == model.config.dtype
        from repro.parallel import resolve_workers
        assert entry["workers"] == resolve_workers(None)
        assert entry["graph"]["nodes"] == small_graph.num_nodes
        assert entry["spans"]["fit"]["children"]["epoch"]["count"] == 4
        assert entry["metrics"]["aneci.epochs"] == 4

    def test_identical_rerun_is_silent(self, run_dir, small_graph):
        def fit():
            AnECI(small_graph.num_features, num_communities=3,
                  epochs=4, seed=1).fit(small_graph)

        fit()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit()
        key = store.get_ledger().keys()[0]
        assert len(store.get_ledger().summaries(key)) == 2
        assert store.get_ledger().latest(key)["regressions"] == []

    def test_fit_entry_matches_unledgered_fit(self, run_dir, small_graph):
        """Recording must not change the numbers (observer effect)."""
        recorded = AnECI(small_graph.num_features, num_communities=3,
                         epochs=4, seed=1).fit(small_graph)
        os.environ.pop("REPRO_RUN_DIR")
        plain = AnECI(small_graph.num_features, num_communities=3,
                      epochs=4, seed=1).fit(small_graph)
        assert recorded.history == plain.history

    def test_serial_and_parallel_entries_agree(self, run_dir, small_graph):
        def fit(workers):
            model = AnECI(small_graph.num_features, num_communities=3,
                          epochs=3, n_init=2, seed=1)
            model.fit(small_graph, workers=workers)
            return model

        serial = fit(1)
        with warnings.catch_warnings():
            # pool startup can trip the epoch-time check on a tiny graph
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = fit(2)
        key = f"fit:{run_key(small_graph, serial.config)}"
        first, second = store.get_ledger().entries(key)
        for field in ("key", "kind", "history", "final", "config",
                      "dtype", "epochs", "graph"):
            assert first[field] == second[field], field
        assert (first["workers"], second["workers"]) == (1, 2)
        # The model-side results are bit-identical too.
        assert serial.history == parallel.history
        # The fit span subtree exports the same epoch structure.
        assert (second["spans"]["fit"]["children"]["epoch"]["count"]
                == first["spans"]["fit"]["children"]["epoch"]["count"])

    def test_denoise_records_entry(self, run_dir, small_graph):
        from repro.core import AnECIPlus
        model = AnECIPlus(small_graph.num_features, num_communities=3,
                          epochs=3, seed=1)
        model.fit(small_graph)
        ledger = store.get_ledger()
        denoise_keys = [k for k in ledger.keys() if k.startswith("denoise:")]
        assert len(denoise_keys) == 1
        entry = ledger.latest(denoise_keys[0])
        assert entry["final"]["drop_ratio"] == pytest.approx(
            model.denoise_result.drop_ratio)
        assert entry["final"]["edges_dropped"] == \
            model.denoise_result.num_dropped
        # The two stage fits record their own fit: entries.
        fit_keys = [k for k in ledger.keys() if k.startswith("fit:")]
        assert len(fit_keys) >= 1

    def test_experiment_records_entry(self, run_dir, small_graph):
        from repro.experiments import run_timing
        result = run_timing(small_graph)
        entry = store.get_ledger().latest(
            f"exp:{result.name}:{small_graph.name}")
        assert entry["kind"] == "experiment"
        assert entry["elapsed_s"] == pytest.approx(result.duration_s)
        # every numeric cell lands flattened in final
        some_method = sorted(result.rows)[0]
        some_metric = sorted(result.rows[some_method])[0]
        assert entry["final"][f"{some_method}.{some_metric}"] == \
            pytest.approx(result.rows[some_method][some_metric])


# --------------------------------------------------------------------- #
# Regression detection                                                  #
# --------------------------------------------------------------------- #
class TestRegress:
    def _base(self, **over):
        entry = {"key": "fit:x", "elapsed_s": 1.0, "epochs": 10,
                 "final": {"modularity": 0.6, "loss": 0.5},
                 "history": [{"loss": 1.0 - 0.05 * i} for i in range(10)]}
        entry.update(over)
        return entry

    def test_identical_runs_are_clean(self):
        assert regress.detect(self._base(), self._base()) == []

    def test_metric_drop_flagged_directionally(self):
        worse = self._base(final={"modularity": 0.5, "loss": 0.5})
        (finding,) = regress.detect(worse, self._base())
        assert finding["check"] == "final_metric"
        assert finding["field"] == "modularity"
        # moving the same metric *up* is fine
        better = self._base(final={"modularity": 0.7, "loss": 0.5})
        assert regress.detect(better, self._base()) == []
        # loss is lower-better: a rise is flagged
        worse_loss = self._base(final={"modularity": 0.6, "loss": 0.6})
        (finding,) = regress.detect(worse_loss, self._base())
        assert finding["field"] == "loss"

    def test_loss_curve_divergence_flagged(self):
        diverged = self._base(
            history=[{"loss": 1.0 - 0.05 * i + (0.01 if i == 5 else 0.0)}
                     for i in range(10)])
        findings = regress.detect(diverged, self._base())
        assert any(f["check"] == "loss_curve" for f in findings)

    def test_slowdown_flagged_and_min_seconds_exempts(self):
        slow = self._base(elapsed_s=3.0)
        (finding,) = regress.detect(slow, self._base())
        assert finding["check"] == "epoch_time"
        assert finding["ratio"] == pytest.approx(3.0)
        # micro-runs are exempt from timing checks
        tiny = regress.detect(self._base(elapsed_s=0.03),
                              self._base(elapsed_s=0.01))
        assert tiny == []

    def test_epoch_seconds_prefers_spans(self):
        entry = self._base(spans={"fit": {
            "total_s": 2.0, "count": 1,
            "children": {"epoch": {"total_s": 1.0, "count": 4}}}})
        assert regress.epoch_seconds(entry) == pytest.approx(0.25)
        assert regress.epoch_seconds(self._base()) == pytest.approx(0.1)

    def test_check_emits_event_counter_warning(self):
        registry = metrics.registry()
        registry.reset()
        sink = MemorySink()
        unsubscribe = events.BUS.subscribe(sink)
        try:
            with pytest.warns(RuntimeWarning, match="regressed"):
                findings = regress.check(self._base(elapsed_s=4.0),
                                         self._base())
        finally:
            unsubscribe()
        assert len(findings) == 1
        assert registry.counter("obs.regressions").value == 1
        assert sink.by_kind("regression")[0]["check"] == "epoch_time"
        registry.reset()

    def test_check_without_baseline_is_noop(self):
        assert regress.check(self._base(), None) == []

    def test_ledger_commit_flags_injected_slowdown(self, run_dir):
        store.record("fit", "fit:x", elapsed_s=1.0, epochs=10,
                     final={"modularity": 0.6},
                     history=[{"loss": 1.0}])
        with pytest.warns(RuntimeWarning, match="regressed"):
            store.record("fit", "fit:x", elapsed_s=4.0, epochs=10,
                         final={"modularity": 0.6},
                         history=[{"loss": 1.0}])
        entry = store.get_ledger().latest("fit:x")
        assert entry["regressions"][0]["check"] == "epoch_time"

    def test_compare_runs_shape(self):
        diff = regress.compare_runs(self._base(),
                                    self._base(elapsed_s=2.0))
        assert diff["final"]["modularity"]["delta"] == 0.0
        assert diff["elapsed_s"]["ratio"] == pytest.approx(2.0)
        assert diff["curve"]["compared"] == 10
        assert diff["curve"]["max_abs_diff"] == 0.0

    def test_bench_findings_median_baseline(self):
        history = [{"case_a": 1.0}, {"case_a": 1.1}, {"case_a": 0.9}]
        (finding,) = regress.bench_findings({"case_a": 1.5}, history)
        assert finding["check"] == "bench_time"
        assert finding["baseline"] == 1.0  # median, not the noisy 1.1
        assert regress.bench_findings({"case_a": 1.2}, history) == []
        assert regress.bench_findings({"case_new": 9.0}, history) == []


# --------------------------------------------------------------------- #
# Exporters                                                             #
# --------------------------------------------------------------------- #
SPANS = {
    "fit": {"total_s": 1.0, "count": 2, "children": {
        "epoch": {"total_s": 0.6, "count": 20},
        "setup": {"total_s": 0.3, "count": 2},
    }},
}


class TestChromeTrace:
    def test_schema(self):
        payload = export.chrome_trace(SPANS)
        assert payload["displayTimeUnit"] == "ms"
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in metadata} == {"process_name",
                                                "thread_name"}
        assert [e["args"]["path"] for e in slices] == [
            "fit", "fit/epoch", "fit/setup"]
        for event in slices:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur",
                                  "pid", "tid", "args"}
            assert event["dur"] >= 1
        # sorted by ts, children inside the parent interval
        ts = [e["ts"] for e in slices]
        assert ts == sorted(ts)
        fit, epoch, setup = slices
        assert epoch["ts"] + epoch["dur"] <= fit["ts"] + fit["dur"]
        assert setup["ts"] + setup["dur"] <= fit["ts"] + fit["dur"]

    def test_span_ids_are_stable_path_digests(self):
        (fit, epoch, _) = [e for e in export.chrome_trace_events(SPANS)
                           if e["ph"] == "X"]
        assert fit["args"]["span_id"] == export.span_id("fit")
        assert fit["args"]["parent_id"] is None
        assert epoch["args"]["parent_id"] == export.span_id("fit")
        assert re.fullmatch(r"[0-9a-f]{8}", epoch["args"]["span_id"])

    def test_children_scaled_into_parent_budget(self):
        # Merged worker time can exceed the parent's wall time.
        spans = {"fit": {"total_s": 0.001, "count": 1, "children": {
            "a": {"total_s": 0.01, "count": 1},
            "b": {"total_s": 0.01, "count": 1}}}}
        slices = [e for e in export.chrome_trace_events(spans)
                  if e["ph"] == "X"]
        parent = slices[0]
        for child in slices[1:]:
            assert child["ts"] >= parent["ts"]
            assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]

    def test_merged_worker_trees_export_identical_bytes(self, tmp_path):
        """Serial recording and worker-merge produce the same bytes."""
        from repro.parallel import ChildTelemetry
        worker_a = {"fit": {"total_s": 0.4, "count": 1, "children": {
            "epoch": {"total_s": 0.3, "count": 10}}}}
        worker_b = {"fit": {"total_s": 0.6, "count": 1, "children": {
            "epoch": {"total_s": 0.3, "count": 10}}}}
        merged = Tracer()
        with trace.activate(merged):
            ChildTelemetry(spans=worker_a, task=0).replay()
            ChildTelemetry(spans=worker_b, task=1).replay()
        serial = {"fit": {"total_s": 1.0, "count": 2, "children": {
            "epoch": {"total_s": 0.6, "count": 20}}}}
        a = export.write_chrome_trace(str(tmp_path / "a.json"),
                                      merged.to_dict())
        b = export.write_chrome_trace(str(tmp_path / "b.json"), serial)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_empty_tree(self):
        payload = export.chrome_trace({})
        assert [e["ph"] for e in payload["traceEvents"]] == ["M", "M"]


class TestPrometheus:
    SNAPSHOT = {
        "aneci.epochs": 12,
        "parallel.workers": 2.0,
        "memory.peak_bytes": 1048576.5,
        "proximity.order2": {"total_s": 1.5, "count": 3, "mean_s": 0.5},
    }

    def test_every_line_parses(self):
        text = export.prometheus_text(self.SNAPSHOT)
        assert text.endswith("\n")
        comment = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
        for line in text.rstrip("\n").split("\n"):
            if line.startswith("#"):
                assert comment.match(line), line
            else:
                name, value = line.split(" ", 1)
                assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name)
                float(value)  # parses as a number

    def test_classification(self):
        text = export.prometheus_text(self.SNAPSHOT)
        assert "# TYPE repro_aneci_epochs_total counter" in text
        assert "repro_aneci_epochs_total 12" in text
        # integer-valued gauges stay gauges (floats in the snapshot)
        assert "# TYPE repro_parallel_workers gauge" in text
        assert "repro_parallel_workers 2" in text
        assert "# TYPE repro_proximity_order2_seconds summary" in text
        assert "repro_proximity_order2_seconds_sum 1.5" in text
        assert "repro_proximity_order2_seconds_count 3" in text

    def test_values_round_trip(self):
        text = export.prometheus_text(self.SNAPSHOT)
        values = {line.split(" ")[0]: float(line.split(" ")[1])
                  for line in text.rstrip().split("\n")
                  if not line.startswith("#")}
        assert values["repro_memory_peak_bytes"] == 1048576.5
        assert values["repro_aneci_epochs_total"] == 12

    def test_nonfinite_and_empty(self):
        text = export.prometheus_text({"bad.gauge": float("nan"),
                                       "inf.gauge": float("inf")})
        assert "repro_bad_gauge NaN" in text
        assert "repro_inf_gauge +Inf" in text
        assert export.prometheus_text({}) == ""

    def test_namespace_and_sanitisation(self):
        text = export.prometheus_text({"weird-name!x": 1}, namespace="")
        assert "weird_name_x_total 1" in text


# --------------------------------------------------------------------- #
# Delta helpers                                                         #
# --------------------------------------------------------------------- #
class TestDeltas:
    def test_span_delta(self):
        before = {"fit": {"total_s": 1.0, "count": 1, "children": {
            "epoch": {"total_s": 0.5, "count": 5}}}}
        after = {"fit": {"total_s": 3.0, "count": 2, "children": {
            "epoch": {"total_s": 1.5, "count": 15}}},
            "other": {"total_s": 0.1, "count": 1}}
        delta = store.span_delta(after, before)
        assert delta["fit"]["count"] == 1
        assert delta["fit"]["total_s"] == pytest.approx(2.0)
        assert delta["fit"]["children"]["epoch"]["count"] == 10
        assert delta["other"]["count"] == 1
        assert store.span_delta(before, before) == {}

    def test_snapshot_delta(self):
        before = {"c": 2, "t": {"total_s": 1.0, "count": 2},
                  "g": 1.0, "same": 5}
        after = {"c": 5, "t": {"total_s": 2.5, "count": 3},
                 "g": 4.0, "same": 5, "new": 1}
        delta = store.snapshot_delta(after, before)
        assert delta["c"] == 3
        assert delta["t"] == {"total_s": 1.5, "count": 1, "mean_s": 1.5}
        assert delta["g"] == 4.0  # gauges report the final value
        assert "same" not in delta
        assert delta["new"] == 1

    def test_integer_valued_gauge_is_not_a_counter(self):
        # parallel.workers is a float gauge that often holds 2.0
        delta = store.snapshot_delta({"parallel.workers": 2.0},
                                     {"parallel.workers": 2.0})
        assert delta == {}
        delta = store.snapshot_delta({"parallel.workers": 4.0},
                                     {"parallel.workers": 2.0})
        assert delta["parallel.workers"] == 4.0


# --------------------------------------------------------------------- #
# Events satellites                                                     #
# --------------------------------------------------------------------- #
class TestJsonlSinkHardening:
    def test_wall_and_monotonic_stamps(self):
        buffer = io.StringIO()
        JsonlSink(buffer)({"kind": "epoch", "loss": 1.0})
        record = json.loads(buffer.getvalue())
        assert record["ts"] > 1e9  # wall clock
        assert record["mono"] >= 0  # monotonic clock
        assert record["kind"] == "epoch"

    def test_flushes_after_every_record(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink({"kind": "epoch"})
        # Readable before close: line-buffered semantics.
        assert json.loads(path.read_text())["kind"] == "epoch"
        sink.close()

    def test_closed_stream_tolerated(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink({"kind": "a"})
        buffer.close()
        sink({"kind": "b"})  # must not raise
        assert sink.count == 1
        assert sink.dropped == 1
        sink.close()  # idempotent even with a dead stream
        sink.close()


class TestChildTelemetryIdentity:
    def test_task_and_attempt_fields(self):
        from repro.parallel import ChildTelemetry
        capture = ChildTelemetry(spans={"fit": {"total_s": 1.0, "count": 1}},
                                 task=3, attempt=1)
        assert capture.task == 3
        assert capture.attempt == 1
        assert ChildTelemetry().task is None
        assert ChildTelemetry().attempt == 0


# --------------------------------------------------------------------- #
# CLI                                                                   #
# --------------------------------------------------------------------- #
class TestObsCli:
    @pytest.fixture(autouse=True)
    def _clean(self):
        yield
        assert trace.get_tracer() is None
        assert not events.BUS.enabled
        store._LEDGERS.clear()

    @pytest.fixture
    def recorded(self, tmp_path, monkeypatch):
        """Two recorded fits (differing seeds → same key, two entries)."""
        from repro.cli import main
        directory = str(tmp_path / "runs")
        monkeypatch.setenv("REPRO_RUN_DIR", directory)
        for _ in range(2):
            assert main(["embed", "--dataset", "cora", "--scale", "0.05",
                         "--method", "aneci", "--epochs", "4",
                         "--out", str(tmp_path / "z.npy")]) == 0
        return directory

    def test_run_dir_flag_sets_env(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        # setenv-then-delenv (not bare delenv) so the value `main` writes
        # into os.environ is rolled back even when the var started absent
        monkeypatch.setenv("REPRO_RUN_DIR", "placeholder")
        monkeypatch.delenv("REPRO_RUN_DIR")
        directory = str(tmp_path / "flag-runs")
        assert main(["--run-dir", directory, "embed", "--dataset", "cora",
                     "--scale", "0.05", "--method", "aneci",
                     "--epochs", "3",
                     "--out", str(tmp_path / "z.npy")]) == 0
        assert len(RunLedger(directory)) == 1

    def test_list_and_runs_alias(self, recorded, capsys):
        from repro.cli import main
        assert main(["obs", "list"]) == 0
        direct = capsys.readouterr().out
        assert main(["obs", "runs", "list"]) == 0
        alias = capsys.readouterr().out
        assert direct == alias
        assert "fit:" in direct
        assert direct.count("\n") == 3  # header + 2 entries

    def test_show(self, recorded, capsys):
        from repro.cli import main
        assert main(["obs", "show", "fit"]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["kind"] == "fit"
        assert entry["seq"] == 1
        assert main(["obs", "show", "fit", "--seq", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["seq"] == 0

    def test_diff_text_and_json(self, recorded, capsys):
        from repro.cli import main
        assert main(["obs", "diff", "fit"]) == 0
        out = capsys.readouterr().out
        assert "seq 0 (baseline) vs seq 1" in out
        assert "no regressions detected" in out
        assert main(["obs", "diff", "fit", "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["a"] == 0 and diff["b"] == 1
        assert diff["findings"] == []
        assert diff["diff"]["curve"]["max_abs_diff"] == 0.0

    def test_export_files_parse(self, recorded, tmp_path, capsys):
        from repro.cli import main
        out_dir = tmp_path / "export"
        assert main(["obs", "export", "fit", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        (trace_file,) = out_dir.glob("*.trace.json")
        (prom_file,) = out_dir.glob("*.prom")
        payload = json.loads(trace_file.read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])
        for line in prom_file.read_text().rstrip().split("\n"):
            assert line.startswith("#") or len(line.split(" ")) == 2

    def test_tail(self, recorded, capsys):
        from repro.cli import main
        assert main(["obs", "tail", "-n", "1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["seq"] == 1

    def test_regress_clean_and_single_entry(self, run_dir, capsys,
                                            monkeypatch):
        from repro.cli import main
        # Two copies of one fixed entry: a clean comparison that reads no
        # clock, so a loaded host cannot turn it into a slowdown.
        ledger = RunLedger(run_dir)
        entry = _entry(elapsed_s=2.0, history=[
            {"epoch": epoch, "loss": 1.0 - 0.1 * epoch}
            for epoch in range(4)])
        for _ in range(2):
            ledger.append(dict(entry))
        assert main(["obs", "regress", "fit", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "loss curve: 4 shared epochs" in out
        assert "no regressions" in out
        # a fresh ledger with one entry has nothing to compare
        lone = RunLedger(os.environ["REPRO_RUN_DIR"] + "-lone")
        lone.append(_entry())
        monkeypatch.setenv("REPRO_RUN_DIR", lone.directory)
        assert main(["obs", "diff", "fit"]) == 2

    def test_regress_strict_flags_slowdown(self, recorded, capsys):
        from repro.cli import main
        ledger = RunLedger(os.environ["REPRO_RUN_DIR"])
        slow = dict(ledger.latest(ledger.keys()[0]))
        slow.pop("seq")
        slow["elapsed_s"] = (slow.get("elapsed_s") or 1.0) * 10 + 1.0
        slow["spans"] = {}  # force the elapsed_s fallback
        ledger.append(slow)
        assert main(["obs", "regress", "fit", "--strict"]) == 3
        assert "regression finding" in capsys.readouterr().out

    def test_unknown_key_errors(self, recorded):
        from repro.cli import main
        with pytest.raises(KeyError):
            main(["obs", "show", "zzz"])


# --------------------------------------------------------------------- #
# Benchmark harness + bench_compare                                     #
# --------------------------------------------------------------------- #
class TestBenchLedger:
    def test_bench_compare_ledger_judgement(self, tmp_path):
        import subprocess
        import sys as _sys
        payload = {"benchmark": "train", "cases": [
            {"case": "cora_fit", "after_s": 1.0}]}
        current = tmp_path / "cur.json"
        current.write_text(json.dumps(payload))
        ledger_dir = tmp_path / "ledger"
        script = os.path.join(os.path.dirname(__file__), os.pardir,
                              "tools", "bench_compare.py")

        def run():
            return subprocess.run(
                [_sys.executable, script, str(tmp_path / "missing.json"),
                 str(current), "--ledger", str(ledger_dir), "--warn-only"],
                capture_output=True, text=True)

        first = run()
        assert first.returncode == 0
        assert "0 prior run(s)" in first.stdout
        payload["cases"][0]["after_s"] = 1.6
        current.write_text(json.dumps(payload))
        second = run()
        assert second.returncode == 0  # warn-only
        assert "slowed 1.60x" in second.stdout
        # both runs were recorded under the benchmark key
        assert len(RunLedger(str(ledger_dir)).summaries("bench:train")) == 2

    def test_harness_records_before_reset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
        monkeypatch.syspath_prepend(
            os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))
        import _harness
        monkeypatch.setattr(_harness, "RESULTS_DIR", tmp_path / "results")
        with trace.activate(_harness.TRACER):
            with trace.span("fit"):
                pass
            _harness.save_results("unit_bench", {"rows": {"m": {"acc": 1.0}}})
        store._LEDGERS.clear()
        entry = RunLedger(str(tmp_path / "runs")).latest("bench:unit_bench")
        assert entry["kind"] == "benchmark"
        assert entry["final"] == {"rows.m.acc": 1.0}
        assert "fit" in entry["spans"]  # captured before the tracer reset
        assert _harness.TRACER.to_dict() == {}  # reset still happened

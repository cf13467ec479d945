"""Unified telemetry plane: tracer, metrics registry, exporters, threading.

The contract under test, layer by layer:

* spans nest correctly within a process (thread-local parent stacks) and
  across processes (worker spans re-parent under the coordinator's
  dispatch span, all under one ``run_id``);
* the metrics registry's ``ops.*`` counters equal the legacy
  ``ApproachStats.op_counts`` op-for-op (§IV accounting has one source of
  truth, two views);
* ``telemetry="off"`` is a true no-op: bit-identical results, no
  telemetry keys in the stats extras;
* both trace formats (JSON-lines, Chrome trace-event) round-trip through
  :func:`repro.telemetry.load_trace` and validate against the Perfetto
  schema.
"""

from __future__ import annotations

import json

import pytest

from repro.core import EpistasisDetector
from repro.datasets import PlantedInteraction, SyntheticConfig, generate_dataset
from repro.distributed import shutdown_fleets
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    check_telemetry_mode,
    current_run,
    finish_run,
    last_run,
    load_trace,
    new_run_id,
    resolve_telemetry_mode,
    start_run,
    summarize_spans,
    write_trace,
)

PLANTED = (3, 11, 17)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        SyntheticConfig(
            n_snps=20,
            n_samples=256,
            interaction=PlantedInteraction(snps=PLANTED, model="xor", effect=0.9),
            seed=11,
        )
    )


def detector(**overrides):
    kwargs = dict(approach="cpu-v4", order=3, top_k=5)
    kwargs.update(overrides)
    return EpistasisDetector(**kwargs)


def top_items(result):
    return [(i.snps, i.score) for i in result.top]


class TestModes:
    def test_valid_modes(self):
        for mode in ("off", "minimal", "full"):
            assert check_telemetry_mode(mode) == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="telemetry"):
            check_telemetry_mode("loud")

    def test_config_validates_mode(self):
        with pytest.raises(ValueError):
            detector(telemetry="verbose")

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert resolve_telemetry_mode(None) == "off"
        monkeypatch.setenv("REPRO_TELEMETRY", "minimal")
        assert resolve_telemetry_mode(None) == "minimal"
        assert resolve_telemetry_mode("full") == "full"


class TestTracer:
    def test_span_nesting_same_thread(self):
        tracer = Tracer(new_run_id())
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        spans = {s.name: s for s in tracer.spans}
        assert spans["inner"].parent_id == outer.span_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].start >= spans["outer"].start
        assert spans["inner"].duration <= spans["outer"].duration

    def test_span_attrs_and_set(self):
        tracer = Tracer(new_run_id())
        with tracer.span("work", items=7) as span:
            span.set("chunks", 3)
        (recorded,) = tracer.spans
        assert recorded.attrs == {"items": 7, "chunks": 3}

    def test_cross_process_context_realigns_clock(self):
        tracer = Tracer(new_run_id())
        with tracer.span("dispatch"):
            ctx = tracer.context("full")
        remote = Tracer.from_context(ctx)
        with remote.span("remote.work"):
            pass
        (remote_span,) = remote.spans
        # The remote span re-parents under the shipped span and lands on
        # the coordinator's timeline (at/after the dispatch start).
        assert remote_span.parent_id == ctx.parent_id
        assert remote_span.run_id == tracer.run_id
        assert remote_span.start >= tracer.spans[0].start

    def test_absorb_merges_exported_spans(self):
        a = Tracer(new_run_id())
        with a.span("local"):
            pass
        b = Tracer(a.run_id)
        with b.span("elsewhere"):
            pass
        a.absorb(b.export_spans())
        assert sorted(s.name for s in a.spans) == ["elsewhere", "local"]


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("ops.AND", 5)
        reg.inc("ops.AND", 2)
        reg.set_gauge("engine.workers", 3)
        reg.observe("kernel.seconds", 0.5)
        reg.observe("kernel.seconds", 1.5)
        assert reg.counter("ops.AND") == 7
        assert reg.gauge("engine.workers") == 3
        doc = reg.as_dict()
        hist = doc["histograms"]["kernel.seconds"]
        assert hist["count"] == 2 and hist["sum"] == 2.0
        assert hist["min"] == 0.5 and hist["max"] == 1.5

    def test_prefix_view_strips_namespace(self):
        reg = MetricsRegistry()
        reg.merge_counters({"AND": 3, "POPCNT": 4}, prefix="ops.")
        reg.inc("traffic.bytes_loaded", 100)
        assert reg.counters("ops.") == {"AND": 3, "POPCNT": 4}


class TestSessionOwnership:
    def test_start_is_idempotent_while_active(self):
        run = start_run("minimal")
        try:
            assert start_run("full") is run  # join, not replace
            assert current_run() is run
        finally:
            finish_run(run)
        assert current_run() is None
        assert last_run() is run

    def test_finish_ignores_non_owner(self):
        run = start_run("minimal")
        try:
            other = object()
            finish_run(other)  # no-op: not the active run
            assert current_run() is run
        finally:
            finish_run(run)


class TestDetectTelemetry:
    def test_off_mode_is_invisible_and_bit_identical(self, dataset):
        base = detector().detect(dataset)
        off = detector(telemetry="off").detect(dataset)
        full = detector(telemetry="full").detect(dataset)
        assert top_items(base) == top_items(off) == top_items(full)
        assert "telemetry" not in off.stats.extra
        assert "telemetry" in full.stats.extra
        # run_id is always stamped so ledgers/exports correlate even off.
        assert off.stats.extra["run_id"]
        assert off.stats.extra["run_id"] != full.stats.extra["run_id"]

    def test_metrics_parity_with_op_counts(self, dataset):
        result = detector(telemetry="full").detect(dataset)
        run = last_run()
        assert run.run_id == result.stats.extra["run_id"]
        assert run.metrics.counters("ops.") == dict(result.stats.op_counts)
        assert run.metrics.counter("traffic.bytes_loaded") == (
            result.stats.bytes_loaded
        )
        assert run.metrics.counter("traffic.bytes_stored") == (
            result.stats.bytes_stored
        )

    def test_full_mode_span_hierarchy(self, dataset):
        detector(telemetry="full", n_workers=2).detect(dataset)
        spans = last_run().tracer.spans
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        assert set(by_name) >= {"detect", "plan", "device.run", "kernel"}
        (root,) = by_name["detect"]
        assert root.parent_id is None
        assert all(s.parent_id == root.span_id for s in by_name["plan"])
        assert all(s.parent_id == root.span_id for s in by_name["device.run"])
        device_ids = {s.span_id for s in by_name["device.run"]}
        assert all(s.parent_id in device_ids for s in by_name["kernel"])
        # Engine gauges landed alongside the spans.
        metrics = last_run().metrics
        assert metrics.gauge("engine.workers") == 2

    def test_minimal_mode_skips_kernel_sampling(self, dataset):
        detector(telemetry="minimal").detect(dataset)
        names = {s.name for s in last_run().tracer.spans}
        assert "detect" in names and "kernel" not in names


class TestDistributedTelemetry:
    def test_worker_spans_parent_under_coordinator(self, dataset):
        result = detector(telemetry="full").detect(dataset, workers=2)
        shutdown_fleets()
        run = last_run()
        spans = run.tracer.spans
        assert result.stats.extra["run_id"] == run.run_id
        assert {s.run_id for s in spans} == {run.run_id}
        assert len({s.pid for s in spans}) > 1  # worker processes reported
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, span.name
        (dispatch,) = [s for s in spans if s.name == "shard.dispatch"]
        shard_runs = [s for s in spans if s.name == "shard.run"]
        assert shard_runs
        assert all(s.parent_id == dispatch.span_id for s in shard_runs)
        # Exactly one root: the coordinator's detect span, covering the run.
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "detect"
        wall = max(s.start + s.duration for s in spans) - min(
            s.start for s in spans
        )
        assert roots[0].duration >= 0.95 * wall
        # Registry parity holds across the merge too.
        assert run.metrics.counters("ops.") == dict(result.stats.op_counts)

    def test_distributed_off_records_nothing(self, dataset):
        off = detector(telemetry="off").detect(dataset, workers=2)
        shutdown_fleets()
        assert "telemetry" not in off.stats.extra

    def test_checkpoint_ledger_records_run_ids(self, dataset, tmp_path):
        path = tmp_path / "ckpt.json"
        first = detector(telemetry="full").detect(
            dataset, workers=2, checkpoint=str(path)
        )
        second = detector(telemetry="full").detect(
            dataset, workers=2, checkpoint=str(path), resume=True
        )
        shutdown_fleets()
        ledger = json.loads(path.read_text())
        assert ledger["run_ids"] == [
            first.stats.extra["run_id"],
            second.stats.extra["run_id"],
        ]


class TestExporters:
    @pytest.fixture(scope="class")
    def run(self, dataset):
        detector(telemetry="full").detect(dataset, workers=2)
        shutdown_fleets()
        return last_run()

    def test_chrome_trace_schema(self, run, tmp_path):
        path = tmp_path / "trace.json"
        n = write_trace(run, str(path))
        assert n == len(run.tracer.spans)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert all(e["ph"] in ("X", "M") for e in events)
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == n
        for event in xs:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0 and event["dur"] > 0
            assert event["cat"] == "repro"
            assert event["args"]["span_id"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert any(label.startswith("repro pid=") for label in names)
        assert doc["metadata"]["run_id"] == run.run_id
        assert doc["metadata"]["host"]["schema_version"] == 1

    def test_round_trip_both_formats(self, run, tmp_path):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        write_trace(run, str(chrome))
        write_trace(run, str(jsonl))
        for path in (chrome, jsonl):
            manifest, spans, metrics = load_trace(str(path))
            assert manifest["run_id"] == run.run_id
            assert len(spans) == len(run.tracer.spans)
            assert metrics["counters"] == run.metrics.as_dict()["counters"]

    def test_summary_table(self, run):
        table = summarize_spans([s.to_dict() for s in run.tracer.spans])
        assert "shard.dispatch" in table
        assert "wall clock" in table

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(str(path))


class TestResultExports:
    def test_detection_result_to_dict_has_run_id(self, dataset):
        result = detector(telemetry="full").detect(dataset)
        assert result.to_dict()["run_id"] == result.stats.extra["run_id"]

    def test_pipeline_result_carries_run_id(self, dataset):
        from repro.pipeline import ExpandStage, ScreenStage, SearchPipeline

        pipeline = SearchPipeline(
            [ScreenStage(order=2, keep=10), ExpandStage(order=3)],
            approach="cpu-v4",
            top_k=3,
            telemetry="minimal",
        )
        result = pipeline.run(dataset)
        run = last_run()
        assert result.run_id == run.run_id
        assert result.to_dict()["run_id"] == run.run_id
        stage_spans = [
            s for s in run.tracer.spans if s.name == "pipeline.stage"
        ]
        assert [s.attrs["stage"] for s in stage_spans] == ["screen", "expand"]

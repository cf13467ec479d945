"""Unified telemetry plane: tracing, metrics, and run manifests.

``repro.telemetry`` is the zero-dependency recording substrate shared
by every execution layer:

* :class:`Tracer` — nested spans (``detect`` → ``plan`` → per-lane
  ``device.run`` → per-chunk ``kernel``; plus ``pipeline.stage``,
  ``shard.dispatch``/``shard.run``, ``shm.publish``/``shm.attach`` and
  ``backend.compile``) with one ``run_id`` per run and cross-process
  propagation so distributed workers' spans parent under the
  coordinator's run.
* :class:`MetricsRegistry` — namespaced counters/gauges/histograms
  absorbing the op/traffic counters, autotuner feedback, cache hit
  rates, fleet respawns and data-plane events.
* Exporters — JSON-lines span logs, Chrome trace-event files (Perfetto
  loadable), and the ``repro trace summary`` table.

The knob is ``telemetry="off"|"minimal"|"full"`` on
:class:`~repro.core.detector.DetectorConfig`, ``--telemetry`` on the
CLI, or ``REPRO_TELEMETRY`` in the environment; ``off`` (the default)
records nothing and costs nothing on the hot path.
"""

from .exporters import (
    chrome_trace_events,
    load_trace,
    summarize_spans,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from .manifest import MANIFEST_SCHEMA_VERSION, host_metadata, run_manifest
from .metrics import MetricsRegistry
from .session import (
    RunTelemetry,
    absorb_stats,
    current_run,
    finish_run,
    join_run,
    last_run,
    metric_inc,
    span_or_null,
    start_run,
)
from .tracer import (
    TELEMETRY_ENV,
    VALID_TELEMETRY_MODES,
    Span,
    TraceContext,
    Tracer,
    check_telemetry_mode,
    default_telemetry_mode,
    new_run_id,
    resolve_telemetry_mode,
)

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "MetricsRegistry",
    "RunTelemetry",
    "Span",
    "TELEMETRY_ENV",
    "TraceContext",
    "Tracer",
    "VALID_TELEMETRY_MODES",
    "absorb_stats",
    "check_telemetry_mode",
    "chrome_trace_events",
    "current_run",
    "default_telemetry_mode",
    "finish_run",
    "host_metadata",
    "join_run",
    "last_run",
    "load_trace",
    "metric_inc",
    "new_run_id",
    "resolve_telemetry_mode",
    "run_manifest",
    "span_or_null",
    "start_run",
    "summarize_spans",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]

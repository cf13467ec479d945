"""Ambient run sessions: one tracer + metrics registry per run.

Ownership model
---------------
Exactly one layer *starts* a run and every nested layer *joins* it:

* ``EpistasisDetector.detect_candidates`` starts a run when its resolved
  telemetry mode is not ``off`` and no run is active;
* ``SearchPipeline.run`` starts one so all stage detectors share it;
* ``run_distributed`` starts one when invoked directly (benchmarks);
* distributed worker processes *activate* a run from the coordinator's
  :class:`~repro.telemetry.tracer.TraceContext` so their spans carry the
  coordinator's ``run_id`` and timeline.

Joining is implicit: any layer calls :func:`current_run` and records
into it when one is active, regardless of its own config — the run
owner decides whether telemetry is on.  The first three owners enter
:func:`join_run`, which joins the active run or starts one.  When
nothing is active the helpers (:func:`span_or_null`,
:func:`metric_inc`) are near-free no-ops, which is what keeps
``telemetry="off"`` off the hot path.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, Optional, Tuple

from .metrics import MetricsRegistry
from .tracer import TraceContext, Tracer, new_run_id

__all__ = [
    "RunTelemetry",
    "absorb_stats",
    "current_run",
    "finish_run",
    "join_run",
    "last_run",
    "metric_inc",
    "span_or_null",
    "start_run",
]

_LOCK = threading.Lock()
_ACTIVE: Optional["RunTelemetry"] = None
_LAST: Optional["RunTelemetry"] = None

#: Reusable no-op context manager (stateless, safe to share/re-enter).
_NULL_CONTEXT = nullcontext()


class RunTelemetry:
    """The recording state of one run: id, mode, tracer, metrics."""

    def __init__(
        self,
        mode: str,
        run_id: "str | None" = None,
        context: "TraceContext | None" = None,
    ) -> None:
        if context is not None:
            self.run_id = context.run_id
            self.mode = context.mode
            self.tracer = Tracer.from_context(context)
            self.remote = True
        else:
            self.run_id = run_id or new_run_id()
            self.mode = mode
            self.tracer = Tracer(self.run_id)
            self.remote = False
        self.metrics = MetricsRegistry()
        self.started_at = time.time()
        self.finished_at: Optional[float] = None

    @property
    def full(self) -> bool:
        """True when per-chunk kernel samples should be recorded."""
        return self.mode == "full"

    def context(self, parent_id: "str | None" = None) -> TraceContext:
        """Propagation handle for shipping this run to a worker process."""
        return self.tracer.context(self.mode, parent_id=parent_id)

    def summary(self) -> dict:
        """Small embeddable digest (goes into ``DetectionResult.extra``)."""
        spans = self.tracer.spans
        return {
            "mode": self.mode,
            "run_id": self.run_id,
            "n_spans": len(spans),
            "n_metrics": len(self.metrics),
        }


def start_run(
    mode: str,
    run_id: "str | None" = None,
    context: "TraceContext | None" = None,
) -> RunTelemetry:
    """Create and activate a run session (the caller becomes its owner).

    If a run is already active it is returned unchanged — nested layers
    must not displace the owner's session.  The owner is responsible for
    the matching :func:`finish_run`.
    """
    global _ACTIVE
    with _LOCK:
        if _ACTIVE is not None:
            return _ACTIVE
        run = RunTelemetry(mode, run_id=run_id, context=context)
        _ACTIVE = run
    return run


def current_run() -> Optional[RunTelemetry]:
    """The active run session, or ``None`` (telemetry off / not started)."""
    return _ACTIVE


def finish_run(run: RunTelemetry) -> None:
    """Deactivate ``run`` and remember it as :func:`last_run`.

    No-op when ``run`` is not the active session (a nested layer calling
    by mistake must not tear down its owner's run).
    """
    global _ACTIVE, _LAST
    with _LOCK:
        if _ACTIVE is not run:
            return
        run.finished_at = time.time()
        _ACTIVE = None
        _LAST = run


@contextmanager
def join_run(
    mode: str, run_id: "str | None" = None
) -> Iterator[Tuple[Optional[RunTelemetry], str]]:
    """Join the active run, or start one in ``mode`` and finish it on exit.

    Yields ``(session, run_id)``.  ``session`` is ``None`` when no run is
    active and ``mode`` is ``"off"``; ``run_id`` is then ``run_id`` or a
    fresh id, and otherwise the session's.
    """
    session = current_run()
    owns = session is None and mode != "off"
    if owns:
        session = start_run(mode)
    if session is not None:
        run_id = session.run_id
    try:
        yield session, run_id or new_run_id()
    finally:
        if owns:
            finish_run(session)


def last_run() -> Optional[RunTelemetry]:
    """The most recently finished run (for exporters / the CLI)."""
    return _LAST


def span_or_null(name: str, **attrs: object):
    """A span on the active run, or a shared no-op context manager.

    The off-path cost is one global read and a ``None`` check — callers
    on warm paths (shm publish/attach, backend compile) use this
    unconditionally.
    """
    run = _ACTIVE
    if run is None:
        return _NULL_CONTEXT
    return run.tracer.span(name, **attrs)


def metric_inc(name: str, value: "int | float" = 1) -> None:
    """Increment a counter on the active run's registry, if any."""
    run = _ACTIVE
    if run is not None:
        run.metrics.inc(name, value)


def absorb_stats(run: RunTelemetry, stats) -> None:
    """Fold a run's :class:`~repro.core.result.ApproachStats` into the registry.

    This is the single bridge between the legacy per-result counters and
    the namespaced registry: §IV op/traffic counters land under ``ops.*``
    / ``traffic.*`` op-for-op, engine lane bookkeeping under
    ``engine.*``/``autotune.*``, and a sharded run's shard and data-plane
    counters (``stats.extra["distributed"]``, the coordinator's events plus
    every worker batch's) under ``distributed.*``/``dataplane.*``; an
    in-process run has no data plane.  Pipeline runs absorb once per stage;
    counters accumulate across stages of one run.
    """
    metrics = run.metrics
    metrics.merge_counters(stats.op_counts, prefix="ops.")
    metrics.inc("traffic.bytes_loaded", stats.bytes_loaded)
    metrics.inc("traffic.bytes_stored", stats.bytes_stored)
    metrics.inc("engine.combinations", stats.n_combinations)
    metrics.set_gauge("engine.workers", stats.n_workers)
    metrics.observe("engine.elapsed_seconds", stats.elapsed_seconds)

    extra = stats.extra or {}
    for label, entry in (extra.get("devices") or {}).items():
        metrics.inc("engine.chunks", entry.get("chunks", 0))
        metrics.inc("engine.items", entry.get("items", 0))
        metrics.observe("engine.lane_busy_seconds", entry.get("busy_seconds", 0.0))
        metrics.set_gauge(
            f"engine.lane.{label}.utilization", entry.get("utilization", 0.0)
        )
        autotune = entry.get("autotune")
        if autotune:
            for tuner in autotune.get("workers", ()):
                metrics.inc("autotune.adjustments", tuner.get("adjustments", 0))
                metrics.observe(
                    "autotune.final_chunk_size", tuner.get("chunk_size", 0)
                )

    distributed = extra.get("distributed")
    if distributed:
        metrics.inc("distributed.runs", 1)
        metrics.inc("distributed.shards", distributed.get("n_shards", 0))
        metrics.set_gauge("distributed.workers", distributed.get("workers", 0))
        metrics.merge_counters(
            distributed.get("data_plane") or {}, prefix="dataplane."
        )
        fleet = distributed.get("fleet") or {}
        for key, value in fleet.items():
            if isinstance(value, (int, float)):
                metrics.set_gauge(f"fleet.{key}", value)
        resilience = distributed.get("resilience") or {}
        for key in ("retries", "watchdog_kills", "pool_breaks"):
            metrics.inc(f"resilience.{key}", resilience.get(key, 0))
        metrics.inc(
            "resilience.quarantines", len(resilience.get("quarantined") or ())
        )

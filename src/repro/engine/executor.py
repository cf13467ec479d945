"""The heterogeneous executor: one run loop for every search path.

:class:`HeterogeneousExecutor` turns an :class:`~repro.engine.plan.ExecutionPlan`
plus a scorer into a complete exhaustive search: the plan's policy carves
the source's work items across the device lanes, one :class:`DeviceWorker`
per host thread materialises each claimed chunk through the plan's
candidate source and streams the scores into its bounded top-k heap, and
the executor merges the heaps, aggregates per-device statistics (chunk
counts, items, busy time, utilization) and reports wall-clock time.

The executor also provides the two control-plane features later PRs build
on: cooperative cancellation (a :class:`CancellationToken` checked at every
chunk boundary, set automatically when any worker raises) and progress
reporting (a callback invoked with monotonically increasing completed-item
counts).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence

from repro.engine.plan import EngineDevice, ExecutionPlan
from repro.engine.worker import (
    ChunkEvaluator,
    ChunkScorer,
    DeviceWorker,
    TopKHeap,
    source_evaluator,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import Interaction

__all__ = ["CancellationToken", "EngineResult", "HeterogeneousExecutor"]

#: Factory building per-worker state (e.g. an approach instance + encoding).
WorkerFactory = Callable[[EngineDevice, int], Any]

#: Progress callback: ``progress(items_done, items_total)``.
ProgressCallback = Callable[[int, int], None]


class CancellationToken:
    """Cooperative cancellation flag shared by all workers of a run.

    Setting the token (from any thread — a signal handler, a watchdog, a
    failing sibling worker) makes every worker stop at its next chunk
    boundary; the engine then returns the partial result with
    ``cancelled=True`` instead of raising.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request the run to stop at the next chunk boundary."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()


@dataclass
class EngineResult:
    """Outcome of one engine run.

    Attributes
    ----------
    top:
        The merged ``top_k`` best interactions (ascending score order).
    elapsed_seconds:
        Wall-clock time of the run loop.
    n_items:
        Work items actually evaluated (equals the plan total unless the run
        was cancelled).
    device_stats:
        Per-device-label execution statistics: worker count, chunk count,
        items, busy seconds, utilization and share of the evaluated items.
    workers:
        The worker objects, exposing per-worker bookkeeping and states.
    cancelled:
        ``True`` when the run stopped early through a cancellation token.
    """

    top: List["Interaction"]
    elapsed_seconds: float
    n_items: int
    device_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    workers: List[DeviceWorker] = field(default_factory=list)
    cancelled: bool = False

    @property
    def best(self) -> Interaction | None:
        """The best interaction, or ``None`` for an empty run."""
        return self.top[0] if self.top else None


class HeterogeneousExecutor:
    """Runs an execution plan over its device lanes.

    Parameters
    ----------
    plan:
        The declarative run description (candidate source, devices,
        policy, top_k).
    cancel:
        Optional externally owned cancellation token; one is created
        internally when omitted (workers still use it to stop siblings on
        failure).
    """

    def __init__(self, plan: ExecutionPlan, cancel: CancellationToken | None = None) -> None:
        self.plan = plan
        self.cancel = cancel or CancellationToken()

    def run(
        self,
        worker_factory: WorkerFactory,
        scorer: ChunkScorer,
        snp_names: Sequence[str] | None = None,
        progress: ProgressCallback | None = None,
    ) -> EngineResult:
        """Execute the plan and return the merged result.

        Parameters
        ----------
        worker_factory:
            ``worker_factory(device, worker_id) -> state`` builds the
            per-worker state handed to the scorer (mutable state such as
            operation counters must not be shared across workers).
        scorer:
            ``scorer(worker, combos) -> scores`` kernel: the executor
            materialises each claimed chunk through the plan's candidate
            source and the scorer evaluates the ``(n, k)`` combinations.
            It must be thread-safe with respect to shared read-only data.
        snp_names:
            Optional SNP names resolved into the produced interactions.
        progress:
            Optional callback invoked after every chunk with
            ``(items_done, items_total)``; calls are serialised.
        """
        plan = self.plan
        evaluate = source_evaluator(plan.source, scorer)
        if any(d.chunk_size is None for d in plan.devices):
            raise ValueError(
                "every device lane needs a chunk_size (an integer or 'auto'); "
                "EpistasisDetector sizes unset claims from the kernel byte budget"
            )
        assignments = plan.policy.assign(plan.total, plan.devices)
        labels = plan.device_labels()

        # Telemetry: join the ambient run, if any.  ``off`` leaves both
        # hooks unset — the chunk loop runs the exact pre-telemetry code.
        from repro.telemetry import current_run

        session = current_run()
        if session is not None and session.full:
            evaluate = _traced_kernel(session.tracer, evaluate)

        workers: List[DeviceWorker] = []
        jobs: List[tuple[DeviceWorker, Any]] = []  # (worker, source)
        worker_id = 0
        for label, assignment in zip(labels, assignments):
            for source in assignment.sources:
                worker = DeviceWorker(
                    worker_id=worker_id,
                    device=assignment.device,
                    label=label,
                    state=worker_factory(assignment.device, worker_id),
                    top_k=plan.top_k,
                )
                workers.append(worker)
                jobs.append((worker, source))
                worker_id += 1

        on_chunk = None
        if progress is not None:
            done = 0
            progress_lock = threading.Lock()

            def on_chunk(n_items: int) -> None:
                nonlocal done
                with progress_lock:
                    done += n_items
                    progress(done, plan.total)

        def run_worker(worker: DeviceWorker, source: Any) -> None:
            worker.run(source, evaluate, snp_names, self.cancel, on_chunk)

        if session is not None:
            tracer = session.tracer
            # Lane jobs run in pool threads with empty span stacks; parent
            # them explicitly under the caller's current span (``detect``).
            run_parent = tracer.current_span_id()
            plain_run = run_worker

            def run_worker(worker: DeviceWorker, source: Any) -> None:
                with tracer.span(
                    "device.run",
                    parent_id=run_parent,
                    worker_id=worker.worker_id,
                    label=worker.label,
                    device=worker.device.kind,
                ) as span:
                    plain_run(worker, source)
                    span.set("chunks", worker.chunks)
                    span.set("items", worker.items)

        started = time.perf_counter()
        if len(jobs) == 1:
            # Inline execution keeps single-threaded profiling runs free of
            # executor noise (and of spurious thread-switch jitter).
            worker, source = jobs[0]
            run_worker(worker, source)
        elif jobs:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [
                    pool.submit(run_worker, w, src) for w, src in jobs
                ]
                wait(futures, return_when=FIRST_EXCEPTION)
                for fut in futures:
                    fut.result()  # re-raises worker exceptions with worker_id attached
        elapsed = time.perf_counter() - started

        merged = TopKHeap(plan.top_k)
        for worker in workers:
            merged.push_interactions(worker.heap.items)

        n_items = sum(w.items for w in workers)
        device_stats = self._device_stats(
            labels, assignments, workers, elapsed, n_items
        )
        return EngineResult(
            top=merged.items,
            elapsed_seconds=elapsed,
            n_items=n_items,
            device_stats=device_stats,
            workers=workers,
            cancelled=self.cancel.cancelled and n_items < plan.total,
        )

    @staticmethod
    def _device_stats(
        labels: Sequence[str],
        assignments: Sequence[Any],
        workers: Sequence[DeviceWorker],
        elapsed: float,
        n_items: int,
    ) -> Dict[str, Dict[str, object]]:
        stats: Dict[str, Dict[str, object]] = {}
        for label, assignment in zip(labels, assignments):
            lane_workers = [w for w in workers if w.label == label]
            busy = sum(w.busy_seconds for w in lane_workers)
            capacity = elapsed * max(1, len(lane_workers))
            items = sum(w.items for w in lane_workers)
            entry: Dict[str, object] = {
                "kind": assignment.device.kind,
                "workers": len(lane_workers),
                "chunks": sum(w.chunks for w in lane_workers),
                "items": items,
                "busy_seconds": busy,
                "utilization": busy / capacity if capacity > 0 else 0.0,
                "share": items / n_items if n_items else 0.0,
            }
            if assignment.planned_items is not None:
                entry["planned_items"] = assignment.planned_items
            tuners = [
                src.describe()
                for src in assignment.sources
                if hasattr(src, "feedback") and hasattr(src, "describe")
            ]
            if tuners:
                entry["autotune"] = {
                    "workers": tuners,
                    "final_chunk_sizes": sorted(t["chunk_size"] for t in tuners),
                }
            stats[label] = entry
        return stats


def _traced_kernel(tracer, evaluate: ChunkEvaluator) -> ChunkEvaluator:
    """Wrap a chunk kernel with per-chunk ``kernel`` span samples.

    Only installed in ``telemetry="full"`` mode; the span parents under
    the calling thread's open ``device.run`` span automatically.
    """

    def traced(worker: DeviceWorker, start: int, stop: int):
        with tracer.span(
            "kernel", items=stop - start, worker_id=worker.worker_id
        ):
            return evaluate(worker, start, stop)

    return traced

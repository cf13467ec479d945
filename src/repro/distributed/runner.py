"""Spawn-safe worker processes executing shards through the engine.

A worker process hydrates its execution state lazily from the first task
batch it receives: the :class:`WorkerPayload` either carries the dataset
inline (pickled — the legacy data plane) or, with shared memory enabled, a
tiny :class:`~repro.distributed.shm.DatasetHandle` the worker resolves
against the :class:`~repro.distributed.shm.SharedEncodingStore` — the
arrays never cross the pipe.  The per-process state (detector, encodings,
hydrated dataset) is cached across batches *and across runs* keyed by the
payload fingerprint, so a warm fleet (:mod:`repro.distributed.fleet`)
serving a second ``detect()`` call or the next pipeline stage pays zero
re-initialisation.

Shard handoff is **batched**: the coordinator groups shards into a handful
of futures per worker instead of one future per shard, cutting the
submit/collect round-trips (and per-task payload pickles) by an order of
magnitude for the default 32-shard plan.  A batch also comes back as one
unit: the freed worker gets its next batch first, then the coordinator
commits the whole arrived batch to its ledger in one write.

Everything here is **spawn-safe**: the worker entry points are module-level
functions resolved by import path (no closures, no lambdas), so the pool
works identically under the ``spawn`` start method (macOS/Windows default,
and the only start method that is safe with threads in the parent).
``workers=1`` bypasses the pool entirely and runs the same code inline —
zero process overhead, identical results, same checkpoint ledger.

Fault tolerance: a worker dying mid-shard breaks the whole
``ProcessPoolExecutor``.  :meth:`ProcessRunner.map_shards` recovers under
the run's :class:`~repro.distributed.resilience.RetryPolicy`: failed or
hung (heartbeat-watchdog-detected) shards are re-dispatched with bounded
exponential backoff, each pool break respawns the fleet in place until
the pool-break budget runs out and the rest finishes inline, and a shard
that exhausts its retry budget is quarantined and finished inline in the
coordinator — a run always completes, bit-identically, without manual
intervention.  Deterministic faults for the chaos suite are injected
through :mod:`repro.faults` (the plan rides the payload, so even warm
fleets spawned long before the plan existed honour it).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence

from repro.distributed.merge import (
    interaction_to_row,
    minima_to_payload,
    snp_minima_accumulator,
)
from repro.distributed.resilience import MAX_POOL_BREAKS, ResilienceLog
from repro.distributed.shards import Shard, ShardView
from repro.distributed.shm import (
    DatasetHandle,
    data_plane_delta,
    data_plane_snapshot,
    hydrate_dataset,
    load_encoding,
    load_logfact,
    note_event,
)
from repro.faults import fire, install_plan

if TYPE_CHECKING:
    from repro.core.detector import RunSpec

__all__ = ["WorkerPayload", "ShardOutcome", "ProcessRunner"]


@dataclass
class WorkerPayload:
    """Everything a worker process needs to hydrate its execution state.

    ``dataset`` is either a ``GenotypeDataset`` (pickled inline with every
    batch — the fallback data plane) or a
    :class:`~repro.distributed.shm.DatasetHandle` resolved against shared
    memory on first touch.  ``config`` is the coordinator's
    :class:`~repro.core.detector.DetectorConfig`; its ``approach`` must be
    a registry *name* (a pre-built approach instance carries per-run
    counter state that must not be shared across processes).

    The payload is pickled with every batch, so it carries handles, never
    tables: ``multiprocessing.connection`` sends a message above 16 384
    bytes as two writes (header, then body), and a K2 log-factorial table
    alone is ``8 * (n_samples + 2)`` bytes, 131 KB at 16 384 samples.
    With shared memory on, a batch pickles to about 1 KB.
    """

    dataset: object  # GenotypeDataset or DatasetHandle
    source: object  # CandidateSource
    config: object  # DetectorConfig
    collect_minima: bool = False
    #: Digest of the K2 log-factorial table the coordinator published in
    #: shared memory (:func:`~repro.distributed.shm.publish_logfact`), or
    #: ``None`` when it published none (another objective, or the dataset
    #: rides the payload): the worker then builds its own table.
    logfact: str | None = None
    #: Cross-process telemetry propagation
    #: (:class:`~repro.telemetry.TraceContext` or ``None``).  Deliberately
    #: excluded from :meth:`fingerprint`: the run identity changes per run
    #: while the hydrated execution state does not, and a warm worker must
    #: keep its context cache hits across runs.
    telemetry: object = None
    #: Armed fault-injection plan (:class:`~repro.faults.FaultPlan` or
    #: ``None``).  Ships with every batch — the only channel that reaches
    #: warm-fleet workers spawned before the plan existed — and is likewise
    #: excluded from :meth:`fingerprint` (injection never changes what a
    #: context computes, only whether the attempt survives).
    faults: object = None

    def fingerprint(self) -> str:
        """Content fingerprint keying the per-process context cache.

        Two payloads with the same fingerprint hydrate to identical
        execution state, so a warm worker reuses its detector (and every
        encoding behind it) across runs.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        if isinstance(self.dataset, DatasetHandle):
            ds = ("handle", self.dataset.digest, self.logfact)
        else:
            ds = ("inline", self.dataset.content_digest())
        digest = self.config.context_key(ds, self.source, self.collect_minima)
        self._fingerprint = digest
        return digest


@dataclass
class ShardOutcome:
    """One shard's partial result, streamed back to the coordinator."""

    shard_id: int
    rows: List[list]
    n_items: int
    elapsed_seconds: float
    device_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    op_counts: Dict[str, int] = field(default_factory=dict)
    bytes_loaded: int = 0
    bytes_stored: int = 0
    #: Per-SNP best-participating-score payload (``None`` = SNP unseen).
    snp_minima: List[float | None] | None = None
    #: Data-plane counter increments of the batch this outcome headed
    #: (attached to the first outcome of each batch; empty otherwise).
    data_plane: Dict[str, int] = field(default_factory=dict)
    #: Serialized telemetry spans recorded in the worker process while the
    #: batch ran (attached to the first outcome of each batch; empty
    #: otherwise, and always empty with telemetry off).
    spans: List[dict] = field(default_factory=list)


class _WorkerContext:
    """Per-process execution state: one detector reused across shards.

    The detector (and through it the per-lane dataset encodings) is reused
    across every shard the context evaluates, so per-shard cost is pure
    sweep work after the first shard warms the encodings.  Worker
    processes cache contexts by payload fingerprint in the module-level
    LRU below — surviving across batches, runs and pipeline stages; the
    inline (``workers=1``) path builds a *local* context instead, so
    concurrent inline runs in one process (e.g. from two threads) cannot
    clobber each other's state.
    """

    def __init__(self, payload: WorkerPayload) -> None:
        from repro.core.detector import EpistasisDetector

        self.payload = payload
        dataset = payload.dataset
        if isinstance(dataset, DatasetHandle):
            # Shared-memory data plane: resolve the handle to read-only
            # views and give the encoding cache its shared tier, so the
            # encodings the coordinator published are attached instead of
            # re-packed.
            from repro.core.encoding_cache import ENCODING_CACHE

            ENCODING_CACHE.attach_shared_tier(load_encoding)
            dataset = hydrate_dataset(dataset)
        elif multiprocessing.parent_process() is not None:
            note_event("dataset_unpickled")
        self.dataset = dataset
        # A worker records spans only under the coordinator's shipped trace
        # context, never a run of its own: that keeps one context right for
        # traced and untraced searches alike.
        self.detector = EpistasisDetector(
            config=replace(
                payload.config, order=payload.source.order, telemetry="off"
            )
        )
        if payload.logfact is not None:
            # The coordinator's K2 table, taken before the first prepare:
            # this process never evaluates gammaln of its own.
            self.detector.objective.adopt(load_logfact(payload.logfact))

    def run_shard(self, task: tuple[int, int, int]) -> ShardOutcome:
        """Evaluate one shard."""
        shard_id, start, stop = task
        payload = self.payload
        dataset = self.dataset
        view = ShardView(payload.source, start, stop)

        observe = finalize_minima = None
        if payload.collect_minima:
            observe, finalize_minima = snp_minima_accumulator(dataset.n_snps)

        # Detector statistics count one call, so they are this shard's own.
        started = time.perf_counter()
        result = self.detector.detect_candidates(dataset, view, observe=observe)
        elapsed = time.perf_counter() - started
        stats = result.stats

        shard_minima: List[float | None] | None = None
        if finalize_minima is not None:
            shard_minima = minima_to_payload(finalize_minima())

        return ShardOutcome(
            shard_id=shard_id,
            rows=[interaction_to_row(inter) for inter in result.top],
            n_items=view.total,
            elapsed_seconds=elapsed,
            device_stats={
                label: dict(entry)
                for label, entry in stats.extra.get("devices", {}).items()
            },
            op_counts={m: int(c) for m, c in stats.op_counts.items() if c},
            bytes_loaded=stats.bytes_loaded,
            bytes_stored=stats.bytes_stored,
            snp_minima=shard_minima,
        )


#: Per-process context cache (worker processes): payload fingerprint →
#: hydrated context.  Small LRU — a worker serving interleaved runs over a
#: couple of datasets/configs keeps all of them warm.
_CONTEXTS: "OrderedDict[str, _WorkerContext]" = OrderedDict()
_MAX_CONTEXTS = 4


def _context_for(payload: WorkerPayload) -> _WorkerContext:
    """Resolve (or build) the cached worker context for a payload."""
    fingerprint = payload.fingerprint()
    context = _CONTEXTS.get(fingerprint)
    if context is not None:
        _CONTEXTS.move_to_end(fingerprint)
        note_event("worker_context_reused")
        return context
    context = _WorkerContext(payload)
    _CONTEXTS[fingerprint] = context
    note_event("worker_context_built")
    while len(_CONTEXTS) > _MAX_CONTEXTS:
        _CONTEXTS.popitem(last=False)
    return context


def _run_shard_batch(
    payload: WorkerPayload, tasks: Sequence[tuple[int, int, int]]
) -> List[ShardOutcome]:
    """Worker entry point: evaluate a batch of shards in one round-trip.

    The first outcome of the batch carries the data-plane counter delta
    (segments attached, cache hits/misses, datasets unpickled) observed in
    this process while the batch ran.  The payload's fault plan (if any)
    is installed before anything else, so the ``shard.claim`` /
    ``shard.run`` / ``outcome.ship`` injection sites are live for exactly
    this batch — and cleared again by the next batch that ships no plan.
    """
    install_plan(payload.faults)
    fire("shard.claim", shard=tasks[0][0] if tasks else None)
    before = data_plane_snapshot()
    trace_ctx = payload.telemetry
    session = None
    if trace_ctx is not None:
        from repro.telemetry import start_run

        # Activate the coordinator's run in this process: every span the
        # batch records (shard.run and the nested detect/device.run/kernel
        # tree) carries the coordinator's run_id and parents under its
        # dispatch span via the shipped context.
        session = start_run(trace_ctx.mode, context=trace_ctx)
    try:
        context = _context_for(payload)
        outcomes = []
        for task in tasks:
            fire("shard.run", shard=task[0])
            if session is not None:
                with session.tracer.span(
                    "shard.run",
                    shard_id=task[0],
                    start=task[1],
                    stop=task[2],
                    pid=os.getpid(),
                ):
                    outcomes.append(context.run_shard(task))
            else:
                outcomes.append(context.run_shard(task))
    finally:
        if session is not None:
            from repro.telemetry import finish_run

            finish_run(session)
    fire("outcome.ship", shard=tasks[0][0] if tasks else None)
    outcomes[0].data_plane = data_plane_delta(before)
    if session is not None:
        outcomes[0].spans = session.tracer.export_spans()
    return outcomes


class ProcessRunner:
    """Executes shard tasks across OS processes (or inline for one worker).

    Parameters
    ----------
    run:
        The run's :class:`~repro.core.detector.RunSpec`: ``workers``
        processes (``1`` runs every shard inline in the calling process
        through the identical code path — no pool, no pickling), the
        ``pool`` they run on (``"keep"``: the process-wide warm fleet of
        :func:`repro.distributed.fleet.get_fleet`, which survives this run;
        ``"fresh"``: a dedicated pool torn down afterwards) and the
        ``retry`` policy of :meth:`map_shards`.
    payload:
        The per-process hydration spec (shipped with every batch; tiny
        when the dataset rides shared memory).
    resilience:
        The :class:`~repro.distributed.resilience.ResilienceLog` to record
        into — pass one pre-seeded from the checkpoint ledger so retry
        budgets span resumes; a fresh log is created otherwise.  Exposed
        as :attr:`resilience` either way.
    """

    def __init__(
        self,
        run: RunSpec,
        payload: WorkerPayload,
        resilience: ResilienceLog | None = None,
    ) -> None:
        self.workers = run.workers
        self.payload = payload
        self.pool = run.pool
        self.retry = run.retry
        self.resilience = resilience if resilience is not None else ResilienceLog()
        self._fleet = None
        self._fleet_info: Dict[str, object] | None = None
        self._dedicated = False
        self._session = None

    # -- data-plane session ------------------------------------------------------
    def data_session(self):
        """The shared-memory session scoping this runner's segments.

        On the warm fleet this is the *fleet's* long-lived session (the
        segments outlive the run — that is the point); a fresh pool gets a
        runner-scoped session closed by :meth:`close`, unlinking whatever
        this run published once the last reference drops.
        """
        if self._session is None or self._session.closed:
            if self.pool == "keep" and self.workers > 1:
                self._session = self._acquire_fleet().store_session()
            else:
                from repro.distributed.shm import shared_store

                self._session = shared_store().session()
        return self._session

    def fleet_info(self) -> Dict[str, object] | None:
        """Bookkeeping of the fleet that ran this runner's shards, if any."""
        if self._fleet is not None:
            return self._fleet.describe()
        return self._fleet_info

    def close(self) -> None:
        """Release run-scoped resources (dedicated pools, fresh session)."""
        if self._dedicated and self._fleet is not None:
            self._fleet_info = self._fleet.describe()
            self._fleet.shutdown()
            self._fleet = None
        if self._session is not None and not (
            self.pool == "keep" and self.workers > 1
        ):
            self._session.close()
            self._session = None

    def _acquire_fleet(self):
        from repro.distributed.fleet import WorkerFleet, get_fleet

        if self._fleet is None:
            if self.pool == "keep":
                self._fleet = get_fleet(self.workers)
            else:
                self._fleet = WorkerFleet(self.workers)
                self._dedicated = True
        return self._fleet

    def _batches(self, tasks: List[tuple[int, int, int]]) -> List[List[tuple]]:
        # ~4 dispatch rounds per worker keeps pull-scheduling balance while
        # cutting futures round-trips ~4x for the default plan.
        size = max(1, len(tasks) // (self.workers * 4))
        return [tasks[i : i + size] for i in range(0, len(tasks), size)]

    def _escalate(self) -> bool:
        """Climb the degradation ladder after a pool break.

        Respawns the fleet in place (warm-fleet sessions and registry
        membership are preserved) and returns ``True``; returns ``False``
        once :data:`~repro.distributed.resilience.MAX_POOL_BREAKS` breaks
        are spent and the run falls back to inline execution in the
        coordinator (the ladder's last rung — a run always completes).
        """
        log = self.resilience
        log.pool_breaks += 1
        if log.pool_breaks >= MAX_POOL_BREAKS:
            log.ladder = "inline"
            return False
        log.ladder = "respawned"
        self._fleet.respawn()
        return True

    def _run_inline(
        self, tasks: Sequence[tuple[int, int, int]], quarantine: bool
    ) -> Iterator[ShardOutcome]:
        """Execute shards in the calling process (the ladder's last rung).

        Worker-only fault kinds (crash/hang/error) are suppressed by
        :func:`repro.faults.fire` in the coordinator, so a poison shard
        that kept killing workers completes here — which is the whole
        point of quarantine.
        """
        from repro.telemetry import span_or_null

        log = self.resilience
        context = _WorkerContext(self.payload)
        for task in tasks:
            fire("shard.run", shard=task[0])
            span = "shard.quarantine" if quarantine else "shard.run"
            # Inline shards join the coordinator's ambient run directly
            # (no cross-process propagation needed).
            with span_or_null(
                span,
                shard_id=task[0],
                start=task[1],
                stop=task[2],
                attempt=log.attempts.get(task[0], 0) + 1,
            ):
                outcome = context.run_shard(task)
            fire("outcome.ship", shard=task[0])
            yield outcome

    def map_shards(self, shards: Sequence[Shard]) -> Iterator[List[ShardOutcome]]:
        """Yield the new outcomes of each completed batch as one list.

        Batches arrive in completion order.  The caller commits each list
        to its ledger in one write; a round whose batches all succeeded
        refills the freed workers before yielding, so they run while the
        caller writes.  Inline and quarantined shards arrive one per list.
        Closing the iterator early (cancellation) abandons unclaimed
        batches (and tears down run-scoped pools).  Failures are handled under
        :attr:`retry`: failed or watchdog-killed shards are re-dispatched
        in isolation with bounded backoff, each pool break respawns the
        fleet until the pool-break budget runs out (then the rest runs
        inline), and shards that exhaust their budget are quarantined and
        finished inline — every path ends with all shards completed exactly
        once.
        """
        tasks = [(s.shard_id, s.start, s.stop) for s in shards]
        if not tasks:
            return
        if self.workers == 1:
            fire("shard.claim", shard=tasks[0][0])
            for outcome in self._run_inline(tasks, quarantine=False):
                yield [outcome]
            return

        from repro.telemetry import span_or_null

        policy = self.retry
        log = self.resilience
        fleet = self._acquire_fleet()
        inline_dataset = not isinstance(self.payload.dataset, DatasetHandle)
        completed: set[int] = set()
        pending: Dict[object, List[tuple]] = {}
        queue: "deque[List[tuple]]" = deque(self._batches(tasks))
        quarantined: List[tuple] = []
        # After the first failure, dispatch single-shard batches so one
        # bad shard cannot drag batch-mates into its retry accounting.
        isolate = False
        last_progress = time.monotonic()

        def suspect(batch: List[tuple]) -> bool:
            return any(log.attempts.get(task[0]) for task in batch)

        def fill_window() -> None:
            # Keep at most ``workers`` batches in flight: precise failure
            # attribution (what is in flight is what is actually running)
            # at no throughput cost — the pool has no more lanes anyway.
            # A shard with failure history runs alone, so a later pool
            # break is charged to the shard that caused it, never to a
            # healthy one beside it.  Raises BrokenProcessPool (batch
            # safely requeued) when the pool broke before the submit.
            while queue and len(pending) < self.workers:
                batch = queue.popleft()
                if isolate and len(batch) > 1:
                    for task in reversed(batch):
                        queue.appendleft([task])
                    continue
                if pending and (
                    suspect(batch) or any(map(suspect, pending.values()))
                ):
                    queue.appendleft(batch)
                    return
                try:
                    future = fleet.submit(_run_shard_batch, self.payload, batch)
                except BrokenProcessPool:
                    queue.appendleft(batch)
                    raise
                pending[future] = batch
                if inline_dataset:
                    note_event("dataset_pickled")

        def account_failures(batches: List[List[tuple]]) -> float:
            """Record failed attempts; requeue or quarantine. Returns backoff."""
            delay = 0.0
            requeue: List[tuple[int, tuple]] = []
            for batch in batches:
                for task in batch:
                    sid = task[0]
                    if sid in completed:
                        continue
                    failures = log.record_failure(sid)
                    if policy.exhausted(failures):
                        log.record_quarantine(sid)
                        quarantined.append(task)
                    else:
                        log.retries += 1
                        with span_or_null(
                            "shard.retry",
                            shard_id=sid,
                            attempt=failures + 1,
                            backoff_seconds=policy.backoff(failures),
                        ):
                            pass
                        requeue.append((failures, task))
                        delay = max(delay, policy.backoff(failures))
            # Retries go behind untouched work, least-failed first, so the
            # likeliest poison shard runs last (and alone).
            requeue.sort(key=lambda item: (item[0], item[1][0]))
            for _, task in requeue:
                queue.append([task])
            return delay

        try:
            on_pool = True
            while on_pool:
                broken = False
                failed: List[List[tuple]] = []
                try:
                    fill_window()
                except BrokenProcessPool:
                    # The pool broke before a submit: same recovery as a
                    # break seen while waiting.
                    broken = True
                else:
                    if not pending:
                        break
                    done, _ = wait(
                        set(pending),
                        timeout=policy.wait_timeout(),
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        # Heartbeat watchdog: shards in flight but none have
                        # completed for a whole deadline — declare the pool
                        # hung and kill it; the broken-pool path turns the
                        # in-flight shards into ordinary retries.
                        stalled = (
                            policy.shard_deadline_seconds is not None
                            and time.monotonic() - last_progress
                            >= policy.shard_deadline_seconds
                        )
                        if stalled:
                            log.watchdog_kills += 1
                            fleet.kill_workers()
                            last_progress = time.monotonic()
                        continue
                    arrived: List[List[ShardOutcome]] = []
                    for future in done:
                        batch = pending.pop(future)
                        try:
                            outcomes = future.result()
                        except BrokenProcessPool:
                            broken = True
                            failed.append(batch)
                            continue
                        except Exception:
                            # A worker-raised failure (injected error,
                            # pickling trouble): the pool survives, the
                            # batch retries.
                            failed.append(batch)
                            continue
                        fresh = [o for o in outcomes if o.shard_id not in completed]
                        if fresh:
                            completed.update(o.shard_id for o in fresh)
                            last_progress = time.monotonic()
                            arrived.append(fresh)
                    if not (broken or failed):
                        # Hand the freed workers their next batches before
                        # the caller commits these; a pool that broke in the
                        # meantime surfaces at the loop's next fill_window().
                        try:
                            fill_window()
                        except BrokenProcessPool:
                            pass
                    yield from arrived
                if broken:
                    # Everything in flight on a broken pool is doomed.
                    failed.extend(pending.pop(f) for f in list(pending))
                    on_pool = self._escalate()
                    # A replacement pool pays spawn + hydration before its
                    # first heartbeat; give it a fresh deadline window.
                    last_progress = time.monotonic()
                if broken or failed:
                    isolate = True
                    delay = account_failures(failed)
                    if on_pool and delay > 0.0:
                        time.sleep(delay)

            # The ladder's last rung: quarantined shards — and any
            # stranded in the queue when the pool-break budget ran out —
            # finish inline in the coordinator.  Deterministic shard
            # computation plus the total merge order make this
            # bit-identical to a fault-free run.
            quarantined_ids = {task[0] for task in quarantined}
            stranded = [
                t
                for t in tasks
                if t[0] not in completed and t[0] not in quarantined_ids
            ]
            for group, quarantine in ((stranded, False), (quarantined, True)):
                remaining = [t for t in group if t[0] not in completed]
                if not remaining:
                    continue
                log.ladder = "inline"
                note_event("inline_fallbacks", len(remaining))
                for outcome in self._run_inline(remaining, quarantine=quarantine):
                    completed.add(outcome.shard_id)
                    yield [outcome]
        finally:
            for future in pending:
                future.cancel()
            if self._dedicated:
                self.close()

"""The distributed run coordinator: shard → execute → checkpoint → merge.

:func:`run_distributed` is the orchestration loop behind
``EpistasisDetector.detect(..., workers=N, checkpoint=...)``, the staged
pipeline's per-stage sharding and the CLI's ``--workers/--checkpoint/
--resume`` flags:

1. a :class:`~repro.distributed.shards.ShardPlanner` cuts the candidate
   space into rank-addressable shards;
2. under ``--resume``, the :class:`~repro.distributed.checkpoint.CheckpointStore`
   is validated against the run fingerprint and already-completed shards
   are restored from the ledger instead of re-evaluated;
3. a :class:`~repro.distributed.runner.ProcessRunner` streams the remaining
   shards through worker processes (or inline for ``workers=1``), and every
   completed shard is appended to the ledger atomically before the next one
   is awaited — a kill at any point loses at most the in-flight shards;
4. the partial top-k lists are folded by
   :func:`~repro.distributed.merge.merge_rows` under the explicit
   ``(score, combination-rank)`` total order, so the reported top-k is
   bit-identical for 1, 2 or 8 workers, with or without a resume cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.core.result import ApproachStats, DetectionResult, Interaction
from repro.core.approaches import get_approach
from repro.datasets.dataset import GenotypeDataset
from repro.engine.candidates import CandidateSource
from repro.engine.policies import get_policy
from repro.distributed.checkpoint import CheckpointStore, dataset_fingerprint
from repro.distributed.merge import merge_minima, merge_rows, row_to_interaction
from repro.distributed.resilience import ResilienceLog, RetryPolicy, merge_history
from repro.distributed.runner import ProcessRunner, ShardOutcome, WorkerPayload
from repro.distributed.shards import ShardPlanner
from repro.distributed.shm import publish_dataset, publish_encoding
from repro.faults import current_plan, install_plan, resolve_fault_plan

__all__ = ["DistributedOutcome", "run_distributed"]

#: Progress callback: ``progress(items_done, items_total)`` — counts restored
#: shard items as done, so a resumed run starts where the ledger left off.
ProgressCallback = Callable[[int, int], None]


@dataclass
class DistributedOutcome:
    """Everything a sharded run produced (complete or partial).

    ``result`` is only assembled for complete runs; a partial run (shard
    budget exhausted, cooperative cancellation) still exposes the merged
    top-so-far, the ledger bookkeeping and the per-shard statistics so
    callers can report progress and resume later.
    """

    top: List[Interaction]
    completed: bool
    cancelled: bool
    workers: int
    n_shards: int
    shards_done: int
    shards_restored: int
    items_total: int
    items_evaluated: int
    items_restored: int
    elapsed_seconds: float
    result: DetectionResult | None = None
    snp_minima: np.ndarray | None = None
    checkpoint_path: str | None = None
    device_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    op_counts: Dict[str, int] = field(default_factory=dict)
    bytes_loaded: int = 0
    bytes_stored: int = 0
    #: Items evaluated per shard id (restored and fresh), for per-rank
    #: accounting by callers that map shards onto ranks.
    shard_items: Dict[int, int] = field(default_factory=dict)
    #: Data-plane counter increments of this run (parent publishes plus
    #: every worker batch's delta): segments published/attached/reused,
    #: encoding-cache hits/misses/shm-hits, datasets pickled vs attached.
    data_plane: Dict[str, int] = field(default_factory=dict)
    #: What the fault-tolerance machinery did this run
    #: (:meth:`~repro.distributed.resilience.ResilienceLog.to_dict`):
    #: retries, watchdog kills, pool breaks, ladder rung, quarantined
    #: shards and per-shard failed-attempt counts.
    resilience: Dict[str, object] = field(default_factory=dict)

    @property
    def shards_remaining(self) -> int:
        """Shards still unevaluated (0 for a complete run)."""
        return self.n_shards - self.shards_done


def _aggregate_device_stats(
    shard_stats: List[Dict[str, Dict[str, object]]],
    elapsed: float,
    n_items: int,
    n_processes: int,
) -> Dict[str, Dict[str, object]]:
    """Sum per-shard engine lane statistics into run-level device stats.

    ``busy_seconds`` accumulates across every shard of every worker
    process, so the capacity normalising the utilization is the wall clock
    times the *fleet-wide* lane thread count (per-process lane workers x
    worker processes); restored shards contribute their recorded stats but
    no busy time, so a resumed run's utilization reflects only this run's
    execution.
    """
    stats: Dict[str, Dict[str, object]] = {}
    for per_shard in shard_stats:
        for label, entry in per_shard.items():
            agg = stats.setdefault(
                label,
                {
                    "kind": entry.get("kind"),
                    "workers": int(entry.get("workers", 1)) * n_processes,
                    "chunks": 0,
                    "items": 0,
                    "busy_seconds": 0.0,
                    "op_counts": {},
                },
            )
            agg["chunks"] += int(entry.get("chunks", 0))
            agg["items"] += int(entry.get("items", 0))
            agg["busy_seconds"] += float(entry.get("busy_seconds", 0.0))
            if entry.get("approach"):
                agg["approach"] = entry["approach"]
            for mnemonic, count in entry.get("op_counts", {}).items():
                agg["op_counts"][mnemonic] = (
                    agg["op_counts"].get(mnemonic, 0) + int(count)
                )
    for agg in stats.values():
        capacity = elapsed * max(1, int(agg["workers"]))
        agg["utilization"] = (
            float(agg["busy_seconds"]) / capacity if capacity > 0 else 0.0
        )
        agg["share"] = int(agg["items"]) / n_items if n_items else 0.0
    return stats


def resolve_shm(shm: object, workers: int) -> bool:
    """Normalise the ``shm`` knob (``"on"``/``"off"``/``"auto"``/bool/None).

    ``None``/``"auto"`` enables the shared-memory data plane exactly when
    worker processes exist to profit from it; ``workers=1`` runs inline
    and never publishes (nothing would attach).
    """
    if isinstance(shm, str):
        lowered = shm.lower()
        if lowered == "on":
            shm = True
        elif lowered == "off":
            shm = False
        elif lowered == "auto":
            shm = None
        else:
            raise ValueError(f"shm must be 'on', 'off' or 'auto', got {shm!r}")
    if shm is None:
        return workers > 1
    return bool(shm) and workers > 1


def _aggregate_data_plane(
    outcomes: List[ShardOutcome], parent_delta: Dict[str, int]
) -> Dict[str, int]:
    """Sum the per-batch worker counter deltas with the parent's own."""
    totals: Dict[str, int] = dict(parent_delta)
    for outcome in outcomes:
        for name, count in outcome.data_plane.items():
            totals[name] = totals.get(name, 0) + int(count)
    return totals


def _publish_data_plane(dataset, prototype, session):
    """Publish the dataset (and the prototype encoding) into shared memory.

    Returns the :class:`~repro.distributed.shm.DatasetHandle` the payload
    ships in place of the arrays.  The prototype lane's prepared encoding
    is packed once here (through the process-wide cache, so repeated runs
    reuse it) and published alongside; GPU layouts carry device-side state
    and are rebuilt worker-side from the shared dataset instead.
    """
    from repro.core.encoding_cache import ENCODING_CACHE, encoding_cache_key

    handle = publish_dataset(dataset, session=session)
    if prototype.device == "cpu":
        key = encoding_cache_key(dataset, prototype)
        if key is not None:
            encoded = ENCODING_CACHE.get_or_build(
                key, lambda: prototype.prepare(dataset)
            )
            publish_encoding(key, encoded, session=session)
    return handle


def run_distributed(
    dataset: GenotypeDataset,
    source: CandidateSource,
    *,
    config,
    workers: int = 1,
    checkpoint: str | None = None,
    resume: bool = False,
    planner: ShardPlanner | None = None,
    shard_budget: int | None = None,
    collect_snp_minima: bool = False,
    progress: ProgressCallback | None = None,
    cancel=None,
    mp_context: str = "spawn",
    pool: str = "keep",
    shm: object = None,
    run_id: str | None = None,
    retry: RetryPolicy | None = None,
    faults: object = None,
) -> DistributedOutcome:
    """Execute a candidate sweep as a sharded multi-process run.

    Parameters
    ----------
    dataset / source:
        The case/control dataset and the candidate space to sweep.
    run_id:
        Run identity correlating the result, checkpoint ledger and trace
        file; defaults to the ambient telemetry run's id (when the
        detector or pipeline owns one) or a fresh id.
    config:
        The :class:`~repro.core.detector.DetectorConfig` every worker runs
        (with the order taken from ``source``); ``approach`` must be a
        registry name (worker processes build their own instances).
        ``n_workers`` is the *per-process* host thread count.
    workers:
        Worker process count; ``1`` runs the identical shard/checkpoint
        path inline (no pool).
    checkpoint:
        Optional path of the atomic shard ledger.  Written after every
        completed shard; without it a killed run loses everything.
    resume:
        Restore completed shards from an existing ledger (fingerprint
        validated) instead of re-evaluating them.  With no ledger on disk
        the run starts fresh, so ``--resume`` is safe to pass always.
    planner:
        Shard planner override (default: static
        :data:`~repro.distributed.shards.DEFAULT_SHARD_COUNT`-way cut).
    shard_budget:
        Evaluate at most this many shards in this invocation and return a
        partial (``completed=False``) outcome — time-sliced execution for
        budgeted or cron-driven sweeps.
    collect_snp_minima:
        Fold the per-SNP best-participating-score accumulator inside every
        shard and merge across shards (the distributed screening stage).
    progress:
        ``progress(items_done, items_total)`` per completed shard
        (restored items count as done).
    cancel:
        Optional :class:`~repro.engine.executor.CancellationToken`; checked
        between shard completions.
    pool:
        ``"keep"`` (default) runs on the process-wide warm worker fleet,
        which survives this call — later runs skip process spawn and reuse
        the workers' hydrated state; ``"fresh"`` spawns a dedicated pool
        torn down when the run ends.
    shm:
        The shared-memory data plane: ``True``/``"on"`` publishes the
        dataset (and the prototype lane's prepared encoding) into
        :mod:`multiprocessing.shared_memory` so shard tasks ship a content
        digest instead of pickled arrays; ``False``/``"off"`` ships the
        dataset inline; ``None``/``"auto"`` (default) enables it whenever
        worker processes exist.
    retry:
        The run's :class:`~repro.distributed.resilience.RetryPolicy`
        (bounded per-shard retries with exponential backoff, the heartbeat
        watchdog deadline, the pool-break budget).  ``None`` uses the
        defaults; see the module docs for the degradation ladder a failing
        run climbs (respawn → fresh pool → inline) and the poison-shard
        quarantine guarantee.
    faults:
        Deterministic fault injection for chaos runs: a
        :class:`~repro.faults.FaultPlan`, a compact spec string
        (``"shard.run:crash"``), a JSON document, or ``None`` — which
        falls back to the ``REPRO_FAULTS`` environment variable and, when
        that is unset too, injects nothing.
    """
    if not isinstance(config.approach, str):
        raise TypeError(
            "distributed execution requires the approach as a registry name; "
            f"got {type(config.approach).__name__} (worker processes build "
            "their own instances)"
        )
    if workers < 1:
        raise ValueError("workers must be positive")
    if source.total < 1:
        raise ValueError("cannot distribute an empty candidate source")

    from repro.telemetry import current_run, finish_run, new_run_id, start_run

    # Join the ambient telemetry run (the detector or pipeline usually
    # owns it); direct callers (benchmarks) own the run themselves.
    session = current_run()
    owns_session = session is None and config.telemetry != "off"
    if owns_session:
        session = start_run(config.telemetry)
    if session is not None:
        run_id = session.run_id
    elif run_id is None:
        run_id = new_run_id()
    try:
        return _run_distributed_impl(
            dataset,
            source,
            config=config,
            workers=workers,
            checkpoint=checkpoint,
            resume=resume,
            planner=planner,
            shard_budget=shard_budget,
            collect_snp_minima=collect_snp_minima,
            progress=progress,
            cancel=cancel,
            mp_context=mp_context,
            pool=pool,
            shm=shm,
            run_id=run_id,
            session=session,
            retry=retry,
            faults=faults,
        )
    finally:
        if owns_session:
            finish_run(session)


def _run_distributed_impl(
    dataset: GenotypeDataset,
    source: CandidateSource,
    *,
    config,
    workers: int,
    checkpoint: str | None,
    resume: bool,
    planner: ShardPlanner | None,
    shard_budget: int | None,
    collect_snp_minima: bool,
    progress: ProgressCallback | None,
    cancel,
    mp_context: str,
    pool: str,
    shm: object,
    run_id: str,
    session,
    retry: RetryPolicy | None,
    faults: object,
) -> DistributedOutcome:
    total = source.total
    started = time.perf_counter()
    planner = planner or ShardPlanner()
    shards = planner.plan(
        total,
        workers,
        n_snps=source.effective_snps or dataset.n_snps,
        n_samples=dataset.n_samples,
        order=source.order,
    )
    store: CheckpointStore | None = None
    restored: Dict[int, Dict[str, object]] = {}
    if checkpoint is not None:
        store = CheckpointStore(checkpoint)
        fingerprint = {
            "dataset": dataset_fingerprint(dataset),
            # Content identity, not just geometry: explicit-rank/tuple and
            # subset sources digest their defining arrays, so a ledger can
            # never splice partials from a same-shaped but different
            # candidate set.
            "source": source.fingerprint(),
            "search": config.ledger_key(collect_snp_minima),
        }
        restored = store.begin(fingerprint, shards, resume=resume)
        # Correlate the ledger with this run's trace file (and any
        # earlier runs that touched it); not part of the fingerprint.
        store.note_run(run_id)

    # Per-shard retry budgets span resumes: the log is seeded from the
    # ledger's persisted history, so a shard that kept breaking earlier
    # runs arrives here with its failures on record and quarantines
    # instead of re-breaking this one.
    resilience_log = ResilienceLog.from_history(
        store.get_state("resilience") if store is not None else None
    )

    pending = [s for s in shards if s.shard_id not in restored]
    if shard_budget is not None:
        if shard_budget < 0:
            raise ValueError("shard_budget must be non-negative")
        pending = pending[:shard_budget]

    items_restored = sum(int(rec.get("n_items", 0)) for rec in restored.values())
    items_total_done = items_restored
    if progress is not None and items_restored:
        progress(items_total_done, total)

    # The approach every worker builds from ``config``: it packs the
    # published encoding and names the backend the workers ran.
    prototype = get_approach(config.approach, **config.approach_kwargs())

    # Arm the fault plan (if any): arming allocates the claim directory
    # that makes firing budgets exact across the whole process tree.  The
    # plan is installed locally for the coordinator's own sites
    # (shm.publish; worker-killing kinds are suppressed here) and shipped
    # to workers inside the payload — the only channel that reaches warm
    # fleets spawned before this run existed.
    fault_plan = resolve_fault_plan(faults)
    if fault_plan is not None and fault_plan.specs:
        fault_plan = fault_plan.arm()
    else:
        fault_plan = None
    previous_plan = current_plan()
    install_plan(fault_plan)

    shm_enabled = resolve_shm(shm, workers)
    payload = WorkerPayload(
        dataset=dataset,
        source=source,
        config=config,
        collect_minima=collect_snp_minima,
        faults=fault_plan,
    )
    runner = ProcessRunner(
        workers,
        payload,
        mp_context=mp_context,
        pool=pool,
        retry=retry,
        resilience=resilience_log,
    )

    from repro.distributed.shm import data_plane_delta, data_plane_snapshot

    parent_before = data_plane_snapshot()
    if shm_enabled and pending:
        payload.dataset = _publish_data_plane(
            dataset, prototype, runner.data_session()
        )

    from contextlib import nullcontext

    dispatch_span = (
        session.tracer.span(
            "shard.dispatch", shards=len(pending), workers=workers
        )
        if session is not None and pending
        else nullcontext()
    )

    outcomes: List[ShardOutcome] = []
    cancelled = False
    try:
        with dispatch_span:
            if session is not None and workers > 1 and pending:
                # Cross-process span propagation: workers activate a run
                # from this context, so their ``shard.run`` trees parent
                # under the dispatch span on the coordinator's timeline.
                payload.telemetry = session.context()
            if pending and not (cancel is not None and cancel.cancelled):
                shard_stream = runner.map_shards(pending)
                try:
                    for outcome in shard_stream:
                        outcomes.append(outcome)
                        if session is not None and outcome.spans:
                            session.tracer.absorb(outcome.spans)
                        if store is not None:
                            record: Dict[str, object] = {
                                "top": outcome.rows,
                                "n_items": int(outcome.n_items),
                                "elapsed_seconds": float(outcome.elapsed_seconds),
                                "op_counts": dict(outcome.op_counts),
                                "bytes_loaded": int(outcome.bytes_loaded),
                                "bytes_stored": int(outcome.bytes_stored),
                                "device_stats": outcome.device_stats,
                            }
                            if outcome.snp_minima is not None:
                                record["snp_minima"] = outcome.snp_minima
                            store.record_shard(outcome.shard_id, record)
                        items_total_done += outcome.n_items
                        if progress is not None:
                            progress(items_total_done, total)
                        if cancel is not None and cancel.cancelled:
                            cancelled = True
                            break
                finally:
                    shard_stream.close()
            elif cancel is not None and cancel.cancelled:
                cancelled = True
    finally:
        runner.close()
        install_plan(previous_plan)
    data_plane = _aggregate_data_plane(
        outcomes, data_plane_delta(parent_before)
    )

    shards_done = len(restored) + len(outcomes)
    completed = shards_done == len(shards) and not cancelled
    if store is not None and resilience_log.faulted:
        # The ledger's resilience history survives resumes: cumulative
        # per-shard failure counts plus a per-run event trail keyed by
        # run_id — what seeds the next resume's retry budgets.
        store.set_state(
            "resilience",
            merge_history(store.get_state("resilience"), run_id, resilience_log),
        )
    if completed and store is not None:
        store.finish()

    partial_rows = [rec.get("top", []) for rec in restored.values()]
    partial_rows.extend(outcome.rows for outcome in outcomes)
    top = [row_to_interaction(row) for row in merge_rows(partial_rows, config.top_k)]

    snp_minima = None
    if collect_snp_minima:
        partial_minima = [
            store.shard_minima(shard_id, rec)
            for shard_id, rec in restored.items()
        ]
        partial_minima.extend(outcome.snp_minima for outcome in outcomes)
        snp_minima = merge_minima(m for m in partial_minima if m is not None)

    elapsed = time.perf_counter() - started
    items_evaluated = sum(o.n_items for o in outcomes)

    # Operation/traffic accounting covers the whole search: fresh shards
    # plus the restored shards' recorded counts, so a resumed run's stats
    # still describe all n_combinations it reports.
    op_counts: Dict[str, int] = {}
    bytes_loaded = sum(o.bytes_loaded for o in outcomes)
    bytes_stored = sum(o.bytes_stored for o in outcomes)
    op_sources: List[Dict[str, int]] = [o.op_counts for o in outcomes]
    for rec in restored.values():
        op_sources.append(rec.get("op_counts", {}))
        bytes_loaded += int(rec.get("bytes_loaded", 0))
        bytes_stored += int(rec.get("bytes_stored", 0))
    for source_ops in op_sources:
        for mnemonic, count in source_ops.items():
            op_counts[mnemonic] = op_counts.get(mnemonic, 0) + int(count)

    # Restored shards contribute their recorded work accounting (items,
    # chunks, per-lane op counts) but no busy time — utilization describes
    # this run's execution only.
    shard_stats: List[Dict[str, Dict[str, object]]] = [
        {
            label: {**dict(entry), "busy_seconds": 0.0}
            for label, entry in rec.get("device_stats", {}).items()
        }
        for rec in restored.values()
    ]
    shard_stats.extend(o.device_stats for o in outcomes)
    # Normalise utilization by the pool that actually ran (the runner caps
    # its process count at the pending-shard count), not the requested
    # worker count.
    effective_processes = max(1, min(workers, len(pending)))
    device_stats = _aggregate_device_stats(
        shard_stats, elapsed, items_evaluated + items_restored, effective_processes
    )

    result: DetectionResult | None = None
    if completed:
        if not top:
            raise RuntimeError("distributed search produced no interactions")
        extra: Dict[str, object] = {
            "order": source.order,
            "schedule": get_policy(config.schedule).name,
            "backend": prototype.backend_name,
            "fused": config.fused,
            "candidates": source.describe(),
            "devices": device_stats,
            "run_id": run_id,
            "distributed": {
                "workers": workers,
                "n_shards": len(shards),
                "strategy": planner.strategy,
                "shards_restored": len(restored),
                "items_restored": items_restored,
                "items_evaluated": items_evaluated,
                "checkpoint": str(checkpoint) if checkpoint is not None else None,
                "mode": "inline" if workers == 1 else "processes",
                "pool": pool,
                "shm": shm_enabled,
                "data_plane": dict(data_plane),
                "fleet": runner.fleet_info(),
                "resilience": resilience_log.to_dict(),
            },
        }
        stats = ApproachStats(
            approach=config.approach,
            n_combinations=total,
            n_samples=dataset.n_samples,
            elapsed_seconds=elapsed,
            op_counts=op_counts,
            bytes_loaded=bytes_loaded,
            bytes_stored=bytes_stored,
            n_workers=workers * config.n_workers,
            extra=extra,
        )
        if session is not None:
            from repro.telemetry import absorb_stats

            absorb_stats(session, stats)
            extra["telemetry"] = session.summary()
        result = DetectionResult(best=top[0], top=list(top), stats=stats)

    shard_items = {
        shard_id: int(rec.get("n_items", 0)) for shard_id, rec in restored.items()
    }
    shard_items.update({o.shard_id: int(o.n_items) for o in outcomes})

    return DistributedOutcome(
        top=top,
        completed=completed,
        cancelled=cancelled,
        workers=workers,
        n_shards=len(shards),
        shards_done=shards_done,
        shards_restored=len(restored),
        items_total=total,
        items_evaluated=items_evaluated,
        items_restored=items_restored,
        elapsed_seconds=elapsed,
        result=result,
        snp_minima=snp_minima,
        checkpoint_path=str(checkpoint) if checkpoint is not None else None,
        device_stats=device_stats,
        op_counts=op_counts,
        bytes_loaded=bytes_loaded,
        bytes_stored=bytes_stored,
        shard_items=shard_items,
        data_plane=data_plane,
        resilience=resilience_log.to_dict(),
    )

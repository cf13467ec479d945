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
   shards through worker processes (or inline for ``workers=1``), and each
   arrived batch of shards is committed to the ledger in one atomic write
   (one shard per write inline) — a kill at any point loses at most the
   batches in flight plus the one being committed;
4. the partial top-k lists are folded by
   :func:`~repro.distributed.merge.merge_rows` under the explicit
   ``(score, combination-rank)`` total order, so the reported top-k is
   bit-identical for 1, 2 or 8 workers, with or without a resume cycle.
"""

from __future__ import annotations

import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.core.approaches import get_approach
from repro.core.detector import RunSpec
from repro.core.result import ApproachStats, DetectionResult, Interaction
from repro.datasets.dataset import GenotypeDataset
from repro.engine.candidates import CandidateSource
from repro.engine.policies import get_policy
from repro.distributed.checkpoint import CheckpointStore, dataset_fingerprint
from repro.distributed.merge import merge_minima, merge_rows, row_to_interaction
from repro.distributed.resilience import ResilienceLog, merge_history
from repro.distributed.runner import ProcessRunner, ShardOutcome, WorkerPayload
from repro.distributed.shards import ShardPlanner
from repro.distributed.shm import (
    data_plane_delta,
    data_plane_snapshot,
    publish_dataset,
    publish_encoding,
)
from repro.faults import current_plan, install_plan

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


def _aggregate_data_plane(
    outcomes: List[ShardOutcome], parent_delta: Dict[str, int]
) -> Dict[str, int]:
    """Sum the per-batch worker counter deltas with the parent's own."""
    totals: Dict[str, int] = dict(parent_delta)
    for outcome in outcomes:
        for name, count in outcome.data_plane.items():
            totals[name] = totals.get(name, 0) + int(count)
    return totals


def _ledger_record(outcome: ShardOutcome) -> Dict[str, object]:
    """The checkpoint ledger's record of one completed shard."""
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
    return record


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
    planner: ShardPlanner | None = None,
    shard_budget: int | None = None,
    collect_snp_minima: bool = False,
    progress: ProgressCallback | None = None,
    cancel=None,
    run_id: str | None = None,
    run: RunSpec | None = None,
    **run_fields,
) -> DistributedOutcome:
    """Execute a candidate sweep as a sharded multi-process run.

    Parameters
    ----------
    dataset / source:
        The case/control dataset and the candidate space to sweep.
    config:
        The :class:`~repro.core.detector.DetectorConfig` every worker runs
        (with the order taken from ``source``); ``approach`` must be a
        registry name (worker processes build their own instances).
        ``n_workers`` is the *per-process* host thread count.
    planner:
        Shard planner override (default: a
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
        after each committed batch of shards.
    run_id:
        Run identity correlating the result, checkpoint ledger and trace
        file; defaults to the ambient telemetry run's id (when the
        detector or pipeline owns one) or a fresh id.
    run / **run_fields:
        Where the sweep runs: a :class:`~repro.core.detector.RunSpec` (worker
        processes, ledger file, resume, pool, data plane, retry policy,
        fault plan) and its fields applied on top of it.  ``workers=1``
        runs the identical shard/checkpoint path inline; without a
        ``checkpoint`` a killed run loses everything.  See the module docs
        of :mod:`repro.distributed.runner` for the degradation ladder a
        failing run climbs and the poison-shard quarantine guarantee.
    """
    run = RunSpec.of(run, **run_fields)
    if not isinstance(config.approach, str):
        raise TypeError(
            "distributed execution requires the approach as a registry name; "
            f"got {type(config.approach).__name__} (worker processes build "
            "their own instances)"
        )
    if source.total < 1:
        raise ValueError("cannot distribute an empty candidate source")
    if shard_budget is not None and shard_budget < 0:
        raise ValueError("shard_budget must be non-negative")

    from repro.telemetry import absorb_stats, join_run

    # Join the ambient telemetry run (the detector or pipeline usually
    # owns it); direct callers (benchmarks) own the run themselves.
    with join_run(config.telemetry, run_id) as (session, run_id):
        total = source.total
        started = time.perf_counter()
        shards = (planner or ShardPlanner()).plan(total)
        store: CheckpointStore | None = None
        restored: Dict[int, Dict[str, object]] = {}
        if run.checkpoint is not None:
            store = CheckpointStore(run.checkpoint)
            fingerprint = {
                "dataset": dataset_fingerprint(dataset),
                # Content identity, not just geometry: explicit-rank/tuple and
                # subset sources digest their defining arrays, so a ledger can
                # never splice partials from a same-shaped but different
                # candidate set.
                "source": source.fingerprint(),
                "search": config.ledger_key(collect_snp_minima),
            }
            restored = store.begin(fingerprint, shards, resume=run.resume)
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
            pending = pending[:shard_budget]

        items_restored = sum(int(rec.get("n_items", 0)) for rec in restored.values())
        items_total_done = items_restored
        if progress is not None and items_restored:
            progress(items_total_done, total)

        # The approach every worker builds from ``config``: it packs the
        # published encoding and names the backend the workers ran.
        prototype = get_approach(config.approach, **config.approach_kwargs())

        parent_before = data_plane_snapshot()
        payload = WorkerPayload(
            dataset=dataset,
            source=source,
            config=config,
            collect_minima=collect_snp_minima,
        )
        dispatch_span = (
            session.tracer.span(
                "shard.dispatch", shards=len(pending), workers=run.workers
            )
            if session is not None and pending
            else nullcontext()
        )
        outcomes: List[ShardOutcome] = []
        cancelled = False
        previous_plan = current_plan()
        runner = None
        try:
            # Arm the fault plan (if any): arming allocates the claim
            # directory that makes firing budgets exact across the whole
            # process tree.  The plan is installed locally for the
            # coordinator's own sites (shm.publish; worker-killing kinds are
            # suppressed here) and shipped to workers inside the payload —
            # the only channel that reaches warm fleets spawned before this
            # run existed.
            if run.faults.specs:
                payload.faults = run.faults.arm()
            install_plan(payload.faults)
            runner = ProcessRunner(run, payload, resilience=resilience_log)
            if run.shm and pending:
                payload.dataset = _publish_data_plane(
                    dataset, prototype, runner.data_session()
                )
            with dispatch_span:
                if session is not None and run.workers > 1 and pending:
                    # Cross-process span propagation: workers activate a run
                    # from this context, so their ``shard.run`` trees parent
                    # under the dispatch span on the coordinator's timeline.
                    payload.telemetry = session.context()
                if pending and not (cancel is not None and cancel.cancelled):
                    shard_stream = runner.map_shards(pending)
                    try:
                        for arrived in shard_stream:
                            outcomes.extend(arrived)
                            for outcome in arrived:
                                if session is not None and outcome.spans:
                                    session.tracer.absorb(outcome.spans)
                                if store is not None:
                                    store.record_shard(
                                        outcome.shard_id, _ledger_record(outcome)
                                    )
                            if store is not None:
                                # One commit per arrived batch: a kill leaves
                                # the batch on disk whole or not at all.
                                store.write()
                            for outcome in arrived:
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
            if runner is not None:
                runner.close()
            install_plan(previous_plan)
            if payload.faults is not None and payload.faults is not run.faults:
                # This run armed the plan, so it owns the claim directory; a
                # late worker finding it gone stands down without firing.
                shutil.rmtree(payload.faults.claim_dir, ignore_errors=True)
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
        effective_processes = max(1, min(run.workers, len(pending)))
        device_stats = _aggregate_device_stats(
            shard_stats, elapsed, items_evaluated + items_restored, effective_processes
        )

        checkpoint_path = str(run.checkpoint) if run.checkpoint is not None else None
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
                    "workers": run.workers,
                    "n_shards": len(shards),
                    "shards_restored": len(restored),
                    "items_restored": items_restored,
                    "items_evaluated": items_evaluated,
                    "checkpoint": checkpoint_path,
                    "mode": "inline" if run.workers == 1 else "processes",
                    "pool": run.pool,
                    "shm": run.shm,
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
                n_workers=run.workers * config.n_workers,
                extra=extra,
            )
            if session is not None:
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
            workers=run.workers,
            n_shards=len(shards),
            shards_done=shards_done,
            shards_restored=len(restored),
            items_total=total,
            items_evaluated=items_evaluated,
            items_restored=items_restored,
            elapsed_seconds=elapsed,
            result=result,
            snp_minima=snp_minima,
            checkpoint_path=checkpoint_path,
            device_stats=device_stats,
            op_counts=op_counts,
            bytes_loaded=bytes_loaded,
            bytes_stored=bytes_stored,
            shard_items=shard_items,
            data_plane=data_plane,
            resilience=resilience_log.to_dict(),
        )

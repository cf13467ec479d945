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
from repro.core.scoring import K2Score, get_objective
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
    publish_logfact,
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
    #: Data-plane counter increments of this run (parent publishes plus
    #: every worker batch's delta): segments published/attached/reused,
    #: encoding-cache hits/misses/shm-hits, datasets pickled vs attached.
    data_plane: Dict[str, int] = field(default_factory=dict)
    #: What the fault-tolerance machinery did this run
    #: (:meth:`~repro.distributed.resilience.ResilienceLog.to_dict`):
    #: retries, watchdog kills, pool breaks, ladder rung, quarantined
    #: shards and per-shard failed-attempt counts.
    resilience: Dict[str, object] = field(default_factory=dict)


def _aggregate_device_stats(
    records: Dict[int, Dict[str, object]],
    restored: Dict[int, Dict[str, object]],
    elapsed: float,
    n_processes: int,
) -> Dict[str, Dict[str, object]]:
    """Sum the shard records' engine lane statistics into run-level stats.

    ``busy_seconds`` accumulates across every shard of every worker
    process, so the capacity normalising the utilization is the wall clock
    times the *fleet-wide* lane thread count (per-process lane workers x
    worker processes); restored shards contribute their recorded stats but
    no busy time, so a resumed run's utilization reflects only this run's
    execution.
    """
    stats: Dict[str, Dict[str, object]] = {}
    n_items = 0
    for shard_id, record in records.items():
        n_items += int(record.get("n_items", 0))
        for label, entry in record.get("device_stats", {}).items():
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
            if shard_id not in restored:
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


def _publish_data_plane(dataset, prototype, config, session):
    """Publish the dataset, its encoding and K2's table into shared memory.

    Returns ``(handle, logfact)``: the
    :class:`~repro.distributed.shm.DatasetHandle` the payload ships in
    place of the arrays, and the digest of the published K2 log-factorial
    table (``None`` for other objectives, or K2 with ``precompute`` off).
    The prototype lane's prepared encoding is packed once here (through the
    process-wide cache, so repeated runs reuse it) and published alongside;
    GPU layouts carry device-side state and are rebuilt worker-side from
    the shared dataset instead.  The K2 table is built here, once for the
    whole fleet, so no worker evaluates ``gammaln`` (or imports
    ``scipy.special``) to build its own.
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
    logfact = None
    objective = get_objective(config.objective)
    if isinstance(objective, K2Score) and objective.precompute:
        table = K2Score.log_factorials(dataset.n_samples)
        logfact = publish_logfact(table, session=session)
    return handle, logfact


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
                payload.dataset, payload.logfact = _publish_data_plane(
                    dataset, prototype, config, runner.data_session()
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
                                    store.record_shard(outcome.shard_id, outcome.record)
                            if store is not None:
                                # One commit per arrived batch: a kill leaves
                                # the batch on disk whole or not at all.
                                store.write()
                            for outcome in arrived:
                                items_total_done += outcome.record["n_items"]
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

        # One fold over every shard's record, restored or fresh: rows,
        # minima and the operation/traffic accounting cover the whole
        # search, so a resumed run's stats still describe all
        # n_combinations it reports.
        records = {**restored, **{o.shard_id: o.record for o in outcomes}}
        shards_done = len(records)
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

        partial_rows: List[list] = []
        partial_minima = []
        op_counts: Dict[str, int] = {}
        bytes_loaded = bytes_stored = 0
        for shard_id, record in records.items():
            partial_rows.append(record.get("top", []))
            if collect_snp_minima:
                partial_minima.append(
                    store.shard_minima(shard_id, record)
                    if store is not None
                    else record.get("snp_minima")
                )
            for mnemonic, count in record.get("op_counts", {}).items():
                op_counts[mnemonic] = op_counts.get(mnemonic, 0) + int(count)
            bytes_loaded += int(record.get("bytes_loaded", 0))
            bytes_stored += int(record.get("bytes_stored", 0))
        top = [row_to_interaction(row) for row in merge_rows(partial_rows, config.top_k)]
        snp_minima = merge_minima(partial_minima) if collect_snp_minima else None

        elapsed = time.perf_counter() - started
        items_evaluated = sum(int(o.record["n_items"]) for o in outcomes)
        # Normalise utilization by the pool that actually ran (the runner caps
        # its process count at the pending-shard count), not the requested
        # worker count.
        effective_processes = max(1, min(run.workers, len(pending)))
        device_stats = _aggregate_device_stats(
            records, restored, elapsed, effective_processes
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
            result = DetectionResult(
                best=top[0], top=list(top), stats=stats, snp_minima=snp_minima
            )

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
            data_plane=data_plane,
            resilience=resilience_log.to_dict(),
        )

"""Analytical scaling model for sharded multi-process runs.

A distributed sweep pays three costs on top of the per-process compute:

* the **broadcast** of the (encoded) dataset to every worker process — at
  pool start each spawn-context worker receives its own copy;
* the **gather** of per-shard partial top-k results back to the
  coordinator (tiny: ``top_k`` rows per shard);
* **imbalance**: with pull-based shard scheduling the run ends when the
  last worker drains its final shard, so the makespan is the greedy
  list-scheduling makespan of the shard sizes rather than ``total / W``.

:func:`estimate_distributed_run` combines these with the per-process
device throughput of the existing CARM models
(:func:`repro.perfmodel.efficiency.device_throughput`) into a modelled
wall-clock, throughput and parallel efficiency per worker count — the
reference curve ``benchmarks/bench_distributed.py`` plots measured process
scaling against.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.engine.plan import EngineDevice
from repro.perfmodel.efficiency import (
    HETEROGENEOUS_EFFICIENCY,
    device_throughput,
)

__all__ = [
    "DEFAULT_LINK_BYTES_PER_SECOND",
    "DEFAULT_SPAWN_SECONDS_PER_WORKER",
    "DEFAULT_ATTACH_SECONDS",
    "estimate_broadcast_seconds",
    "estimate_gather_seconds",
    "estimate_spawn_seconds",
    "estimate_recovery_seconds",
    "shard_imbalance",
    "estimate_distributed_run",
]

#: Modelled coordinator↔worker link bandwidth.  Worker processes on one
#: host receive their payload through pipes backed by memory copies; 2 GB/s
#: is a conservative figure for pickled-ndarray transfer on commodity DDR4
#: (and close to a 25 GbE fabric if ranks were spread across nodes).
DEFAULT_LINK_BYTES_PER_SECOND: float = 2e9

#: Modelled cost of starting one spawn-context worker process: fork+exec of
#: a fresh interpreter, importing the package and, at its first K2 shard,
#: attaching the log-factorial table its coordinator published.  Measured
#: on 2 vCPUs (median of 7 fresh interpreters running ``import repro`` plus
#: one table attach, 16 384 samples): 0.45 s, 1.3x this value.  A worker
#: that builds the table itself (``K2Score.prepare``, which imports
#: ``scipy.special``; ``shm="off"``) took 0.71 s (2.0x) in the same runs,
#: and 1.86 s (5.3x) while ``import repro`` still loaded ``scipy.stats``.
#: Paid per run with ``pool="fresh"``; a warm fleet (``pool="keep"``)
#: amortises it across every later run, which the model prices as zero
#: marginal spawn cost.
DEFAULT_SPAWN_SECONDS_PER_WORKER: float = 0.35

#: Modelled cost of a worker attaching one shared-memory segment: an
#: ``shm_open`` + ``mmap`` + manifest parse — milliseconds, independent of
#: the segment size (the pages are mapped, not copied).
DEFAULT_ATTACH_SECONDS: float = 0.002


def estimate_broadcast_seconds(
    dataset_bytes: int,
    n_workers: int,
    link_bytes_per_second: float = DEFAULT_LINK_BYTES_PER_SECOND,
) -> float:
    """Modelled cost of shipping the dataset to every worker process.

    The coordinator serialises one copy per worker (spawn-context pools
    cannot share pages), so the cost grows linearly with the worker count.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    if link_bytes_per_second <= 0:
        raise ValueError("link bandwidth must be positive")
    return n_workers * max(0, int(dataset_bytes)) / link_bytes_per_second


def estimate_gather_seconds(
    n_shards: int,
    top_k: int,
    n_workers: int,
    bytes_per_row: int = 64,
    link_bytes_per_second: float = DEFAULT_LINK_BYTES_PER_SECOND,
) -> float:
    """Modelled cost of streaming per-shard partial top-k results back.

    Every shard returns ``top_k`` rows of roughly ``bytes_per_row`` bytes
    (score + SNP tuple + names); the gather is serialised on the
    coordinator regardless of the worker count.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    return max(0, n_shards) * max(1, top_k) * bytes_per_row / link_bytes_per_second


def estimate_spawn_seconds(
    n_workers: int,
    pool: str = "fresh",
    spawn_seconds_per_worker: float = DEFAULT_SPAWN_SECONDS_PER_WORKER,
) -> float:
    """Modelled process-startup cost of one run.

    ``pool="fresh"`` pays one interpreter spawn per worker (spawns proceed
    concurrently but contend for the same cores and page cache, so the cost
    is modelled linear, matching measurements on 2-8 worker pools);
    ``pool="keep"`` runs on the process-wide warm fleet whose spawn was paid
    by an earlier run — zero marginal cost.  One worker always runs inline
    (no pool at all).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    if pool not in ("keep", "fresh"):
        raise ValueError(f"pool must be 'keep' or 'fresh', got {pool!r}")
    if n_workers == 1 or pool == "keep":
        return 0.0
    return n_workers * max(0.0, spawn_seconds_per_worker)


def estimate_recovery_seconds(
    n_failures: int,
    shard_seconds: float,
    n_workers: int,
    *,
    backoff_seconds: float = 0.05,
    pool_break_every: int = 1,
    spawn_seconds_per_worker: float = DEFAULT_SPAWN_SECONDS_PER_WORKER,
) -> float:
    """Modelled wall-clock cost of recovering from ``n_failures`` crashes.

    Each failure re-executes its shard (one ``shard_seconds`` of lost
    compute), waits out the runner's exponential backoff (the
    :class:`repro.distributed.resilience.RetryPolicy` schedule from
    ``backoff_seconds``, with its ``BACKOFF_FACTOR`` and
    ``MAX_BACKOFF_SECONDS``), and, when the crash broke the process pool
    (every ``pool_break_every``-th failure; SIGKILL always does, an
    in-worker exception never does), pays one pool respawn of
    ``n_workers`` interpreter starts.
    """
    # Imported at call time: the models add no import-time dependency on
    # repro.distributed, a layer above them.
    from repro.distributed.resilience import BACKOFF_FACTOR, MAX_BACKOFF_SECONDS

    if n_failures < 0:
        raise ValueError("n_failures must be non-negative")
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    total = 0.0
    for attempt in range(n_failures):
        total += max(0.0, shard_seconds)
        total += min(
            MAX_BACKOFF_SECONDS, backoff_seconds * BACKOFF_FACTOR**attempt
        )
        if pool_break_every > 0 and (attempt + 1) % pool_break_every == 0:
            total += n_workers * max(0.0, spawn_seconds_per_worker)
    return total


def shard_imbalance(shard_sizes: Sequence[int], n_workers: int) -> float:
    """Makespan inflation of pull-based shard scheduling (``>= 1.0``).

    Greedy list scheduling (each idle worker claims the next shard, in plan
    order — exactly what the process pool does) is simulated over the shard
    sizes; the result is the makespan divided by the perfectly balanced
    ``total / n_workers``.  Equal-size shards with ``n_shards %% n_workers
    == 0`` give 1.0; a single shard gives ``n_workers``.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    sizes = [int(s) for s in shard_sizes if int(s) > 0]
    total = sum(sizes)
    if total == 0:
        return 1.0
    loads = [0] * n_workers
    for size in sizes:
        loads[loads.index(min(loads))] += size
    return max(loads) / (total / n_workers)


def estimate_distributed_run(
    n_candidates: int,
    n_samples: int,
    n_snps: int,
    *,
    order: int = 3,
    n_workers: int = 1,
    devices: Sequence[EngineDevice] | None = None,
    approach_version: int = 4,
    dataset_bytes: int | None = None,
    n_shards: int = 32,
    shard_sizes: Sequence[int] | None = None,
    top_k: int = 10,
    link_bytes_per_second: float = DEFAULT_LINK_BYTES_PER_SECOND,
    pool: str = "keep",
    shm: bool = False,
    spawn_seconds_per_worker: float = DEFAULT_SPAWN_SECONDS_PER_WORKER,
    attach_seconds: float = DEFAULT_ATTACH_SECONDS,
    n_failures: int = 0,
) -> Dict[str, object]:
    """Modelled wall-clock and scaling of a sharded multi-process sweep.

    Parameters
    ----------
    n_candidates / n_samples / n_snps / order:
        Shape of the sweep (``elements = n_candidates * n_samples``, the
        paper's throughput unit).
    n_workers:
        Worker process count.
    devices:
        Engine device lanes *per worker process* (default: one catalogued
        CPU lane); heterogeneous lanes aggregate like the in-process
        engine, degraded by the §V-D coordination efficiency.
    dataset_bytes:
        Broadcast payload size; defaults to the raw genotype+phenotype
        matrix (``n_snps * n_samples + n_samples`` bytes).
    n_shards / shard_sizes:
        The shard plan: explicit sizes win, otherwise ``n_shards``
        near-equal shards (the planner's static default).
    pool / shm:
        The data-plane configuration (mirrors ``run_distributed``):
        ``pool="fresh"`` adds :func:`estimate_spawn_seconds` (per-run
        process startup), ``pool="keep"`` (default) models the warm fleet
        — zero marginal spawn cost.  ``shm=True`` replaces the per-worker
        broadcast with *one* shared-memory publish copy plus a per-worker
        ``attach_seconds`` map — the term that turns the linear-in-workers
        broadcast cost into a constant.
    n_failures:
        Expected worker crashes over the run; each adds one shard
        re-execution, the retry backoff and a pool respawn
        (:func:`estimate_recovery_seconds`).  The fault-free model is
        ``n_failures=0`` (the default): detection is passive (the pool
        break surfaces the failure), so resilience costs nothing until a
        fault actually happens.

    Returns
    -------
    dict
        JSON-ready document with the per-worker throughput, the
        communication and imbalance components, the modelled wall-clock and
        effective elements/s, and ``speedup`` / ``efficiency`` relative to
        one worker of the same configuration.
    """
    if n_candidates < 0:
        raise ValueError("n_candidates must be non-negative")
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    lanes = list(devices) if devices else [EngineDevice(kind="cpu")]
    throughputs = [
        device_throughput(
            lane.spec(),
            n_snps=max(n_snps, order),
            n_samples=n_samples,
            approach_version=approach_version,
            order=order,
        )
        for lane in lanes
    ]
    per_worker = sum(throughputs)
    if len(throughputs) > 1:
        per_worker = max(per_worker * HETEROGENEOUS_EFFICIENCY, max(throughputs))

    if dataset_bytes is None:
        dataset_bytes = n_snps * n_samples + n_samples
    sizes: List[int]
    if shard_sizes is not None:
        sizes = [int(s) for s in shard_sizes]
    else:
        count = max(1, min(n_shards, n_candidates or 1))
        base, extra = divmod(n_candidates, count)
        sizes = [base + (1 if i < extra else 0) for i in range(count)]

    elements = n_candidates * n_samples
    imbalance = shard_imbalance(sizes, n_workers)
    compute_seconds = (
        elements / (per_worker * n_workers) * imbalance if elements else 0.0
    )
    if shm and n_workers > 1:
        # One publish copy into shared memory, then every worker maps the
        # pages — transfer no longer scales with the worker count.
        broadcast_seconds = estimate_broadcast_seconds(
            dataset_bytes, 1, link_bytes_per_second
        )
        attach_total = n_workers * max(0.0, attach_seconds)
    else:
        broadcast_seconds = estimate_broadcast_seconds(
            dataset_bytes, n_workers, link_bytes_per_second
        )
        attach_total = 0.0
    gather_seconds = estimate_gather_seconds(
        len(sizes), top_k, n_workers, link_bytes_per_second=link_bytes_per_second
    )
    spawn_seconds = estimate_spawn_seconds(
        n_workers, pool, spawn_seconds_per_worker
    )
    shard_seconds = (
        max(sizes) * n_samples / per_worker if sizes and elements else 0.0
    )
    recovery_seconds = estimate_recovery_seconds(
        n_failures,
        shard_seconds,
        n_workers,
        spawn_seconds_per_worker=spawn_seconds_per_worker,
    )
    total_seconds = (
        compute_seconds
        + broadcast_seconds
        + attach_total
        + gather_seconds
        + spawn_seconds
        + recovery_seconds
    )

    ideal_single = elements / per_worker if elements else 0.0
    single_seconds = (
        ideal_single
        + estimate_broadcast_seconds(dataset_bytes, 1, link_bytes_per_second)
        + gather_seconds
    )
    speedup = single_seconds / total_seconds if total_seconds > 0 else 1.0
    return {
        "n_workers": n_workers,
        "n_shards": len(sizes),
        "per_worker_elements_per_second": per_worker,
        "imbalance": imbalance,
        "pool": pool,
        "shm": bool(shm and n_workers > 1),
        "compute_seconds": compute_seconds,
        "broadcast_seconds": broadcast_seconds,
        "attach_seconds": attach_total,
        "spawn_seconds": spawn_seconds,
        "gather_seconds": gather_seconds,
        "n_failures": int(n_failures),
        "recovery_seconds": recovery_seconds,
        "estimated_seconds": total_seconds,
        "elements_per_second": (
            elements / total_seconds if total_seconds > 0 else float("inf")
        ),
        "speedup_vs_single": speedup,
        "parallel_efficiency": speedup / n_workers,
    }

"""Sharded multi-process execution with checkpoint/resume and deterministic merge.

The fourth execution layer of the library (engine → order-generic core →
staged pipeline → **distributed**): any candidate sweep can be cut into
rank-addressable shards, executed across OS worker processes (each running
the full in-process heterogeneous engine over its shard), checkpointed
batch by batch into an atomic JSON ledger, resumed after a kill, and
merged under an explicit ``(score, combination-rank)`` total order so the
reported top-k is bit-identical for any worker count.

* :mod:`repro.distributed.shards` — :class:`Shard`, :class:`ShardView` and
  the :class:`ShardPlanner` (near-equal cuts, independent of the worker
  count);
* :mod:`repro.distributed.runner` — spawn-safe :class:`ProcessRunner`
  worker pool streaming per-shard partial top-k results back;
* :mod:`repro.distributed.checkpoint` — the atomic
  :class:`CheckpointStore` shard ledger enabling ``--resume``;
* :mod:`repro.distributed.shm` — the zero-copy shared-memory data plane
  (:class:`SharedEncodingStore`, :class:`DatasetHandle`): workers attach
  read-only views of the published dataset and encodings instead of
  unpickling arrays;
* :mod:`repro.distributed.fleet` — persistent warm worker fleets
  (:class:`WorkerFleet`) surviving across ``detect()`` calls and pipeline
  stages;
* :mod:`repro.distributed.resilience` — fault-tolerance policy
  (:class:`RetryPolicy`: bounded retries with backoff and a
  heartbeat-watchdog deadline; the warm → respawned → inline degradation
  ladder and poison-shard quarantine) and the per-run
  :class:`ResilienceLog`, the one record of every recovery;
* :mod:`repro.distributed.merge` — deterministic partial-result folding;
* :mod:`repro.distributed.coordinator` — :func:`run_distributed`, the
  orchestration loop behind ``detect_candidates(..., workers=N,
  checkpoint=...)`` (and so behind ``detect``, the staged pipeline's sweep
  stages and the MPI3SNP baseline's process ranks).
"""

from repro.distributed.shards import (
    DEFAULT_SHARD_COUNT,
    Shard,
    ShardPlanner,
    ShardView,
)
from repro.distributed.checkpoint import (
    CheckpointStore,
    JsonLedger,
    dataset_fingerprint,
)
from repro.distributed.merge import (
    interaction_to_row,
    merge_minima,
    merge_rows,
    row_to_interaction,
    row_sort_key,
)
from repro.distributed.resilience import (
    DEFAULT_RETRY_POLICY,
    LADDER_RUNGS,
    ResilienceLog,
    RetryPolicy,
)
from repro.distributed.runner import ProcessRunner, ShardOutcome, WorkerPayload
from repro.distributed.coordinator import DistributedOutcome, run_distributed
from repro.distributed.fleet import WorkerFleet, get_fleet, shutdown_fleets
from repro.distributed.shm import (
    DatasetHandle,
    SegmentInfo,
    SharedEncodingStore,
    StoreSession,
    data_plane_snapshot,
    hydrate_dataset,
    load_encoding,
    publish_dataset,
    publish_encoding,
    reap_orphans,
    scan_segments,
    shared_store,
)

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "Shard",
    "ShardView",
    "ShardPlanner",
    "CheckpointStore",
    "JsonLedger",
    "dataset_fingerprint",
    "interaction_to_row",
    "row_to_interaction",
    "row_sort_key",
    "merge_rows",
    "merge_minima",
    "ProcessRunner",
    "ShardOutcome",
    "WorkerPayload",
    "DistributedOutcome",
    "run_distributed",
    "WorkerFleet",
    "get_fleet",
    "shutdown_fleets",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "ResilienceLog",
    "LADDER_RUNGS",
    "DatasetHandle",
    "SegmentInfo",
    "SharedEncodingStore",
    "StoreSession",
    "shared_store",
    "publish_dataset",
    "hydrate_dataset",
    "publish_encoding",
    "load_encoding",
    "scan_segments",
    "reap_orphans",
    "data_plane_snapshot",
]

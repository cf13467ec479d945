"""Unified heterogeneous execution engine.

Every exhaustive search entry point of the library — the three-way
:class:`~repro.core.detector.EpistasisDetector`, the pairwise screen, the
MPI3SNP-style baseline and the CLI — executes through this package instead
of rolling its own loop:

* :mod:`repro.engine.candidates` — the :class:`CandidateSource` work model:
  dense rank ranges, explicit rank/combination arrays and subset-restricted
  enumeration (the geometries of the staged search pipeline);
* :mod:`repro.engine.plan` — :class:`EngineDevice` lanes and the
  declarative :class:`ExecutionPlan` (a candidate source, lanes, a policy);
* :mod:`repro.engine.policies` — the pluggable :class:`SchedulingPolicy`
  family (``dynamic``, ``static``, ``guided`` and the CARM-ratio
  heterogeneous splitter of §V-D, priced by the analytical model);
* :mod:`repro.engine.scheduling` — the one locked claim cursor,
  :class:`SharedCursor`, and the fixed and guided claim views over it;
* :mod:`repro.engine.autotune` — the adaptive claim view of
  ``chunk_size="auto"`` lanes;
* :mod:`repro.engine.worker` — per-thread :class:`DeviceWorker` with the
  bounded-memory streaming top-k reduction;
* :mod:`repro.engine.executor` — :class:`HeterogeneousExecutor`, which runs
  a plan with a scorer (one kernel contract), per-device statistics,
  progress reporting and cooperative cancellation.
"""

from repro.engine.autotune import (
    AUTO_CHUNK,
    AdaptiveChunkSource,
    AutotuneConfig,
    is_auto_chunk,
)
from repro.engine.scheduling import (
    FixedChunkSource,
    GuidedChunkSource,
    Range,
    SharedCursor,
    WorkSource,
    static_partition,
)
from repro.engine.plan import (
    DEFAULT_CATALOG_KEYS,
    DEVICE_KINDS,
    EngineDevice,
    ExecutionPlan,
    parse_devices,
)
from repro.engine.policies import (
    CarmRatioPolicy,
    DeviceAssignment,
    DynamicPolicy,
    GuidedPolicy,
    POLICIES,
    SchedulingPolicy,
    StaticPolicy,
    get_policy,
    list_policies,
)
from repro.engine.candidates import (
    CandidateSource,
    DenseRangeSource,
    ExplicitCombinationSource,
    ExplicitRankSource,
    SubsetSource,
)
from repro.engine.worker import DeviceWorker, TopKHeap, source_evaluator
from repro.engine.executor import (
    CancellationToken,
    EngineResult,
    HeterogeneousExecutor,
)

__all__ = [
    "AUTO_CHUNK",
    "AdaptiveChunkSource",
    "AutotuneConfig",
    "is_auto_chunk",
    "Range",
    "WorkSource",
    "SharedCursor",
    "FixedChunkSource",
    "GuidedChunkSource",
    "static_partition",
    "DEVICE_KINDS",
    "DEFAULT_CATALOG_KEYS",
    "EngineDevice",
    "ExecutionPlan",
    "parse_devices",
    "SchedulingPolicy",
    "DeviceAssignment",
    "DynamicPolicy",
    "StaticPolicy",
    "GuidedPolicy",
    "CarmRatioPolicy",
    "POLICIES",
    "get_policy",
    "list_policies",
    "CandidateSource",
    "DenseRangeSource",
    "ExplicitRankSource",
    "ExplicitCombinationSource",
    "SubsetSource",
    "TopKHeap",
    "DeviceWorker",
    "source_evaluator",
    "CancellationToken",
    "EngineResult",
    "HeterogeneousExecutor",
]

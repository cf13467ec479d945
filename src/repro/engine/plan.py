"""Execution plans: which devices run a search, and how.

An :class:`ExecutionPlan` is the declarative input of the
:class:`~repro.engine.executor.HeterogeneousExecutor`: the
:class:`~repro.engine.candidates.CandidateSource` whose work items the run
covers, the participating :class:`EngineDevice` lanes and the
:class:`~repro.engine.policies.SchedulingPolicy` that carves the items
across them.  Every search entry point (k-way detector, staged pipeline
stages, MPI3SNP-style baseline, CLI) builds one of these instead of rolling
its own execution loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.engine.candidates import CandidateSource
    from repro.engine.policies import SchedulingPolicy

__all__ = ["DEVICE_KINDS", "DEFAULT_CATALOG_KEYS", "EngineDevice", "parse_devices", "ExecutionPlan"]

#: Device families the engine knows how to drive.
DEVICE_KINDS = ("cpu", "gpu")

#: Table I/II catalog entries used for the lanes' CARM throughput estimates:
#: the Ice Lake SP Xeon and the Titan Xp — the CPU+GPU pairing of the
#: paper's §V-D heterogeneous projection.
DEFAULT_CATALOG_KEYS = {"cpu": "CI3", "gpu": "GN4"}


@dataclass
class EngineDevice:
    """One device lane of an execution plan.

    Attributes
    ----------
    kind:
        Device family, ``"cpu"`` or ``"gpu"``.
    n_workers:
        Host threads driving this lane.  A simulated GPU is fed by a single
        host thread (one stream of kernel launches); a CPU lane typically
        runs one worker per core.
    chunk_size:
        Work items per claimed chunk on this lane (the unit of dynamic
        scheduling and of the vectorised kernel batch), the string
        ``"auto"`` to let each worker of the lane tune its claim size from
        measured per-chunk throughput
        (:mod:`repro.engine.autotune`), or ``None`` (unset) for whoever
        builds the plan to size: the detector sizes unset claims from the
        kernel byte budget (``EpistasisDetector.engine_devices``), and a
        plan cannot run a lane left unset.
    """

    kind: str = "cpu"
    n_workers: int = 1
    chunk_size: int | str | None = None

    def __post_init__(self) -> None:
        from repro.engine.autotune import is_auto_chunk

        if self.kind not in DEVICE_KINDS:
            raise ValueError(f"unknown device kind {self.kind!r}; expected one of {DEVICE_KINDS}")
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if isinstance(self.chunk_size, str):
            if not is_auto_chunk(self.chunk_size):
                raise ValueError(
                    f"chunk_size must be a positive integer or 'auto'; "
                    f"got {self.chunk_size!r}"
                )
        elif self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")

    @property
    def autotune(self) -> bool:
        """Whether this lane's chunk size is autotuned."""
        from repro.engine.autotune import is_auto_chunk

        return is_auto_chunk(self.chunk_size)

    def spec(self):
        """The catalogued device spec backing this lane (for CARM estimates):
        :data:`DEFAULT_CATALOG_KEYS` names one per ``kind``."""
        from repro.devices.catalog import device

        return device(DEFAULT_CATALOG_KEYS[self.kind])


def parse_devices(
    spec: str,
    n_workers: int = 1,
    chunk_size: int | str | None = None,
    gpu_workers: int = 1,
) -> List[EngineDevice]:
    """Parse a CLI-style device expression into engine device lanes.

    ``"cpu"`` and ``"gpu"`` yield a single lane; ``"cpu+gpu"`` (in either
    order) yields a heterogeneous two-lane plan.  CPU lanes receive
    ``n_workers`` host threads, GPU lanes ``gpu_workers`` (default one — a
    simulated GPU is a single launch stream).
    """
    kinds = [part.strip().lower() for part in spec.split("+") if part.strip()]
    if not kinds:
        raise ValueError(f"empty device expression {spec!r}")
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"duplicate device kind in {spec!r}")
    for kind in kinds:
        if kind not in DEVICE_KINDS:
            raise ValueError(
                f"unknown device kind {kind!r} in {spec!r}; expected combinations of {DEVICE_KINDS}"
            )
    return [
        EngineDevice(
            kind=kind,
            n_workers=n_workers if kind == "cpu" else gpu_workers,
            chunk_size=chunk_size,
        )
        for kind in kinds
    ]


@dataclass
class ExecutionPlan:
    """Declarative description of one engine run.

    Attributes
    ----------
    source:
        The :class:`~repro.engine.candidates.CandidateSource` mapping the
        run's work items ``[0, source.total)`` to SNP k-tuples; the executor
        materialises each claimed chunk through it.
    devices:
        Participating device lanes.
    policy:
        Scheduling policy instance carving the work items across the lanes
        (default: :class:`~repro.engine.policies.DynamicPolicy`).
    top_k:
        Number of best-scoring interactions retained by the streaming
        reduction.
    """

    source: "CandidateSource"
    devices: List[EngineDevice] = field(default_factory=lambda: [EngineDevice()])
    policy: "SchedulingPolicy | None" = None
    top_k: int = 10

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("an execution plan needs at least one device")
        if self.top_k < 1:
            raise ValueError("top_k must be positive")
        if self.policy is None:
            from repro.engine.policies import DynamicPolicy

            self.policy = DynamicPolicy()

    @property
    def total(self) -> int:
        """Number of work items to cover (the source's candidate count)."""
        return self.source.total

    @property
    def total_workers(self) -> int:
        """Host threads across all device lanes."""
        return sum(d.n_workers for d in self.devices)

    def device_labels(self) -> List[str]:
        """Stable per-lane labels: the kind, suffixed when kinds repeat."""
        labels: List[str] = []
        counts: dict[str, int] = {}
        for dev in self.devices:
            counts[dev.kind] = counts.get(dev.kind, 0) + 1
        seen: dict[str, int] = {}
        for dev in self.devices:
            if counts[dev.kind] == 1:
                labels.append(dev.kind)
            else:
                idx = seen.get(dev.kind, 0)
                seen[dev.kind] = idx + 1
                labels.append(f"{dev.kind}{idx}")
        return labels

"""Pluggable scheduling policies of the heterogeneous execution engine.

A policy decides how the combination-rank space ``[0, total)`` is carved
across the workers of an execution plan's device lanes.  Every policy cuts
the space into spans, puts one :class:`~repro.engine.scheduling.SharedCursor`
on each span and gives every worker a claim view over its span's cursor:
an adaptive view on an ``"auto"`` lane, else a fixed view at the lane's
own ``chunk_size`` (the guided policy shares one guided view instead).  The
four concrete policies correspond to the host schedules discussed by the
paper and its baselines:

* :class:`DynamicPolicy` — one span drained by every worker (the paper's
  OpenMP ``schedule(dynamic)`` CPU runtime);
* :class:`StaticPolicy` — one contiguous near-equal span per worker (the
  MPI3SNP-style rank decomposition);
* :class:`GuidedPolicy` — one span drained in exponentially decreasing
  claims;
* :class:`CarmRatioPolicy` — the heterogeneous splitter of §V-D: one
  contiguous span per device lane, sized proportionally to the lane's
  CARM/performance-model throughput estimate
  (:func:`repro.perfmodel.efficiency.device_throughput`), drained by the
  lane's workers.

Policies are instantiated by name through :func:`get_policy` so the CLI and
config layers can select them declaratively.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Sequence, Type

from repro.engine.autotune import AdaptiveChunkSource, autotune_config_for
from repro.engine.plan import EngineDevice
from repro.engine.scheduling import (
    FixedChunkSource,
    GuidedChunkSource,
    SharedCursor,
    WorkSource,
    static_partition,
)

__all__ = [
    "DeviceAssignment",
    "SchedulingPolicy",
    "DynamicPolicy",
    "StaticPolicy",
    "GuidedPolicy",
    "CarmRatioPolicy",
    "POLICIES",
    "get_policy",
    "list_policies",
]


@dataclass
class DeviceAssignment:
    """Work sources assigned to one device lane.

    Attributes
    ----------
    device:
        The lane the assignment belongs to.
    sources:
        One work source per worker of the lane.  Sources may share a cursor
        (and a guided view) between workers and between lanes.
    planned_items:
        Size of the lane's pre-assigned contiguous share, or ``None`` when
        the lane competes for work from a shared pool.
    """

    device: EngineDevice
    sources: List[WorkSource]
    planned_items: int | None = None


def _lane_sources(device: EngineDevice, cursors: Sequence[SharedCursor]) -> List[WorkSource]:
    """One claim view per worker of ``device``, over that worker's cursor.

    Workers of an ``"auto"`` lane each tune their own claim size within the
    lane's bounds (:func:`repro.engine.autotune.autotune_config_for`); the
    others claim the lane's ``chunk_size``.
    """
    if device.autotune:
        config = autotune_config_for(device.kind)
        return [AdaptiveChunkSource(cursor, config) for cursor in cursors]
    return [FixedChunkSource(cursor, device.chunk_size) for cursor in cursors]


class SchedulingPolicy(ABC):
    """Strategy that carves ``[0, total)`` across device lanes."""

    #: Registry name of the policy.
    name: ClassVar[str] = "abstract"

    @abstractmethod
    def assign(
        self, total: int, devices: Sequence[EngineDevice]
    ) -> List[DeviceAssignment]:
        """Produce per-lane work sources covering ``[0, total)`` exactly once."""

    def configure(self, n_snps: int, n_samples: int, order: int = 3) -> None:
        """Late-bind the problem shape (used by model-driven policies).

        ``n_snps`` is the SNP universe the search draws from and ``order``
        its interaction order; model-driven policies feed both to the
        analytic throughput estimates so the CPU/GPU split stays honest for
        each search's shape.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class DynamicPolicy(SchedulingPolicy):
    """All workers drain one shared cursor (OpenMP ``dynamic``).

    Each lane claims its own ``chunk_size``; the workers of an ``"auto"``
    lane each tune theirs from measured per-chunk throughput.
    """

    name = "dynamic"

    def assign(
        self, total: int, devices: Sequence[EngineDevice]
    ) -> List[DeviceAssignment]:
        cursor = SharedCursor(total)
        return [
            DeviceAssignment(device=d, sources=_lane_sources(d, [cursor] * d.n_workers))
            for d in devices
        ]


class StaticPolicy(SchedulingPolicy):
    """Contiguous near-equal per-worker spans (MPI3SNP-style partition)."""

    name = "static"

    def assign(
        self, total: int, devices: Sequence[EngineDevice]
    ) -> List[DeviceAssignment]:
        parts = iter(static_partition(total, sum(d.n_workers for d in devices)))
        assignments: List[DeviceAssignment] = []
        for d in devices:
            spans = [next(parts) for _ in range(d.n_workers)]
            cursors = [SharedCursor(stop, start=start) for start, stop in spans]
            assignments.append(
                DeviceAssignment(
                    device=d,
                    sources=_lane_sources(d, cursors),
                    planned_items=sum(stop - start for start, stop in spans),
                )
            )
        return assignments


class GuidedPolicy(SchedulingPolicy):
    """Shared cursor with exponentially decreasing claims (OpenMP ``guided``).

    The decay floor is the smallest integer ``chunk_size`` of the plan's
    lanes; every worker of every lane shares one guided view.
    """

    name = "guided"

    #: Floor of the guided decay when every lane's chunk size is "auto"
    #: (the guided schedule is already self-pacing, so "auto" only needs a
    #: sensible minimum).
    AUTO_MIN_CHUNK = 256

    def assign(
        self, total: int, devices: Sequence[EngineDevice]
    ) -> List[DeviceAssignment]:
        fixed = [d.chunk_size for d in devices if not d.autotune]
        shared = GuidedChunkSource(
            SharedCursor(total),
            n_workers=sum(d.n_workers for d in devices),
            min_chunk=min(fixed) if fixed else self.AUTO_MIN_CHUNK,
        )
        return [
            DeviceAssignment(device=d, sources=[shared] * d.n_workers)
            for d in devices
        ]


class CarmRatioPolicy(SchedulingPolicy):
    """Heterogeneous splitter sized by CARM/performance-model throughput.

    Each device lane receives a contiguous share of the combination space
    proportional to the analytical throughput of its catalogued hardware
    (§V-D: the optimal static split for independent combinations assigns
    work proportionally to device throughput).  Within a lane, workers drain
    the share from one cursor, so multi-core CPU lanes keep the paper's
    dynamic load balancing.

    Every lane is priced by the same source: the analytical model at the
    shape :meth:`configure` bound (the detector binds each search's SNP
    universe, sample count and order; unconfigured, the paper's reference
    third-order workload), or ``ratios``.

    Parameters
    ----------
    ratios:
        Explicit per-lane share weights overriding the model estimates.
    """

    name = "carm"

    #: Reference workload of the paper's throughput figures, used when no
    #: problem shape was configured.
    DEFAULT_SHAPE = (8192, 16384)

    def __init__(self, ratios: Sequence[float] | None = None) -> None:
        self.ratios = list(ratios) if ratios is not None else None
        self.n_snps, self.n_samples = self.DEFAULT_SHAPE
        self.order = 3

    def configure(self, n_snps: int, n_samples: int, order: int = 3) -> None:
        self.n_snps, self.n_samples, self.order = n_snps, n_samples, order

    def _weights(self, devices: Sequence[EngineDevice]) -> List[float]:
        if self.ratios is not None:
            if len(self.ratios) != len(devices):
                raise ValueError(
                    f"{len(self.ratios)} ratios for {len(devices)} devices"
                )
            if any(r < 0 for r in self.ratios) or sum(self.ratios) <= 0:
                raise ValueError("ratios must be non-negative and sum to > 0")
            return list(self.ratios)
        from repro.perfmodel.efficiency import device_throughput

        return [
            device_throughput(
                d.spec(), n_snps=self.n_snps, n_samples=self.n_samples, order=self.order
            )
            for d in devices
        ]

    def shares(self, total: int, devices: Sequence[EngineDevice]) -> List[int]:
        """Per-lane item counts (largest-remainder apportionment of ``total``)."""
        weights = self._weights(devices)
        scale = sum(weights)
        raw = [total * w / scale for w in weights]
        base = [int(r) for r in raw]
        leftover = total - sum(base)
        by_fraction = sorted(
            range(len(devices)), key=lambda i: raw[i] - base[i], reverse=True
        )
        for i in by_fraction[:leftover]:
            base[i] += 1
        return base

    def assign(
        self, total: int, devices: Sequence[EngineDevice]
    ) -> List[DeviceAssignment]:
        assignments: List[DeviceAssignment] = []
        start = 0
        for d, share in zip(devices, self.shares(total, devices)):
            cursor = SharedCursor(start + share, start=start)
            assignments.append(
                DeviceAssignment(
                    device=d,
                    sources=_lane_sources(d, [cursor] * d.n_workers),
                    planned_items=share,
                )
            )
            start += share
        return assignments


#: Registry of policy classes by canonical name.
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    cls.name: cls
    for cls in (DynamicPolicy, StaticPolicy, GuidedPolicy, CarmRatioPolicy)
}

_ALIASES: Dict[str, str] = {
    "carm-ratio": "carm",
    "heterogeneous": "carm",
}


def get_policy(name: "str | SchedulingPolicy") -> SchedulingPolicy:
    """Instantiate a scheduling policy by name (pass-through for instances)."""
    if isinstance(name, SchedulingPolicy):
        return name
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in POLICIES:
        raise KeyError(
            f"unknown scheduling policy {name!r}; available: {sorted(POLICIES)} "
            f"(aliases: {sorted(_ALIASES)})"
        )
    return POLICIES[key]()


def list_policies(include_aliases: bool = False) -> List[str]:
    """Registered policy names (optionally with the accepted aliases)."""
    names = sorted(POLICIES)
    if include_aliases:
        names = names + sorted(_ALIASES)
    return names

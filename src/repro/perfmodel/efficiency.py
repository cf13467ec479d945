"""Energy efficiency and heterogeneous (CPU+GPU) projections (§V-D).

The paper closes its evaluation with two derived analyses:

* **energy efficiency** — Giga (combinations x samples) per Joule, obtained
  by dividing the device throughput by its TDP.  The Intel Iris Xe MAX wins
  this metric (11.3 G elements/J at 25 W) even though the big NVIDIA/AMD
  parts win raw throughput, motivating the "personalised screening on a thin
  client" scenario.
* **heterogeneous CPU+GPU throughput** — the projection that a CPU
  contributes usefully only when its throughput is a sizeable fraction of the
  GPU's (Ice Lake SP + Titan Xp ≈ 3300 G elements/s).  Work is split
  proportionally to device throughput (the optimal static split for
  independent combinations), so the aggregate is simply the sum of the
  device throughputs, degraded by a small coordination overhead.
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.devices.specs import CpuSpec, GpuSpec
from repro.perfmodel.cpu_model import estimate_cpu
from repro.perfmodel.gpu_model import estimate_gpu

__all__ = [
    "device_throughput",
    "energy_efficiency",
    "heterogeneous_throughput",
]

DeviceSpec = Union[CpuSpec, GpuSpec]

#: Fraction of the summed throughput retained by a CPU+GPU configuration
#: (host thread contention, transfer of combination blocks).
HETEROGENEOUS_EFFICIENCY: float = 0.97


def device_throughput(
    spec: DeviceSpec,
    n_snps: int = 8192,
    n_samples: int = 16384,
    approach_version: int = 4,
    order: int = 3,
) -> float:
    """Whole-device throughput (elements/s) using the best approach."""
    if isinstance(spec, CpuSpec):
        return estimate_cpu(
            spec, approach_version, n_snps=n_snps, n_samples=n_samples, order=order
        ).elements_per_second_total
    return estimate_gpu(
        spec, approach_version, n_snps=n_snps, n_samples=n_samples, order=order
    ).elements_per_second_total


def energy_efficiency(
    spec: DeviceSpec,
    n_snps: int = 8192,
    n_samples: int = 16384,
    approach_version: int = 4,
    order: int = 3,
) -> float:
    """Energy efficiency in Giga elements per Joule (throughput / TDP)."""
    throughput = device_throughput(spec, n_snps, n_samples, approach_version, order)
    if spec.tdp_w <= 0:
        raise ValueError(f"{spec.key}: TDP must be positive")
    return throughput / spec.tdp_w / 1e9


def heterogeneous_throughput(
    devices: Iterable[DeviceSpec],
    n_snps: int = 8192,
    n_samples: int = 16384,
    efficiency: float = HETEROGENEOUS_EFFICIENCY,
    order: int = 3,
) -> float:
    """Aggregate throughput (elements/s) of a CPU+GPU (or multi-device) system.

    Combinations are independent, so the optimal static split assigns work
    proportionally to device throughput and the aggregate approaches the sum
    of the individual throughputs; ``efficiency`` models the residual
    coordination cost.  The result is never below the fastest single device —
    a scheduler can always leave a device idle.
    """
    individual = [device_throughput(d, n_snps, n_samples, order=order) for d in devices]
    if not individual:
        raise ValueError("heterogeneous_throughput needs at least one device")
    return max(sum(individual) * efficiency, max(individual))

"""MPI3SNP-style baseline.

MPI3SNP (Ponte-Fernández et al., IJHPCA 2020) is the reference third-order
exhaustive detector the paper measures against; the same family of tools is
routinely compared at second order, so the functional baseline here is
order-parametric (``order=2..5``) like the rest of the search stack.  Algorithmically it shares
the binarised representation and the AND/POPCNT frequency-table construction
but differs from the paper's best approach in the points that matter for
performance:

* the combination space is **statically partitioned** across MPI ranks
  (one process per core or per GPU) instead of dynamically scheduled;
* the CPU kernel uses **64-bit scalar population counts** — no cache
  blocking and no SIMD;
* the GPU kernel is not layout-tiled, so its effective cache reuse degrades
  as the SNP count grows.

The functional re-implementation here (:class:`Mpi3snpBaseline`) runs the
split kernel over statically partitioned ranks and produces results
identical to the optimised approaches (same tables, same best triplet) —
the difference is captured by the execution statistics and by the
analytical throughput model (:func:`estimate_mpi3snp_throughput`) used for
the Table III comparison.

The ranks run one search of the same engine as every other detector:
the default ``processes=False`` is one
:class:`~repro.core.detector.EpistasisDetector` search with one host thread
per rank under the ``static`` schedule, which gives thread ``i`` exactly
rank ``i``'s contiguous span; ``processes=True`` makes every rank a real OS
process through :func:`repro.distributed.run_distributed` (one static shard
per rank, deterministic rank-0 merge — the honest analogue of MPI3SNP's
``MPI_Comm_size`` decomposition).  Both run the classic build-then-score
kernel (``fused="off"``), and both report the same top-k, operation counts
and traffic.  The static partition's load imbalance follows from the
partition alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Union


from repro.core.approaches._kernels import check_order
from repro.core.detector import DetectorConfig, EpistasisDetector
from repro.core.result import DetectionResult
from repro.core.scoring import ObjectiveFunction, get_objective
from repro.datasets.dataset import GenotypeDataset
from repro.devices.specs import CpuSpec, GpuSpec
from repro.engine import DenseRangeSource
from repro.engine.scheduling import static_partition
from repro.distributed import ShardPlanner, run_distributed
from repro.perfmodel.cpu_model import estimate_cpu
from repro.perfmodel.gpu_model import estimate_gpu

__all__ = ["Mpi3snpBaseline", "estimate_mpi3snp_throughput"]

#: Tiling-free GPU kernels lose cache reuse as the SNP count grows; the
#: paper's measurements show MPI3SNP falling from ~0.65x of this work's
#: throughput at 10000 SNPs to ~0.27x at 40000 SNPs on the same GPUs.  The
#: degradation is modelled as a slowdown growing linearly with the SNP count.
GPU_SLOWDOWN_PER_SNP: float = 1.0 / 15000.0
GPU_BASE_SLOWDOWN: float = 0.85

#: MPI3SNP's CPU path also pays a static-partition load imbalance.
CPU_IMBALANCE: float = 1.05


class Mpi3snpBaseline:
    """Functional MPI3SNP-style detector over statically partitioned ranks.

    Parameters
    ----------
    n_ranks:
        Number of MPI-style ranks.
    objective:
        Objective-function name or instance.
    top_k:
        Number of best interactions gathered on rank 0.
    order:
        Interaction order ``k`` (2–5); MPI3SNP itself is third-order, the
        second-order setting mirrors the pairwise tools it descends from.
    processes:
        ``True`` executes every rank as a real OS process through
        :func:`repro.distributed.run_distributed` (one shard per rank);
        ``False`` (default) runs the same static rank spans on host
        threads — results are bit-identical, process startup is saved.
    """

    name = "mpi3snp"

    def __init__(
        self,
        n_ranks: int = 2,
        objective: str | ObjectiveFunction = "k2",
        top_k: int = 10,
        chunk_size: int = 2048,
        order: int = 3,
        processes: bool = False,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        self.n_ranks = n_ranks
        self.objective = get_objective(objective)
        self.top_k = top_k
        self.chunk_size = chunk_size
        self.order = check_order(order)
        self.processes = processes

    def detect(self, dataset: GenotypeDataset) -> DetectionResult:
        """Run the statically partitioned exhaustive search.

        Every rank sweeps its contiguous span of the combination space with
        the rank-local kernel (``cpu-v2``: split dataset, no blocking, no
        SIMD); the partial top-k lists are merged rank-0-style under the
        engine's deterministic ``(score, combination-rank)`` order.
        """
        config = DetectorConfig(
            approach="cpu-v2",
            objective=self.objective,
            order=self.order,
            n_workers=self.n_ranks,
            chunk_size=self.chunk_size,
            top_k=self.top_k,
            schedule="static",
            fused="off",
        )
        if self.processes:
            # One OS process per rank, one thread each, one static shard each.
            result = run_distributed(
                dataset,
                DenseRangeSource(dataset.n_snps, self.order),
                config=replace(config, n_workers=1),
                workers=self.n_ranks,
                planner=ShardPlanner(n_shards=self.n_ranks),
            ).result
        else:
            result = EpistasisDetector(config=config).detect(dataset)

        total = result.stats.n_combinations
        spans = [stop - start for start, stop in static_partition(total, self.n_ranks)]
        mean = total / self.n_ranks
        extra = dict(result.stats.extra)
        extra.update(
            {
                "order": self.order,
                "partitioning": "static",
                "schedule": "static",
                "load_imbalance": max(spans) / mean if mean else 1.0,
                "ranks": self.n_ranks,
                "rank_mode": "processes" if self.processes else "threads",
            }
        )
        stats = replace(
            result.stats, approach=self.name, n_workers=self.n_ranks, extra=extra
        )
        return DetectionResult(best=result.best, top=list(result.top), stats=stats)


def estimate_mpi3snp_throughput(
    spec: Union[CpuSpec, GpuSpec],
    n_snps: int,
    n_samples: int,
    order: int = 3,
) -> float:
    """Analytical MPI3SNP throughput (elements/s) on a catalogued device.

    * CPU: the scalar phenotype-split kernel (no blocking, 64-bit scalar
      POPCNT) with a static-partition imbalance penalty — equivalent to this
      work's approach V2 executed without vectorisation.
    * GPU: the coalesced-but-untiled kernel (this work's V3) degraded by a
      slowdown that grows with the SNP count (loss of cache reuse), matching
      the measured gap widening from ~1.5x at 10000 SNPs to ~3.5x at 40000.
    """
    if isinstance(spec, CpuSpec):
        estimate = estimate_cpu(
            spec, approach_version=2, n_snps=n_snps, n_samples=n_samples, order=order
        )
        return estimate.elements_per_second_total / CPU_IMBALANCE
    estimate = estimate_gpu(
        spec, approach_version=3, n_snps=n_snps, n_samples=n_samples, order=order
    )
    slowdown = GPU_BASE_SLOWDOWN + n_snps * GPU_SLOWDOWN_PER_SNP
    return estimate.elements_per_second_total / max(1.0, slowdown)

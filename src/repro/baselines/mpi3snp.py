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

Rank execution goes through :mod:`repro.distributed`: with
``processes=True`` every rank is a real OS process (one shard per rank,
static partition, deterministic rank-0 merge — the honest analogue of
MPI3SNP's ``MPI_Comm_size`` decomposition); the default ``processes=False``
runs the same static per-rank spans on host threads through the engine,
which is cheaper to launch and bit-identical in its results.  Broadcast and
gather traffic plus the static-partition load imbalance are accounted by
:class:`repro.distributed.cluster.RankAccounting` in both modes.
"""

from __future__ import annotations

from typing import Union


from repro.core.approaches._kernels import check_order
from repro.core.approaches.cpu_nophen import CpuNoPhenotypeApproach
from repro.core.combinations import combination_count
from repro.core.result import ApproachStats, DetectionResult
from repro.core.scoring import ObjectiveFunction, get_objective
from repro.datasets.dataset import GenotypeDataset
from repro.devices.specs import CpuSpec, GpuSpec
from repro.engine import (
    DenseRangeSource,
    EngineDevice,
    ExecutionPlan,
    HeterogeneousExecutor,
    StaticPolicy,
)
from repro.distributed import RankAccounting, ShardPlanner, run_distributed
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
        # The rank-local kernel: split dataset, no blocking, no SIMD.
        self.approach = CpuNoPhenotypeApproach()

    def detect(self, dataset: GenotypeDataset) -> DetectionResult:
        """Run the statically partitioned exhaustive search.

        Every rank sweeps its contiguous span of the combination space; the
        partial top-k lists are merged rank-0-style under the engine's
        deterministic ``(score, combination-rank)`` order.  The
        :class:`~repro.distributed.cluster.RankAccounting` tracks the
        dataset broadcast, the result gather and the load imbalance the
        static decomposition incurs.
        """
        total = combination_count(dataset.n_snps, self.order)
        accounting = RankAccounting(self.n_ranks)
        accounting.scatter_work(total)
        encoded = self.approach.prepare(dataset)
        accounting.broadcast_dataset(encoded.nbytes())

        if self.processes:
            result, per_rank_items = self._detect_processes(dataset)
        else:
            result, per_rank_items = self._detect_threads(dataset, encoded, total)

        for rank in accounting.ranks:
            rank.items_processed = per_rank_items.get(rank.rank, 0)
        accounting.account_gather(bytes_per_partial=self.top_k * 32)

        extra = dict(result.stats.extra)
        extra.update(
            {
                "order": self.order,
                "partitioning": "static",
                "schedule": "static",
                "load_imbalance": accounting.load_imbalance(),
                "ranks": self.n_ranks,
                "rank_mode": "processes" if self.processes else "threads",
            }
        )
        stats = ApproachStats(
            approach=self.name,
            n_combinations=total,
            n_samples=dataset.n_samples,
            elapsed_seconds=result.stats.elapsed_seconds,
            op_counts=result.stats.op_counts,
            bytes_loaded=result.stats.bytes_loaded,
            bytes_stored=result.stats.bytes_stored,
            n_workers=self.n_ranks,
            extra=extra,
        )
        if not result.top:
            raise RuntimeError("MPI3SNP baseline produced no interactions")
        return DetectionResult(best=result.top[0], top=list(result.top), stats=stats)

    def _detect_processes(self, dataset: GenotypeDataset):
        """Real ranks: one OS process per rank, one static shard per rank."""
        from repro.core.detector import DetectorConfig

        config = DetectorConfig(
            approach=self.approach.name,
            objective=self.objective,
            order=self.order,
            n_workers=1,
            chunk_size=self.chunk_size,
            top_k=self.top_k,
            schedule="static",
        )
        outcome = run_distributed(
            dataset,
            DenseRangeSource(dataset.n_snps, self.order),
            config=config,
            workers=self.n_ranks,
            planner=ShardPlanner(n_shards=self.n_ranks),
        )
        # The planner's n_ranks-way static cut produces exactly the rank
        # spans of RankAccounting.scatter_work, so shard id == rank id.
        return outcome.result, dict(outcome.shard_items)

    def _detect_threads(self, dataset: GenotypeDataset, encoded, total: int):
        """Thread-backed ranks: the same static spans on engine workers."""
        snp_names = list(dataset.snp_names)

        # One kernel instance per rank (operation counters are not shared);
        # rank 0 reuses the baseline's own approach object.  Counters are
        # per call: rank 0 below absorbs the others' counts.
        self.approach.reset_counter()
        approaches = [self.approach] + [
            CpuNoPhenotypeApproach() for _ in range(self.n_ranks - 1)
        ]

        plan = ExecutionPlan(
            source=DenseRangeSource(dataset.n_snps, self.order),
            devices=[
                EngineDevice(
                    kind="cpu", n_workers=self.n_ranks, chunk_size=self.chunk_size
                )
            ],
            policy=StaticPolicy(),
            top_k=self.top_k,
        )

        def scorer(worker, combos):
            return self.objective.score(worker.state.build_tables(encoded, combos))

        run = HeterogeneousExecutor(plan).run(
            lambda device, worker_id: approaches[worker_id],
            scorer,
            snp_names=snp_names,
        )

        # Static partitioning assigns worker i exactly rank i's span.
        per_rank_items = {worker.worker_id: worker.items for worker in run.workers}

        for extra_approach in approaches[1:]:
            self.approach.counter.merge(extra_approach.counter)

        stats = ApproachStats(
            approach=self.name,
            n_combinations=total,
            n_samples=dataset.n_samples,
            elapsed_seconds=run.elapsed_seconds,
            op_counts=self.approach.op_counts(),
            bytes_loaded=self.approach.counter.bytes_loaded,
            bytes_stored=self.approach.counter.bytes_stored,
            n_workers=self.n_ranks,
            extra={"devices": run.device_stats},
        )
        if not run.top:
            raise RuntimeError("MPI3SNP baseline produced no interactions")
        result = DetectionResult(best=run.top[0], top=list(run.top), stats=stats)
        return result, per_rank_items


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

"""Rank bookkeeping and communication accounting for multi-rank runs.

The MPI3SNP-style baseline distributes the search across cluster processes
with a static partition of the combination space: the dataset is broadcast
to every rank, each rank evaluates its contiguous share and the partial
top-k lists are gathered on rank 0.  :class:`RankAccounting` models exactly
the quantities that comparison needs — per-rank work assignment, the
broadcast/gather traffic and the static-partition load imbalance — while
the actual rank execution now runs through :mod:`repro.distributed`
(:func:`~repro.distributed.coordinator.run_distributed` with a
one-shard-per-rank static plan), either as real OS processes or inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.engine.scheduling import static_partition

__all__ = ["ClusterRank", "RankAccounting"]


@dataclass
class ClusterRank:
    """Bookkeeping of one rank of a distributed run."""

    rank: int
    work_range: tuple[int, int]
    items_processed: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0

    @property
    def work_items(self) -> int:
        """Number of combination ranks assigned to this rank."""
        return self.work_range[1] - self.work_range[0]


class RankAccounting:
    """Static work partition plus collective-traffic accounting.

    Parameters
    ----------
    n_ranks:
        Number of ranks (processes) of the modelled cluster.
    """

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        self.n_ranks = int(n_ranks)
        self.ranks: List[ClusterRank] = []

    # -- collective operations ---------------------------------------------
    def scatter_work(self, total_items: int) -> List[ClusterRank]:
        """Statically partition ``total_items`` across the ranks."""
        ranges = static_partition(total_items, self.n_ranks)
        self.ranks = [ClusterRank(rank=i, work_range=r) for i, r in enumerate(ranges)]
        return self.ranks

    def broadcast_dataset(self, n_bytes: int) -> None:
        """Account the initial dataset broadcast (every rank gets a copy)."""
        if not self.ranks:
            raise RuntimeError("scatter_work must be called before broadcast_dataset")
        for rank in self.ranks:
            rank.bytes_received += int(n_bytes)

    def account_gather(self, bytes_per_partial: int) -> None:
        """Account the gather of per-rank partial results on rank 0."""
        if not self.ranks:
            raise RuntimeError("scatter_work must be called before gather")
        for rank in self.ranks[1:]:
            rank.bytes_sent += int(bytes_per_partial)
        self.ranks[0].bytes_received += int(bytes_per_partial) * (self.n_ranks - 1)

    # -- diagnostics --------------------------------------------------------
    def load_imbalance(self) -> float:
        """Max-to-mean ratio of assigned work items (1.0 = perfectly balanced)."""
        if not self.ranks:
            return 1.0
        sizes = [r.work_items for r in self.ranks]
        mean = sum(sizes) / len(sizes)
        if mean == 0:
            return 1.0
        return max(sizes) / mean

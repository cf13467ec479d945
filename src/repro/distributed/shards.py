"""Shard planning: cutting a candidate space into rank-addressable pieces.

A *shard* is a contiguous ``[start, stop)`` slice of a candidate source's
item space — the unit of distribution, checkpointing and resumption of a
multi-process run.  Shards are deliberately coarser than engine scheduler
chunks: a worker process claims a whole shard, sweeps it through the
in-process :class:`~repro.engine.executor.HeterogeneousExecutor` (which
chunks it further across the process's device lanes) and reports one
partial top-k back, so the coordinator's ledger stays small no matter how
large the combination space is.

The planner cuts the space into near-equal shards
(:func:`repro.engine.scheduling.static_partition`).  The shard count is
independent of the worker count, so a checkpoint written with one worker
fleet can be resumed with another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.engine.candidates import CandidateSource
from repro.engine.scheduling import static_partition

__all__ = ["Shard", "ShardView", "ShardPlanner", "DEFAULT_SHARD_COUNT"]

#: Default shard count of the planner.  Chosen independent of the
#: worker count so resuming a checkpoint with a different ``--workers`` value
#: still matches the recorded shard boundaries, while oversubscribing typical
#: fleets (2-8 processes) enough for pull-based load balance.
DEFAULT_SHARD_COUNT = 32


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a candidate source's item space."""

    shard_id: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if not 0 <= self.start < self.stop:
            raise ValueError(f"invalid shard range [{self.start}, {self.stop})")

    @property
    def items(self) -> int:
        """Number of work items covered by the shard."""
        return self.stop - self.start


class ShardView(CandidateSource):
    """A candidate source restricted to one shard's ``[start, stop)`` slice.

    The view exposes the slice as its own contiguous item space, so a worker
    process can hand it to any engine entry point (scheduling policies chunk
    ``[0, stop - start)``) while materialisation resolves through the base
    source — global SNP indices, subset translation and order all behave
    exactly as in the unsharded sweep.
    """

    def __init__(self, base: CandidateSource, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= base.total:
            raise ValueError(
                f"invalid shard range [{start}, {stop}) for a source of "
                f"{base.total} candidates"
            )
        self.base = base
        self.start = int(start)
        self.stop = int(stop)
        self.order = base.order

    @classmethod
    def of(cls, base: CandidateSource, shard: Shard) -> "ShardView":
        """The view of ``base`` covered by ``shard``."""
        return cls(base, shard.start, shard.stop)

    @property
    def total(self) -> int:
        return self.stop - self.start

    @property
    def effective_snps(self) -> int | None:
        return self.base.effective_snps

    def materialize(self, start: int, stop: int) -> np.ndarray:
        self._check_range(start, stop)
        return self.base.materialize(self.start + start, self.start + stop)

    def describe(self) -> str:
        return f"shard[{self.start}:{self.stop}] of {self.base.describe()}"

    def fingerprint(self) -> dict:
        return {
            "shard_of": self.base.fingerprint(),
            "start": self.start,
            "stop": self.stop,
        }


class ShardPlanner:
    """Cuts a candidate space ``[0, total)`` into near-equal shards.

    Parameters
    ----------
    n_shards:
        Shard count (default :data:`DEFAULT_SHARD_COUNT`), capped at the
        number of candidates so no shard is empty.
    """

    def __init__(self, n_shards: int | None = None) -> None:
        if n_shards is not None and n_shards < 1:
            raise ValueError("n_shards must be positive")
        self.n_shards = n_shards

    def plan(self, total: int) -> List[Shard]:
        """Shards covering ``[0, total)`` exactly once, in rank order."""
        if total < 0:
            raise ValueError("total must be non-negative")
        if total == 0:
            return []
        count = min(total, self.n_shards or DEFAULT_SHARD_COUNT)
        return [
            Shard(shard_id=shard_id, start=start, stop=stop)
            for shard_id, (start, stop) in enumerate(static_partition(total, count))
        ]

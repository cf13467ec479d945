"""Work sources over the combination-rank space.

Work units are half-open ranges ``[start, stop)`` of lexicographic
combination ranks (see :mod:`repro.core.combinations`); a work source never
touches the combinations themselves, so the same machinery drives CPU
threads, simulated GPU launches and the MPI3SNP baseline's ranks.

There is one cursor, :class:`SharedCursor`: a locked ``claim(size)`` over a
span ``[start, total)``.  Every work source a worker drains is a view that
decides how much to claim from one:

* :class:`FixedChunkSource` — a fixed claim size (OpenMP
  ``schedule(dynamic)`` when the cursor covers the whole space, the paper's
  choice for the CPU search; ``schedule(static)`` when it covers one
  worker's span);
* :class:`GuidedChunkSource` — exponentially decreasing claims
  (``schedule(guided)``), large early to amortise dispatch, small late to
  rebalance the tail;
* :class:`~repro.engine.autotune.AdaptiveChunkSource` — a claim size tuned
  from measured chunk durations (``chunk_size="auto"``).

:func:`static_partition` produces the contiguous near-equal spans consumed
by the static schedule (and the MPI3SNP baseline's load-imbalance figure).
"""

from __future__ import annotations

import threading
from typing import Callable, List, Protocol, Tuple

__all__ = [
    "Range",
    "WorkSource",
    "SharedCursor",
    "FixedChunkSource",
    "GuidedChunkSource",
    "static_partition",
]

Range = Tuple[int, int]


class WorkSource(Protocol):
    """Anything a worker can repeatedly claim ``[start, stop)`` ranges from."""

    def next_range(self) -> Range | None:  # pragma: no cover - protocol
        ...


class SharedCursor:
    """Thread-safe variable-size claim cursor over ``[start, total)``.

    Each :meth:`claim` hands out the next ``size`` items.  Coverage is exact
    — claims partition the range — no matter how sizes vary between calls
    or callers.  Contention is negligible because a claim of thousands of
    combinations amortises the lock acquisition.
    """

    def __init__(self, total: int, start: int = 0) -> None:
        if total < 0:
            raise ValueError("total must be non-negative")
        if start < 0 or start > total:
            raise ValueError(f"start must lie in [0, {total}]")
        self.total = int(total)
        self.start = int(start)
        self._cursor = self.start
        self._lock = threading.Lock()

    def claim(self, size: int | Callable[[int], int]) -> Range | None:
        """Claim the next ``size`` items, or ``None`` when exhausted.

        ``size`` may also be a function of the unclaimed item count; it is
        called under the lock, so the size fits the count it was read from.
        """
        if not callable(size) and size < 1:
            raise ValueError("claim size must be positive")
        with self._lock:
            remaining = self.total - self._cursor
            if remaining <= 0:
                return None
            if callable(size):
                size = size(remaining)
            begin = self._cursor
            self._cursor = begin + min(int(size), remaining)
            return begin, self._cursor


class FixedChunkSource:
    """Fixed-size claims from a :class:`SharedCursor` (a ``WorkSource``)."""

    def __init__(self, cursor: SharedCursor, chunk_size: int) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.cursor = cursor
        self.chunk_size = int(chunk_size)

    def next_range(self) -> Range | None:
        return self.cursor.claim(self.chunk_size)


class GuidedChunkSource:
    """Guided claims from a :class:`SharedCursor` (OpenMP ``schedule(guided)``).

    Each claim receives ``max(min_chunk, remaining // (2 * n_workers))``
    items: early claims are large (amortising dispatch overhead), late
    claims shrink towards ``min_chunk`` so stragglers can rebalance the
    tail.  All workers of a plan share one view.
    """

    def __init__(self, cursor: SharedCursor, n_workers: int, min_chunk: int) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if min_chunk < 1:
            raise ValueError("min_chunk must be positive")
        self.cursor = cursor
        self.n_workers = int(n_workers)
        self.min_chunk = int(min_chunk)

    def _size(self, remaining: int) -> int:
        return max(self.min_chunk, remaining // (2 * self.n_workers))

    def next_range(self) -> Range | None:
        return self.cursor.claim(self._size)


def static_partition(total: int, n_parts: int) -> List[Range]:
    """Split ``[0, total)`` into ``n_parts`` contiguous, near-equal ranges.

    This is the static decomposition used by the MPI3SNP-style baseline: the
    first ``total % n_parts`` ranks receive one extra item.  Empty ranges are
    returned (rather than dropped) so the rank <-> range mapping stays
    positional.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    base, extra = divmod(total, n_parts)
    ranges: List[Range] = []
    start = 0
    for rank in range(n_parts):
        size = base + (1 if rank < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges

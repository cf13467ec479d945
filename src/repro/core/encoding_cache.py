"""Process-wide cache of prepared dataset encodings.

Packing a dataset into bit-planes (``Approach.prepare``) is pure and
deterministic: the result depends only on the dataset's content and the
approach's encoding parameters (encoding family, word layout, blocking /
tile geometry).  Yet before this cache every ``detect()`` call, every
pipeline stage and every distributed shard re-packed the same dataset —
for a staged screen→expand→permutation run that is four identical packs of
the same genotype matrix.

:data:`ENCODING_CACHE` memoises prepared encodings under the key

``(dataset.content_digest(), n_snps, n_samples, *approach.encoding_key())``

so repeated runs over the same dataset reuse one encoding.  An encoding's
planes are read-only by contract (they are already shared across worker
threads within a run), which is what makes cross-run sharing safe.  The
one thing that grows on a cached encoding is a phenotype-split encoding's
pair tables (:class:`~repro.datasets.binarization.PairTable`): counts
derived from those planes, filled under a lock by the NumPy split kernel
and kept while the encoding lives, each encoding's two tables within one
:data:`~repro.core.approaches._kernels.KERNEL_BUDGET_BYTES`.  The cache is
bounded (LRU) and keyed by content, so mutating a dataset — which the
dataset API never does in place — yields a different digest rather than a
stale hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Tuple

__all__ = ["EncodingCache", "ENCODING_CACHE", "encoding_cache_key"]


def encoding_cache_key(dataset, approach) -> Tuple | None:
    """The cache key of ``approach``'s encoding of ``dataset``.

    ``None`` for duck-typed approaches without an ``encoding_key`` (their
    encodings have no cache identity and are prepared directly).  The same
    key addresses the local LRU tier and the shared-memory segment, which
    is what lets the coordinator and every worker resolve one published
    encoding.
    """
    encoding_key = getattr(approach, "encoding_key", None)
    if encoding_key is None:
        return None
    return (
        dataset.content_digest(),
        dataset.n_snps,
        dataset.n_samples,
    ) + tuple(encoding_key())


class EncodingCache:
    """A small thread-safe LRU mapping encoding keys to prepared encodings.

    Parameters
    ----------
    max_entries:
        Retained encodings; the least recently used entry is evicted first.
        Encodings are a few bits per SNP-sample, plus at most one kernel
        budget of pair tables each (up to ``max_entries`` budgets, 144 MiB
        at the defaults, for split encodings whose searches touched more
        pairs than fit), so a handful of entries covers every realistic
        multi-stage or benchmark workload without holding stale datasets
        alive forever.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.shm_hits = 0
        self._shared_loader: Callable[[Tuple], object | None] | None = None

    def attach_shared_tier(self, loader: Callable[[Tuple], object | None]) -> None:
        """Install a shared-memory resolver consulted on local misses.

        ``loader(key)`` returns a decoded encoding attached from a
        :class:`~repro.distributed.shm.SharedEncodingStore` segment, or
        ``None`` when nothing is published under the key.  Worker
        processes of a distributed run install
        :func:`repro.distributed.shm.load_encoding` here, so a dataset the
        coordinator packed once is never re-packed fleet-wide.
        """
        with self._lock:
            self._shared_loader = loader

    def detach_shared_tier(self) -> None:
        """Remove the shared-memory tier (local-only resolution)."""
        with self._lock:
            self._shared_loader = None

    def get_or_build(self, key: Tuple, builder: Callable[[], object]) -> object:
        """Return the cached encoding for ``key``, building it on a miss.

        Resolution order: local LRU, then the shared-memory tier (when
        attached), then the builder.  The builder runs under the cache
        lock so concurrent workers of one run never pack the same dataset
        twice; the encodings' planes are immutable and their pair tables
        thread-safe, so handing the same object to every caller is safe.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            if self._shared_loader is not None:
                try:
                    encoded = self._shared_loader(key)
                except Exception:
                    encoded = None
                if encoded is not None:
                    self._entries[key] = encoded
                    self.shm_hits += 1
                    self._evict()
                    return encoded
            encoded = builder()
            self._entries[key] = encoded
            self.misses += 1
            self._evict()
            return encoded

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.shm_hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide cache used by the detector (one per worker process in a
#: distributed run, where it also persists across that worker's shards).
ENCODING_CACHE = EncodingCache()

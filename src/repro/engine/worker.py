"""Device workers and the streaming top-k reduction.

A :class:`DeviceWorker` is one host thread of a device lane: it repeatedly
claims ``[start, stop)`` item ranges from its work source, materialises
and scores them through the executor's kernel and folds the chunk's scores
into a bounded :class:`TopKHeap` — so memory stays O(top_k) per worker no
matter how large the combination space is.
"""

from __future__ import annotations

import heapq
import time
from typing import TYPE_CHECKING, Any, Callable, List, Sequence, Tuple

import numpy as np

from repro.engine.plan import EngineDevice
from repro.engine.scheduling import WorkSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import Interaction
    from repro.engine.candidates import CandidateSource
    from repro.engine.executor import CancellationToken

__all__ = ["TopKHeap", "DeviceWorker", "ChunkScorer", "source_evaluator"]

#: The kernel contract: score already-materialised ``(n, k)`` combinations
#: (the engine resolves work items through the plan's
#: :class:`~repro.engine.candidates.CandidateSource` first).
ChunkScorer = Callable[["DeviceWorker", np.ndarray], np.ndarray]

#: What a worker runs per claimed chunk: items ``[start, stop)`` to their
#: combinations and scores (built by :func:`source_evaluator`).
ChunkEvaluator = Callable[["DeviceWorker", int, int], Tuple[np.ndarray, np.ndarray]]


def source_evaluator(source: "CandidateSource", scorer: ChunkScorer) -> ChunkEvaluator:
    """Adapt a candidate source plus a combination scorer into a chunk kernel.

    The executor's internal adapter: workers claim opaque item ranges
    ``[start, stop)`` from their scheduling sources, and the returned kernel
    materialises the corresponding k-tuples through ``source`` before
    handing them to ``scorer`` — so the same scheduling policies, heaps and
    statistics drive dense, explicit and subset-restricted searches.
    """

    def evaluate(worker: "DeviceWorker", start: int, stop: int):
        combos = source.materialize(start, stop)
        return combos, scorer(worker, combos)

    return evaluate


class TopKHeap:
    """Bounded container of the ``k`` best (lowest-scoring) interactions.

    Chunks are folded in one batch at a time: the batch's local top-k is
    selected under the *total* order ``(score, snps)`` — equal scores break
    by the combination's SNP tuple, which for sorted tuples is exactly the
    global lexicographic combination rank — and merged with the retained
    set via a heap selection, keeping memory bounded by ``k`` entries
    regardless of the number of chunks streamed through.

    Tie-breaking by combination rank (rather than by position within the
    chunk) is what makes the retained set a pure function of the evaluated
    candidate *set*: chunk boundaries, worker counts and shard counts can
    never reorder or swap tied combinations, so a sharded multi-process run
    merges to the bit-identical top-k of a single-process sweep.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = int(k)
        self._items: List["Interaction"] = []

    def push_batch(
        self,
        combos: np.ndarray,
        scores: np.ndarray,
        snp_names: Sequence[str] | None = None,
    ) -> None:
        """Fold one chunk of scored combinations into the retained top-k."""
        # Imported here (not at module scope) to keep the engine importable
        # without repro.core, whose package init imports the engine back.
        from repro.core.result import Interaction

        combos = np.asarray(combos)
        scores = np.asarray(scores)
        if combos.shape[0] != scores.shape[0]:
            raise ValueError("combos and scores must have the same length")
        if combos.shape[0] == 0:
            return
        if combos.shape[0] > self.k:
            # Only rows scoring at or below the batch's k-th score can be in
            # its top-k; ties with the k-th score stay, so the total order
            # below still decides among them.  A NaN k-th score (fewer than
            # k numbers: NaN sorts last) keeps every row.
            kth = np.partition(scores, self.k - 1)[self.k - 1]
            if not np.isnan(kth):
                keep = np.flatnonzero(scores <= kth)
                combos, scores = combos[keep], scores[keep]
        # Select the batch top-k under the total order (score, snps): the
        # last lexsort key is the primary one, then the SNP columns left to
        # right.  A plain stable argsort on the scores would break ties by
        # chunk position, letting chunk/shard boundaries decide which of the
        # tied combinations survives the truncation to k.
        keys = tuple(
            combos[:, col] for col in range(combos.shape[1] - 1, -1, -1)
        ) + (scores,)
        order = np.lexsort(keys)[: self.k]
        candidates = [
            Interaction(
                snps=tuple(int(s) for s in combos[i]),
                score=float(scores[i]),
                snp_names=(
                    tuple(snp_names[s] for s in combos[i])
                    if snp_names is not None
                    else None
                ),
            )
            for i in order
        ]
        self._items = heapq.nsmallest(self.k, self._items + candidates)

    def push_interactions(self, interactions: Sequence["Interaction"]) -> None:
        """Fold pre-built interactions (used when merging worker heaps)."""
        if interactions:
            self._items = heapq.nsmallest(self.k, list(self._items) + list(interactions))

    @property
    def items(self) -> List["Interaction"]:
        """The retained interactions in ascending (score, snps) order."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


class DeviceWorker:
    """One host thread of a device lane.

    Attributes
    ----------
    worker_id:
        Global worker index across the whole plan.
    device:
        The lane this worker belongs to.
    label:
        The lane's display label (``"cpu"``, ``"gpu"``, ...).
    state:
        Caller-owned per-worker state (typically an approach instance plus
        its encoded dataset); created by the executor's worker factory.
    heap:
        The worker-local streaming top-k reduction.
    chunks / items / busy_seconds:
        Execution bookkeeping consumed by the per-device statistics.
    """

    def __init__(
        self,
        worker_id: int,
        device: EngineDevice,
        label: str,
        state: Any,
        top_k: int,
    ) -> None:
        self.worker_id = worker_id
        self.device = device
        self.label = label
        self.state = state
        self.heap = TopKHeap(top_k)
        self.chunks = 0
        self.items = 0
        self.busy_seconds = 0.0

    def run(
        self,
        source: WorkSource,
        evaluate: ChunkEvaluator,
        snp_names: Sequence[str] | None,
        cancel: "CancellationToken | None" = None,
        on_chunk: Callable[[int], None] | None = None,
    ) -> None:
        """Drain ``source`` through ``evaluate`` until exhausted or cancelled.

        Exceptions raised by the kernel are re-raised with ``worker_id`` and
        ``device_label`` attributes attached, and the shared cancellation
        token is set so sibling workers stop at their next chunk boundary.
        """
        try:
            while True:
                if cancel is not None and cancel.cancelled:
                    return
                claimed = source.next_range()
                if claimed is None:
                    return
                start, stop = claimed
                began = time.perf_counter()
                combos, scores = evaluate(self, start, stop)
                self.heap.push_batch(combos, scores, snp_names)
                chunk_seconds = time.perf_counter() - began
                self.busy_seconds += chunk_seconds
                self.chunks += 1
                self.items += stop - start
                # Autotuning sources (repro.engine.autotune) steer their
                # claim size from the measured per-chunk duration.
                feedback = getattr(source, "feedback", None)
                if feedback is not None:
                    feedback(stop - start, chunk_seconds)
                if on_chunk is not None:
                    on_chunk(stop - start)
        except Exception as exc:
            if not hasattr(exc, "worker_id"):
                exc.worker_id = self.worker_id  # type: ignore[attr-defined]
                exc.device_label = self.label  # type: ignore[attr-defined]
            if cancel is not None:
                cancel.cancel()
            raise

"""Deterministic merging of per-shard partial results.

Every shard reports its local top-k as plain *rows* — ``[score, snps,
snp_names]`` lists that survive both pickling across the process boundary
and the JSON round-trip through the checkpoint ledger without loss
(``float`` values round-trip exactly through ``json``'s ``repr``-based
encoding).  :func:`merge_rows` folds any number of partial row lists into
the global top-k under the explicit total order

    ``(score, snps)``

— equal scores break by the combination's SNP tuple, which for strictly
increasing tuples is precisely the lexicographic *combination rank* of the
candidate.  Because the order is total (no two distinct candidates compare
equal) the merged top-k is a pure function of the union of the partials:
shard boundaries, worker counts, completion order and resume cycles can
never reorder tied results.  This is the property behind the subsystem's
headline guarantee — ``workers=1`` and ``workers=8`` produce bit-identical
reports.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Sequence

import numpy as np

from repro.core.result import Interaction

__all__ = [
    "interaction_to_row",
    "row_to_interaction",
    "row_sort_key",
    "merge_rows",
    "snp_minima_accumulator",
    "merge_minima",
]

#: A serialised interaction: ``[score, [snp, ...], [name, ...] | None]``.
Row = list


def interaction_to_row(interaction: Interaction) -> Row:
    """Serialise an interaction to a JSON/pickle-safe row."""
    return [
        float(interaction.score),
        [int(s) for s in interaction.snps],
        list(interaction.snp_names) if interaction.snp_names else None,
    ]


def row_to_interaction(row: Sequence) -> Interaction:
    """Rebuild an :class:`~repro.core.result.Interaction` from a row."""
    score, snps, names = row[0], row[1], row[2]
    return Interaction(
        snps=tuple(int(s) for s in snps),
        score=float(score),
        snp_names=tuple(names) if names else None,
    )


def row_sort_key(row: Sequence) -> tuple:
    """The explicit (score, combination-rank) tie-breaking key.

    The SNP tuple is the rank surrogate: candidate tuples are strictly
    increasing, so tuple-lexicographic order equals lexicographic
    combination-rank order over any shared universe.
    """
    return (float(row[0]), tuple(int(s) for s in row[1]))


def merge_rows(partials: Iterable[Sequence[Row]], top_k: int) -> List[Row]:
    """The global top-``k`` rows across per-shard partial top-k lists.

    Deterministic under the :func:`row_sort_key` total order; shards cover
    disjoint candidate slices, so no deduplication is needed.
    """
    if top_k < 1:
        raise ValueError("top_k must be positive")
    pooled: List[Row] = []
    for partial in partials:
        pooled.extend(partial)
    return heapq.nsmallest(top_k, pooled, key=row_sort_key)


def snp_minima_accumulator(n_snps: int):
    """A thread-safe per-SNP best-participating-score fold for engine runs.

    Returns ``(fold, finalize)``: ``fold(worker, combos, scores)`` runs
    after every scored chunk of an in-process
    ``EpistasisDetector.detect_candidates(..., collect_snp_minima=True)``
    and credits every SNP of a scored combination with the combination's
    score (keeping the minimum); ``finalize()`` reduces the per-worker
    accumulators to one ``(n_snps,)`` array (``inf`` = SNP never seen).

    An in-process sweep and every shard of a sharded one fold through it,
    and :func:`merge_minima` joins the shards, which is what keeps the
    ``workers=1`` vs ``workers=N`` screen bit-identical.  Workers only ever
    touch their own array, so the only shared state is the dict itself
    (guarded for concurrent first access).
    """
    import threading

    per_worker: dict[int, np.ndarray] = {}
    lock = threading.Lock()

    def fold(worker, combos: np.ndarray, scores: np.ndarray) -> None:
        best = per_worker.get(worker.worker_id)
        if best is None:
            with lock:
                best = per_worker.setdefault(
                    worker.worker_id, np.full(n_snps, np.inf)
                )
        np.minimum.at(best, combos.ravel(), np.repeat(scores, combos.shape[1]))

    def finalize() -> np.ndarray:
        best = np.full(n_snps, np.inf)
        for partial in per_worker.values():
            np.minimum(best, partial, out=best)
        return best

    return fold, finalize


def merge_minima(
    partials: Iterable[np.ndarray | Sequence[float | None]],
) -> np.ndarray | None:
    """Element-wise minimum of per-shard per-SNP score accumulators.

    Used by the distributed screening stage: each shard folds its own
    best-participating-score array and the coordinator reduces them.
    Accepts arrays and the inline lists older ledgers hold (``None``
    elements read as ``inf``); returns ``None`` when no partial carried an
    accumulator.
    """
    merged: np.ndarray | None = None
    for partial in partials:
        if partial is None:
            continue
        arr = np.asarray(
            [np.inf if v is None else v for v in partial]
            if not isinstance(partial, np.ndarray)
            else partial,
            dtype=np.float64,
        )
        if merged is None:
            merged = arr.copy()
        else:
            np.minimum(merged, arr, out=merged)
    return merged

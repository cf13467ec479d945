"""Candidate sources: the engine's generalized work model.

The original engine only knew how to run *dense* searches — work items were
lexicographic ranks of the full ``nCr(M, k)`` combination space, and every
kernel unranked them itself.  The staged search pipeline needs the same
machinery (device lanes, scheduling policies, streaming top-k reduction,
statistics) over three more candidate geometries, so the work model is
factored into :class:`CandidateSource`: a mapping from the contiguous item
space ``[0, total)`` the schedulers carve up to the actual SNP k-tuples a
chunk evaluates.

Four concrete sources cover the pipeline stages:

* :class:`DenseRangeSource` — the classic exhaustive space: item ``i`` is
  lexicographic rank ``i`` of ``nCr(M, k)``;
* :class:`ExplicitRankSource` — an arbitrary array of dense ranks (sampled
  candidates, resumed partial sweeps, externally supplied shortlists);
* :class:`ExplicitCombinationSource` — pre-materialised k-tuples (the
  refine and permutation stages re-score a handful of finalists);
* :class:`SubsetSource` — the ``nCr(m, k)`` combinations over a retained
  SNP subset, translated back to global indices on materialisation (the
  expand stage of a screen-then-expand search).

All sources materialise lazily and per chunk, so the bounded-memory
streaming property of the engine is preserved no matter the geometry.
Imports from :mod:`repro.core.combinations` happen inside methods to keep
the engine importable without :mod:`repro.core` (whose package init imports
the engine back).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "CandidateSource",
    "DenseRangeSource",
    "ExplicitRankSource",
    "ExplicitCombinationSource",
    "SubsetSource",
]


class CandidateSource(ABC):
    """Mapping from scheduler items ``[0, total)`` to SNP k-tuples.

    A source is read-only after construction and safe to share across the
    workers of a run; :meth:`materialize` is called concurrently from every
    worker thread with disjoint ``[start, stop)`` ranges claimed from the
    scheduling policy's work sources.
    """

    #: Interaction order ``k`` of the produced combinations.
    order: int

    @property
    @abstractmethod
    def total(self) -> int:
        """Number of candidate combinations (the schedulers' item space)."""

    @abstractmethod
    def materialize(self, start: int, stop: int) -> np.ndarray:
        """The ``(stop - start, order)`` global k-tuples of items ``[start, stop)``."""

    @property
    def effective_snps(self) -> int | None:
        """SNP-universe size of this source, for per-stage cost models.

        Model-driven scheduling policies (the CARM-ratio splitter) and the
        staged-plan cost estimates use this as the ``n_snps`` of the stage's
        analytic throughput model, so a subset-restricted stage is sized by
        its retained universe rather than the full dataset.  ``None`` when
        the source cannot tell (callers fall back to the dataset shape).
        """
        return None

    def describe(self) -> str:
        """One-line human-readable description (stage reports, exports)."""
        return f"{type(self).__name__}(total={self.total}, order={self.order})"

    def fingerprint(self) -> dict:
        """Content identity of the candidate set (checkpoint validation).

        Sources whose identity is not fully determined by their geometry
        (explicit ranks/tuples, retained subsets) extend this with a digest
        of their defining arrays, so a resumed distributed run can refuse
        to splice partial results evaluated over a *different* candidate
        set that merely has the same shape.
        """
        return {
            "describe": self.describe(),
            "total": int(self.total),
            "order": int(self.order),
        }

    @staticmethod
    def _digest(array: np.ndarray) -> str:
        """SHA-1 of an array's raw bytes (stable content key)."""
        import hashlib

        return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()

    def _check_range(self, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= self.total:
            raise ValueError(
                f"invalid item range [{start}, {stop}) for {self.total} candidates"
            )

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:
        return self.describe()


class DenseRangeSource(CandidateSource):
    """The exhaustive ``nCr(n_snps, order)`` combination space.

    Item ``i`` is the combination of lexicographic rank ``i``; this is
    exactly the work model every search path used before candidate sources
    existed, so a dense-source run is bit-identical to the legacy engine.
    """

    def __init__(self, n_snps: int, order: int = 3) -> None:
        from repro.core.combinations import combination_count

        if n_snps < order:
            raise ValueError(f"{n_snps} SNPs cannot form order-{order} combinations")
        self.n_snps = int(n_snps)
        self.order = int(order)
        self._total = combination_count(self.n_snps, self.order)

    @property
    def total(self) -> int:
        return self._total

    @property
    def effective_snps(self) -> int:
        return self.n_snps

    def materialize(self, start: int, stop: int) -> np.ndarray:
        from repro.core.combinations import generate_combinations

        self._check_range(start, stop)
        return generate_combinations(
            self.n_snps, self.order, start_rank=start, count=stop - start
        )

    def describe(self) -> str:
        return f"dense[C({self.n_snps},{self.order}) = {self.total}]"

    def fingerprint(self) -> dict:
        return {**super().fingerprint(), "n_snps": self.n_snps}


class ExplicitRankSource(CandidateSource):
    """An explicit array of dense lexicographic ranks.

    Ranks may arrive in any order and are evaluated positionally: item ``i``
    is ``ranks[i]`` unranked against the full ``nCr(n_snps, order)`` space.
    Useful for sampled sweeps and resumable partial searches.
    """

    def __init__(self, ranks: np.ndarray, n_snps: int, order: int = 3) -> None:
        from repro.core.combinations import combination_count

        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.ndim != 1:
            raise ValueError(f"ranks must be 1-D; got shape {ranks.shape}")
        space = combination_count(n_snps, order)
        if ranks.size and (ranks.min() < 0 or ranks.max() >= space):
            raise ValueError(f"ranks must lie in [0, {space})")
        self.ranks = ranks
        self.n_snps = int(n_snps)
        self.order = int(order)

    @classmethod
    def from_combinations(
        cls, combos: np.ndarray, n_snps: int
    ) -> "ExplicitRankSource":
        """Build a rank source from materialised combinations."""
        from repro.core.combinations import combination_ranks

        combos = np.asarray(combos)
        ranks = combination_ranks(combos, n_snps)
        return cls(ranks, n_snps=n_snps, order=int(combos.shape[1]))

    @property
    def total(self) -> int:
        return int(self.ranks.size)

    @property
    def effective_snps(self) -> int:
        return self.n_snps

    def materialize(self, start: int, stop: int) -> np.ndarray:
        from repro.core.combinations import combinations_from_ranks

        self._check_range(start, stop)
        return combinations_from_ranks(
            self.ranks[start:stop], self.n_snps, self.order
        )

    def describe(self) -> str:
        return f"ranks[{self.total} of C({self.n_snps},{self.order})]"

    def fingerprint(self) -> dict:
        return {
            **super().fingerprint(),
            "n_snps": self.n_snps,
            "sha1": self._digest(self.ranks),
        }


class ExplicitCombinationSource(CandidateSource):
    """Pre-materialised k-tuples (finalist re-scoring)."""

    def __init__(self, combos: np.ndarray) -> None:
        combos = np.ascontiguousarray(combos, dtype=np.int64)
        if combos.ndim != 2 or combos.shape[1] < 1:
            raise ValueError(
                f"combos must be 2-D (n, order); got shape {combos.shape}"
            )
        if combos.shape[1] > 1 and not (combos[:, 1:] > combos[:, :-1]).all():
            raise ValueError("combinations must be strictly increasing along rows")
        self.combos = combos
        self.order = int(combos.shape[1])

    @property
    def total(self) -> int:
        return int(self.combos.shape[0])

    @property
    def effective_snps(self) -> int | None:
        if self.combos.size == 0:
            return None
        return int(np.unique(self.combos).size)

    def materialize(self, start: int, stop: int) -> np.ndarray:
        self._check_range(start, stop)
        return self.combos[start:stop]

    def describe(self) -> str:
        return f"explicit[{self.total} order-{self.order} tuples]"

    def fingerprint(self) -> dict:
        return {**super().fingerprint(), "sha1": self._digest(self.combos)}


class SubsetSource(CandidateSource):
    """``nCr(m, order)`` combinations over a retained SNP subset.

    Item ``i`` is the local lexicographic rank ``i`` over the ``m`` retained
    SNPs; materialisation maps local positions back to global indices
    through the sorted subset array
    (:func:`repro.core.combinations.subset_combinations`).  This is the
    expand stage of a screen-then-expand search: the engine sweeps the
    reduced ``nCr(m, k)`` space, but every produced interaction carries
    global SNP indices and names.
    """

    def __init__(self, snp_indices: np.ndarray, order: int = 3) -> None:
        from repro.core.combinations import combination_count

        indices = np.asarray(snp_indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError(f"snp_indices must be 1-D; got shape {indices.shape}")
        if indices.size and indices.min() < 0:
            raise ValueError("snp_indices must be non-negative")
        if indices.size > 1 and not (indices[1:] > indices[:-1]).all():
            raise ValueError(
                "snp_indices must be strictly increasing (sorted, no duplicates)"
            )
        if indices.size < order:
            raise ValueError(
                f"{indices.size} retained SNPs cannot form order-{order} combinations"
            )
        self.snp_indices = indices
        self.order = int(order)
        self._total = combination_count(int(indices.size), self.order)

    @property
    def total(self) -> int:
        return self._total

    @property
    def effective_snps(self) -> int:
        return int(self.snp_indices.size)

    def materialize(self, start: int, stop: int) -> np.ndarray:
        from repro.core.combinations import subset_combinations

        self._check_range(start, stop)
        return subset_combinations(
            self.snp_indices, self.order, start_rank=start, count=stop - start
        )

    def describe(self) -> str:
        return (
            f"subset[C({self.snp_indices.size},{self.order}) = {self.total} "
            f"over retained SNPs]"
        )

    def fingerprint(self) -> dict:
        return {**super().fingerprint(), "sha1": self._digest(self.snp_indices)}

"""Execution-backend interface of the table-construction hot loop.

A backend implements the two kernel-family contracts of
:mod:`repro.core.approaches._kernels` — the naïve three-plane kernel and the
phenotype-split kernel — over packed bit-planes in either machine-word
layout.  Backends are *pure execution*: they return exact ``int64``
frequency counts and charge nothing.  All §IV instruction/traffic
accounting stays in the approach layer (modelled per paper word), so the
dynamic instruction counts, CARM traffic and performance-model inputs are
identical whichever backend produced the tables.

The contracts mirror the reference kernels bit for bit:

* ``naive_tables(planes, phenotype_words, combos)`` —
  ``(n_snps, 3, W)`` planes over all samples plus the packed phenotype →
  ``(n_combos, 3^k, 2)`` tables;
* ``split_class_counts(class_planes, padding_mask, combos, pairs=None)`` —
  ``(n_snps, 2, W)`` per-class planes of genotypes 0 and 1 (disjoint, zero
  in the padding bits) plus the class's valid-sample mask →
  ``(n_combos, 3^k)`` counts for that class.  How genotype 2 is counted is
  the backend's choice: the NumPy reference popcounts only the stored-plane
  cells and derives the rest exactly by inclusion–exclusion, the compiled
  kernels infer the plane with ``NOR``.  §IV charging, done in the approach
  layer, models the ``NOR`` mix either way.  ``pairs`` is the encoding's
  :class:`~repro.datasets.binarization.PairTable` of the class: the NumPy
  reference reads and fills it, the compiled backends ignore it.

Every backend must be bit-exact against
:func:`repro.core.contingency.contingency_oracle`; the equivalence suite in
``tests/test_backends.py`` enforces this at several orders, both kernel
families and both word layouts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import ClassVar

import numpy as np

__all__ = ["ExecutionBackend", "cell_digits"]


@lru_cache(maxsize=None)
def cell_digits(order: int) -> np.ndarray:
    """``(3^k, k)`` radix-3 digits of every genotype cell, big-endian.

    Row ``c`` holds the genotype value of each combination position for
    cell ``c`` under the canonical cell order of
    :func:`repro.core.contingency.combination_cell_index` (the first SNP of
    the combination is the most significant digit).  Compiled backends
    consume this table instead of re-deriving the digit decomposition in
    their inner loops.
    """
    cells = 3**order
    digits = np.empty((cells, order), dtype=np.int64)
    for c in range(cells):
        value = c
        for t in range(order - 1, -1, -1):
            digits[c, t] = value % 3
            value //= 3
    digits.setflags(write=False)
    return digits


class ExecutionBackend(ABC):
    """One way of executing the popcount+contingency hot loop.

    Subclasses define the class attributes ``name`` (registry key),
    ``kind`` (``"cpu"`` or ``"gpu"``) and ``description`` and implement the
    two kernel-family methods.  Instances are stateless and shared
    process-wide (the registry hands out singletons); optional-dependency
    backends must import their dependency lazily so that merely importing
    :mod:`repro.backends` never requires numba or cupy.
    """

    #: Registry key, e.g. ``"numba"``.
    name: ClassVar[str] = "abstract"
    #: Device family the backend executes on.
    kind: ClassVar[str] = "cpu"
    #: One-line description used by ``repro backends`` and the docs.
    description: ClassVar[str] = ""

    # -- availability ----------------------------------------------------------
    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend can execute on this host (deps importable)."""
        return cls.availability()[0]

    @classmethod
    @abstractmethod
    def availability(cls) -> tuple[bool, str]:
        """``(available, detail)`` — version string or the import failure."""

    @classmethod
    def version(cls) -> str | None:
        """Version of the backing library, or ``None`` when unavailable."""
        ok, detail = cls.availability()
        return detail if ok else None

    # -- kernel contracts ------------------------------------------------------
    @abstractmethod
    def naive_tables(
        self,
        planes: np.ndarray,
        phenotype_words: np.ndarray,
        combos: np.ndarray,
    ) -> np.ndarray:
        """``(n_combos, 3^k, 2)`` tables from the naïve three-plane encoding."""

    @abstractmethod
    def split_class_counts(
        self,
        class_planes: np.ndarray,
        padding_mask: np.ndarray,
        combos: np.ndarray,
        pairs=None,
    ) -> np.ndarray:
        """``(n_combos, 3^k)`` one-class counts from the split encoding."""

    def split_tables(
        self,
        control_planes: np.ndarray,
        case_planes: np.ndarray,
        control_mask: np.ndarray,
        case_mask: np.ndarray,
        combos: np.ndarray,
        control_pairs=None,
        case_pairs=None,
    ) -> np.ndarray:
        """C-ordered ``(n_combos, 3^k, 2)`` tables from both phenotype classes."""
        combos = np.asarray(combos)
        tables = np.empty((combos.shape[0], 3 ** combos.shape[1], 2), dtype=np.int64)
        tables[..., 0] = self.split_class_counts(
            control_planes, control_mask, combos, pairs=control_pairs
        )
        tables[..., 1] = self.split_class_counts(
            case_planes, case_mask, combos, pairs=case_pairs
        )
        return tables

    # -- fused build+score -----------------------------------------------------
    def score_combinations(
        self,
        family: str,
        combos: np.ndarray,
        objective,
        *,
        planes: np.ndarray | None = None,
        phenotype_words: np.ndarray | None = None,
        control_planes: np.ndarray | None = None,
        case_planes: np.ndarray | None = None,
        control_mask: np.ndarray | None = None,
        case_mask: np.ndarray | None = None,
        control_pairs=None,
        case_pairs=None,
    ) -> np.ndarray:
        """Fused build+score: fold each combination's table into its score.

        ``objective`` is any object with ``score(tables) -> scores`` (and
        optionally ``fused_spec()``); the return value is the ``(n_combos,)``
        float64 score vector, bit-identical to materializing the tables and
        scoring them separately.

        This default *is* the tiled single-materialization fast path: it
        builds the table batch with this backend's own (bit-exact) kernels
        and scores it in one pass.  Callers tile the combination batch into
        SNP blocks first, so the materialization here is per-tile — the
        chunk-wide ``(n_combos, 3^k, 2)`` array of the classic path is never
        allocated.  Compiled backends override this to fold supported
        objectives straight into the counting loop (no table at all).
        """
        if family == "naive":
            tables = self.naive_tables(planes, phenotype_words, combos)
        elif family == "split":
            tables = self.split_tables(
                control_planes,
                case_planes,
                control_mask,
                case_mask,
                combos,
                control_pairs=control_pairs,
                case_pairs=case_pairs,
            )
        else:
            raise ValueError(
                f"unknown kernel family {family!r}; expected 'naive' or 'split'"
            )
        return objective.score(tables)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, kind={self.kind!r})"

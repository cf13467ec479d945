"""The NumPy reference backend.

Delegates straight to the vectorised kernels of
:mod:`repro.core.approaches._kernels` (without charging — the approach
layer owns the op/traffic accounting).  Always available; every other
backend is validated bit-exact against it, and the registry falls back to
it when an optional dependency is absent.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.core.approaches._kernels import naive_tables, split_class_counts, split_tables

__all__ = ["NumpyBackend"]


class NumpyBackend(ExecutionBackend):
    """Vectorised NumPy kernels (the bit-exactness reference)."""

    name = "numpy"
    kind = "cpu"
    description = "vectorised NumPy reference kernels (always available)"

    @classmethod
    def availability(cls) -> tuple[bool, str]:
        return True, np.__version__

    def naive_tables(
        self,
        planes: np.ndarray,
        phenotype_words: np.ndarray,
        combos: np.ndarray,
    ) -> np.ndarray:
        return naive_tables(planes, phenotype_words, combos, counter=None)

    def split_class_counts(
        self,
        class_planes: np.ndarray,
        padding_mask: np.ndarray,
        combos: np.ndarray,
        pairs=None,
    ) -> np.ndarray:
        return split_class_counts(class_planes, padding_mask, combos, pairs)

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
        return split_tables(
            control_planes,
            case_planes,
            control_mask,
            case_mask,
            combos,
            control_pairs=control_pairs,
            case_pairs=case_pairs,
        )

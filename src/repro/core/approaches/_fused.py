"""Shared fused build+score execution over SNP tiles (approach layer).

These helpers drive :meth:`repro.backends.base.ExecutionBackend.
score_combinations` over the SNP-block tiles of
:func:`repro.engine.tiling.iter_snp_tiles`: each tile's distinct SNP
planes are gathered once into a compact contiguous block that every
combination in the tile reuses, and the backend folds the per-combination
tables straight into objective scores.  No chunk-wide ``(n_combos, 3^k,
2)`` table array exists on this path — a backend without true in-kernel
fusion materializes at most one tile's worth of tables at a time.  A
chunk that fits one tile (few words per class) runs on the encoding's
planes as they are: its relabel and gather would bound nothing, the NumPy
kernels gather their rows themselves, and the cupy backend keeps those
planes resident where a gathered block is a fresh upload.

The helpers perform **no §IV charging**: the calling approach charges the
identical modelled per-paper-word mix it charges on the build_tables
path, because fusion changes the machine's real traffic, not the paper's
modelled instruction/traffic counts (see :mod:`repro.perfmodel.counters`).
"""

from __future__ import annotations

import numpy as np

from repro.core.approaches._kernels import combos_per_tile
from repro.engine.tiling import iter_snp_tiles

__all__ = ["fused_naive_scores", "fused_split_scores"]


def _tiles(combos: np.ndarray, tile_combos: int):
    """:func:`iter_snp_tiles`, except that a chunk fitting one tile is kept whole."""
    if 0 < combos.shape[0] <= tile_combos:
        return [(slice(None), slice(None), combos)]
    return iter_snp_tiles(combos, tile_combos)


def fused_naive_scores(
    backend, encoded, combos: np.ndarray, objective
) -> np.ndarray:
    """Fused scores over the naïve three-plane encoding, tile by tile."""
    combos = np.asarray(combos, dtype=np.int64)
    order = int(combos.shape[1])
    planes = encoded.planes
    scores = np.empty(combos.shape[0], dtype=np.float64)
    tile_combos = combos_per_tile(order, planes.shape[2], planes.dtype.itemsize)
    phenotype_words = np.ascontiguousarray(encoded.phenotype_words)
    for tile_slice, unique_snps, local in _tiles(combos, tile_combos):
        gathered = np.ascontiguousarray(planes[unique_snps])
        scores[tile_slice] = backend.score_combinations(
            "naive",
            local,
            objective,
            planes=gathered,
            phenotype_words=phenotype_words,
        )
    return scores


def fused_split_scores(
    backend, split, combos: np.ndarray, objective
) -> np.ndarray:
    """Fused scores over the phenotype-split encoding, tile by tile."""
    combos = np.asarray(combos, dtype=np.int64)
    order = int(combos.shape[1])
    control_planes = split.control_planes
    case_planes = split.case_planes
    # The two classes run one kernel call each; the wider one sizes tiles.
    n_words = max(control_planes.shape[2], case_planes.shape[2])
    scores = np.empty(combos.shape[0], dtype=np.float64)
    tile_combos = combos_per_tile(order, n_words, control_planes.dtype.itemsize)
    control_mask = np.ascontiguousarray(split.padding_mask(0))
    case_mask = np.ascontiguousarray(split.padding_mask(1))
    for tile_slice, unique_snps, local in _tiles(combos, tile_combos):
        scores[tile_slice] = backend.score_combinations(
            "split",
            local,
            objective,
            control_planes=np.ascontiguousarray(control_planes[unique_snps]),
            case_planes=np.ascontiguousarray(case_planes[unique_snps]),
            control_mask=control_mask,
            case_mask=case_mask,
        )
    return scores

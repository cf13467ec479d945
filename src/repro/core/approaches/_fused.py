"""Shared fused build+score execution over tiles (approach layer).

These helpers drive :meth:`repro.backends.base.ExecutionBackend.
score_combinations` over tiles of a chunk, sized from the kernel byte
budget (:func:`repro.core.approaches._kernels.combos_per_tile`), and the
backend folds the per-combination tables straight into objective scores.
No chunk-wide ``(n_combos, 3^k, 2)`` table array exists on this path — a
backend without true in-kernel fusion materializes at most one tile's
worth of tables at a time.

* Naïve tiles are the SNP-block tiles of
  :func:`repro.engine.tiling.iter_snp_tiles`: each tile's distinct SNP
  planes are gathered once into a compact contiguous block that every
  combination in the tile reuses.  A chunk that fits one tile runs on the
  encoding's planes as they are.
* Split tiles are rank slices of the chunk, never gathered: their
  combinations index the encoding's planes and its per-class pair tables
  directly, so the NumPy kernel's prefix runs and table reads see the
  encoding's own SNP rows, and the cupy backend keeps those planes
  resident where a gathered block would be a fresh upload.

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
    """Fused scores over the phenotype-split encoding, one rank slice at a time."""
    combos = np.asarray(combos, dtype=np.int64)
    order = int(combos.shape[1])
    control_planes = split.control_planes
    # The two classes run one kernel call each; the wider one sizes tiles.
    n_words = max(split.words_per_class)
    tile_combos = combos_per_tile(order, n_words, control_planes.dtype.itemsize)
    encoding = dict(
        control_planes=control_planes,
        case_planes=split.case_planes,
        control_mask=np.ascontiguousarray(split.padding_mask(0)),
        case_mask=np.ascontiguousarray(split.padding_mask(1)),
        control_pairs=split.pair_table(0),
        case_pairs=split.pair_table(1),
    )
    scores = np.empty(combos.shape[0], dtype=np.float64)
    for start in range(0, combos.shape[0], tile_combos):
        tile = slice(start, start + tile_combos)
        scores[tile] = backend.score_combinations(
            "split", combos[tile], objective, **encoding
        )
    return scores

"""SNP-block tiling of combination batches (the naïve fused path's enumerator).

A scheduler chunk enumerates combinations in rank order, so consecutive
combinations share most of their SNPs: at order ``k`` the trailing column
cycles fastest and the leading columns change only every few hundred
rows.  The naïve family's fused scoring path exploits that by cutting
each chunk into **tiles** of consecutive combinations, gathering the
packed bit-planes of each tile's distinct SNPs once, and running the
kernels against the compact gathered planes with locally remapped
combination indices — the CPU analogue of the paper's tiled GPU kernel.
(Split-family tiles are plain rank slices: their kernel reads the
encoding's rows and pair tables directly.)  Every combination in a
tile reuses the same small plane block (typically a handful of SNPs for
hundreds of combinations), and the caller sizes tiles from the kernel
byte budget (:func:`repro.core.approaches._kernels.combos_per_tile`), which
bounds the per-tile workspace and table materialization of backends
without true in-kernel fusion.

Tiling is pure integer indexing: gathering planes and remapping the
(strictly increasing) combination rows through the sorted unique-SNP
array changes nothing about which exact words are popcounted, so counts
and scores are bit-identical to the untiled path.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = ["iter_snp_tiles"]


def iter_snp_tiles(
    combos: np.ndarray,
    tile_combos: int,
) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
    """Yield ``(tile_slice, unique_snps, local_combos)`` over a chunk.

    ``unique_snps`` is the sorted distinct SNP index vector of the tile
    (use it to gather plane rows once); ``local_combos`` is the tile's
    combination block re-expressed in gathered-row indices.  The mapping
    is monotone, so rows stay strictly increasing and every kernel's
    combination contract keeps holding.
    """
    combos = np.asarray(combos)
    n_combos = combos.shape[0]
    tile_combos = max(1, int(tile_combos))
    for start in range(0, n_combos, tile_combos):
        stop = min(n_combos, start + tile_combos)
        tile = combos[start:stop]
        unique_snps = np.unique(tile)
        local = np.searchsorted(unique_snps, tile).astype(np.int64)
        yield slice(start, stop), unique_snps, local

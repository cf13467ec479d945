"""Enumeration of the exhaustive SNP-combination search space.

Exhaustive k-way epistasis detection evaluates every ``nCr(M, k)``
combination of distinct SNPs.  For the paper's three-way study the space
grows cubically with the SNP count — 2048 SNPs already yield ~1.4 x 10^9
triplets — so the enumeration layer matters: it must

* stream combinations without materialising the whole space,
* support *chunking* so the host scheduler can hand work to threads
  (OpenMP dynamic scheduling in the paper) or to GPU kernel launches
  (blocks of ``BSched^3`` combinations), and
* support the *triangular block* iteration of Algorithm 1, where each CPU
  core works on three blocks of ``BS`` SNPs at a time and only evaluates
  the ``ii2 > ii1 > ii0`` combinations inside them.

The combinatorial-number-system rank/unrank functions allow any contiguous
range of the (lexicographic) combination sequence to be reconstructed from
its starting rank, which is how distributed baselines (MPI3SNP-style static
partitioning) and the GPU launch scheduler carve the space.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "combination_count",
    "combination_rank",
    "combination_ranks",
    "combination_from_rank",
    "combinations_from_ranks",
    "generate_combinations",
    "subset_combinations",
    "iter_combination_chunks",
    "iter_triangular_blocks",
    "block_combination_count",
]

#: Largest combination-space size the vectorised ``int64`` unranking can
#: address; larger spaces fall back to the arbitrary-precision scalar path.
_INT64_MAX = np.iinfo(np.int64).max


@lru_cache(maxsize=32)
def _suffix_counts(n_snps: int, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """``suffix[c] = C(M - c, slots)`` for ``c`` in ``0 .. M + 1``, and ``-suffix``.

    The combinations of the remaining ``slots`` positions drawn entirely
    from ``{c, ..., M-1}`` (non-increasing in ``c``).  Built once per
    ``(n_snps, slots)`` with one Python ``comb`` per SNP and kept
    read-only, so an engine chunk unranks with NumPy work alone.
    """
    suffix = np.array(
        [comb(max(n_snps - c, 0), slots) for c in range(n_snps + 2)], dtype=np.int64
    )
    negated = -suffix
    suffix.setflags(write=False)
    negated.setflags(write=False)
    return suffix, negated


def combination_count(n_snps: int, order: int = 3) -> int:
    """Number of SNP combinations: ``nCr(n_snps, order)``."""
    if n_snps < 0 or order < 1:
        raise ValueError("n_snps must be >= 0 and order >= 1")
    return comb(n_snps, order)


def combination_rank(combo: Sequence[int], n_snps: int | None = None) -> int:
    """Lexicographic rank of a strictly increasing combination.

    The rank is the index of ``combo`` in the sequence produced by
    :func:`generate_combinations` (0-based).  Uses the combinatorial number
    system: for ``combo = (c0 < c1 < ... < c_{k-1})`` drawn from ``M`` items,

    ``rank = C(M,k) - sum_{t} C(M - c_t - 1, k - t)`` adjusted for the
    lexicographic order on increasing tuples.
    """
    combo = tuple(combo)
    k = len(combo)
    if any(combo[i] >= combo[i + 1] for i in range(k - 1)):
        raise ValueError(f"combination must be strictly increasing, got {combo}")
    if combo and combo[0] < 0:
        raise ValueError("combination indices must be non-negative")
    if n_snps is None:
        n_snps = combo[-1] + 1 if combo else 0
    if combo and combo[-1] >= n_snps:
        raise ValueError(f"combination {combo} out of range for n_snps={n_snps}")
    rank = 0
    prev = -1
    for t, c in enumerate(combo):
        for skipped in range(prev + 1, c):
            rank += comb(n_snps - skipped - 1, k - t - 1)
        prev = c
    return rank


def combination_from_rank(rank: int, n_snps: int, order: int = 3) -> tuple[int, ...]:
    """Inverse of :func:`combination_rank` (lexicographic unranking)."""
    total = combination_count(n_snps, order)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, {total})")
    combo: list[int] = []
    prev = -1
    remaining_rank = rank
    for t in range(order):
        c = prev + 1
        while True:
            block = comb(n_snps - c - 1, order - t - 1)
            if remaining_rank < block:
                break
            remaining_rank -= block
            c += 1
        combo.append(c)
        prev = c
    return tuple(combo)


def combination_ranks(combos: np.ndarray, n_snps: int) -> np.ndarray:
    """Vectorised lexicographic ranking of many combinations at once.

    The inverse of :func:`combinations_from_ranks`: for each strictly
    increasing row of ``combos`` the rank is accumulated level by level from
    the same suffix-count tables the unranking walks — the items skipped
    before position ``t`` contribute ``C(M - prev - 1, k - t) - C(M - c_t,
    k - t)`` (a telescoped hockey-stick sum), so the cost is ``O(k · (n +
    M))`` NumPy work.

    Parameters
    ----------
    combos:
        ``(n, k)`` array of strictly increasing combinations.
    n_snps:
        Number of SNPs ``M`` the ranks are relative to.

    Returns
    -------
    numpy.ndarray
        ``(n,)`` ``int64`` lexicographic ranks.
    """
    combos = np.asarray(combos)
    if combos.ndim != 2:
        raise ValueError(f"combos must be 2-D (n, k); got shape {combos.shape}")
    n, order = combos.shape
    if order < 1:
        raise ValueError("combinations must have at least one element")
    if combination_count(n_snps, order) > _INT64_MAX:
        return np.array(
            [combination_rank(tuple(int(c) for c in row), n_snps) for row in combos],
            dtype=object,
        )
    combos = combos.astype(np.int64, copy=False)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if combos.min(initial=0) < 0 or combos.max(initial=-1) >= n_snps:
        raise ValueError(f"combination indices must lie in [0, {n_snps})")
    if order > 1 and not (combos[:, 1:] > combos[:, :-1]).all():
        raise ValueError("combinations must be strictly increasing along rows")
    ranks = np.zeros(n, dtype=np.int64)
    prev = np.full(n, -1, dtype=np.int64)
    for t in range(order):
        suffix, _ = _suffix_counts(n_snps, order - t)
        c = combos[:, t]
        ranks += suffix[prev + 1] - suffix[c]
        prev = c
    return ranks


def _pairs_from_ranks(ranks: np.ndarray, n_snps: int) -> np.ndarray:
    """Closed-form order-2 unranking (no searchsorted over binomial tables).

    With ``offset(i) = i*(n-1) - i*(i-1)/2`` pairs preceding first index
    ``i``, the first index of rank ``r`` is the largest ``i`` with
    ``offset(i) <= r`` and the second follows as ``r - offset(i) + i + 1``.
    """
    firsts = np.arange(n_snps - 1, dtype=np.int64)
    offsets = firsts * (n_snps - 1) - (firsts * (firsts - 1)) // 2
    i = np.searchsorted(offsets, ranks, side="right") - 1
    j = ranks - offsets[i] + i + 1
    return np.stack([i, j], axis=1)


def combinations_from_ranks(
    ranks: np.ndarray, n_snps: int, order: int = 3
) -> np.ndarray:
    """Vectorised lexicographic unranking of many ranks at once.

    The order-dispatched fast path of the enumeration layer:

    * ``order == 2`` uses the closed-form pair unranking (one
      ``searchsorted`` over a triangular offset table);
    * any other order runs the combinatorial-number-system unranking
      level-by-level — one ``searchsorted`` per combination position over a
      precomputed suffix-count table ``C(M - c, k - t)`` — so the cost is
      ``O(k · n · log M)`` NumPy work instead of ``O(n · k · M)`` Python
      loop iterations;
    * combination spaces larger than ``int64`` fall back to the exact
      arbitrary-precision scalar :func:`combination_from_rank`.

    Parameters
    ----------
    ranks:
        1-D array of lexicographic ranks (any order, duplicates allowed).
    n_snps / order:
        Number of SNPs ``M`` and interaction order ``k``.

    Returns
    -------
    numpy.ndarray
        ``(len(ranks), order)`` ``int64`` combinations.
    """
    ranks = np.asarray(ranks)
    if ranks.ndim != 1:
        raise ValueError(f"ranks must be 1-D; got shape {ranks.shape}")
    total = combination_count(n_snps, order)
    if total > _INT64_MAX:
        return np.array(
            [combination_from_rank(int(r), n_snps, order) for r in ranks],
            dtype=object,
        )
    ranks = ranks.astype(np.int64, copy=False)
    if ranks.size == 0:
        return np.empty((0, order), dtype=np.int64)
    if ranks.min() < 0 or ranks.max() >= total:
        raise ValueError(f"ranks must lie in [0, {total})")
    if order == 2:
        return _pairs_from_ranks(ranks, n_snps)

    out = np.empty((ranks.size, order), dtype=np.int64)
    prev = np.full(ranks.size, -1, dtype=np.int64)
    remaining = ranks.copy()
    for t in range(order):
        # Positions still to fill, including this one.
        suffix, negated = _suffix_counts(n_snps, order - t)
        target = suffix[prev + 1] - remaining
        # Largest c with suffix[c] >= target  <=>  last index of the
        # non-decreasing array -suffix that is <= -target.
        c = np.searchsorted(negated, -target, side="right") - 1
        remaining -= suffix[prev + 1] - suffix[c]
        out[:, t] = c
        prev = c
    return out


def generate_combinations(
    n_snps: int,
    order: int = 3,
    start_rank: int = 0,
    count: int | None = None,
) -> np.ndarray:
    """Materialise a contiguous range of combinations as an ``(n, order)`` array.

    Parameters
    ----------
    n_snps:
        Number of SNPs ``M``.
    order:
        Interaction order ``k``.
    start_rank / count:
        Range of lexicographic ranks to produce; by default the whole space.
        Intended for test/benchmark-scale problems — production runs stream
        chunks with :func:`iter_combination_chunks` instead.

    Notes
    -----
    Dispatches to the vectorised :func:`combinations_from_ranks` (closed
    form at order 2, per-level unranking otherwise); the scalar
    next-combination walk is kept only for spaces too large for ``int64``
    rank arithmetic.
    """
    total = combination_count(n_snps, order)
    if count is None:
        count = total - start_rank
    if count < 0 or start_rank < 0 or start_rank + count > total:
        raise ValueError(
            f"invalid range [{start_rank}, {start_rank + count}) for {total} combinations"
        )
    if count == 0:
        return np.empty((0, order), dtype=np.int64)
    if total <= _INT64_MAX:
        ranks = np.arange(start_rank, start_rank + count, dtype=np.int64)
        return combinations_from_ranks(ranks, n_snps, order)
    out = np.empty((count, order), dtype=np.int64)
    combo = list(combination_from_rank(start_rank, n_snps, order))
    for row in range(count):
        out[row] = combo
        # Advance to the next combination in lexicographic order.
        i = order - 1
        while i >= 0 and combo[i] == n_snps - order + i:
            i -= 1
        if i < 0:
            break
        combo[i] += 1
        for j in range(i + 1, order):
            combo[j] = combo[j - 1] + 1
    return out


def subset_combinations(
    subset: np.ndarray,
    order: int = 3,
    start_rank: int = 0,
    count: int | None = None,
) -> np.ndarray:
    """Combinations over a retained SNP subset, mapped back to global indices.

    The staged search evaluates its expensive high-order sweep only over the
    SNPs a cheaper screening pass retained.  This helper enumerates the
    ``nCr(len(subset), order)`` local combinations (lexicographic, like
    :func:`generate_combinations`) and translates every local position
    through the sorted ``subset`` array, so the produced rows are valid
    global k-tuples that any approach kernel (and the result reporting) can
    consume unchanged.

    Parameters
    ----------
    subset:
        1-D array of retained *global* SNP indices, strictly increasing (a
        sorted subset keeps the global rows strictly increasing too).
    order:
        Interaction order ``k``.
    start_rank / count:
        Range of local lexicographic ranks to produce; the whole local
        space by default.

    Returns
    -------
    numpy.ndarray
        ``(count, order)`` ``int64`` global SNP combinations.
    """
    subset = np.asarray(subset, dtype=np.int64)
    if subset.ndim != 1:
        raise ValueError(f"subset must be 1-D; got shape {subset.shape}")
    if subset.size and subset[0] < 0:
        raise ValueError("subset indices must be non-negative")
    if subset.size > 1 and not (subset[1:] > subset[:-1]).all():
        raise ValueError("subset must be strictly increasing (sorted, no duplicates)")
    local = generate_combinations(
        int(subset.size), order, start_rank=start_rank, count=count
    )
    return subset[local]


def iter_combination_chunks(
    n_snps: int,
    order: int = 3,
    chunk_size: int = 4096,
    start_rank: int = 0,
    stop_rank: int | None = None,
) -> Iterator[np.ndarray]:
    """Yield the combination space as ``(<=chunk_size, order)`` arrays.

    This is the work-unit stream consumed by the host scheduler; chunks are
    produced lazily so arbitrarily large search spaces can be traversed.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    total = combination_count(n_snps, order)
    stop = total if stop_rank is None else min(stop_rank, total)
    rank = start_rank
    while rank < stop:
        n = min(chunk_size, stop - rank)
        yield generate_combinations(n_snps, order, start_rank=rank, count=n)
        rank += n


def block_combination_count(n_snps: int, block_size: int) -> int:
    """Number of triangular SNP-block triples visited by Algorithm 1."""
    n_blocks = (n_snps + block_size - 1) // block_size
    # blocks (b0 <= b1 <= b2): combinations with repetition.
    return comb(n_blocks + 2, 3)


def iter_triangular_blocks(
    n_snps: int,
    block_size: int,
) -> Iterator[tuple[tuple[int, int], tuple[int, int], tuple[int, int]]]:
    """Iterate SNP-block triples ``(b0 <= b1 <= b2)`` as index ranges.

    Each yielded element is a triple of ``(start, stop)`` half-open SNP index
    ranges, one per loop variable ``i0, i1, i2`` of Algorithm 1.  The caller
    is responsible for the intra-block ``ii2 > ii1 > ii0`` filter (which the
    blocked kernels apply), so every SNP triplet is visited exactly once
    across all yielded block triples.
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    n_blocks = (n_snps + block_size - 1) // block_size

    def block_range(b: int) -> tuple[int, int]:
        return b * block_size, min((b + 1) * block_size, n_snps)

    for b0 in range(n_blocks):
        for b1 in range(b0, n_blocks):
            for b2 in range(b1, n_blocks):
                yield block_range(b0), block_range(b1), block_range(b2)


def combinations_in_block_triple(
    ranges: tuple[tuple[int, int], tuple[int, int], tuple[int, int]],
) -> np.ndarray:
    """All valid (strictly increasing) triplets within one block triple.

    The intra-block filter ``i2 > i1 > i0`` of Algorithm 1 is applied here,
    so the union over all block triples yielded by
    :func:`iter_triangular_blocks` is exactly the combination space.
    """
    (s0, e0), (s1, e1), (s2, e2) = ranges
    i0 = np.arange(s0, e0, dtype=np.int64)
    i1 = np.arange(s1, e1, dtype=np.int64)
    i2 = np.arange(s2, e2, dtype=np.int64)
    g0, g1, g2 = np.meshgrid(i0, i1, i2, indexing="ij")
    mask = (g1 > g0) & (g2 > g1)
    return np.stack([g0[mask], g1[mask], g2[mask]], axis=1)

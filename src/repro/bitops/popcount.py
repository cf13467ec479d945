"""Population-count primitives over packed word arrays.

The population count (``POPCNT``) is the single most important instruction in
exhaustive epistasis detection: each of the 27 genotype combinations of a SNP
triplet requires one ``POPCNT`` per packed word per phenotype class.  The
paper's CPU evaluation shows that the presence (Ice Lake SP) or absence
(Skylake, Zen/Zen2) of a *vector* POPCNT instruction is the dominant
micro-architectural differentiator, while the GPU evaluation is driven by the
per-compute-unit POPCNT throughput (Table II).

This module provides several equivalent implementations:

* :func:`popcount32` / :func:`popcount64` — the fast path, backed by
  :func:`numpy.bitwise_count` (AVX-512 VPOPCNTDQ analogue).
* :func:`popcount_lut` — a 16-bit lookup-table implementation.  It is used as
  a pure-Python/NumPy fallback and as the reference model of a *scalar*
  POPCNT path (one table probe per 16-bit nibble-pair mirrors the per-lane
  extract + scalar POPCNT sequence the paper describes for AVX/AVX-512
  processors without VPOPCNT).
* :func:`scalar_popcount` — per-element Python-int population count, the
  oracle used by the test-suite.

All functions accept arrays of unsigned integers of any shape and return
``int64`` counts with the same shape (or a reduction over the last axis for
:func:`popcount_reduce`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "popcount",
    "popcount_sum",
    "popcount32",
    "popcount64",
    "popcount_lut",
    "popcount_reduce",
    "scalar_popcount",
    "HAS_BITWISE_COUNT",
]

#: Whether the running NumPy exposes ``bitwise_count`` (NumPy >= 2.0).
HAS_BITWISE_COUNT: bool = hasattr(np, "bitwise_count")

#: Longest last axis :func:`popcount_sum` adds column by column instead of
#: reducing, and the rows per word such a call needs (see its docstring for
#: the measured crossovers).
COLUMN_SUM_WORDS: int = 16
COLUMN_SUM_ROWS_PER_WORD: int = 128

# ---------------------------------------------------------------------------
# Lookup table: number of set bits for every 16-bit value.  65536 uint8
# entries (64 KiB); built once at import time with a vectorised expression.
# ---------------------------------------------------------------------------
_LUT16: np.ndarray = np.array(
    [bin(i).count("1") for i in range(1 << 8)], dtype=np.uint8
)
# Extend the 8-bit table to a 16-bit table by composition: popcount(hi) +
# popcount(lo).  Broadcasting keeps the construction cheap.
_LUT16 = (_LUT16[:, None] + _LUT16[None, :]).reshape(-1)


def _as_unsigned(words: np.ndarray) -> np.ndarray:
    """Return ``words`` as an unsigned integer array without copying data.

    Signed inputs are re-interpreted (not converted) so that the bit pattern
    is preserved; floating point inputs are rejected.
    """
    arr = np.asarray(words)
    if arr.dtype.kind == "u":
        return arr
    if arr.dtype.kind == "i":
        return arr.view(arr.dtype.str.replace("i", "u"))
    raise TypeError(f"popcount requires an integer array, got dtype={arr.dtype}")


def popcount(words: np.ndarray) -> np.ndarray:
    """Width-generic population count: dispatches on the word dtype.

    ``uint64`` input takes the 64-bit path (one ``np.bitwise_count`` over
    half as many elements as the equivalent 32-bit plane — the core of the
    wide-word speedup); everything else takes the 32-bit path.  The result
    is always an ``int64`` array of the input's shape.
    """
    arr = _as_unsigned(words)
    if arr.dtype == np.uint64:
        return popcount64(arr)
    return popcount32(arr)


def popcount_sum(
    words: np.ndarray, axis: int = -1, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Fused population count + reduction over ``axis`` (``int64`` result).

    The hot path of every frequency-table cell is ``popcount(word
    stream).sum(word axis)``.  Going through :func:`popcount` first would
    materialise a full ``int64`` copy of the per-word counts (8 bytes per
    word) purely to feed the reduction; this helper sums the native
    ``uint8`` output of ``np.bitwise_count`` directly into the narrowest
    accumulator that cannot overflow (a sum is at most words x word bits;
    ``uint16`` reduces about 3x faster than ``int64``) and widens only the
    reduced result to ``int64``.  Width-generic (uint32 and uint64 input)
    and bit-exact with the two-step form.  ``scratch``, a ``uint8`` array
    of the input's shape, receives the per-word counts instead of a fresh
    array (the kernels pass their workspace).

    A short last axis is summed column by column instead: NumPy's reduce
    pays a fixed cost per output row (about 20 ns for a 4-word row, whose
    ``bitwise_count`` takes 3 ns), while one ``int64`` add per word column
    streams every row at once.  Measured over 16 384 rows (NumPy 2.4,
    2 vCPUs): column adds win 6-8x at 2 words, 3.4-4.3x at 4, 2.0-2.7x at
    8 and 1.35-1.6x at 16 words, tie at 24-32 and lose 6x at 128, so
    axes up to :data:`COLUMN_SUM_WORDS` words take the column path.  That
    puts the 4-word rows of a 512-sample class on the column side and the
    128-word rows of the paper's 16 384 samples on the reduce side.  Each
    column costs a ufunc call (about 1.5 us), so a call also needs
    :data:`COLUMN_SUM_ROWS_PER_WORD` rows per word: the column path broke
    even at about 150 rows of 4 words, 800 of 8 and 1 500 of 16.
    """
    arr = _as_unsigned(words)
    if arr.dtype not in (np.uint32, np.uint64):
        arr = arr.astype(np.uint32)
    if HAS_BITWISE_COUNT:
        n_words = arr.shape[axis]
        if (
            arr.ndim > 1
            and axis in (-1, arr.ndim - 1)
            and 0 < n_words <= COLUMN_SUM_WORDS
            and arr.size >= COLUMN_SUM_ROWS_PER_WORD * n_words**2
        ):
            counts = np.bitwise_count(arr, out=scratch)
            total = counts[..., 0].astype(np.int64)
            for word in range(1, n_words):
                np.add(total, counts[..., word], out=total)
            return total
        bound = n_words * arr.dtype.itemsize * 8
        accumulator = (
            np.uint16 if bound < 2**16 else np.int32 if bound < 2**31 else np.int64
        )
        counts = np.bitwise_count(arr, out=scratch).sum(axis=axis, dtype=accumulator)
        return counts.astype(np.int64)
    if arr.dtype == np.uint64:
        lo = (arr & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        hi = (arr >> np.uint64(32)).astype(np.uint32)
        return popcount_lut(lo).sum(axis=axis) + popcount_lut(hi).sum(axis=axis)
    return popcount_lut(arr).sum(axis=axis)


def popcount32(words: np.ndarray) -> np.ndarray:
    """Population count of each 32-bit word in ``words``.

    Parameters
    ----------
    words:
        Array of ``uint32`` (or ``int32``) packed words, any shape.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of the same shape holding the number of set bits of
        every word.
    """
    arr = _as_unsigned(words)
    if arr.dtype != np.uint32:
        arr = arr.astype(np.uint32)
    if HAS_BITWISE_COUNT:
        return np.bitwise_count(arr).astype(np.int64)
    return popcount_lut(arr)


def popcount64(words: np.ndarray) -> np.ndarray:
    """Population count of each 64-bit word in ``words`` (``int64`` result)."""
    arr = _as_unsigned(words)
    if arr.dtype != np.uint64:
        arr = arr.astype(np.uint64)
    if HAS_BITWISE_COUNT:
        return np.bitwise_count(arr).astype(np.int64)
    lo = (arr & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (arr >> np.uint64(32)).astype(np.uint32)
    return popcount_lut(lo) + popcount_lut(hi)


def popcount_lut(words: np.ndarray) -> np.ndarray:
    """Lookup-table population count (16-bit table, two probes per word).

    Works for ``uint32`` input of any shape.  This is the reference
    implementation for devices without a hardware (vector) POPCNT: the two
    table probes per word mirror the extract + scalar POPCNT sequence used on
    AVX/AVX-512 CPUs that lack ``VPOPCNTDQ``.
    """
    arr = _as_unsigned(words)
    if arr.dtype != np.uint32:
        arr = arr.astype(np.uint32)
    lo = arr & np.uint32(0xFFFF)
    hi = arr >> np.uint32(16)
    return (_LUT16[lo].astype(np.int64) + _LUT16[hi].astype(np.int64))


def popcount_reduce(words: np.ndarray, axis: int | None = -1) -> np.ndarray:
    """Population count reduced (summed) over ``axis``.

    This is the packed-word analogue of the paper's
    ``_mm512_reduce_add_epi32(_mm512_popcnt_epi32(v))`` idiom: count the set
    bits of every word of a vector register and accumulate them into a single
    frequency-table cell.  Width-generic (uint32 and uint64 input).
    """
    return popcount(words).sum(axis=axis)


def scalar_popcount(value: int) -> int:
    """Population count of a single non-negative Python integer.

    Used as the ground-truth oracle in the test-suite; intentionally
    implemented without NumPy.
    """
    if value < 0:
        raise ValueError("scalar_popcount expects a non-negative integer")
    return int(value).bit_count()

"""Shared word-level kernels of the CPU/GPU approaches.

Two families of kernels build the ``3^k x 2`` frequency tables of a k-way
interaction (``k`` between :data:`MIN_ORDER` and :data:`MAX_ORDER`):

* the **naïve** kernel (approach V1 on both devices): three genotype planes
  per SNP over *all* samples, with the phenotype bit-vector (and its
  negation) used to split every genotype-combination count into cases and
  controls.  Its batched form, :func:`naive_permutation_tables`, counts
  one set of planes under a block of phenotypes (a permutation null);
* the **phenotype-split** kernel (approaches V2–V4): per-class planes of
  genotypes 0 and 1 only.  Execution ANDs and popcounts just the ``2^m``
  stored-plane cells of each sub-combination and derives every genotype-2
  cell exactly by inclusion–exclusion (``c2 = c* - c0 - c1`` along each
  axis, the ``c*`` counts coming from lower-order sub-combinations), see
  :func:`split_class_counts`.

**Prefix lattice and pair table.**  The split kernel walks a batch the way
the nested ``a < b < c`` loops of the paper's Algorithm 1 do: in rank
order, the combinations sharing a ``(k-1)``-prefix are consecutive rows.
It builds the ``2^(k-1)`` AND planes of each such run's prefix once (each
prefix level from the one below it) and ANDs them with every row's last
SNP planes for the ``2^k`` top cells; a batch out of rank order only makes
its runs shorter.  The other pairs of each combination come from the
encoding's :class:`~repro.datasets.binarization.PairTable` of the class,
the stored-plane Gram entries of the pairs searches have needed: a call
looks its pairs up, counts the misses once each and stores them, so,
while the table has room, a search counts each pair once per process and
a second search on the same encoding counts none.  The table is filled
lazily, only with the pairs asked for, under a lock (engine threads share
one encoding) and never shipped between processes.  It holds rows of
``n_snps`` pair slots (17 bytes a slot), one per first SNP of a stored
pair, within half the budget per class: every row of an encoding of up
to about 740 SNPs.  Without a table, with a table of other planes, or
for the pairs of rows a full table could not add, the misses are counted
on every call, by the same code, and the table adds a lookup to them
(a store writes its pairs in place).  The table therefore speeds a
search up while the first SNPs of its pairs fit; past that, those pairs
cost what they cost without a table.  Singles are counted over the SNP
rows a piece uses, so a rank slice of a wide encoding counts no more of
them than a gathered block of its SNPs would.  The other
sub-combinations of sizes 3 to ``k - 1`` (``k >= 4``) are counted once
per budget-sized piece.

The kernels are fully vectorised over a batch of SNP k-tuples: each cell
is one elementwise AND over plane-major ``(batch, words)`` blocks, and the
per-word population counts are reduced with
:func:`repro.bitops.popcount.popcount_sum` (which adds the word columns of
a short word axis instead of reducing each row) — the kernels accept planes in
either machine-word layout (``uint32`` or ``uint64``; the wide layout
halves the element count of every AND/POPCNT).  Both kernels are bit-exact
with the :func:`repro.core.contingency.contingency_oracle` construction
(property tested at several orders and both layouts).

Execution and accounting are separate: the ``charge_*`` helpers charge the
§IV *modelled* instruction mixes to an :class:`~repro.bitops.ops.OpCounter`
whatever the execution did — for the split family that is still the
paper's ``k`` NORs and ``3^k`` AND+POPCNT cells per word.  Charging is
always per **paper** (32-bit) word: the helpers convert machine words
through the layout's :attr:`~repro.bitops.packing.WordLayout.paper_words`
ratio at the charging boundary, so at the paper's ``k = 3`` the mixes
reduce to the §IV accounting — 162 instructions per word for the naïve
kernel, 57 for the split kernel — regardless of the execution word width.

**Workspace.**  Every array of a kernel call that scales with combinations
x words — the plane gathers, AND planes, genotype grids and per-word
population counts — is carved from one per-thread workspace: a byte
buffer that grows to the largest budget-sized piece (below) the thread
has run and is reused by every later call, so a steady-state call
allocates (and page-faults) nothing of that size.  The workspace never
escapes a call: every returned array is freshly allocated and the next
call on the thread overwrites the buffer.  Gathers use ``np.take(..., out=, mode="clip")``
(under ``mode="raise"`` NumPy stages ``out=`` through a temporary), so
the kernels check SNP indices themselves and still raise
:class:`IndexError` for an index outside the planes.  The ANDs combine
equal-shape contiguous blocks: a broadcasting ufunc would have NumPy
allocate iterator buffers on every call.

**Budget.**  :data:`KERNEL_BUDGET_BYTES` bounds every kernel call, whoever
makes it.  Both kernels cut a call whose modelled footprint
(:func:`combo_word_bytes` per combination and word) exceeds the budget
into pieces of :func:`combos_per_tile` combinations and, when a single
combination over every word alone exceeds it, of :func:`words_per_pass`
words; counts add exactly across pieces.  A split call counts its pair
misses over every word, in pieces cut the same way, after its pieces.
Fused tiles are sized with the same function, so each runs as one piece.
A piece carves at most 1.07x the budget from the workspace (the naïve
kernel at ``k = 2`` on ``uint32`` words; the split kernel stays below
half of it whether its prefix runs are long or one row each), so a
thread's workspace stays below 9/8 of the budget plus 4 KiB for the
thread's life.  The engine's claims, when a search leaves their size
unset, come from the same budget (:func:`claim_combos`): a claim holds
an eighth of it of what scoring keeps live per combination
(:func:`claim_bytes`), so short word axes, where each claim is one
kernel call, pay a call's fixed costs once per 5 461 pairs.  A split
call writes each class's counts straight into
its table column and derives genotype 2 in place.  The pair tables are
bounded per encoding, not per process: each class's table adds rows
(17 bytes per SNP) while it holds
at most half the budget, so an encoding's two tables stay within one
budget, and a process holds at most one budget of tables per split
encoding it keeps alive (the encoding cache keeps at most eight; see
:mod:`repro.core.encoding_cache`).  The batched naïve kernel
cuts its pieces the same way, from its own footprint per combination and
word, which grows with the number of phenotypes in the block; a block so
large that one word of one combination exceeds the budget still runs, as
pieces of one word.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations, product
from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.bitops.ops import OpCounter
from repro.bitops.packing import paper_word_ratio as _paper_word_ratio
from repro.bitops.popcount import popcount_sum

if TYPE_CHECKING:
    from repro.datasets.binarization import PairTable

__all__ = [
    "MIN_ORDER",
    "MAX_ORDER",
    "check_order",
    "n_cells",
    "naive_ops_per_combo_word",
    "split_ops_per_combo_word",
    "NAIVE_OPS_PER_COMBO_WORD",
    "SPLIT_OPS_PER_COMBO_WORD",
    "KERNEL_BUDGET_BYTES",
    "combo_word_bytes",
    "combos_per_tile",
    "words_per_pass",
    "claim_bytes",
    "claim_combos",
    "naive_tables",
    "naive_permutation_tables",
    "split_class_counts",
    "split_tables",
    "charge_naive_ops",
    "charge_split_ops",
]

#: Smallest interaction order the kernels support (pairwise).
MIN_ORDER: int = 2

#: Largest interaction order the kernels support.  The ``3^k`` genotype grid
#: and the ``nCr(M, k)`` rank space both explode beyond this; 5 keeps the
#: intermediate broadcast arrays within sane memory bounds.
MAX_ORDER: int = 5

#: Byte budget of one kernel piece: calls are cut, and fused tiles sized,
#: so that each piece's modelled workspace fits it.  18 MiB keeps the
#: paper's 16 384-sample third-order split tiles at 512 combinations.
KERNEL_BUDGET_BYTES: int = 18 * 2**20


def check_order(order: int) -> int:
    """Validate an interaction order and return it as a plain ``int``."""
    order = int(order)
    if not MIN_ORDER <= order <= MAX_ORDER:
        raise ValueError(
            f"interaction order must be in [{MIN_ORDER}, {MAX_ORDER}]; got {order}"
        )
    return order


def n_cells(order: int) -> int:
    """Number of genotype-combination cells of a k-way table: ``3^k``."""
    return 3 ** check_order(order)


def naive_ops_per_combo_word(order: int = 3) -> Dict[str, float]:
    """Dynamic instruction mix of the naïve kernel, per combination per word.

    Per packed word each combination loads the 3 planes of its ``k`` SNPs
    plus the phenotype word, and each of the ``3^k`` genotype cells costs
    ``k - 1`` ANDs to combine the planes, 2 ANDs for the case/control masks,
    2 POPCNTs and 2 ADDs.  At ``k = 3`` this is the paper's
    "27 x 6 = 162 compute instructions" accounting.
    """
    order = check_order(order)
    cells = float(3**order)
    return {
        "LOAD": 3.0 * order + 1.0,
        "AND": (order + 1.0) * cells,
        "POPCNT": 2.0 * cells,
        "ADD": 2.0 * cells,
    }


def split_ops_per_combo_word(order: int = 3) -> Dict[str, float]:
    """Dynamic instruction mix of the phenotype-split kernel.

    Per combination and per packed word *of one phenotype class*: ``2k``
    loads, ``k`` NORs (each emulated as OR + XOR) to infer the genotype-2
    planes, and per genotype cell ``k - 1`` ANDs, one POPCNT and one ADD.
    At ``k = 3`` this matches the paper's "(3 NOR + 1 AND + 1 POPCNT) per
    combination -> 57 instructions" count.
    """
    order = check_order(order)
    cells = float(3**order)
    return {
        "LOAD": 2.0 * order,
        "NOR": float(order),
        "OR": float(order),
        "XOR": float(order),
        "AND": (order - 1.0) * cells,
        "POPCNT": 1.0 * cells,
        "ADD": 1.0 * cells,
    }


#: The paper's third-order instances of the order-parametric mixes, kept as
#: module constants for the performance models and the test-suite pins.
NAIVE_OPS_PER_COMBO_WORD: Dict[str, float] = naive_ops_per_combo_word(3)
SPLIT_OPS_PER_COMBO_WORD: Dict[str, float] = split_ops_per_combo_word(3)


def charge_naive_ops(
    counter: OpCounter,
    n_combos: int,
    n_words: int,
    order: int = 3,
    word_ratio: int = 1,
) -> None:
    """Charge the naïve-kernel instruction mix for a batch to ``counter``.

    ``n_words`` counts *machine* words; ``word_ratio`` is the layout's
    paper-words-per-machine-word conversion applied at this charging
    boundary.  Each mnemonic's total is rounded once at the end (not
    truncated per term), so fractional per-word mixes charge exactly.
    """
    scale = n_combos * n_words * word_ratio
    for mnemonic, per in naive_ops_per_combo_word(order).items():
        if mnemonic == "LOAD":
            counter.add_load(int(round(per * scale)))
        else:
            counter.add(mnemonic, int(round(per * scale)))


def charge_split_ops(
    counter: OpCounter,
    n_combos: int,
    n_words_total: int,
    order: int = 3,
    word_ratio: int = 1,
) -> None:
    """Charge the split-kernel mix; ``n_words_total`` sums both classes.

    Machine words are converted to paper words through ``word_ratio``, and
    each mnemonic's total is rounded once at the end (not truncated).
    """
    scale = n_combos * n_words_total * word_ratio
    for mnemonic, per in split_ops_per_combo_word(order).items():
        if mnemonic == "LOAD":
            counter.add_load(int(round(per * scale)))
        else:
            counter.add(mnemonic, int(round(per * scale)))


def combo_word_bytes(order: int, itemsize: int) -> int:
    """Modelled workspace bytes of one combination over one machine word.

    Four ``3^(k-1)``-cell word grids bound what either kernel carves per
    combination-word: the naïve kernel's plane gathers, class masks, tail
    sub-grid, masked grid and per-word counts, and the split kernel's AND
    planes of every level plus the largest level's gathers and counts.
    """
    return 4 * 3 ** (check_order(order) - 1) * itemsize


def _budget_count(unit_bytes: int, n: int) -> int:
    """How many units of ``unit_bytes x n`` bytes fit the budget (at least 1)."""
    return max(1, KERNEL_BUDGET_BYTES // (unit_bytes * max(1, n)))


def combos_per_tile(order: int, n_words: int, itemsize: int) -> int:
    """Combinations of a kernel piece (or fused tile) over ``n_words`` words."""
    return _budget_count(combo_word_bytes(order, itemsize), n_words)


def words_per_pass(order: int, n_combos: int, itemsize: int) -> int:
    """Words of a kernel piece over a batch of ``n_combos`` combinations."""
    return _budget_count(combo_word_bytes(order, itemsize), n_combos)


def claim_bytes(order: int) -> int:
    """Modelled bytes one combination of an engine claim keeps live.

    Scoring a claim holds, per combination and genotype cell, its
    two-class ``int64`` table (2 words), one class's ``int64`` kernel
    counts while they are written into it (1 word) and three ``float64``
    objective temporaries (K2's first term, second term and the addend of
    the second; K2 holds them for one block of rows at a time, the other
    objectives for the whole batch): six 8-byte words.  The kernel
    workspace is not in it: the budget bounds that per piece already.
    """
    return 6 * 8 * 3 ** check_order(order)


def claim_combos(order: int) -> int:
    """Combinations of an engine claim whose size the caller left unset.

    A claim holds an eighth of the budget of what it keeps live
    (:func:`claim_bytes`), so a thread's claim and its workspace (below
    9/8 of the budget) stay within 5/4 of the budget.  At the default
    budget that is 5 461 combinations at ``k = 2``, 1 820 at 3, 606 at 4
    and 202 at 5.
    """
    return _budget_count(8 * claim_bytes(order), 1)


def _in_budget_pieces(
    kernel, planes: np.ndarray, per_word, combos, word_bytes: int | None = None
) -> np.ndarray:
    """Run ``kernel(planes, per_word, combos)`` over budget-sized pieces.

    ``per_word`` holds the call's word vectors (phenotypes or padding mask)
    along its last axis, and ``word_bytes`` is the kernel's modelled bytes
    per combination and word (default :func:`combo_word_bytes`).  A call
    within the budget runs whole; a larger one is cut into pieces of
    combinations and, when one combination over every word exceeds the
    budget, of words (:func:`combos_per_tile` and :func:`words_per_pass`
    for the default).  Piece results stack along their first axis.
    """
    combos = np.asarray(combos, dtype=np.int64)
    order = check_order(combos.shape[1])
    n_combos, n_words = combos.shape[0], planes.shape[2]
    unit = word_bytes or combo_word_bytes(order, planes.dtype.itemsize)
    combo_step = min(max(1, n_combos), _budget_count(unit, n_words))
    word_step = _budget_count(unit, combo_step)
    if combo_step >= n_combos and word_step >= n_words:
        return kernel(planes, per_word, combos)
    per_word = np.asarray(per_word)
    result = None
    for start in range(0, n_combos, combo_step):
        rows = slice(start, start + combo_step)
        for first in range(0, n_words, word_step):
            words = slice(first, first + word_step)
            piece = kernel(planes[:, :, words], per_word[..., words], combos[rows])
            if result is None:
                result = np.zeros((n_combos,) + piece.shape[1:], dtype=np.int64)
            result[rows] += piece
    return result


class _Workspace(threading.local):
    """One thread's kernel scratch: a byte buffer reused by every call.

    :meth:`begin` starts a call and grows the buffer to the call's
    modelled footprint; :meth:`array` then carves arrays from the buffer
    one after the other, and :meth:`scratch` hands back what a block
    carved once the block is done.  Pages the calls never touch stay
    virtual.  Should a call carve more than it reserved, the buffer is
    replaced mid-call by one as large as everything carved so far (arrays
    carved before keep the old buffer alive until they are dropped).
    """

    def __init__(self) -> None:
        self.buffer = np.empty(0, dtype=np.uint8)
        self.used = 0

    def begin(self, nbytes: int):
        """Start a call that carves at most ``nbytes`` (plus a cache line per array)."""
        self.used = 0
        reserve = nbytes + 4096
        if reserve > self.buffer.size:
            self.buffer = np.empty(0, dtype=np.uint8)  # release before growing
            self.buffer = np.empty(reserve, dtype=np.uint8)
        return self

    @contextmanager
    def scratch(self):
        """Arrays carved inside the block are dead after it."""
        mark = self.used
        try:
            yield
        finally:
            self.used = mark

    def array(self, shape: tuple, dtype) -> np.ndarray:
        """An uninitialised ``shape`` array of ``dtype`` from the buffer."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        start = self.used
        # Cache-line aligned starts keep every array's words aligned.
        self.used = start + -(-nbytes // 64) * 64
        if self.used > self.buffer.size:
            self.buffer = np.empty(self.used, dtype=np.uint8)
        return self.buffer[start : start + nbytes].view(dtype).reshape(shape)


_WORKSPACE = _Workspace()


def _piece_bytes(order: int, n_combos: int, n_words: int, itemsize: int) -> int:
    """Workspace bytes a split or naïve kernel piece may carve.

    Both kernels carve at most 1.07x the modelled footprint (the naïve
    kernel at ``k = 2``, ``uint32``).
    """
    return combo_word_bytes(order, itemsize) * n_combos * n_words * 9 // 8


def _gather_source(planes: np.ndarray, combos: np.ndarray):
    """Check ``combos`` against the rows of ``planes``; make rows gatherable.

    ``np.take`` copies a non-contiguous source whole, so a word slice of
    wider planes is reduced to the rows the batch uses (one gather) and
    ``combos`` re-expressed in those rows.
    """
    n_rows = planes.shape[0]
    if combos.size and (combos.min() < 0 or combos.max() >= n_rows):
        raise IndexError(f"combination index outside the {n_rows} SNP rows")
    if planes.flags.c_contiguous:
        return planes, combos
    rows, local = np.unique(combos, return_inverse=True)
    return planes[rows], local.reshape(combos.shape)


def _gather_planes(ws: _Workspace, planes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``planes[rows]`` plane-major, ``(n_planes, len(rows), W)``, in the workspace.

    Plane-major gathers keep every AND of the kernels an elementwise op on
    equal-shape contiguous blocks: a broadcasting ufunc makes NumPy
    allocate iterator buffers on every call.  ``rows`` are already checked.
    """
    n_planes, n_words = planes.shape[1], planes.shape[2]
    flat = planes.reshape(-1, n_words)  # row n_planes * snp + plane
    out = ws.array((n_planes, len(rows), n_words), planes.dtype)
    for plane in range(n_planes):
        np.take(flat, rows * n_planes + plane, axis=0, out=out[plane], mode="clip")
    return out


def _popcount(ws: _Workspace, words: np.ndarray) -> np.ndarray:
    """:func:`popcount_sum` over the last axis, per-word counts in the workspace."""
    return popcount_sum(words, scratch=ws.array(words.shape, np.uint8))


def _genotype_grid(ws: _Workspace, selected: list[np.ndarray]) -> np.ndarray:
    """Combine per-SNP ``(3, T, W)`` plane stacks into the ``(3^k, T, W)`` grid.

    The cell order is the canonical big-endian radix-3 convention of
    :func:`repro.core.contingency.combination_cell_index`: the first SNP of
    the combination is the most significant genotype digit.
    """
    grid = selected[0]
    for planes in selected[1:]:
        out = ws.array((3 * grid.shape[0],) + grid.shape[1:], grid.dtype)
        for cell in range(grid.shape[0]):
            for genotype in range(3):
                np.bitwise_and(grid[cell], planes[genotype], out=out[3 * cell + genotype])
        grid = out
    return grid


def naive_tables(
    planes: np.ndarray,
    phenotype_words: np.ndarray,
    combos: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Naïve frequency-table construction (approach V1), any order k.

    Parameters
    ----------
    planes:
        ``(n_snps, 3, n_words)`` packed bit-planes over all samples
        (``uint32`` or ``uint64``).
    phenotype_words:
        ``(n_words,)`` packed phenotype (bit set = case) in the same layout
        as ``planes``.  Padding bits are zero, so the case/control masks
        never count padding samples.
    combos:
        ``(n_combos, k)`` strictly increasing SNP index tuples.

    Returns
    -------
    numpy.ndarray
        ``(n_combos, 3^k, 2)`` frequency tables.
    """
    combos = np.asarray(combos, dtype=np.int64)
    tables = _in_budget_pieces(_naive_piece, planes, phenotype_words, combos)
    if counter is not None:
        charge_naive_ops(
            counter,
            combos.shape[0],
            planes.shape[2],
            combos.shape[1],
            word_ratio=_paper_word_ratio(planes),
        )
    return tables


def _naive_piece(
    planes: np.ndarray, phenotype_words: np.ndarray, combos: np.ndarray
) -> np.ndarray:
    """:func:`naive_tables` over one budget-sized piece, uncharged."""
    order = combos.shape[1]
    n_combos = combos.shape[0]
    n_words = planes.shape[2]
    planes, combos = _gather_source(planes, combos)
    cells = 3**order
    phen = np.asarray(phenotype_words, dtype=planes.dtype)
    # The padding bits of the planes are zero, so AND-ing with ~phenotype is
    # safe even though ~phenotype has the padding bits set.
    notphen = np.bitwise_not(phen)

    ws = _WORKSPACE.begin(_piece_bytes(order, n_combos, n_words, planes.dtype.itemsize))
    selected = [_gather_planes(ws, planes, combos[:, t]) for t in range(order)]
    class_masks = ws.array((2, n_combos, n_words), planes.dtype)
    class_masks[0], class_masks[1] = notphen, phen  # table columns 0 and 1

    tables = np.empty((n_combos, cells, 2), dtype=np.int64)
    # Walk the most-significant genotype digit to cap the intermediates at
    # (3^(k-1), T, W); the tail sub-grid is g0-invariant, and the class mask
    # is folded into the head plane before it meets the sub-grid.
    sub_cells = cells // 3
    sub_grid = _genotype_grid(ws, selected[1:])
    head = ws.array((n_combos, n_words), planes.dtype)
    masked = ws.array(sub_grid.shape, planes.dtype)
    bit_counts = ws.array(sub_grid.shape, np.uint8)
    for g0 in range(3):
        span = slice(g0 * sub_cells, (g0 + 1) * sub_cells)
        for column in (0, 1):
            np.bitwise_and(selected[0][g0], class_masks[column], out=head)
            for cell in range(sub_cells):
                np.bitwise_and(head, sub_grid[cell], out=masked[cell])
            tables[:, span, column] = popcount_sum(masked, scratch=bit_counts).T
    return tables


def _permuted_word_bytes(order: int, n_perms: int, itemsize: int) -> int:
    """Modelled workspace bytes of :func:`naive_permutation_tables` per
    combination and word: the plane gathers, the tail sub-grid (with its
    intermediates) and the all-sample masks, plus three ``(P, ...)`` word
    blocks and a byte count per permutation."""
    sub_cells = 3 ** (order - 1)
    return itemsize * (3 * order + 3 * sub_cells) + sub_cells + n_perms * (3 * itemsize + 1)


def naive_permutation_tables(
    planes: np.ndarray, phenotype_block: np.ndarray, combos: np.ndarray
) -> np.ndarray:
    """Naïve tables of ``combos`` under each of a block of phenotypes.

    The batched form of :func:`naive_tables` for a permutation null: only
    the phenotype changes between relabellings, so the tail sub-grid of
    each combination is built once per piece, each relabelling's phenotype
    words are ANDed into the head planes, and the controls are the cell
    totals minus the cases.  Counts are exact.  Pieces are cut by the
    budget like every kernel call's, with a footprint that grows with
    ``P``; the workspace grows to what the call needs, not to the budget.

    Parameters
    ----------
    planes:
        ``(n_snps, 3, n_words)`` packed bit-planes over all samples.
    phenotype_block:
        ``(P, n_words)`` packed phenotypes in the layout of ``planes``, zero
        in the padding bits.
    combos:
        ``(n_combos, k)`` strictly increasing SNP index tuples.

    Returns
    -------
    numpy.ndarray
        ``(P, n_combos, 3^k, 2)`` frequency tables (a relabelling-major view
        of combination-major counts).
    """
    combos = np.asarray(combos, dtype=np.int64)
    order = check_order(combos.shape[1])
    phenotypes = np.asarray(phenotype_block, dtype=planes.dtype)
    word_bytes = _permuted_word_bytes(order, phenotypes.shape[0], planes.dtype.itemsize)
    tables = _in_budget_pieces(
        _naive_permutation_piece, planes, phenotypes, combos, word_bytes
    )
    return tables.swapaxes(0, 1)


def _naive_permutation_piece(
    planes: np.ndarray, phenotypes: np.ndarray, combos: np.ndarray
) -> np.ndarray:
    """:func:`naive_permutation_tables` over one budget-sized piece,
    combination-major: ``(n_combos, P, 3^k, 2)``."""
    order = combos.shape[1]
    n_combos = combos.shape[0]
    n_perms, n_words = phenotypes.shape
    planes, combos = _gather_source(planes, combos)
    dtype = planes.dtype
    sub_cells = 3 ** (order - 1)
    ws = _WORKSPACE.begin(
        _permuted_word_bytes(order, n_perms, dtype.itemsize) * n_combos * n_words
    )
    selected = [_gather_planes(ws, planes, combos[:, t]) for t in range(order)]
    sub_grid = _genotype_grid(ws, selected[1:])

    totals = np.empty((n_combos, 3**order), dtype=np.int64)
    with ws.scratch():
        masked = ws.array(sub_grid.shape, dtype)
        bit_counts = ws.array(sub_grid.shape, np.uint8)
        for g0 in range(3):
            for cell in range(sub_cells):
                np.bitwise_and(selected[0][g0], sub_grid[cell], out=masked[cell])
            span = slice(g0 * sub_cells, (g0 + 1) * sub_cells)
            totals[:, span] = popcount_sum(masked, scratch=bit_counts).T

    # (P, T, W) blocks; broadcast copies keep every AND equal-shape.
    block = (n_perms, n_combos, n_words)
    phen, head, masked = (ws.array(block, dtype) for _ in range(3))
    bit_counts = ws.array(block, np.uint8)
    np.copyto(phen, phenotypes[:, None, :])
    tables = np.empty((n_combos, n_perms, 3**order, 2), dtype=np.int64)
    cases = tables[..., 1]
    for g0 in range(3):
        np.copyto(head, selected[0][g0])
        np.bitwise_and(head, phen, out=head)
        for cell in range(sub_cells):
            np.copyto(masked, sub_grid[cell])
            np.bitwise_and(masked, head, out=masked)
            cases[:, :, g0 * sub_cells + cell] = popcount_sum(
                masked, scratch=bit_counts
            ).T
    np.subtract(totals[:, None, :], cases, out=tables[..., 0])
    return tables


def _subset_cells(order: int, subset: tuple) -> list:
    """Flat canonical cells of the ``2^m`` stored-plane cells of a position subset.

    The cells run in :func:`itertools.product` order of the subset's bits
    (its first position most significant).  A position outside the subset
    takes digit 2, which holds the "any genotype" count until
    :func:`split_class_counts` derives genotype 2.
    """
    weights = [3 ** (order - 1 - t) for t in range(order)]
    base = sum(2 * weights[t] for t in range(order) if t not in subset)
    return [
        base + sum(b * weights[t] for b, t in zip(bits, subset))
        for bits in product((0, 1), repeat=len(subset))
    ]


@lru_cache(maxsize=None)
def _lattice_plan(order: int) -> dict:
    """Where the stored cells of each sub-combination land, by how they are counted.

    * ``empty`` and ``singles``: the cells of the empty subset and of each
      position;
    * ``prefixes[m]``: the cells of the prefix ``0..m-1``, for ``m`` from
      2 to ``k`` (the whole combination);
    * ``pairs`` and ``pair_cells``: the position pairs other than the
      prefix ``(0, 1)`` and their cells, pair-major;
    * ``inner``: per size ``m`` from 2 to ``k - 1``, the subsets a piece
      builds, as ``(heads, tails, cells)``: each subset's first position,
      its tail's index among the size ``m - 1`` subsets (a position at
      ``m = 2``) and its cells.  Sizes 3 and up are the subsets that are not
      prefixes; size 2 holds only their tails and is not counted
      (``cells`` is ``None``).
    """
    positions = range(order)
    prefixes = {m: _subset_cells(order, tuple(range(m))) for m in range(2, order + 1)}
    pairs = [pair for pair in combinations(positions, 2) if pair != (0, 1)]
    levels = {
        m: [s for s in combinations(positions, m) if s != tuple(range(m))]
        for m in range(3, order)
    }
    if levels:
        levels[2] = sorted({subset[1:] for subset in levels[3]})
    inner = []
    for m in sorted(levels):
        subsets = levels[m]
        tails = [s[1] if m == 2 else levels[m - 1].index(s[1:]) for s in subsets]
        cells = None if m == 2 else np.array(
            [c for s in subsets for c in _subset_cells(order, s)], dtype=np.intp
        )
        inner.append(([s[0] for s in subsets], tails, cells))
    return {
        "empty": _subset_cells(order, ()),
        "singles": [c for t in positions for c in _subset_cells(order, (t,))],
        "prefixes": prefixes,
        "pairs": np.array(pairs, dtype=np.intp).reshape(-1, 2),
        "pair_cells": np.array(
            [c for pair in pairs for c in _subset_cells(order, pair)], dtype=np.intp
        ),
        "inner": inner,
    }


def split_class_counts(
    class_planes: np.ndarray,
    padding_mask: np.ndarray,
    combos: np.ndarray,
    pairs: PairTable | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-class ``3^k`` counts by inclusion–exclusion over a prefix lattice.

    The two stored planes of a SNP are disjoint and zero in the padding
    bits, so a sample has genotype 2 exactly when it is valid and in
    neither plane: along any axis, ``c2 = c* - c0 - c1`` where ``c*`` counts
    every valid sample at that position.  The kernel therefore counts only
    the ``2^m`` stored-plane cells of every sub-combination (size ``m``)
    and derives every genotype-2 cell exactly:

    * size 0 and 1: ``popcount(padding_mask)`` and per-row singles;
    * the prefixes and the combination itself: rows that share a prefix
      share one run of it, and each run's AND planes are built and
      popcounted once (:func:`_prefix_lattice`);
    * the other pairs: read from ``pairs``, the encoding's
      :class:`~repro.datasets.binarization.PairTable` for these planes;
      the pairs it lacks are counted once per call and stored in it
      (:func:`_pair_counts`);
    * the other sub-combinations of sizes 3 to ``k - 1``: counted once per
      piece (:func:`_inner_levels`).

    Parameters
    ----------
    class_planes:
        ``(n_snps, 2, n_words)`` planes of one phenotype class (``uint32``
        or ``uint64``): disjoint, zero in the padding bits, as every
        :class:`~repro.datasets.binarization.PhenotypeSplitDataset` encodes.
    padding_mask:
        ``(n_words,)`` mask of the class's valid sample bits, same layout as
        the planes.
    combos:
        ``(n_combos, k)`` strictly increasing SNP index tuples.
    pairs:
        The pair table of exactly these planes (``pairs.planes is
        class_planes``), or ``None``; a table of other planes is not used.
    out:
        Optional ``(n_combos, 3^k)`` ``int64`` array (a view such as one
        class column of a table batch) that receives the counts instead of
        a fresh C-ordered array.

    Returns
    -------
    numpy.ndarray
        ``(n_combos, 3^k)`` counts for this class (``out`` when given), in
        the canonical big-endian cell order.  The input may be a word slice
        of the planes: counts add exactly across slices.
    """
    combos = np.asarray(combos, dtype=np.int64)
    order = check_order(combos.shape[1])
    n_combos = combos.shape[0]
    # Pieces count cell-major, (3^k, n_combos), and return the transpose.
    counts = np.ascontiguousarray(
        _in_budget_pieces(_split_piece, class_planes, padding_mask, combos).T
    )
    plan = _lattice_plan(order)
    if plan["pairs"].size and n_combos:
        if pairs is not None and pairs.planes is not class_planes:
            pairs = None
        rows = combos[:, plan["pairs"]].reshape(-1, 2)
        values = _pair_counts(class_planes, padding_mask, rows, pairs)
        counts[plan["pair_cells"]] = values.reshape(n_combos, -1).T
    for t in range(order):
        axis = counts.reshape(3**t, 3, 3 ** (order - 1 - t), n_combos)
        # Two in-place subtractions: exact, and no temporary block.
        axis[:, 2] -= axis[:, 0]
        axis[:, 2] -= axis[:, 1]
    if out is None:
        # C order: the objectives' float reductions follow the table's layout.
        return np.ascontiguousarray(counts.T)
    out[...] = counts.T
    return out


def _split_piece(
    class_planes: np.ndarray, padding_mask: np.ndarray, combos: np.ndarray
) -> np.ndarray:
    """:func:`split_class_counts` over one budget-sized piece: every stored
    cell but the other pairs' (left zero), genotype 2 not yet derived, as
    the transpose of cell-major ``(3^k, n_combos)`` counts."""
    order = combos.shape[1]
    n_combos = combos.shape[0]
    n_words = class_planes.shape[2]
    class_planes, combos = _gather_source(class_planes, combos)
    plan = _lattice_plan(order)
    ws = _WORKSPACE.begin(
        _piece_bytes(order, n_combos, n_words, class_planes.dtype.itemsize)
    )
    counts = np.empty((3**order, n_combos), dtype=np.int64)
    counts[plan["empty"]] = popcount_sum(padding_mask)
    counts[plan["pair_cells"]] = 0
    with ws.scratch():
        # Singles of the rows the piece uses: a rank slice of a wide
        # encoding uses few of its rows.  Each position's two counts are
        # taken straight into their cells.
        used = np.zeros(class_planes.shape[0], dtype=bool)
        used[combos] = True
        rows = np.flatnonzero(used)
        if rows.size == used.size:
            singles, local = _popcount(ws, class_planes), combos
        else:
            singles = _popcount(ws, _gather_planes(ws, class_planes, rows)).T
            local = np.take(np.cumsum(used) - 1, combos)
        cells = plan["singles"]
        for t in range(order):
            for bit in (0, 1):
                np.take(
                    singles[:, bit], local[:, t], out=counts[cells[2 * t + bit]], mode="clip"
                )
    if n_combos:
        with ws.scratch():
            _prefix_lattice(ws, class_planes, combos, counts, plan["prefixes"])
        _inner_levels(ws, class_planes, combos, counts, plan["inner"])
    return counts.T


def _prefix_lattice(
    ws: _Workspace, planes: np.ndarray, combos: np.ndarray, counts: np.ndarray, prefixes
) -> None:
    """Stored cells of every combination's prefixes and of the combination.

    Consecutive rows with the same ``m``-prefix form one run of it (rank
    order walks combinations like nested ``a < b < c`` loops, so each
    prefix's rows are contiguous).  A run's ``2^m`` AND planes are its
    ``(m - 1)``-prefix run's planes AND its ``m``-th SNP's two planes,
    built and popcounted once per run; the top ``2^k`` cells AND each row's
    ``(k - 1)``-prefix planes with its last SNP's planes.  Cells are
    cell-major ``(2^m, runs, W)``: cell ``2 * prefix_cell + bit``.
    """
    n_combos, order = combos.shape
    n_words, dtype = planes.shape[2], planes.dtype
    # starts[m - 1, i]: row i starts a run of its m-prefix.
    starts = np.ones((order - 1, n_combos), dtype=bool)
    for m in range(1, order):
        np.not_equal(combos[1:, m - 1], combos[:-1, m - 1], out=starts[m - 1, 1:])
        if m > 1:
            starts[m - 1, 1:] |= starts[m - 2, 1:]
    # A 1-prefix is one SNP: at k >= 3 its planes are gathered straight to
    # each 2-prefix run below; at k = 2, once per run of the first SNP.
    prefix, run = None, None
    if order == 2:
        prefix = _gather_planes(ws, planes, combos[np.flatnonzero(starts[0]), 0])
        run = np.cumsum(starts[0]) - 1
    for m in range(2, order):
        first = np.flatnonzero(starts[m - 1])
        level = ws.array((2**m, first.size, n_words), dtype)
        level_counts = np.empty((2**m, first.size), dtype=np.int64)
        with ws.scratch():
            if prefix is None:
                parent = _gather_planes(ws, planes, combos[first, 0])
            else:
                parent = ws.array((2 ** (m - 1), first.size, n_words), dtype)
                np.take(prefix, run[first], axis=1, out=parent, mode="clip")
            last = _gather_planes(ws, planes, combos[first, m - 1])
            bit_counts = ws.array((first.size, n_words), np.uint8)
            for cell in range(2**m):
                np.bitwise_and(parent[cell // 2], last[cell % 2], out=level[cell])
                level_counts[cell] = popcount_sum(level[cell], scratch=bit_counts)
        run = np.cumsum(starts[m - 1]) - 1
        counts[prefixes[m]] = np.take(level_counts, run, axis=1)
        prefix = level

    last = _gather_planes(ws, planes, combos[:, -1])
    # One prefix cell at a time is gathered to the rows; when every row is
    # its own run, the prefix planes already are.
    head = None if prefix.shape[1] == n_combos else ws.array((n_combos, n_words), dtype)
    product = ws.array((n_combos, n_words), dtype)
    bit_counts = ws.array((n_combos, n_words), np.uint8)
    top = prefixes[order]
    for cell in range(prefix.shape[0]):
        if head is None:
            rows = prefix[cell]
        else:
            rows = np.take(prefix[cell], run, axis=0, out=head, mode="clip")
        for bit in (0, 1):
            np.bitwise_and(rows, last[bit], out=product)
            counts[top[2 * cell + bit]] = popcount_sum(product, scratch=bit_counts)


def _inner_levels(
    ws: _Workspace, planes: np.ndarray, combos: np.ndarray, counts: np.ndarray, inner
) -> None:
    """Stored cells of the sub-combinations of sizes 3 to ``k - 1`` that are
    not prefixes, each distinct one counted once per piece.

    A size-``m`` sub-combination's AND planes are its head SNP's planes AND
    its tail's size ``m - 1`` planes, so each size builds on the one below
    it; size 2 builds only the tails size 3 needs.  Dedup keys are
    ``head_row * n_tails + tail_id``, where ``n_tails`` is the SNP row
    count at ``m = 2`` and at most ``n_combos * C(k, m - 1)`` above it:
    unlike positional keys (``n_snps^(m-1) * head + ...``), they stay far
    inside ``int64`` however many SNP rows the planes have.  Level planes
    are cell-major, ``(2^m, rows, W)``: cell ``bit * 2^(m-1) + tail_cell``
    of a row is its head SNP's plane ``bit`` AND its tail's cell
    ``tail_cell``.  Each cell is popcounted as soon as it is built, while
    it is still in cache; the last size, which nothing reads after, builds
    every cell in one reused block.
    """
    n_combos = combos.shape[0]
    n_words, dtype = planes.shape[2], planes.dtype
    tail_planes, tail_ids, n_tails = None, combos, planes.shape[0]
    for depth, (head_positions, tails, cells) in enumerate(inner):
        heads = combos[:, head_positions]
        keys, inverse = np.unique(heads * n_tails + tail_ids[:, tails], return_inverse=True)
        heads, tail_of = np.divmod(keys, n_tails)
        ids = inverse.reshape(n_combos, len(head_positions))
        n_rows, half, last = heads.shape[0], 2 ** (depth + 1), depth == len(inner) - 1
        # The level's planes outlive it (the next level's tails); its
        # gathers and per-word counts do not.
        level_planes = ws.array((1 if last else 2 * half, n_rows, n_words), dtype)
        level = np.empty((n_rows, 2 * half), dtype=np.int64)
        with ws.scratch():
            head = _gather_planes(ws, planes, heads)
            if tail_planes is None:
                tail = _gather_planes(ws, planes, tail_of)
            else:
                tail = ws.array((half, n_rows, n_words), dtype)
                np.take(tail_planes, tail_of, axis=1, out=tail, mode="clip")
            bit_counts = ws.array((n_rows, n_words), np.uint8)
            for cell in range(2 * half):
                product = level_planes[0 if last else cell]
                np.bitwise_and(head[cell // half], tail[cell % half], out=product)
                if cells is not None:
                    level[:, cell] = popcount_sum(product, scratch=bit_counts)
        if cells is not None:
            counts[cells] = level[ids].reshape(n_combos, cells.size).T
        tail_planes, tail_ids, n_tails = level_planes, ids, n_rows


def _pair_counts(
    class_planes: np.ndarray,
    padding_mask: np.ndarray,
    rows: np.ndarray,
    table: PairTable | None,
) -> np.ndarray:
    """``(n, 4)`` stored-plane counts of the SNP pairs ``rows[i]``.

    Cell ``2 * bit_x + bit_y`` of pair ``(x, y)`` counts plane ``bit_x`` of
    ``x`` AND plane ``bit_y`` of ``y``.  Pairs the table holds are read from
    it; the rest are counted once each (:func:`_pair_piece`) and offered to
    the table, which keeps what fits half the budget (so an encoding's two
    tables together stay within it).
    """
    if table is None:
        values, miss = np.empty((rows.shape[0], 4), dtype=np.int64), slice(None)
    else:
        values, hit = table.lookup(rows)
        if hit.all():
            return values
        miss = ~hit
    n_rows, missing = class_planes.shape[0], rows[miss]
    keys, inverse = np.unique(missing[:, 0] * n_rows + missing[:, 1], return_inverse=True)
    pairs = np.stack(np.divmod(keys, n_rows), axis=1)
    counted = _in_budget_pieces(_pair_piece, class_planes, padding_mask, pairs)
    if table is not None:
        table.store(pairs, counted, KERNEL_BUDGET_BYTES // 2)
    values[miss] = counted[inverse.reshape(-1)]
    return values


def _pair_piece(
    class_planes: np.ndarray, padding_mask: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """The four stored cells of each pair over one budget-sized piece,
    ``(n, 4)``: the top cells of a second-order piece, without its singles."""
    n_pairs, n_words = pairs.shape[0], class_planes.shape[2]
    class_planes, pairs = _gather_source(class_planes, pairs)
    ws = _WORKSPACE.begin(_piece_bytes(2, n_pairs, n_words, class_planes.dtype.itemsize))
    counts = np.empty((4, n_pairs), dtype=np.int64)
    _prefix_lattice(ws, class_planes, pairs, counts, {2: range(4)})
    return counts.T


def split_tables(
    control_planes: np.ndarray,
    case_planes: np.ndarray,
    control_mask: np.ndarray,
    case_mask: np.ndarray,
    combos: np.ndarray,
    counter: OpCounter | None = None,
    *,
    control_pairs: PairTable | None = None,
    case_pairs: PairTable | None = None,
) -> np.ndarray:
    """Phenotype-split frequency-table construction (approaches V2–V4).

    Returns C-ordered ``(n_combos, 3^k, 2)`` tables: column 0 from the
    control planes, column 1 from the case planes.  Each class's counts are
    written straight into their column, so no per-class copy outlives its
    kernel call.  ``control_pairs`` and ``case_pairs`` are the classes'
    pair tables, as in :func:`split_class_counts`.
    """
    combos = np.asarray(combos, dtype=np.int64)
    order = check_order(combos.shape[1])
    tables = np.empty((combos.shape[0], 3**order, 2), dtype=np.int64)
    split_class_counts(
        control_planes, control_mask, combos, control_pairs, out=tables[..., 0]
    )
    split_class_counts(case_planes, case_mask, combos, case_pairs, out=tables[..., 1])
    if counter is not None:
        n_words_total = control_planes.shape[2] + case_planes.shape[2]
        charge_split_ops(
            counter,
            combos.shape[0],
            n_words_total,
            combos.shape[1],
            word_ratio=_paper_word_ratio(control_planes),
        )
    return tables

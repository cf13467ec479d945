"""Shared word-level kernels of the CPU/GPU approaches.

Two families of kernels build the ``3^k x 2`` frequency tables of a k-way
interaction (``k`` between :data:`MIN_ORDER` and :data:`MAX_ORDER`):

* the **naïve** kernel (approach V1 on both devices): three genotype planes
  per SNP over *all* samples, with the phenotype bit-vector (and its
  negation) used to split every genotype-combination count into cases and
  controls;
* the **phenotype-split** kernel (approaches V2–V4): per-class planes of
  genotypes 0 and 1 only.  Execution ANDs and popcounts just the ``2^k``
  stored-plane cells of each combination and derives every genotype-2 cell
  exactly by inclusion–exclusion (``c2 = c* - c0 - c1`` along each axis,
  the ``c*`` counts coming from lower-order sub-combinations), see
  :func:`split_class_counts`.

The kernels are fully vectorised over a batch of SNP k-tuples: the cell
loop is a broadcast over the per-position planes, and the per-word
population counts are reduced with
:func:`repro.bitops.popcount.popcount_sum` — the kernels accept planes in
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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Dict

import numpy as np

from repro.bitops.ops import OpCounter
from repro.bitops.packing import paper_word_ratio as _paper_word_ratio
from repro.bitops.popcount import popcount_sum

__all__ = [
    "MIN_ORDER",
    "MAX_ORDER",
    "check_order",
    "n_cells",
    "naive_ops_per_combo_word",
    "split_ops_per_combo_word",
    "NAIVE_OPS_PER_COMBO_WORD",
    "SPLIT_OPS_PER_COMBO_WORD",
    "naive_tables",
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


def _genotype_grid(selected: list[np.ndarray]) -> np.ndarray:
    """Broadcast k per-SNP ``(T, 3, W)`` plane stacks into ``(T, 3^k, W)``.

    The cell order is the canonical big-endian radix-3 convention of
    :func:`repro.core.contingency.combination_cell_index`: the first SNP of
    the combination is the most significant genotype digit.
    """
    n_combos, _, n_words = selected[0].shape
    grid = selected[0]
    cells = 3
    for planes in selected[1:]:
        grid = np.bitwise_and(grid[:, :, None, :], planes[:, None, :, :])
        cells *= 3
        grid = grid.reshape(n_combos, cells, n_words)
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
    order = check_order(combos.shape[1])
    n_combos = combos.shape[0]
    n_words = planes.shape[2]
    cells = 3**order
    phen = np.asarray(phenotype_words, dtype=planes.dtype)
    # The padding bits of the planes are zero, so AND-ing with ~phenotype is
    # safe even though ~phenotype has the padding bits set.
    notphen = np.bitwise_not(phen)

    selected = [planes[combos[:, t]] for t in range(order)]  # each (T, 3, W)

    tables = np.empty((n_combos, cells, 2), dtype=np.int64)
    # Walk the most-significant genotype digit to cap the broadcast at
    # (T, 3^(k-1), W) intermediates; the tail sub-grid is g0-invariant.
    sub_cells = cells // 3
    sub_grid = _genotype_grid(selected[1:])
    for g0 in range(3):
        head = selected[0][:, g0, :]
        grid = np.bitwise_and(head[:, None, :], sub_grid)
        span = slice(g0 * sub_cells, (g0 + 1) * sub_cells)
        tables[:, span, 1] = popcount_sum(np.bitwise_and(grid, phen))
        tables[:, span, 0] = popcount_sum(np.bitwise_and(grid, notphen))
    if counter is not None:
        charge_naive_ops(
            counter, n_combos, n_words, order, word_ratio=_paper_word_ratio(planes)
        )
    return tables


@lru_cache(maxsize=None)
def _stored_cell_plan(order: int) -> tuple:
    """Where each sub-combination size lands in the ``3^k`` cell vector.

    For every size ``m`` in ``0..k`` the entry is ``(heads, cells,
    tails)`` over the position subsets of size ``m`` in
    :func:`itertools.combinations` order: each subset's first position;
    the flat canonical cell indices of their ``2^m`` stored-plane cells,
    subset-major (a position outside the subset takes digit 2, which holds
    the "any genotype" count until :func:`split_class_counts` derives
    genotype 2); and, for ``m >= 2``, the index of each subset's tail
    ``subset[1:]`` among the size ``m - 1`` subsets.
    """
    weights = [3 ** (order - 1 - t) for t in range(order)]
    plan = []
    previous: list[tuple[int, ...]] = []
    for m in range(order + 1):
        subsets = list(combinations(range(order), m))
        cells = []
        for subset in subsets:
            base = sum(2 * weights[t] for t in range(order) if t not in subset)
            for bits in product((0, 1), repeat=m):
                cells.append(base + sum(b * weights[t] for b, t in zip(bits, subset)))
        heads = [subset[0] for subset in subsets if subset]
        tails = [previous.index(subset[1:]) for subset in subsets] if m >= 2 else None
        plan.append((heads, np.array(cells, dtype=np.intp), tails))
        previous = subsets
    return tuple(plan)


def split_class_counts(
    class_planes: np.ndarray,
    padding_mask: np.ndarray,
    combos: np.ndarray,
) -> np.ndarray:
    """Per-class ``3^k`` counts by inclusion–exclusion over the stored planes.

    The two stored planes of a SNP are disjoint and zero in the padding
    bits, so a sample has genotype 2 exactly when it is valid and in
    neither plane: along any axis, ``c2 = c* - c0 - c1`` where ``c*`` counts
    every valid sample at that position.  The kernel therefore ANDs and
    popcounts only the ``2^k`` stored-plane cells of each combination and
    fills the ``c*`` slots from lower orders — per-row singles, the distinct
    lower-order sub-combinations of the batch (each counted once per call)
    and ``popcount(padding_mask)`` — before deriving every genotype-2 cell
    exactly.  The AND planes of a size-``m`` sub-combination are its head
    SNP's planes AND its tail's size ``m - 1`` planes, so each level reuses
    the one below it.

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

    Returns
    -------
    numpy.ndarray
        ``(n_combos, 3^k)`` counts for this class, in the canonical
        big-endian cell order.  The input may be a word slice of the
        planes: counts add exactly across slices.
    """
    combos = np.asarray(combos, dtype=np.int64)
    order = check_order(combos.shape[1])
    n_combos = combos.shape[0]
    n_words = class_planes.shape[2]
    plan = _stored_cell_plan(order)
    counts = np.empty((n_combos, 3**order), dtype=np.int64)
    counts[:, plan[0][1]] = popcount_sum(padding_mask)
    if class_planes.shape[0] <= combos.size:
        singles = popcount_sum(class_planes)[combos]
    else:
        # Whole-dataset planes under a small batch: count the used rows only.
        rows, inverse = np.unique(combos, return_inverse=True)
        singles = popcount_sum(class_planes[rows])[inverse.reshape(combos.shape)]
    counts[:, plan[1][1]] = singles.reshape(n_combos, 2 * order)

    # Level m holds the AND planes of the distinct size-m sub-combinations;
    # ``ids`` maps (combination, subset) to a row of them.  Dedup keys are
    # head_row * n_tails + tail_id, where n_tails is the SNP row count at
    # m = 2 and at most n_combos * C(k, m - 1) above it: unlike positional
    # keys (n_snps^(m-1) * head + ...), they stay far inside int64 however
    # many SNP rows the planes have.
    tail_planes, tail_ids = class_planes, combos
    for m in range(2, order + 1):
        head_positions, cells, tails = plan[m]
        heads = combos[:, head_positions]
        tail_of = tail_ids[:, tails]
        if m < order:
            n_tails = tail_planes.shape[0]
            keys, inverse = np.unique(heads * n_tails + tail_of, return_inverse=True)
            heads, tail_of = np.divmod(keys, n_tails)
            ids = inverse.reshape(n_combos, len(head_positions))
        else:
            heads, tail_of, ids = heads[:, 0], tail_of[:, 0], None
        planes = np.bitwise_and(
            class_planes[heads][:, :, None, :], tail_planes[tail_of][:, None, :, :]
        ).reshape(heads.shape[0], 2**m, n_words)
        level = popcount_sum(planes)
        counts[:, cells] = (level if ids is None else level[ids]).reshape(
            n_combos, cells.size
        )
        tail_planes, tail_ids = planes, ids

    for t in range(order):
        axis = counts.reshape(n_combos, 3**t, 3, 3 ** (order - 1 - t))
        axis[:, :, 2] -= axis[:, :, 0] + axis[:, :, 1]
    return counts


def split_tables(
    control_planes: np.ndarray,
    case_planes: np.ndarray,
    control_mask: np.ndarray,
    case_mask: np.ndarray,
    combos: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Phenotype-split frequency-table construction (approaches V2–V4).

    Returns ``(n_combos, 3^k, 2)`` tables: column 0 from the control planes,
    column 1 from the case planes.
    """
    combos = np.asarray(combos, dtype=np.int64)
    controls = split_class_counts(control_planes, control_mask, combos)
    cases = split_class_counts(case_planes, case_mask, combos)
    if counter is not None:
        n_words_total = control_planes.shape[2] + case_planes.shape[2]
        charge_split_ops(
            counter,
            combos.shape[0],
            n_words_total,
            combos.shape[1],
            word_ratio=_paper_word_ratio(control_planes),
        )
    return np.stack([controls, cases], axis=-1)

"""BOOST-style binarised dataset encodings.

Two encodings are used by the paper's kernels:

:class:`BinarizedDataset`
    The naïve encoding of Figure 1: three bit-planes per SNP (one per
    genotype value) over *all* samples, plus a packed phenotype bit vector.
    Frequency-table cells are produced by ``AND``-ing three genotype planes
    with either the phenotype (cases) or its negation (controls).  Used by
    approach V1.

:class:`PhenotypeSplitDataset`
    The optimised encoding of §IV: the samples are split into controls and
    cases, each SNP keeps only the genotype-0 and genotype-1 planes (the
    genotype-2 plane is recovered on the fly with a ``NOR``), and the
    phenotype vector disappears entirely.  Memory traffic drops by roughly
    one third and the per-word instruction count drops from 162 to 57.
    Used by approaches V2–V4 on both CPU and GPU.  Each class also owns a
    :class:`PairTable`, the pair counts the NumPy split kernel has made on
    this encoding so far.

Both encodings are parametric in the **execution word layout**
(:class:`~repro.bitops.packing.WordLayout`): the paper's ``uint32`` word or
the wide ``uint64`` word, which halves the element count of every kernel
operation without changing a single resulting bit.  The default is
:data:`~repro.bitops.packing.DEFAULT_LAYOUT` (``uint64`` on NumPy >= 2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.bitops.packing import (
    DEFAULT_LAYOUT,
    WordLayout,
    get_layout,
    layout_of,
    pack_bitplanes,
    pack_bits,
)
from repro.datasets.dataset import GenotypeDataset

__all__ = ["BinarizedDataset", "PairTable", "PhenotypeSplitDataset"]


@dataclass
class BinarizedDataset:
    """Naïve binarised encoding: 3 planes/SNP + packed phenotype.

    Attributes
    ----------
    planes:
        ``(n_snps, 3, n_words)`` packed words; ``planes[i, g]`` has the bit
        of sample ``s`` set iff SNP ``i`` of sample ``s`` has genotype ``g``.
    phenotype_words:
        ``(n_words,)`` packed words with the bit of sample ``s`` set iff
        sample ``s`` is a case.
    n_samples:
        Number of valid sample bits (the packed tail is zero-padded).
    """

    planes: np.ndarray
    phenotype_words: np.ndarray
    n_samples: int

    @classmethod
    def from_dataset(
        cls,
        dataset: GenotypeDataset,
        layout: str | WordLayout | None = None,
    ) -> "BinarizedDataset":
        """Binarise a :class:`GenotypeDataset` (keeps the sample order)."""
        word_layout = get_layout(layout) if layout is not None else DEFAULT_LAYOUT
        planes = pack_bitplanes(dataset.genotypes, n_genotypes=3, layout=word_layout)
        phen_words = pack_bits(dataset.phenotypes.astype(bool), word_layout)
        return cls(planes=planes, phenotype_words=phen_words, n_samples=dataset.n_samples)

    # -- geometry ------------------------------------------------------------
    @property
    def layout(self) -> WordLayout:
        """The machine-word layout the planes were packed with."""
        return layout_of(self.planes)

    @property
    def n_snps(self) -> int:
        """Number of SNPs."""
        return int(self.planes.shape[0])

    @property
    def n_words(self) -> int:
        """Packed machine words per plane."""
        return int(self.planes.shape[2])

    @property
    def n_cases(self) -> int:
        """Number of case samples, recovered from the phenotype words."""
        from repro.bitops.popcount import popcount

        return int(popcount(self.phenotype_words).sum())

    @property
    def n_controls(self) -> int:
        """Number of control samples."""
        return self.n_samples - self.n_cases

    def nbytes(self) -> int:
        """Total size of the encoding in bytes."""
        return int(self.planes.nbytes + self.phenotype_words.nbytes)

    def snp_plane(self, snp: int, genotype: int) -> np.ndarray:
        """View of one bit-plane (no copy)."""
        return self.planes[snp, genotype]

    def validate(self) -> None:
        """Check structural invariants (each sample set in exactly one plane)."""
        word_layout = self.layout
        union = np.bitwise_or.reduce(self.planes, axis=1)
        expected = word_layout.padding_mask(self.n_samples)
        if not np.array_equal(union, np.broadcast_to(expected, union.shape)):
            raise ValueError("bit-planes do not partition the sample set")
        pairwise = (
            (self.planes[:, 0] & self.planes[:, 1])
            | (self.planes[:, 0] & self.planes[:, 2])
            | (self.planes[:, 1] & self.planes[:, 2])
        )
        if pairwise.any():
            raise ValueError("bit-planes overlap: some sample has two genotypes")


class PairTable:
    """Stored-plane counts of SNP pairs of one phenotype class.

    Cell ``2 * i + j`` of pair ``(x, y)`` counts the samples set in plane
    ``i`` of SNP ``x`` and plane ``j`` of SNP ``y``: the pairs' entries of
    the Gram matrix of the class's stored planes.  The table starts empty
    and holds rows of that matrix, one per first SNP ``x`` of the pairs
    callers :meth:`store`, each holding only the pairs stored in it.  A row
    (``n_snps`` slots of four ``int32`` counts and a held flag, 17 bytes a
    slot) is added the first time a pair of its SNP is stored, while the
    table stays within the store's byte bound; a table with no room for
    another row still stores the pairs of its rows.  Pairs are written in
    place and the row buffer doubles when it grows, so a store costs the
    pairs it stores, never a copy of the table per call.

    Readers take no lock: :meth:`lookup` reads a pair's held flag before
    its counts, :meth:`store` writes the counts before the flag, and a
    grown buffer is filled before it is published, so threads sharing an
    encoding read a stored pair or a miss, never half of one.  A pickled
    table arrives empty: its counts belong to the process that made them.
    The table lives as long as its encoding and holds what :meth:`store`'s
    byte bound lets it: the NumPy split kernel bounds each class's table by
    half of :data:`~repro.core.approaches._kernels.KERNEL_BUDGET_BYTES`.
    """

    def __init__(self, planes: np.ndarray) -> None:
        #: The ``(n_snps, 2, n_words)`` planes the counts are of.
        self.planes = planes
        self._lock = threading.Lock()
        self._rows = 0
        #: ``None`` until a row is added, then ``(row_of, counts, held)``:
        #: each SNP's row (-1 for none), the ``(capacity, n_snps, 4)``
        #: counts and the ``(capacity, n_snps)`` held flags.
        self._state = None

    def __reduce__(self):
        return type(self), (self.planes,)

    def __len__(self) -> int:
        """Pairs held."""
        return 0 if self._state is None else int(self._state[2].sum())

    @property
    def nbytes(self) -> int:
        """Bytes of the row index, counts and flags allocated."""
        return 0 if self._state is None else sum(a.nbytes for a in self._state)

    def lookup(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, hit)``: the ``(n, 4)`` counts of the ``(n, 2)`` SNP
        pairs, valid where ``hit``."""
        state = self._state
        if state is None:
            return np.empty((len(pairs), 4), dtype=np.int32), np.zeros(len(pairs), bool)
        row_of, counts, held = state
        rows = row_of[pairs[:, 0]]
        hit = rows >= 0
        # Flat slots; a row-less SNP reads row 0, masked by ``hit``.
        slots = np.maximum(rows, 0) * self.planes.shape[0] + pairs[:, 1]
        hit &= held.reshape(-1)[slots]
        return counts.reshape(-1, 4)[slots], hit

    def store(self, pairs: np.ndarray, counts: np.ndarray, max_bytes: int) -> None:
        """Keep the ``(n, 4)`` counts of ``n`` SNP pairs that fall in rows
        the table holds or can add within ``max_bytes``; drop the rest."""
        n_snps = self.planes.shape[0]
        row_bytes = 17 * n_snps
        with self._lock:
            state = self._state
            if state is None:
                if max_bytes < 4 * n_snps + row_bytes:
                    return
                state = (
                    np.full(n_snps, -1, dtype=np.int32),
                    np.empty((0, n_snps, 4), dtype=np.int32),
                    np.zeros((0, n_snps), dtype=bool),
                )
            row_of, table, held = state
            firsts = pairs[:, 0]
            max_rows = (max_bytes - row_of.nbytes) // row_bytes
            new = np.unique(firsts[row_of[firsts] < 0])[: max(0, max_rows - self._rows)]
            used = self._rows + new.size
            grow = used > table.shape[0]
            if grow:  # filled below, then published
                capacity = min(max(used, 2 * table.shape[0]), max_rows)
                grown = np.empty((capacity, n_snps, 4), dtype=np.int32)
                grown_held = np.zeros((capacity, n_snps), dtype=bool)
                grown[: self._rows] = table[: self._rows]
                grown_held[: self._rows] = held[: self._rows]
                row_of, table, held = row_of.copy(), grown, grown_held
            # A new row's flags are all clear until its pairs are written.
            row_of[new] = np.arange(self._rows, used)
            self._rows = used
            rows = row_of[firsts]
            kept = rows >= 0
            rows, seconds = rows[kept], pairs[kept, 1]
            table[rows, seconds] = counts[kept]
            held[rows, seconds] = True
            if grow:
                self._state = (row_of, table, held)


@dataclass
class PhenotypeSplitDataset:
    """Optimised encoding: case/control split, genotype-2 plane elided.

    Attributes
    ----------
    control_planes / case_planes:
        ``(n_snps, 2, n_words_class)`` packed word arrays holding the
        genotype-0 and genotype-1 planes of the control and case samples
        respectively.  The genotype-2 plane is implicitly
        ``NOR(plane0, plane1)`` (with the padding bits masked off).
    n_controls / n_cases:
        Number of valid sample bits in each class.
    control_order / case_order:
        Original sample indices of each class in packed order; kept so that
        results can be traced back to the input dataset.
    """

    control_planes: np.ndarray
    case_planes: np.ndarray
    n_controls: int
    n_cases: int
    control_order: np.ndarray
    case_order: np.ndarray
    #: Cached per-class padding masks (built lazily — see :meth:`padding_mask`).
    _masks: dict = field(default_factory=dict, repr=False, compare=False)
    #: Per-class pair tables (made lazily — see :meth:`pair_table`).
    _pairs: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_dataset(
        cls,
        dataset: GenotypeDataset,
        layout: str | WordLayout | None = None,
    ) -> "PhenotypeSplitDataset":
        """Split a dataset by phenotype and binarise each class separately."""
        word_layout = get_layout(layout) if layout is not None else DEFAULT_LAYOUT
        controls = dataset.control_indices
        cases = dataset.case_indices
        geno_ctrl = dataset.genotypes[:, controls]
        geno_case = dataset.genotypes[:, cases]
        # Only genotype 0 and 1 planes are stored; genotype 2 is inferred.
        ctrl_planes = pack_bitplanes(geno_ctrl, n_genotypes=3, layout=word_layout)[:, :2, :]
        case_planes = pack_bitplanes(geno_case, n_genotypes=3, layout=word_layout)[:, :2, :]
        return cls(
            control_planes=np.ascontiguousarray(ctrl_planes),
            case_planes=np.ascontiguousarray(case_planes),
            n_controls=int(controls.size),
            n_cases=int(cases.size),
            control_order=controls,
            case_order=cases,
        )

    # -- geometry ------------------------------------------------------------
    @property
    def layout(self) -> WordLayout:
        """The machine-word layout the planes were packed with."""
        return layout_of(self.control_planes)

    @property
    def n_snps(self) -> int:
        """Number of SNPs."""
        return int(self.control_planes.shape[0])

    @property
    def n_samples(self) -> int:
        """Total number of samples across both classes."""
        return self.n_controls + self.n_cases

    @property
    def words_per_class(self) -> Tuple[int, int]:
        """(control words, case words) per plane."""
        return (
            int(self.control_planes.shape[2]),
            int(self.case_planes.shape[2]),
        )

    def nbytes(self) -> int:
        """Total size of the encoding in bytes."""
        return int(self.control_planes.nbytes + self.case_planes.nbytes)

    def planes_for_class(self, phenotype_class: int) -> tuple[np.ndarray, int]:
        """Return ``(planes, n_valid_samples)`` for phenotype 0 or 1."""
        if phenotype_class == 0:
            return self.control_planes, self.n_controls
        if phenotype_class == 1:
            return self.case_planes, self.n_cases
        raise ValueError("phenotype_class must be 0 (controls) or 1 (cases)")

    def padding_mask(self, phenotype_class: int) -> np.ndarray:
        """Per-word mask of valid sample bits for the given class.

        A genotype-2 plane produced by ``NOR`` sets the padding bits of the
        last word (NOR of two zero bits is one) unless it is ANDed with this
        mask, which is what the reference C implementation achieves by
        keeping the padding samples out of the loaded range.  The NumPy
        split kernel instead popcounts the mask as the class's "any
        genotype" count.  The mask is built once per class and cached (it
        is read on every kernel batch).
        """
        mask = self._masks.get(phenotype_class)
        if mask is None:
            _, n_valid = self.planes_for_class(phenotype_class)
            mask = self.layout.padding_mask(n_valid)
            self._masks[phenotype_class] = mask
        return mask

    def pair_table(self, phenotype_class: int) -> PairTable:
        """The class's :class:`PairTable`, shared by every thread of this process.

        The NumPy split kernel reads its pair counts from the table and
        stores the ones it counts, so each pair the table has a row for is
        counted once per process.
        """
        table = self._pairs.get(phenotype_class)
        if table is None:
            planes, _ = self.planes_for_class(phenotype_class)
            table = self._pairs.setdefault(phenotype_class, PairTable(planes))
        return table

    def memory_reduction_vs_naive(self) -> float:
        """Fraction of bytes saved relative to :class:`BinarizedDataset`.

        §IV-A states the optimisations "reduce the amount of memory
        transfers by 1/3"; this helper lets tests and benchmarks verify the
        claim on concrete datasets.
        """
        word_layout = self.layout
        naive_words = self.n_snps * 3 * word_layout.word_count(self.n_samples)
        naive_words += word_layout.word_count(self.n_samples)  # phenotype vector
        split_words = self.n_snps * 2 * (
            word_layout.word_count(self.n_controls)
            + word_layout.word_count(self.n_cases)
        )
        return 1.0 - split_words / naive_words

    def validate(self) -> None:
        """Check that the two stored planes never overlap."""
        if (self.control_planes[:, 0] & self.control_planes[:, 1]).any():
            raise ValueError("control planes overlap")
        if (self.case_planes[:, 0] & self.case_planes[:, 1]).any():
            raise ValueError("case planes overlap")

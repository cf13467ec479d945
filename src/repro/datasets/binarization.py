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
    Used by approaches V2–V4 on both CPU and GPU.

Both encodings are parametric in the **execution word layout**
(:class:`~repro.bitops.packing.WordLayout`): the paper's ``uint32`` word or
the wide ``uint64`` word, which halves the element count of every kernel
operation without changing a single resulting bit.  The default is
:data:`~repro.bitops.packing.DEFAULT_LAYOUT` (``uint64`` on NumPy >= 2).
"""

from __future__ import annotations

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

__all__ = ["BinarizedDataset", "PhenotypeSplitDataset"]


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

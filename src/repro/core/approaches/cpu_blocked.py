"""CPU approach V3 — cache blocking (Algorithm 1).

On top of the phenotype-split kernel, the SNP triplet loop is tiled: each
core works on three blocks of ``BS`` SNPs and walks the samples in chunks of
``BP``, so that the ``BS^3`` partial frequency tables and the three
``BS x BP`` data blocks fit in the L1 data cache (§IV-A derives
``BS^3 * 4B * 2 * 27 <= sizeFT`` and ``BS * BP * 4B * 2 <= sizeBlock``,
giving ``<5, 400>`` on Ice Lake SP and ``<5, 96>`` on the other CPUs).

Blocking does not change the amount of computation or the result; it changes
*where* the loads hit.  The functional kernel below therefore produces
bit-identical tables to approach V2 while walking the data in the blocked
order, and additionally records the blocking geometry and the number of
sample-chunk passes so the CARM/performance models can attribute traffic to
the correct cache level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.approaches.base import Approach
from repro.core.approaches._fused import fused_split_scores
from repro.core.approaches._kernels import SPLIT_OPS_PER_COMBO_WORD, charge_split_ops
from repro.datasets.binarization import PhenotypeSplitDataset
from repro.datasets.dataset import GenotypeDataset
from repro.devices.specs import CpuSpec

__all__ = ["CpuBlockedApproach"]


@dataclass
class _BlockedEncoding:
    """Phenotype-split encoding annotated with the blocking parameters."""

    split: PhenotypeSplitDataset
    block_snps: int
    block_samples: int


class CpuBlockedApproach(Approach):
    """Loop-tiled kernel with L1-resident frequency tables (CPU V3).

    Parameters
    ----------
    block_snps / block_samples:
        The tiling parameters ``<BS, BP>``.  If omitted they are derived from
        ``cpu_spec`` (default: the paper's Ice Lake SP platform, yielding
        ``<5, 400>``).
    cpu_spec:
        The CPU whose L1 geometry sizes the blocks.
    """

    name = "cpu-v3"
    device = "cpu"
    version = 3
    description = "loop tiling <BS, BP> sized to the L1 data cache"

    OPS_PER_COMBO_WORD = SPLIT_OPS_PER_COMBO_WORD

    def __init__(
        self,
        block_snps: int | None = None,
        block_samples: int | None = None,
        cpu_spec: CpuSpec | None = None,
        word_layout=None,
        backend=None,
    ) -> None:
        super().__init__(word_layout=word_layout, backend=backend)
        if cpu_spec is None:
            from repro.devices.catalog import cpu as _cpu

            cpu_spec = _cpu("CI3")
        self.cpu_spec = cpu_spec
        derived_bs, derived_bp = cpu_spec.blocking_parameters()
        self.block_snps = int(block_snps) if block_snps is not None else derived_bs
        self.block_samples = (
            int(block_samples) if block_samples is not None else derived_bp
        )
        if self.block_snps < 1 or self.block_samples < 1:
            raise ValueError("blocking parameters must be positive")
        self._last_order = 3

    # -- encoding -------------------------------------------------------------
    def prepare(self, dataset: GenotypeDataset) -> _BlockedEncoding:
        """Phenotype-split encoding plus the blocking geometry."""
        return _BlockedEncoding(
            split=PhenotypeSplitDataset.from_dataset(dataset, layout=self.word_layout),
            block_snps=self.block_snps,
            block_samples=self.block_samples,
        )

    def encoding_key(self) -> tuple:
        # cpu-v3 and cpu-v4 share the blocked split encoding, so the key is
        # family-level (the vectorised subclass inherits it unchanged).
        return (
            "split-blocked",
            self.word_layout.name,
            self.block_snps,
            self.block_samples,
        )

    # -- kernel ----------------------------------------------------------------
    def build_tables(self, encoded: _BlockedEncoding, combos: np.ndarray) -> np.ndarray:
        """Blocked construction over a batch of combinations.

        Blocking is a statement about *where loads hit*, not about the
        arithmetic: the modelled kernel walks the samples in chunks of
        ``BP`` (``BP / word_bits`` packed words), and that walk is recorded
        in ``sample_chunk_passes`` for the CARM/performance models.  The
        NumPy execution, whose array ops never reproduced L1 residency in
        the first place, runs the split kernel once per class over every
        word, and the kernel cuts the call into pieces sized to its byte
        budget (:data:`~repro.core.approaches._kernels.KERNEL_BUDGET_BYTES`)
        — MB-scale pieces instead of hundreds of BP-sized passes.  The
        result is bit-identical to any other pass split (counts add exactly
        across word slices).
        """
        combos = self._check_combos(combos)
        split = encoded.split
        if combos.size and combos.max() >= split.n_snps:
            raise IndexError("combination index exceeds the number of SNPs")
        n_combos, order = combos.shape
        self._last_order = order
        words_per_chunk = max(1, encoded.block_samples // encoded.split.layout.bits)

        tables = np.empty((n_combos, 3**order, 2), dtype=np.int64)
        total_words = 0
        word_ratio = split.layout.paper_words
        for phenotype_class in (0, 1):
            planes, _ = split.planes_for_class(phenotype_class)
            mask = split.padding_mask(phenotype_class)
            n_words = planes.shape[2]
            total_words += n_words
            tables[:, :, phenotype_class] = self.backend.split_class_counts(
                planes, mask, combos, pairs=split.pair_table(phenotype_class)
            )
            # Modelled Algorithm 1 walk: ceil(n_words / (BP / word_bits))
            # sample-chunk passes per class.
            self._sample_passes += -(-n_words // words_per_chunk)
        charge_split_ops(
            self.counter, n_combos, total_words, order, word_ratio=word_ratio
        )
        return tables

    def score_combinations(
        self, encoded: _BlockedEncoding, combos: np.ndarray, objective
    ) -> np.ndarray:
        """Fused build+score over rank-slice tiles of the blocked split encoding.

        The modelled bookkeeping is identical to :meth:`build_tables`: the
        same §IV per-paper-word charge over the full encoding and the same
        Algorithm 1 ``sample_chunk_passes`` record — blocking and fusion
        both describe *where* real loads hit, never the modelled counts.
        """
        combos = self._check_combos(combos)
        split = encoded.split
        if combos.size and combos.max() >= split.n_snps:
            raise IndexError("combination index exceeds the number of SNPs")
        n_combos, order = combos.shape
        self._last_order = order
        scores = fused_split_scores(self.backend, split, combos, objective)
        words_per_chunk = max(1, encoded.block_samples // split.layout.bits)
        total_words = 0
        for phenotype_class in (0, 1):
            planes, _ = split.planes_for_class(phenotype_class)
            total_words += planes.shape[2]
            self._sample_passes += -(-planes.shape[2] // words_per_chunk)
        charge_split_ops(
            self.counter,
            n_combos,
            total_words,
            order,
            word_ratio=split.layout.paper_words,
        )
        return scores

    def reset_counter(self) -> None:
        super().reset_counter()
        self._sample_passes = 0

    def extra_stats(self) -> dict:
        # Per-core working set of Algorithm 1 at the most recent order k:
        # BS^k partial tables of 3^k x 2 int32 cells.
        order = self._last_order
        return {
            "block_snps": self.block_snps,
            "block_samples": self.block_samples,
            "cpu": self.cpu_spec.key,
            "sample_chunk_passes": self._sample_passes,
            "frequency_table_bytes": self.block_snps**order * 2 * 3**order * 4,
        }

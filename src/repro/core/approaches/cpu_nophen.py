"""CPU approach V2 — genotype-2 elision and case/control split.

Two observations reduce the memory footprint of the naïve kernel by roughly
one third and its instruction count from 162 to 57 per word (§IV-A):

* a sample has genotype 2 at a SNP iff it has neither genotype 0 nor 1, so
  the third plane can be recomputed with a single ``NOR``;
* if the samples are split into controls and cases up front, the phenotype
  masks disappear from the inner loop entirely.

The arithmetic intensity *drops* (computation shrinks faster than traffic),
which is why this approach alone does not improve CARM placement — it is the
stepping stone for the cache-blocked and vectorised variants.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.packing import paper_word_ratio
from repro.core.approaches.base import Approach
from repro.core.approaches._fused import fused_split_scores
from repro.core.approaches._kernels import SPLIT_OPS_PER_COMBO_WORD, charge_split_ops
from repro.datasets.binarization import PhenotypeSplitDataset
from repro.datasets.dataset import GenotypeDataset

__all__ = ["CpuNoPhenotypeApproach"]


class CpuNoPhenotypeApproach(Approach):
    """Case/control-split kernel with the genotype-2 plane inferred (CPU V2)."""

    name = "cpu-v2"
    device = "cpu"
    version = 2
    description = "genotype-2 inferred with NOR; dataset split into cases/controls"

    OPS_PER_COMBO_WORD = SPLIT_OPS_PER_COMBO_WORD

    def prepare(self, dataset: GenotypeDataset) -> PhenotypeSplitDataset:
        """Split the dataset by phenotype and keep only planes 0 and 1."""
        return PhenotypeSplitDataset.from_dataset(dataset, layout=self.word_layout)

    def build_tables(
        self, encoded: PhenotypeSplitDataset, combos: np.ndarray
    ) -> np.ndarray:
        """Build 27x2 tables from the per-class planes."""
        combos = self._check_combos(combos)
        if combos.size and combos.max() >= encoded.n_snps:
            raise IndexError("combination index exceeds the number of SNPs")
        tables = self.backend.split_tables(
            encoded.control_planes,
            encoded.case_planes,
            encoded.padding_mask(0),
            encoded.padding_mask(1),
            combos,
            control_pairs=encoded.pair_table(0),
            case_pairs=encoded.pair_table(1),
        )
        # Modelled per-paper-word charging, identical whichever backend ran.
        charge_split_ops(
            self.counter,
            combos.shape[0],
            encoded.control_planes.shape[2] + encoded.case_planes.shape[2],
            combos.shape[1],
            word_ratio=paper_word_ratio(encoded.control_planes),
        )
        return tables

    def score_combinations(
        self, encoded: PhenotypeSplitDataset, combos: np.ndarray, objective
    ) -> np.ndarray:
        """Fused build+score over rank-slice tiles; §IV charging as in build_tables."""
        combos = self._check_combos(combos)
        if combos.size and combos.max() >= encoded.n_snps:
            raise IndexError("combination index exceeds the number of SNPs")
        scores = fused_split_scores(self.backend, encoded, combos, objective)
        charge_split_ops(
            self.counter,
            combos.shape[0],
            encoded.control_planes.shape[2] + encoded.case_planes.shape[2],
            combos.shape[1],
            word_ratio=paper_word_ratio(encoded.control_planes),
        )
        return scores

    def extra_stats(self) -> dict:
        return {"encoding": "case/control split, 2 planes", "ops_per_combo_word": 57}

"""Tests of the quality-control / preprocessing module."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.qc import (
    apply_qc,
    call_rates,
    filter_by_maf,
    hardy_weinberg_pvalues,
    impute_missing,
    minor_allele_frequencies,
)
from repro.datasets.synthetic import generate_null_dataset


class TestMaf:
    def test_known_values(self):
        geno = np.array(
            [
                [0, 0, 0, 0],      # MAF 0
                [1, 1, 1, 1],      # allele freq 0.5
                [2, 2, 2, 2],      # allele freq 1 -> folded to 0
                [0, 1, 2, 1],      # 4/8 = 0.5
                [0, 0, 0, 1],      # 1/8 = 0.125
            ],
            dtype=np.int8,
        )
        maf = minor_allele_frequencies(geno)
        assert maf == pytest.approx([0.0, 0.5, 0.0, 0.5, 0.125])

    def test_missing_ignored(self):
        geno = np.array([[1, -1, 1, -1]], dtype=np.int8)
        assert minor_allele_frequencies(geno)[0] == pytest.approx(0.5)

    def test_folding_symmetry(self, rng):
        geno = rng.integers(0, 3, size=(20, 200)).astype(np.int8)
        flipped = (2 - geno).astype(np.int8)
        assert np.allclose(
            minor_allele_frequencies(geno), minor_allele_frequencies(flipped)
        )

    def test_bounds(self, small_dataset):
        maf = minor_allele_frequencies(small_dataset.genotypes)
        assert ((maf >= 0) & (maf <= 0.5)).all()


class TestCallRatesAndImputation:
    def test_call_rates(self):
        geno = np.array([[0, 1, 2, -1], [0, -1, -1, -1]], dtype=np.int8)
        assert call_rates(geno) == pytest.approx([0.75, 0.25])

    def test_impute_missing_uses_major_genotype(self):
        geno = np.array([[0, 0, 2, -1], [1, 1, -1, 2]], dtype=np.int8)
        imputed, n = impute_missing(geno)
        assert n == 2
        assert imputed[0, 3] == 0
        assert imputed[1, 2] == 1
        assert (imputed >= 0).all()

    def test_impute_no_missing_is_noop(self, small_dataset):
        imputed, n = impute_missing(small_dataset.genotypes)
        assert n == 0
        assert np.array_equal(imputed, small_dataset.genotypes)

    @given(
        n_missing=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_imputation_count_matches(self, n_missing, seed):
        rng = np.random.default_rng(seed)
        geno = rng.integers(0, 3, size=(5, 40)).astype(np.int8)
        flat = rng.choice(geno.size, size=n_missing, replace=False)
        geno.reshape(-1)[flat] = -1
        imputed, n = impute_missing(geno)
        assert n == n_missing
        assert (imputed >= 0).all() and (imputed <= 2).all()


class TestHardyWeinberg:
    def test_equilibrium_snp_high_pvalue(self, rng):
        p = 0.3
        n = 5000
        geno = rng.choice([0, 1, 2], size=(1, n), p=[(1 - p) ** 2, 2 * p * (1 - p), p**2])
        assert hardy_weinberg_pvalues(geno.astype(np.int8))[0] > 0.01

    def test_gross_violation_low_pvalue(self):
        # Half genotype 0, half genotype 2, no heterozygotes at all.
        geno = np.array([[0] * 500 + [2] * 500], dtype=np.int8)
        assert hardy_weinberg_pvalues(geno)[0] < 1e-10

    def test_monomorphic_is_trivially_in_equilibrium(self):
        geno = np.zeros((1, 100), dtype=np.int8)
        assert hardy_weinberg_pvalues(geno)[0] == 1.0

    def test_pvalues_are_chi2_sf_bit_for_bit(self):
        # Half the SNPs drawn in equilibrium, half uniform (far from it), so
        # the p-values span (0, 1]; 2% missing calls are ignored.  A
        # closed form such as erfc(sqrt(stat / 2)) differs in the last bits.
        from scipy.stats import chi2

        rng = np.random.default_rng(2022)
        freq = rng.uniform(0.05, 0.5, size=(150, 1))
        geno = np.vstack(
            [rng.binomial(2, freq, size=(150, 500)), rng.integers(0, 3, size=(150, 500))]
        ).astype(np.int8)
        geno[rng.random(geno.shape) < 0.02] = -1
        expected = []
        for row in geno:
            row = row[row >= 0]
            counts = np.bincount(row, minlength=3).astype(np.float64)
            p = (counts[1] + 2 * counts[2]) / (2 * row.size)
            cells = row.size * np.array([(1 - p) ** 2, 2 * p * (1 - p), p**2])
            expected.append(chi2.sf(((counts - cells) ** 2 / cells).sum(), df=1))
        pvalues = hardy_weinberg_pvalues(geno)
        assert pvalues.min() < 1e-6 < 0.5 < pvalues.max()
        assert pvalues.tobytes() == np.array(expected, dtype=np.float64).tobytes()


class TestFilters:
    def test_filter_by_maf(self):
        ds = generate_null_dataset(30, 400, seed=4, maf_range=(0.05, 0.5))
        filtered = filter_by_maf(ds, min_maf=0.2)
        assert 0 < filtered.n_snps <= ds.n_snps
        assert minor_allele_frequencies(filtered.genotypes).min() >= 0.2

    def test_filter_by_maf_all_removed(self):
        ds = generate_null_dataset(5, 50, seed=1, maf_range=(0.05, 0.08))
        with pytest.raises(ValueError):
            filter_by_maf(ds, min_maf=0.49)


class TestApplyQc:
    def _raw(self, rng):
        ds = generate_null_dataset(40, 300, seed=9, maf_range=(0.05, 0.5))
        geno = ds.genotypes.astype(np.int8).copy()
        # SNP 0: mostly missing; SNP 1: monomorphic (zero MAF); SNP 2: gross
        # HWE violation in everyone.
        geno[0, : int(0.2 * 300)] = -1
        geno[1, :] = 0
        geno[2, :150] = 0
        geno[2, 150:] = 2
        return geno, ds.phenotypes

    def test_pipeline(self, rng):
        geno, phen = self._raw(rng)
        dataset, report = apply_qc(
            geno, phen, min_maf=0.05, min_call_rate=0.9, hwe_alpha=1e-6,
            hwe_controls_only=False,
        )
        assert report.n_snps_in == 40
        assert dataset.n_snps == report.n_snps_out == len(report.kept)
        assert 0 in report.removed_low_call_rate
        assert 1 in report.removed_low_maf
        assert 2 in report.removed_hwe
        assert report.n_missing_imputed >= 0
        assert (dataset.genotypes >= 0).all()
        assert "QC:" in report.summary()

    def test_filters_can_be_disabled(self, rng):
        geno, phen = self._raw(rng)
        dataset, report = apply_qc(
            geno, phen, min_maf=0.0, min_call_rate=0.0, hwe_alpha=None
        )
        assert dataset.n_snps == 40
        assert report.n_missing_imputed > 0

    def test_sample_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_qc(np.zeros((3, 10), dtype=np.int8), np.zeros(9, dtype=np.int8))

    def test_everything_removed_rejected(self):
        geno = np.zeros((3, 50), dtype=np.int8)  # all monomorphic
        phen = np.array([0, 1] * 25, dtype=np.int8)
        with pytest.raises(ValueError):
            apply_qc(geno, phen, min_maf=0.05)

    def test_qc_then_detection_pipeline(self):
        """Cleaned data feeds straight into the three-way detector."""
        from repro.core import EpistasisDetector

        ds = generate_null_dataset(15, 256, seed=3)
        geno = ds.genotypes.astype(np.int8).copy()
        geno[3, ::7] = -1
        cleaned, report = apply_qc(geno, ds.phenotypes, min_maf=0.01, hwe_alpha=None)
        result = EpistasisDetector(approach="cpu-v2").detect(cleaned)
        assert result.stats.n_combinations == cleaned.n_combinations(3)

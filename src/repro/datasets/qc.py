"""Quality-control and preprocessing of case/control datasets.

Real GWAS inputs are never handed to the detection kernels raw: SNPs with a
too-low minor-allele frequency carry no statistical power (and blow up the
multiple-testing burden), samples or SNPs with missing genotypes must be
imputed or dropped, and markers grossly out of Hardy–Weinberg equilibrium in
the controls usually indicate genotyping artefacts.  The paper's evaluation
uses pre-cleaned synthetic data, but a usable library needs the cleaning
step; this module provides it.

The missing-genotype code is ``-1`` (the only value outside the 0/1/2 range);
:class:`GenotypeDataset` itself rejects negative values, so raw matrices with
missing entries enter through :func:`impute_missing` / :func:`apply_qc`
*before* a dataset object is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.datasets.dataset import GenotypeDataset

__all__ = [
    "QcReport",
    "minor_allele_frequencies",
    "call_rates",
    "hardy_weinberg_pvalues",
    "impute_missing",
    "filter_by_maf",
    "apply_qc",
]

#: Genotype code marking a missing call in raw matrices.
MISSING: int = -1


@dataclass
class QcReport:
    """Summary of one quality-control pass.

    Attributes
    ----------
    n_snps_in / n_snps_out:
        SNP counts before and after filtering.
    removed_low_maf / removed_low_call_rate / removed_hwe:
        Indices of the SNPs removed by each criterion (relative to the input).
    n_missing_imputed:
        Number of genotype calls replaced by the per-SNP major genotype.
    kept:
        Indices of the SNPs that survived (relative to the input).
    """

    n_snps_in: int
    n_snps_out: int
    removed_low_maf: List[int] = field(default_factory=list)
    removed_low_call_rate: List[int] = field(default_factory=list)
    removed_hwe: List[int] = field(default_factory=list)
    n_missing_imputed: int = 0
    kept: List[int] = field(default_factory=list)

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        return (
            f"QC: {self.n_snps_in} SNPs in, {self.n_snps_out} kept "
            f"({len(self.removed_low_maf)} low-MAF, "
            f"{len(self.removed_low_call_rate)} low call-rate, "
            f"{len(self.removed_hwe)} HWE failures removed); "
            f"{self.n_missing_imputed} missing calls imputed"
        )


def _as_matrix(genotypes: np.ndarray) -> np.ndarray:
    arr = np.asarray(genotypes)
    if arr.ndim != 2:
        raise ValueError("genotypes must be a 2-D (n_snps, n_samples) matrix")
    return arr


def minor_allele_frequencies(genotypes: np.ndarray) -> np.ndarray:
    """Per-SNP minor-allele frequency, ignoring missing calls.

    The frequency of the coded (minor) allele is ``(n1 + 2 n2) / (2 n_called)``;
    the *minor*-allele frequency folds it to ``min(f, 1 - f)`` so that a SNP
    whose coding happens to be flipped is still treated symmetrically.
    """
    arr = _as_matrix(genotypes).astype(np.float64)
    called = arr >= 0
    n_called = called.sum(axis=1)
    allele_counts = np.where(called, arr, 0.0).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        freq = np.where(n_called > 0, allele_counts / (2.0 * n_called), 0.0)
    return np.minimum(freq, 1.0 - freq)


def call_rates(genotypes: np.ndarray) -> np.ndarray:
    """Per-SNP fraction of non-missing genotype calls."""
    arr = _as_matrix(genotypes)
    if arr.shape[1] == 0:
        return np.zeros(arr.shape[0])
    return (arr >= 0).mean(axis=1)


def hardy_weinberg_pvalues(genotypes: np.ndarray) -> np.ndarray:
    """Per-SNP chi-squared Hardy–Weinberg equilibrium p-value.

    A one-degree-of-freedom goodness-of-fit test of the observed genotype
    counts against the expectation from the allele frequency.  Missing calls
    are ignored; monomorphic SNPs receive a p-value of 1.0.
    """
    # Imported on call: scipy.stats is the costliest import in reach of
    # ``import repro`` (~0.8 s of a fresh process), and no search calls this.
    from scipy.stats import chi2

    arr = _as_matrix(genotypes)
    n_snps = arr.shape[0]
    pvalues = np.ones(n_snps)
    for i in range(n_snps):
        row = arr[i]
        row = row[row >= 0]
        n = row.size
        if n == 0:
            continue
        counts = np.bincount(row, minlength=3)[:3].astype(np.float64)
        p = (counts[1] + 2 * counts[2]) / (2 * n)
        if p <= 0.0 or p >= 1.0:
            continue  # monomorphic: trivially in equilibrium
        expected = n * np.array([(1 - p) ** 2, 2 * p * (1 - p), p**2])
        with np.errstate(invalid="ignore", divide="ignore"):
            stat = np.where(expected > 0, (counts - expected) ** 2 / expected, 0.0).sum()
        pvalues[i] = float(chi2.sf(stat, df=1))
    return pvalues


def impute_missing(genotypes: np.ndarray) -> tuple[np.ndarray, int]:
    """Replace missing calls by the per-SNP most frequent genotype.

    Returns the imputed matrix (a copy) and the number of imputed calls.
    Major-genotype imputation is the standard cheap choice for exhaustive
    interaction scans, where per-SNP model-based imputation would dominate
    the runtime.
    """
    arr = _as_matrix(genotypes).copy()
    n_imputed = 0
    for i in range(arr.shape[0]):
        missing = arr[i] < 0
        if not missing.any():
            continue
        observed = arr[i][~missing]
        fill = int(np.bincount(observed, minlength=3)[:3].argmax()) if observed.size else 0
        arr[i, missing] = fill
        n_imputed += int(missing.sum())
    return arr, n_imputed


def filter_by_maf(dataset: GenotypeDataset, min_maf: float = 0.05) -> GenotypeDataset:
    """Return a dataset containing only SNPs with MAF >= ``min_maf``."""
    maf = minor_allele_frequencies(dataset.genotypes)
    keep = np.flatnonzero(maf >= min_maf)
    if keep.size == 0:
        raise ValueError(f"no SNP passes the MAF >= {min_maf} filter")
    return dataset.subset_snps(keep)


def apply_qc(
    genotypes: np.ndarray,
    phenotypes: np.ndarray,
    snp_names: Sequence[str] | None = None,
    *,
    min_maf: float = 0.05,
    min_call_rate: float = 0.95,
    hwe_alpha: float | None = 1e-6,
    hwe_controls_only: bool = True,
) -> tuple[GenotypeDataset, QcReport]:
    """Full QC pipeline: impute, then filter by call rate, MAF and HWE.

    Parameters
    ----------
    genotypes:
        Raw ``(n_snps, n_samples)`` matrix; missing calls coded as ``-1``.
    phenotypes:
        0/1 phenotype vector.
    min_maf / min_call_rate:
        Inclusion thresholds (set either to 0 to disable the filter).
    hwe_alpha:
        Significance threshold of the Hardy–Weinberg filter; ``None``
        disables it.
    hwe_controls_only:
        Test HWE in the control samples only (the conventional choice — a
        true disease association may legitimately distort HWE in cases).

    Returns
    -------
    (dataset, report):
        The cleaned :class:`GenotypeDataset` and a :class:`QcReport`.
    """
    raw = _as_matrix(genotypes)
    phen = np.asarray(phenotypes, dtype=np.int8)
    if raw.shape[1] != phen.shape[0]:
        raise ValueError("genotypes and phenotypes disagree on the sample count")
    n_snps = raw.shape[0]
    names = list(snp_names) if snp_names is not None else None

    rates = call_rates(raw)
    removed_call = np.flatnonzero(rates < min_call_rate)

    imputed, n_imputed = impute_missing(raw)
    maf = minor_allele_frequencies(imputed)
    removed_maf = np.flatnonzero(maf < min_maf)

    removed_hwe = np.array([], dtype=np.int64)
    if hwe_alpha is not None:
        hwe_matrix = imputed[:, phen == 0] if hwe_controls_only else imputed
        pvalues = hardy_weinberg_pvalues(hwe_matrix)
        removed_hwe = np.flatnonzero(pvalues < hwe_alpha)

    removed = set(removed_call.tolist()) | set(removed_maf.tolist()) | set(removed_hwe.tolist())
    kept = [i for i in range(n_snps) if i not in removed]
    if not kept:
        raise ValueError("quality control removed every SNP")

    dataset = GenotypeDataset(
        genotypes=imputed[kept],
        phenotypes=phen,
        snp_names=[names[i] for i in kept] if names is not None else None,
    )
    report = QcReport(
        n_snps_in=n_snps,
        n_snps_out=len(kept),
        removed_low_maf=sorted(set(removed_maf.tolist()) - set(removed_call.tolist())),
        removed_low_call_rate=removed_call.tolist(),
        removed_hwe=sorted(set(removed_hwe.tolist()) - set(removed_call.tolist()) - set(removed_maf.tolist())),
        n_missing_imputed=n_imputed,
        kept=kept,
    )
    return dataset, report

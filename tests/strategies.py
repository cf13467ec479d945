"""Hypothesis strategies shared by the property tests and the oracle harness."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.datasets.dataset import GenotypeDataset


@st.composite
def genotype_datasets(draw, min_snps=3, max_snps=12, min_samples=4, max_samples=160):
    """Random case/control datasets with arbitrary genotype content.

    The genotype matrix is dense random, one fill value with scattered
    draws (ties in most tables) or a single value (every score tied, so the
    ranking is pure tie-break).  Both classes are non-empty, down to a
    single case or a single control, and the cases sit anywhere.
    """
    n_snps = draw(st.integers(min_snps, max_snps))
    n_samples = draw(st.integers(min_samples, max_samples))
    shape = (n_snps, n_samples)
    genotypes = draw(
        st.one_of(
            st.integers(0, 2**32 - 1).map(
                lambda seed: np.random.default_rng(seed).integers(0, 3, shape, dtype=np.int8)
            ),
            arrays(np.int8, shape, elements=st.integers(0, 2)),
            st.integers(0, 2).map(lambda value: np.full(shape, value, dtype=np.int8)),
        )
    )
    n_cases = draw(st.integers(1, n_samples - 1))
    shuffled = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(n_samples)
    phenotypes = np.zeros(n_samples, dtype=np.int8)
    phenotypes[shuffled[:n_cases]] = 1
    return GenotypeDataset(genotypes=genotypes, phenotypes=phenotypes)

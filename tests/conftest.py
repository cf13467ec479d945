"""Shared fixtures of the test-suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import (
    GenotypeDataset,
    PlantedInteraction,
    SyntheticConfig,
    generate_dataset,
    generate_null_dataset,
)

#: SNP indices of the interaction planted in ``planted_dataset``.
PLANTED_TRIPLET = (3, 11, 17)

# Tier-1 draws the same examples on every run, so a failure seen once comes
# back, and keeps no example database.
settings.register_profile("tier-1", derandomize=True, database=None)
# The wide random sweep of the differential oracle, whose tests take shares
# of max_examples (about 2 050 examples in all):
#   pytest tests/test_oracle.py --hypothesis-profile=oracle-sweep
settings.register_profile("oracle-sweep", max_examples=500, database=None, print_blob=True)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile", None):
        settings.load_profile("tier-1")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic random generator for ad-hoc data."""
    return np.random.default_rng(20220126)


@pytest.fixture(scope="session")
def tiny_dataset() -> GenotypeDataset:
    """10 SNPs x 64 samples — cheap enough for the slowest oracles."""
    return generate_null_dataset(10, 64, seed=1)


@pytest.fixture(scope="session")
def small_dataset() -> GenotypeDataset:
    """24 SNPs x 384 samples — the workhorse fixture (2024 triplets)."""
    return generate_null_dataset(24, 384, seed=2)


@pytest.fixture(scope="session")
def odd_sample_dataset() -> GenotypeDataset:
    """A dataset whose sample count is not a multiple of 32 and whose
    case/control split is unbalanced — exercises the padding-mask paths."""
    return generate_dataset(
        SyntheticConfig(n_snps=16, n_samples=205, case_fraction=0.37, seed=3)
    )


@pytest.fixture(scope="session")
def planted_dataset() -> GenotypeDataset:
    """A dataset with a strong planted three-way interaction at (3, 11, 17)."""
    return generate_dataset(
        SyntheticConfig(
            n_snps=24,
            n_samples=2048,
            interaction=PlantedInteraction(
                snps=PLANTED_TRIPLET, model="threshold", baseline=0.03, effect=0.9
            ),
            seed=4,
        )
    )

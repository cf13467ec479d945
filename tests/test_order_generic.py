"""Cross-order equivalence tests of the order-generic search core.

Every approach must build, for every interaction order it supports,
tables identical to the :func:`~repro.core.contingency.contingency_oracle_many`
reference (the kernels share no code with the oracle).  That the detector
ranks what the brute-force :class:`~repro.baselines.BruteForceReference`
ranks, at every order and under every plan, is drawn by
``tests/test_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approaches import get_approach, list_approaches
from repro.core.combinations import combination_count, generate_combinations
from repro.core.contingency import contingency_oracle_many
from repro.datasets import generate_null_dataset


@pytest.fixture(scope="module")
def order_dataset():
    """16 SNPs x 192 samples: C(16,4) = 1820 keeps 4-way sweeps cheap."""
    return generate_null_dataset(16, 192, seed=11)


def _sample_combos(n_snps: int, order: int, stride: int) -> np.ndarray:
    return generate_combinations(n_snps, order)[::stride]


class TestApproachesMatchOracleAcrossOrders:
    @pytest.mark.parametrize("name", list_approaches())
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_tables_match_oracle(self, order_dataset, name, order):
        approach = get_approach(name)
        encoded = approach.prepare(order_dataset)
        combos = _sample_combos(order_dataset.n_snps, order, stride=7)
        tables = approach.build_tables(encoded, combos)
        assert tables.shape == (combos.shape[0], 3**order, 2)
        oracle = contingency_oracle_many(
            order_dataset.genotypes, order_dataset.phenotypes, combos
        )
        assert np.array_equal(tables, oracle)

    @pytest.mark.parametrize("name", ["cpu-v4", "gpu-v4"])
    def test_tables_match_oracle_order_5(self, name):
        dataset = generate_null_dataset(8, 96, seed=12)
        approach = get_approach(name)
        encoded = approach.prepare(dataset)
        combos = generate_combinations(8, 5)
        tables = approach.build_tables(encoded, combos)
        assert tables.shape == (combination_count(8, 5), 243, 2)
        oracle = contingency_oracle_many(dataset.genotypes, dataset.phenotypes, combos)
        assert np.array_equal(tables, oracle)

    def test_odd_sample_padding_at_order_2_and_4(self, odd_sample_dataset):
        for order in (2, 4):
            approach = get_approach("cpu-v2")
            encoded = approach.prepare(odd_sample_dataset)
            combos = _sample_combos(odd_sample_dataset.n_snps, order, stride=11)
            tables = approach.build_tables(encoded, combos)
            oracle = contingency_oracle_many(
                odd_sample_dataset.genotypes, odd_sample_dataset.phenotypes, combos
            )
            assert np.array_equal(tables, oracle)

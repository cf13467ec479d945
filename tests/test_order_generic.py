"""Cross-order equivalence tests of the order-generic search core.

The unified :class:`~repro.core.detector.EpistasisDetector` must produce,
for every interaction order it supports,

* tables identical to the :func:`~repro.core.contingency.contingency_oracle_many`
  reference for every approach (the kernels share no code with the oracle);
* order-2 rankings identical to the brute-force
  :class:`~repro.baselines.BruteForceReference` pair search;
* top-k rankings identical to the oracle + objective reference, for CPU and
  GPU approaches, under single-device and heterogeneous ``cpu+gpu`` engine
  plans (the ISSUE acceptance criterion).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BruteForceReference
from repro.core import EpistasisDetector
from repro.core.approaches import get_approach, list_approaches
from repro.core.combinations import combination_count, generate_combinations
from repro.core.contingency import contingency_oracle_many
from repro.core.scoring import K2Score
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


class TestUnifiedDetectorMatchesLegacyPairwise:
    """Order 2 on the unified detector ranks like the brute-force pair search."""

    def test_order_2_matches_brute_force(self, small_dataset):
        unified = EpistasisDetector(approach="cpu-v4", order=2, top_k=5).detect(
            small_dataset
        )
        reference = BruteForceReference(order=2, top_k=5).detect(small_dataset)
        assert unified.best_snps == reference.best_snps
        assert [i.snps for i in unified.top] == [i.snps for i in reference.top]


def _reference_topk(dataset, order: int, top_k: int):
    """Oracle tables + K2 objective, ranked by (score, combination)."""
    combos = generate_combinations(dataset.n_snps, order)
    tables = contingency_oracle_many(dataset.genotypes, dataset.phenotypes, combos)
    scores = K2Score().score(tables)
    ranked = sorted(range(len(scores)), key=lambda i: (scores[i], tuple(combos[i])))
    return [tuple(combos[i]) for i in ranked[:top_k]], [
        scores[i] for i in ranked[:top_k]
    ]


class TestDetectorMatchesReferenceAcrossOrdersAndPlans:
    """The ISSUE acceptance criterion, one CPU and one GPU approach."""

    @pytest.mark.parametrize("approach", ["cpu-v4", "gpu-v4"])
    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("devices", [None, "cpu+gpu"])
    def test_topk_matches_oracle_reference(
        self, order_dataset, approach, order, devices
    ):
        top_k = 5
        detector = EpistasisDetector(
            approach=approach,
            order=order,
            top_k=top_k,
            chunk_size=97,
            n_workers=2,
            devices=devices,
            schedule="carm" if devices else "dynamic",
        )
        result = detector.detect(order_dataset)
        expected_combos, expected_scores = _reference_topk(
            order_dataset, order, top_k
        )
        assert [i.snps for i in result.top] == expected_combos
        assert [i.score for i in result.top] == pytest.approx(expected_scores)
        assert result.stats.n_combinations == combination_count(
            order_dataset.n_snps, order
        )
        assert result.stats.extra["order"] == order
        assert len(result.best_snps) == order

"""Tests of the second-order (pairwise) search on the order-generic core.

Pairs have no dedicated stack: :func:`~repro.core.combinations.generate_combinations`
unranks them in closed form, the phenotype-split kernel builds their 9x2
tables, and ``EpistasisDetector(order=2)`` runs the pair screen through the
same engine lanes and schedules as the third-order search.
"""

from __future__ import annotations

from itertools import combinations as itertools_combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BruteForceReference
from repro.core import EpistasisDetector
from repro.core.combinations import generate_combinations
from repro.core.contingency import contingency_oracle
from repro.core.scoring import K2Score
from repro.datasets import PlantedInteraction, SyntheticConfig, generate_dataset


def _pairs(n_snps, start_rank=0, count=None):
    return generate_combinations(n_snps, 2, start_rank, count)


def _pair_detector(**kwargs):
    return EpistasisDetector(approach="cpu-v2", order=2, **kwargs)


class TestPairwiseCombinations:
    def test_matches_itertools(self):
        expected = np.array(list(itertools_combinations(range(9), 2)))
        assert np.array_equal(_pairs(9), expected)

    def test_windows(self):
        full = _pairs(15)
        assert np.array_equal(_pairs(15, 20, 30), full[20:50])
        assert _pairs(15, 5, 0).shape == (0, 2)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            _pairs(6, 0, comb(6, 2) + 1)

    @given(n=st.integers(min_value=2, max_value=40), data=st.data())
    @settings(max_examples=30)
    def test_window_consistency(self, n, data):
        total = comb(n, 2)
        start = data.draw(st.integers(0, total - 1))
        count = data.draw(st.integers(1, min(32, total - start)))
        window = _pairs(n, start, count)
        assert (window[:, 0] < window[:, 1]).all()
        full = _pairs(n)
        assert np.array_equal(window, full[start : start + count])

    @given(n=st.integers(min_value=2, max_value=64), data=st.data())
    @settings(max_examples=60)
    def test_vectorized_unranking_matches_itertools(self, n, data):
        """Property pin: the closed-form unranking equals itertools order."""
        expected = np.array(list(itertools_combinations(range(n), 2)), dtype=np.int64)
        total = comb(n, 2)
        start = data.draw(st.integers(0, total))
        count = data.draw(st.integers(0, total - start))
        window = _pairs(n, start, count)
        assert window.dtype == np.int64
        assert np.array_equal(window, expected[start : start + count])


class TestPairwiseTables:
    def test_matches_oracle(self, small_dataset):
        pairs = _pairs(small_dataset.n_snps)[::5]
        tables = _pair_detector().build_tables(small_dataset, pairs)
        assert tables.shape == (pairs.shape[0], 9, 2)
        for i, pair in enumerate(pairs):
            oracle = contingency_oracle(
                small_dataset.genotypes, small_dataset.phenotypes, pair
            )
            assert np.array_equal(tables[i], oracle)

    def test_matches_oracle_odd_samples(self, odd_sample_dataset):
        pairs = _pairs(odd_sample_dataset.n_snps)
        tables = _pair_detector().build_tables(odd_sample_dataset, pairs)
        for i in (0, 17, len(pairs) - 1):
            oracle = contingency_oracle(
                odd_sample_dataset.genotypes, odd_sample_dataset.phenotypes, pairs[i]
            )
            assert np.array_equal(tables[i], oracle)

    def test_validation(self, small_dataset):
        detector = _pair_detector()
        with pytest.raises(ValueError):
            detector.build_tables(small_dataset, np.array([[3, 1]]))
        with pytest.raises(ValueError):
            detector.build_tables(small_dataset, np.array([0, 1]))
        with pytest.raises(IndexError):
            detector.build_tables(small_dataset, np.array([[0, 99]]))


class TestPairwiseDetector:
    def test_agrees_with_brute_force(self, small_dataset):
        fast = _pair_detector(top_k=5).detect(small_dataset)
        reference = BruteForceReference(order=2, top_k=5).detect(small_dataset)
        assert fast.best_snps == reference.best_snps
        assert fast.best_score == pytest.approx(reference.best_score)
        assert [i.snps for i in fast.top] == [i.snps for i in reference.top]

    def test_recovers_planted_pair(self):
        dataset = generate_dataset(
            SyntheticConfig(
                n_snps=30,
                n_samples=2048,
                interaction=PlantedInteraction(
                    snps=(4, 21), model="threshold", baseline=0.05, effect=0.9
                ),
                seed=13,
            )
        )
        result = _pair_detector(top_k=3).detect(dataset)
        assert result.contains((4, 21))

    def test_chunking_invariance(self, small_dataset):
        a = _pair_detector(chunk_size=7).detect(small_dataset)
        b = _pair_detector(chunk_size=100000).detect(small_dataset)
        assert a.best_snps == b.best_snps
        assert a.best_score == pytest.approx(b.best_score)

    @pytest.mark.parametrize("schedule", ["dynamic", "static", "guided"])
    def test_multi_worker_agreement(self, small_dataset, schedule):
        single = _pair_detector(top_k=5).detect(small_dataset)
        multi = _pair_detector(
            top_k=5, n_workers=3, chunk_size=17, schedule=schedule
        ).detect(small_dataset)
        assert [i.snps for i in multi.top] == [i.snps for i in single.top]
        assert multi.best_score == pytest.approx(single.best_score)
        assert multi.stats.extra["schedule"] == schedule
        assert multi.stats.extra["devices"]["cpu"]["workers"] == 3
        assert multi.stats.n_workers == 3

    def test_score_pairs_entry_point(self, small_dataset):
        pairs = np.array([[0, 1], [2, 5]])
        scores = _pair_detector().score_combinations(small_dataset, pairs)
        expected = K2Score().score(
            np.stack(
                [
                    contingency_oracle(small_dataset.genotypes, small_dataset.phenotypes, p)
                    for p in pairs
                ]
            )
        )
        assert np.allclose(scores, expected)

    def test_stats(self, small_dataset):
        result = _pair_detector().detect(small_dataset)
        assert result.stats.n_combinations == comb(small_dataset.n_snps, 2)
        assert result.stats.extra["order"] == 2
        assert len(result.best_snps) == 2

    def test_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            _pair_detector(chunk_size=0)
        with pytest.raises(ValueError):
            _pair_detector(top_k=0)
        with pytest.raises(ValueError, match="at least 2 are required"):
            _pair_detector().detect(tiny_dataset.subset_snps([0]))

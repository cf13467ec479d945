"""Tests of the engine's CandidateSource work model."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EpistasisDetector
from repro.core.combinations import (
    combination_count,
    combination_ranks,
    generate_combinations,
    subset_combinations,
)
from repro.engine import (
    DenseRangeSource,
    ExecutionPlan,
    ExplicitCombinationSource,
    ExplicitRankSource,
    SubsetSource,
)


class TestCombinationRanks:
    """The vectorised ranking must invert the vectorised unranking."""

    def test_identity_over_full_space(self):
        combos = generate_combinations(13, 3)
        ranks = combination_ranks(combos, 13)
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(ranks, np.arange(len(combos)))

    @settings(deadline=None, max_examples=40)
    @given(
        n_snps=st.integers(5, 40),
        order=st.integers(2, 5),
        data=st.data(),
    )
    def test_roundtrip_random_ranks(self, n_snps, order, data):
        if n_snps < order:
            n_snps = order + 3
        total = combination_count(n_snps, order)
        ranks = np.array(
            data.draw(
                st.lists(st.integers(0, total - 1), min_size=1, max_size=32)
            ),
            dtype=np.int64,
        )
        from repro.core.combinations import combinations_from_ranks

        combos = combinations_from_ranks(ranks, n_snps, order)
        np.testing.assert_array_equal(combination_ranks(combos, n_snps), ranks)

    def test_rejects_non_increasing_rows(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            combination_ranks(np.array([[3, 1, 2]]), 8)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="lie in"):
            combination_ranks(np.array([[0, 1, 9]]), 8)


class TestSubsetCombinations:
    def test_matches_itertools_over_subset(self):
        subset = np.array([1, 4, 7, 9, 14, 20])
        produced = subset_combinations(subset, 3)
        expected = np.array(list(itertools.combinations(subset.tolist(), 3)))
        np.testing.assert_array_equal(produced, expected)

    def test_range_slicing(self):
        subset = np.array([0, 2, 5, 6, 11])
        full = subset_combinations(subset, 2)
        part = subset_combinations(subset, 2, start_rank=3, count=4)
        np.testing.assert_array_equal(part, full[3:7])

    def test_rejects_unsorted_subset(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            subset_combinations(np.array([4, 2, 9]), 2)


class TestSources:
    """The four geometries must materialise consistent global k-tuples."""

    def test_dense_matches_generate(self):
        source = DenseRangeSource(12, 3)
        assert source.total == combination_count(12, 3)
        assert source.effective_snps == 12
        np.testing.assert_array_equal(
            source.materialize(7, 31), generate_combinations(12, 3, 7, 24)
        )

    def test_explicit_ranks_positional(self):
        combos = generate_combinations(11, 3)
        ranks = np.array([5, 0, 17, 17, 44])
        source = ExplicitRankSource(ranks, n_snps=11, order=3)
        np.testing.assert_array_equal(
            source.materialize(0, 5), combos[ranks]
        )

    def test_explicit_ranks_from_combinations(self):
        combos = generate_combinations(10, 4)[::7]
        source = ExplicitRankSource.from_combinations(combos, n_snps=10)
        assert source.order == 4
        np.testing.assert_array_equal(source.materialize(0, source.total), combos)

    def test_explicit_combinations_slices(self):
        combos = generate_combinations(9, 2)[10:20]
        source = ExplicitCombinationSource(combos)
        assert source.total == 10 and source.order == 2
        np.testing.assert_array_equal(source.materialize(3, 6), combos[3:6])

    def test_subset_maps_to_global(self):
        subset = np.array([2, 3, 8, 13, 17, 21])
        source = SubsetSource(subset, 3)
        assert source.total == combination_count(6, 3)
        assert source.effective_snps == 6
        expected = np.array(list(itertools.combinations(subset.tolist(), 3)))
        np.testing.assert_array_equal(source.materialize(0, source.total), expected)

    def test_subset_equals_dense_when_identity(self):
        dense = DenseRangeSource(10, 3)
        subset = SubsetSource(np.arange(10), 3)
        assert subset.total == dense.total
        np.testing.assert_array_equal(
            subset.materialize(0, subset.total), dense.materialize(0, dense.total)
        )

    def test_materialize_range_validation(self):
        source = DenseRangeSource(8, 2)
        with pytest.raises(ValueError, match="invalid item range"):
            source.materialize(0, source.total + 1)

    def test_subset_too_small_for_order(self):
        with pytest.raises(ValueError, match="cannot form"):
            SubsetSource(np.array([1, 2]), 3)


class TestPlanWithSource:
    def test_total_derived_from_source(self):
        plan = ExecutionPlan(source=DenseRangeSource(9, 3))
        assert plan.total == combination_count(9, 3)

    def test_plan_needs_a_source(self):
        with pytest.raises(TypeError, match="source"):
            ExecutionPlan()


class TestPolicyConfigureSource:
    """The detector prices a CARM split on each search's own shape."""

    def test_carm_sees_effective_universe(self, small_dataset):
        policy = EpistasisDetector(schedule="carm")._build_policy(
            small_dataset, SubsetSource(np.arange(0, 40, 3), 4)
        )
        assert policy.n_snps == 14  # len(range(0, 40, 3))
        assert policy.n_samples == small_dataset.n_samples
        assert policy.order == 4

    def test_default_snps_fallback(self, small_dataset):
        source = ExplicitCombinationSource(np.zeros((0, 2), dtype=np.int64))
        policy = EpistasisDetector(schedule="carm")._build_policy(small_dataset, source)
        assert policy.n_snps == small_dataset.n_snps
        assert policy.order == 2


class TestDetectCandidates:
    """Engine runs over every geometry must agree with dense enumeration."""

    @pytest.fixture(scope="class")
    def detector(self):
        return EpistasisDetector(approach="cpu-v4", top_k=8)

    def test_explicit_ranks_match_dense_scores(self, small_dataset, detector):
        n = small_dataset.n_snps
        dense = detector.detect(small_dataset)
        ranks = np.arange(combination_count(n, 3), dtype=np.int64)
        explicit = detector.detect_candidates(
            small_dataset, ExplicitRankSource(ranks, n_snps=n, order=3)
        )
        assert [(i.snps, i.score) for i in explicit.top] == [
            (i.snps, i.score) for i in dense.top
        ]

    def test_subset_identity_matches_dense(self, small_dataset, detector):
        n = small_dataset.n_snps
        dense = detector.detect(small_dataset)
        subset = detector.detect_candidates(
            small_dataset, SubsetSource(np.arange(n), 3)
        )
        assert [(i.snps, i.score) for i in subset.top] == [
            (i.snps, i.score) for i in dense.top
        ]

    @pytest.mark.parametrize(
        "devices,schedule,workers",
        [(None, "dynamic", 1), ("cpu+gpu", "carm", 2)],
    )
    def test_subset_restriction_matches_filtered_oracle(
        self, small_dataset, devices, schedule, workers
    ):
        """Subset sweep == dense sweep filtered to combos inside the subset,
        under both a single-device plan and a heterogeneous CARM plan."""
        keep = np.array([0, 2, 5, 7, 9, 12, 15, 18, 21, 23])
        detector = EpistasisDetector(
            approach="cpu-v4",
            top_k=6,
            devices=devices,
            schedule=schedule,
            n_workers=workers,
        )
        subset_run = detector.detect_candidates(
            small_dataset, SubsetSource(keep, 3)
        )
        combos = np.array(list(itertools.combinations(keep.tolist(), 3)))
        oracle_scores = EpistasisDetector(approach="cpu-v1").score_combinations(
            small_dataset, combos
        )
        order = np.argsort(oracle_scores, kind="stable")[:6]
        expected = [
            (tuple(int(s) for s in combos[i]), float(oracle_scores[i]))
            for i in order
        ]
        assert [(i.snps, i.score) for i in subset_run.top] == expected

    def test_candidates_description_in_stats(self, small_dataset, detector):
        run = detector.detect_candidates(
            small_dataset, SubsetSource(np.arange(0, 24, 2), 3)
        )
        assert "subset" in run.stats.extra["candidates"]
        assert run.stats.extra["order"] == 3

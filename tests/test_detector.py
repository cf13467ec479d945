"""Tests of the EpistasisDetector public API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EpistasisDetector
from repro.core.approaches import get_approach
from repro.core.combinations import generate_combinations
from repro.core.contingency import contingency_oracle_many
from repro.core.detector import DetectorConfig
from repro.core.scoring import K2Score
from tests.conftest import PLANTED_TRIPLET


class TestConfig:
    def test_defaults(self):
        cfg = DetectorConfig()
        assert cfg.approach == "cpu-v4"
        assert cfg.order == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(order=1)
        with pytest.raises(ValueError):
            DetectorConfig(order=6)
        assert DetectorConfig(order=2).order == 2
        assert DetectorConfig(order=5).order == 5
        with pytest.raises(ValueError):
            DetectorConfig(n_workers=0)
        with pytest.raises(ValueError):
            DetectorConfig(chunk_size=0)
        with pytest.raises(ValueError):
            DetectorConfig(top_k=0)


class TestLowLevelEntryPoints:
    def test_build_tables_matches_oracle(self, small_dataset):
        detector = EpistasisDetector(approach="cpu-v3", validate=True)
        combos = generate_combinations(small_dataset.n_snps, 3)[:64]
        tables = detector.build_tables(small_dataset, combos)
        oracle = contingency_oracle_many(
            small_dataset.genotypes, small_dataset.phenotypes, combos
        )
        assert np.array_equal(tables, oracle)

    def test_score_combinations(self, small_dataset):
        detector = EpistasisDetector(approach="cpu-v2")
        combos = generate_combinations(small_dataset.n_snps, 3)[:16]
        scores = detector.score_combinations(small_dataset, combos)
        oracle = contingency_oracle_many(
            small_dataset.genotypes, small_dataset.phenotypes, combos
        )
        assert np.allclose(scores, K2Score().score(oracle))


class TestDetection:
    def test_recovers_planted_interaction(self, planted_dataset):
        result = EpistasisDetector(approach="cpu-v4", top_k=5).detect(planted_dataset)
        assert tuple(sorted(result.best_snps)) == PLANTED_TRIPLET or result.contains(
            PLANTED_TRIPLET
        )

    def test_all_workers_agree(self, small_dataset):
        single = EpistasisDetector(approach="cpu-v4", n_workers=1).detect(small_dataset)
        multi = EpistasisDetector(approach="cpu-v4", n_workers=3, chunk_size=256).detect(
            small_dataset
        )
        assert single.best_snps == multi.best_snps
        assert single.best_score == pytest.approx(multi.best_score)
        assert [i.snps for i in single.top] == [i.snps for i in multi.top]

    @pytest.mark.parametrize("approach", ["cpu-v1", "cpu-v2", "gpu-v3", "gpu-v4"])
    def test_all_approaches_find_same_best(self, small_dataset, approach):
        reference = EpistasisDetector(approach="cpu-v4").detect(small_dataset)
        other = EpistasisDetector(approach=approach).detect(small_dataset)
        assert other.best_snps == reference.best_snps
        assert other.best_score == pytest.approx(reference.best_score)

    def test_objective_selection_changes_scores(self, small_dataset):
        k2 = EpistasisDetector(approach="cpu-v2", objective="k2").detect(small_dataset)
        mi = EpistasisDetector(approach="cpu-v2", objective="mutual-information").detect(
            small_dataset
        )
        assert k2.stats.n_combinations == mi.stats.n_combinations
        assert k2.best_score != pytest.approx(mi.best_score)

    def test_stats_contents(self, small_dataset):
        result = EpistasisDetector(approach="cpu-v4", n_workers=2, chunk_size=512).detect(
            small_dataset
        )
        stats = result.stats
        assert stats.approach == "cpu-v4"
        assert stats.n_combinations == small_dataset.n_combinations(3)
        assert stats.n_samples == small_dataset.n_samples
        assert stats.elapsed_seconds > 0
        assert stats.elements_per_second > 0
        assert stats.n_workers == 2
        assert stats.op_counts.get("VAND", 0) > 0
        assert stats.extra["isa"] == "avx512-vpopcnt"

    @pytest.mark.parametrize(
        "approach, n_workers, run_counter",
        [
            ("cpu-v4", 1, "sample_chunk_passes"),
            ("gpu-v4", 1, "warp_load_requests"),
            # Two threads: the run counter covers the prototype's share of
            # the chunks only, which varies; the merged op counts do not.
            ("cpu-v3", 2, None),
        ],
    )
    def test_repeated_detect_reports_per_call_stats(
        self, small_dataset, approach, n_workers, run_counter
    ):
        detector = EpistasisDetector(approach=approach, n_workers=n_workers)
        first, second = (detector.detect(small_dataset).stats for _ in range(2))
        assert first.total_ops > 0
        assert second.op_counts == first.op_counts
        assert second.bytes_loaded == first.bytes_loaded
        assert second.bytes_stored == first.bytes_stored
        if run_counter is not None:
            assert second.extra[run_counter] == first.extra[run_counter] > 0

    def test_validate_mode(self, small_dataset):
        result = EpistasisDetector(approach="cpu-v2", validate=True).detect(small_dataset)
        assert result.best_score == pytest.approx(
            EpistasisDetector(approach="cpu-v2").detect(small_dataset).best_score
        )

    def test_top_k_ordering(self, small_dataset):
        result = EpistasisDetector(approach="cpu-v2", top_k=8).detect(small_dataset)
        scores = [i.score for i in result.top]
        assert scores == sorted(scores)
        assert len(result.top) == 8
        assert result.best == result.top[0]

    def test_custom_approach_instance(self, small_dataset):
        approach = get_approach("cpu-v4", isa="avx2-256")
        result = EpistasisDetector(approach=approach).detect(small_dataset)
        assert result.stats.extra["isa"] == "avx2-256"

    def test_approach_kwargs_forwarded(self, small_dataset):
        result = EpistasisDetector(approach="gpu-v4", block_size=8).detect(small_dataset)
        assert result.stats.extra["block_size"] == 8

    def test_too_few_snps_rejected(self, tiny_dataset):
        detector = EpistasisDetector()
        with pytest.raises(ValueError):
            detector.detect(tiny_dataset.subset_snps([0, 1]))

    def test_dataset_with_exactly_three_snps(self, tiny_dataset):
        ds = tiny_dataset.subset_snps([0, 1, 2])
        result = EpistasisDetector(approach="cpu-v2").detect(ds)
        assert result.best_snps == (0, 1, 2)
        assert result.stats.n_combinations == 1

    def test_small_chunk_size(self, small_dataset):
        result = EpistasisDetector(approach="cpu-v2", chunk_size=7).detect(small_dataset)
        assert result.stats.n_combinations == small_dataset.n_combinations(3)

"""Tests of the baselines: brute-force oracle, MPI3SNP re-implementation,
published state-of-the-art figures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BruteForceReference,
    Mpi3snpBaseline,
    REPORTED_RESULTS,
    estimate_mpi3snp_throughput,
    reported_throughput,
)
from repro.baselines.reported import paper_speedup
from repro.core import EpistasisDetector
from repro.datasets import generate_null_dataset
from repro.devices import cpu, gpu
from repro.telemetry import finish_run, start_run
from tests.conftest import PLANTED_TRIPLET


class TestBruteForceReference:
    def test_agrees_with_detector(self, small_dataset):
        reference = BruteForceReference(top_k=5)
        fast = EpistasisDetector(approach="cpu-v4", top_k=5)
        ref_result = reference.detect(small_dataset)
        fast_result = fast.detect(small_dataset)
        assert ref_result.best_snps == fast_result.best_snps
        assert ref_result.best_score == pytest.approx(fast_result.best_score)
        assert [i.snps for i in ref_result.top] == [i.snps for i in fast_result.top]

    def test_score_single_combination(self, small_dataset):
        reference = BruteForceReference()
        score = reference.score_combination(small_dataset, (0, 1, 2))
        fast = EpistasisDetector(approach="cpu-v2")
        assert score == pytest.approx(
            float(fast.score_combinations(small_dataset, np.array([[0, 1, 2]]))[0])
        )

    def test_supports_second_order(self, tiny_dataset):
        reference = BruteForceReference(order=2)
        result = reference.detect(tiny_dataset)
        assert len(result.best_snps) == 2
        assert result.stats.n_combinations == tiny_dataset.n_combinations(2)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            BruteForceReference(order=1)


class TestMpi3snpBaseline:
    def test_agrees_with_best_approach(self, small_dataset):
        baseline = Mpi3snpBaseline(n_ranks=3, chunk_size=512)
        ours = EpistasisDetector(approach="cpu-v4")
        assert baseline.detect(small_dataset).best_snps == ours.detect(small_dataset).best_snps

    def test_recovers_planted_interaction(self, planted_dataset):
        result = Mpi3snpBaseline(n_ranks=2).detect(planted_dataset)
        assert tuple(sorted(result.best_snps)) == PLANTED_TRIPLET or result.contains(
            PLANTED_TRIPLET
        )

    def test_static_partitioning_recorded(self, small_dataset):
        result = Mpi3snpBaseline(n_ranks=4).detect(small_dataset)
        assert result.stats.extra["partitioning"] == "static"
        assert result.stats.extra["ranks"] == 4
        assert result.stats.n_workers == 4

    def test_load_imbalance_of_the_static_partition(self):
        # C(5, 2) = 10 pairs over 3 ranks: spans of 4, 3 and 3.
        dataset = generate_null_dataset(5, 64, seed=3)
        result = Mpi3snpBaseline(n_ranks=3, order=2).detect(dataset)
        assert result.stats.extra["load_imbalance"] == pytest.approx(4 / (10 / 3))

    def test_each_thread_rank_sweeps_its_static_span(self):
        # C(8, 2) = 28 pairs over 3 ranks: spans of 10, 9 and 9, each cut
        # into 3 claims of at most 4.  Thread i must sweep rank i's span
        # alone — no stealing between ranks.
        dataset = generate_null_dataset(8, 64, seed=3)
        run = start_run("full")
        try:
            Mpi3snpBaseline(n_ranks=3, order=2, chunk_size=4).detect(dataset)
        finally:
            finish_run(run)
        ranks = sorted(
            (span.attrs["worker_id"], span.attrs["items"], span.attrs["chunks"])
            for span in run.tracer.spans
            if span.name == "device.run"
        )
        assert ranks == [(0, 10, 3), (1, 9, 3), (2, 9, 3)]

    def test_rank_count_validation(self):
        with pytest.raises(ValueError):
            Mpi3snpBaseline(n_ranks=0)

    def test_repeated_detect_reports_per_call_stats(self):
        dataset = generate_null_dataset(12, 256, seed=5)
        baseline = Mpi3snpBaseline(n_ranks=2, chunk_size=64)
        first = baseline.detect(dataset).stats
        second = baseline.detect(dataset).stats
        assert sum(first.op_counts.values()) > 0
        assert second.op_counts == first.op_counts
        assert second.bytes_loaded == first.bytes_loaded
        assert second.bytes_stored == first.bytes_stored

    def test_single_rank(self, tiny_dataset):
        result = Mpi3snpBaseline(n_ranks=1).detect(tiny_dataset)
        assert result.stats.n_combinations == tiny_dataset.n_combinations(3)

    @pytest.mark.parametrize("order", [2, 4])
    def test_other_orders_agree_with_detector(self, small_dataset, order):
        baseline = Mpi3snpBaseline(n_ranks=3, chunk_size=256, order=order)
        ours = EpistasisDetector(approach="cpu-v2", order=order)
        theirs = baseline.detect(small_dataset)
        assert theirs.best_snps == ours.detect(small_dataset).best_snps
        assert theirs.stats.extra["order"] == order
        assert theirs.stats.n_combinations == small_dataset.n_combinations(order)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            Mpi3snpBaseline(order=1)
        with pytest.raises(ValueError):
            Mpi3snpBaseline(order=6)


class TestMpi3snpThroughputModel:
    def test_cpu_slower_than_this_work(self):
        from repro.perfmodel import estimate_cpu

        for key in ("CI3", "CA2", "CI1"):
            spec = cpu(key)
            baseline = estimate_mpi3snp_throughput(spec, 10000, 1600)
            ours = estimate_cpu(spec, 4, n_snps=10000, n_samples=1600).elements_per_second_total
            assert ours > baseline

    def test_gpu_gap_grows_with_snps(self):
        spec = gpu("GN2")
        small = estimate_mpi3snp_throughput(spec, 10000, 1600)
        large = estimate_mpi3snp_throughput(spec, 40000, 6400)
        from repro.perfmodel import estimate_gpu

        ours_small = estimate_gpu(spec, 4, n_snps=10000, n_samples=1600).elements_per_second_total
        ours_large = estimate_gpu(spec, 4, n_snps=40000, n_samples=6400).elements_per_second_total
        assert ours_large / large > ours_small / small


class TestReportedResults:
    def test_table3_row_count(self):
        assert len(REPORTED_RESULTS) == 15

    def test_lookup(self):
        row = reported_throughput("mpi3snp", "CI3", 10000, 1600)
        assert row is not None
        assert row.speedup == pytest.approx(5.78)
        assert reported_throughput("mpi3snp", "CI3", 123, 456) is None

    def test_paper_speedups(self):
        assert paper_speedup("campos2020", "GI1", 1000, 4000) == pytest.approx(10.56)
        assert paper_speedup("nobre2020", "GA2", 8000, 8000) is None

    def test_baselines_named_consistently(self):
        assert {r.baseline for r in REPORTED_RESULTS} == {
            "mpi3snp", "nobre2020", "campos2020"
        }

    def test_devices_exist_in_catalog(self):
        from repro.devices import device

        for row in REPORTED_RESULTS:
            assert device(row.device) is not None

"""Budget-sized engine claims.

An unset ``chunk_size`` (the default) lets each search size its claims —
the rank ranges a worker takes from the scheduler in one step — from the
kernel byte budget and the search's order
(:func:`repro.core.approaches._kernels.claim_combos`), capped so that every
thread of a multi-threaded plan gets several.  Claims only regroup work
(every answer bit of every claim size is drawn by ``tests/test_oracle.py``),
and explicit integers and ``"auto"`` keep their meaning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EpistasisDetector
from repro.core.approaches import _kernels
from repro.core.approaches._kernels import claim_bytes, claim_combos
from repro.core.detector import CLAIMS_PER_THREAD, DetectorConfig
from repro.datasets import generate_null_dataset
from repro.engine import (
    DenseRangeSource,
    EngineDevice,
    ExecutionPlan,
    HeterogeneousExecutor,
)

#: Per order, a dataset whose search spans several claims of one size and
#: not of the other (default vs 2048).
SIZES = {2: (80, 128), 3: (24, 384), 4: (20, 128), 5: (14, 128)}


@pytest.fixture(scope="module")
def datasets():
    return {
        order: generate_null_dataset(n_snps, n_samples, seed=40 + order)
        for order, (n_snps, n_samples) in SIZES.items()
    }


def _answer(result):
    return [(item.snps, float(item.score).hex()) for item in result.top]


def _chunks(result):
    return sum(entry["chunks"] for entry in result.stats.extra["devices"].values())


class TestClaimModel:
    def test_claims_per_order(self):
        assert [claim_combos(k) for k in range(2, 6)] == [5461, 1820, 606, 202]

    def test_claim_holds_an_eighth_of_the_budget(self):
        for k in range(2, 6):
            eighth = _kernels.KERNEL_BUDGET_BYTES // 8
            assert claim_combos(k) * claim_bytes(k) <= eighth
            assert (claim_combos(k) + 1) * claim_bytes(k) > eighth

    def test_follows_the_budget(self, monkeypatch):
        monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", 8 * claim_bytes(3) * 10)
        assert claim_combos(3) == 10
        monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", 1)
        assert claim_combos(2) == 1


class TestDetectorClaims:
    def test_unset_by_default(self):
        assert DetectorConfig().chunk_size is None
        assert EngineDevice().chunk_size is None

    def test_single_thread_takes_budget_claims_of_the_source_order(self):
        detector = EpistasisDetector(order=3)
        (lane,) = detector.engine_devices(DenseRangeSource(60, 3))
        assert lane.chunk_size == claim_combos(3)
        (lane,) = detector.engine_devices(DenseRangeSource(60, 2))
        assert lane.chunk_size == claim_combos(2)
        (lane,) = detector.engine_devices()
        assert lane.chunk_size == claim_combos(3)

    def test_threads_get_several_claims(self):
        detector = EpistasisDetector(order=3, n_workers=4)
        (lane,) = detector.engine_devices(DenseRangeSource(40, 3))
        assert lane.chunk_size == -(-9880 // (CLAIMS_PER_THREAD * 4))
        (lane,) = detector.engine_devices(DenseRangeSource(400, 3))
        assert lane.chunk_size == claim_combos(3)

    def test_heterogeneous_lanes_count_every_thread(self):
        detector = EpistasisDetector(order=2, n_workers=2, devices="cpu+gpu")
        lanes = detector.engine_devices(DenseRangeSource(100, 2))
        assert [lane.chunk_size for lane in lanes] == [-(-4950 // (CLAIMS_PER_THREAD * 3))] * 2

    @pytest.mark.parametrize("chunk", [7, 2048, "auto"])
    def test_explicit_values_keep_their_meaning(self, chunk):
        detector = EpistasisDetector(order=3, n_workers=4, chunk_size=chunk)
        lanes = detector.engine_devices(DenseRangeSource(40, 3))
        assert [lane.chunk_size for lane in lanes] == [chunk]

    @pytest.mark.parametrize("chunk", [7, 2048])
    def test_explicit_integers_make_todays_claims(self, datasets, chunk):
        dataset = datasets[4]
        result = EpistasisDetector(approach="cpu-v2", order=4, chunk_size=chunk).detect(dataset)
        assert _chunks(result) == -(-4845 // chunk)

    def test_default_claims(self, datasets):
        result = EpistasisDetector(approach="cpu-v2", order=4).detect(datasets[4])
        assert _chunks(result) == -(-4845 // claim_combos(4))

    def test_auto_still_tunes(self, datasets):
        dataset = datasets[3]
        auto = EpistasisDetector(approach="cpu-v4", order=3, chunk_size="auto").detect(dataset)
        assert "autotune" in auto.stats.extra["devices"]["cpu"]
        default = EpistasisDetector(approach="cpu-v4", order=3).detect(dataset)
        assert "autotune" not in default.stats.extra["devices"]["cpu"]
        assert _answer(auto) == _answer(default)

    def test_each_of_four_threads_claims(self):
        dataset = generate_null_dataset(50, 512, seed=77)
        detector = EpistasisDetector(approach="cpu-v4", order=3, n_workers=4)
        source = DenseRangeSource(50, 3)
        (lane,) = detector.engine_devices(source)
        assert -(-source.total // lane.chunk_size) == CLAIMS_PER_THREAD * 4
        claimed = []
        detector.detect_candidates(
            dataset, source, observe=lambda worker, combos, scores: claimed.append(worker.worker_id)
        )
        assert sorted(set(claimed)) == [0, 1, 2, 3]

    def test_plan_rejects_unset_lanes(self):
        plan = ExecutionPlan(source=DenseRangeSource(9, 3))
        with pytest.raises(ValueError, match="chunk_size"):
            HeterogeneousExecutor(plan).run(
                lambda device, worker_id: None,
                scorer=lambda worker, combos: np.zeros(len(combos)),
            )


class TestDefaultClaimsCutOtherRanks:
    """Each fixture spans several claims of one size and not of the other,
    so default claims cut the search at other ranks than 2048 does; that
    both cuts rank alike is drawn by ``tests/test_oracle.py``."""

    @pytest.mark.parametrize("order", sorted(SIZES))
    def test_default_and_2048_claims_differ(self, datasets, order):
        dataset = datasets[order]
        default = EpistasisDetector(approach="cpu-v2", order=order).detect(dataset)
        fixed = EpistasisDetector(approach="cpu-v2", order=order, chunk_size=2048).detect(dataset)
        assert _chunks(default) != _chunks(fixed)

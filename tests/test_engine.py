"""Tests of the unified heterogeneous execution engine."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EpistasisDetector
from repro.engine import (
    CancellationToken,
    CarmRatioPolicy,
    DenseRangeSource,
    DynamicPolicy,
    EngineDevice,
    ExecutionPlan,
    ExplicitCombinationSource,
    GuidedChunkSource,
    GuidedPolicy,
    HeterogeneousExecutor,
    SharedCursor,
    StaticPolicy,
    TopKHeap,
    get_policy,
    list_policies,
    parse_devices,
)
from tests.conftest import PLANTED_TRIPLET


def _drain_concurrently(sources, n_threads: int):
    """Pull ranges from shared sources with ``n_threads`` threads."""
    seen: list[tuple[int, int]] = []
    lock = threading.Lock()

    def worker(source):
        while True:
            r = source.next_range()
            if r is None:
                return
            with lock:
                seen.append(r)

    threads = [
        threading.Thread(target=worker, args=(sources[i % len(sources)],))
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return seen


def _assert_exact_cover(ranges, total):
    items = sorted(i for start, stop in ranges for i in range(start, stop))
    assert items == list(range(total)), "ranges must cover [0, total) exactly once"


class TestPolicyCoverage:
    """Each policy must hand out every rank exactly once — no gaps, no overlaps."""

    def test_dynamic_eight_threads_exactly_once(self):
        policy = DynamicPolicy()
        devices = [EngineDevice(kind="cpu", n_workers=8, chunk_size=13)]
        [assignment] = policy.assign(10_000, devices)
        assert len(assignment.sources) == 8
        seen = _drain_concurrently(assignment.sources, 8)
        _assert_exact_cover(seen, 10_000)

    def test_dynamic_lanes_claim_their_own_chunk_size(self):
        devices = [
            EngineDevice(kind="cpu", n_workers=1, chunk_size=512),
            EngineDevice(kind="gpu", n_workers=1, chunk_size=4096),
        ]
        cpu, gpu = (a.sources[0] for a in DynamicPolicy().assign(10_000, devices))
        assert cpu.next_range() == (0, 512)
        assert gpu.next_range() == (512, 4608)

    def test_guided_claims(self):
        # max(min_chunk, remaining // (2 * n_workers)), the last one cut short.
        devices = [EngineDevice(kind="cpu", n_workers=2, chunk_size=100)]
        [assignment] = GuidedPolicy().assign(1000, devices)
        source = assignment.sources[0]
        assert list(iter(source.next_range, None)) == [
            (0, 250), (250, 437), (437, 577), (577, 682),
            (682, 782), (782, 882), (882, 982), (982, 1000),
        ]

    def test_guided_eight_threads_exactly_once(self):
        policy = GuidedPolicy()
        devices = [EngineDevice(kind="cpu", n_workers=8, chunk_size=7)]
        [assignment] = policy.assign(10_000, devices)
        seen = _drain_concurrently(assignment.sources, 8)
        _assert_exact_cover(seen, 10_000)

    def test_static_covers_without_gaps(self):
        policy = StaticPolicy()
        devices = [
            EngineDevice(kind="cpu", n_workers=3, chunk_size=17),
            EngineDevice(kind="gpu", n_workers=2, chunk_size=29),
        ]
        assignments = policy.assign(1003, devices)
        ranges = []
        for assignment in assignments:
            for source in assignment.sources:
                while True:
                    r = source.next_range()
                    if r is None:
                        break
                    ranges.append(r)
        _assert_exact_cover(ranges, 1003)
        assert sum(a.planned_items for a in assignments) == 1003

    def test_carm_covers_without_gaps(self):
        policy = CarmRatioPolicy()
        devices = [
            EngineDevice(kind="cpu", n_workers=2, chunk_size=11),
            EngineDevice(kind="gpu", n_workers=1, chunk_size=23),
        ]
        assignments = policy.assign(577, devices)
        ranges = []
        for assignment in assignments:
            # Sources are shared per lane; drain the lane's first source.
            source = assignment.sources[0]
            while True:
                r = source.next_range()
                if r is None:
                    break
                ranges.append(r)
        _assert_exact_cover(ranges, 577)
        assert sum(a.planned_items for a in assignments) == 577

    @given(
        total=st.integers(min_value=0, max_value=5000),
        min_chunk=st.integers(min_value=1, max_value=300),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40)
    def test_guided_partitions_range(self, total, min_chunk, workers):
        source = GuidedChunkSource(SharedCursor(total), workers, min_chunk)
        chunks = list(iter(source.next_range, None))
        assert sum(stop - start for start, stop in chunks) == total
        for (s1, e1), (s2, e2) in zip(chunks, chunks[1:]):
            assert e1 == s2
        # Guided chunks never grow (monotone non-increasing decay).
        sizes = [stop - start for start, stop in chunks]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestCarmRatioPolicy:
    def test_explicit_ratios(self):
        policy = CarmRatioPolicy(ratios=[3, 1])
        devices = [EngineDevice(kind="cpu"), EngineDevice(kind="gpu")]
        assert policy.shares(400, devices) == [300, 100]

    def test_shares_follow_model_throughput(self):
        # The modelled Titan Xp (GN4) is far faster than the Ice Lake SP
        # CPU (CI3), so the GPU lane must receive the larger share.
        policy = CarmRatioPolicy()
        policy.configure(n_snps=4096, n_samples=4096)
        devices = [EngineDevice(kind="cpu"), EngineDevice(kind="gpu")]
        cpu_share, gpu_share = policy.shares(100_000, devices)
        assert cpu_share + gpu_share == 100_000
        assert gpu_share > cpu_share

    def test_ratio_validation(self):
        policy = CarmRatioPolicy(ratios=[1])
        with pytest.raises(ValueError):
            policy.shares(10, [EngineDevice(kind="cpu"), EngineDevice(kind="gpu")])
        with pytest.raises(ValueError):
            CarmRatioPolicy(ratios=[0, 0]).shares(10, [EngineDevice(), EngineDevice(kind="gpu")])

    def test_configure_late_binds_shape(self):
        # Late-bound shapes follow each dataset (a reused instance rebinds).
        policy = CarmRatioPolicy()
        policy.configure(n_snps=1024, n_samples=512)
        assert (policy.n_snps, policy.n_samples) == (1024, 512)
        policy.configure(n_snps=9, n_samples=9)
        assert (policy.n_snps, policy.n_samples) == (9, 9)

    def test_configure_late_binds_order(self):
        policy = CarmRatioPolicy()
        assert policy.order == 3  # the paper's default
        policy.configure(n_snps=1024, n_samples=512, order=4)
        assert policy.order == 4

    def test_shares_depend_on_order(self):
        """The split is recomputed from order-aware model throughputs."""
        devices = [EngineDevice(kind="cpu"), EngineDevice(kind="gpu")]
        shares = {}
        for order in (2, 4):
            policy = CarmRatioPolicy()
            policy.configure(n_snps=4096, n_samples=4096, order=order)
            shares[order] = policy.shares(100_000, devices)
        for order, (cpu_share, gpu_share) in shares.items():
            assert cpu_share + gpu_share == 100_000
            assert gpu_share > cpu_share


class TestPolicyRegistry:
    def test_names(self):
        assert list_policies() == ["carm", "dynamic", "guided", "static"]

    def test_aliases_and_instances(self):
        assert get_policy("carm-ratio").name == "carm"
        policy = StaticPolicy()
        assert get_policy(policy) is policy

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_policy("round-robin")


class TestPlan:
    def test_parse_devices(self):
        lanes = parse_devices("cpu+gpu", n_workers=4, chunk_size=512)
        assert [d.kind for d in lanes] == ["cpu", "gpu"]
        assert [d.n_workers for d in lanes] == [4, 1]
        assert all(d.chunk_size == 512 for d in lanes)

    def test_parse_devices_invalid(self):
        with pytest.raises(ValueError):
            parse_devices("cpu+tpu")
        with pytest.raises(ValueError):
            parse_devices("cpu+cpu")
        with pytest.raises(ValueError):
            parse_devices("")

    def test_plan_validation(self):
        source = DenseRangeSource(5, 2)
        with pytest.raises(ValueError):
            ExecutionPlan(source=source, devices=[])
        with pytest.raises(ValueError):
            ExecutionPlan(source=source, top_k=0)
        with pytest.raises(ValueError):
            EngineDevice(kind="fpga")

    def test_default_policy_and_labels(self):
        plan = ExecutionPlan(source=DenseRangeSource(5, 2), devices=parse_devices("cpu+gpu"))
        assert plan.policy.name == "dynamic"
        assert plan.device_labels() == ["cpu", "gpu"]
        assert plan.total_workers == 2
        assert plan.total == 10


class TestTopKHeap:
    def test_matches_global_sort(self, rng):
        heap = TopKHeap(5)
        scores = rng.normal(size=200)
        combos = np.stack([np.arange(200), np.arange(200) + 500], axis=1)
        for start in range(0, 200, 17):
            heap.push_batch(combos[start : start + 17], scores[start : start + 17])
        expected = np.argsort(scores, kind="stable")[:5]
        assert [i.snps[0] for i in heap.items] == [int(i) for i in expected]
        assert len(heap) == 5

    def test_bounded(self):
        heap = TopKHeap(3)
        heap.push_batch(np.arange(10)[:, None], np.arange(10, dtype=float))
        assert len(heap.items) == 3

    def test_items_ordered_by_score_then_snps(self):
        # Tied scores select (and order) by the combination tuple — the
        # global combination rank — not by position within the chunk, so
        # chunk/shard boundaries can never change which ties survive.
        heap = TopKHeap(2)
        heap.push_batch(np.array([[5], [1], [3]]), np.zeros(3))
        assert [i.snps for i in heap.items] == [(1,), (3,)]

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKHeap(0)
        with pytest.raises(ValueError):
            TopKHeap(1).push_batch(np.zeros((2, 1)), np.zeros(3))


def _identity_scorer(worker, combos):
    return combos[:, 0].astype(float)


def _items(total):
    """Work item ``i`` is the one-SNP combination ``(i,)``, scoring ``i``."""
    return ExplicitCombinationSource(np.arange(total)[:, None])


class TestHeterogeneousExecutor:
    def _plan(self, total=1000, policy=None, **kwargs):
        return ExecutionPlan(
            source=_items(total),
            devices=[EngineDevice(kind="cpu", n_workers=4, chunk_size=37)],
            policy=policy or DynamicPolicy(),
            **kwargs,
        )

    def test_covers_everything(self):
        result = HeterogeneousExecutor(self._plan(top_k=3)).run(
            lambda device, worker_id: None, _identity_scorer
        )
        assert result.n_items == 1000
        assert [i.snps for i in result.top] == [(0,), (1,), (2,)]
        assert not result.cancelled
        assert result.best.score == 0.0

    def test_device_stats(self):
        result = HeterogeneousExecutor(self._plan()).run(
            lambda device, worker_id: None, _identity_scorer
        )
        stats = result.device_stats["cpu"]
        assert stats["workers"] == 4
        assert stats["items"] == 1000
        assert stats["chunks"] == (1000 + 36) // 37
        assert 0.0 <= stats["utilization"] <= 1.0
        assert stats["share"] == pytest.approx(1.0)

    def test_pre_cancelled_runs_nothing(self):
        cancel = CancellationToken()
        cancel.cancel()
        result = HeterogeneousExecutor(self._plan(), cancel=cancel).run(
            lambda device, worker_id: None, _identity_scorer
        )
        assert result.cancelled
        assert result.n_items == 0
        assert result.top == []

    def test_mid_run_cancellation(self):
        cancel = CancellationToken()

        def scorer(worker, combos):
            if combos[0, 0] >= 500:
                cancel.cancel()
            return _identity_scorer(worker, combos)

        plan = ExecutionPlan(
            source=_items(100_000),
            devices=[EngineDevice(kind="cpu", n_workers=1, chunk_size=100)],
            policy=DynamicPolicy(),
        )
        result = HeterogeneousExecutor(plan, cancel=cancel).run(
            lambda device, worker_id: None, scorer
        )
        assert result.cancelled
        assert 0 < result.n_items < 100_000

    def test_worker_exception_carries_worker_id(self):
        def scorer(worker, combos):
            raise RuntimeError("kernel exploded")

        with pytest.raises(RuntimeError, match="kernel exploded") as excinfo:
            HeterogeneousExecutor(self._plan()).run(
                lambda device, worker_id: None, scorer
            )
        assert hasattr(excinfo.value, "worker_id")
        assert excinfo.value.device_label == "cpu"

    def test_worker_exception_cancels_siblings(self):
        plan = ExecutionPlan(
            source=_items(1_000_000),
            devices=[EngineDevice(kind="cpu", n_workers=4, chunk_size=10)],
            policy=DynamicPolicy(),
        )
        executor = HeterogeneousExecutor(plan)

        def scorer(worker, combos):
            if combos[0, 0] >= 100:
                raise RuntimeError("stop the fleet")
            return _identity_scorer(worker, combos)

        with pytest.raises(RuntimeError):
            executor.run(lambda device, worker_id: None, scorer)
        assert executor.cancel.cancelled

    def test_progress_monotone_and_complete(self):
        calls: list[tuple[int, int]] = []
        HeterogeneousExecutor(self._plan()).run(
            lambda device, worker_id: None,
            _identity_scorer,
            progress=lambda done, total: calls.append((done, total)),
        )
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)
        assert dones[-1] == 1000
        assert all(t == 1000 for _, t in calls)

    def test_worker_factory_receives_ids(self):
        ids: list[int] = []

        def factory(device, worker_id):
            ids.append(worker_id)
            return worker_id

        HeterogeneousExecutor(self._plan()).run(factory, _identity_scorer)
        assert ids == [0, 1, 2, 3]


class TestDetectorOnEngine:
    """Device lanes and their statistics; that every schedule/device plan
    ranks what brute force ranks is drawn by ``tests/test_oracle.py``."""

    def test_heterogeneous_carm_lanes(self, planted_dataset):
        het = EpistasisDetector(
            approach="cpu-v4",
            devices="cpu+gpu",
            schedule="carm",
            n_workers=2,
            chunk_size=256,
            top_k=5,
        ).detect(planted_dataset)
        assert tuple(sorted(het.best_snps)) == PLANTED_TRIPLET

        devices = het.stats.extra["devices"]
        assert set(devices) == {"cpu", "gpu"}
        assert devices["cpu"]["approach"] == "cpu-v4"
        assert devices["gpu"]["approach"] == "gpu-v4"
        for entry in devices.values():
            assert entry["chunks"] >= 1
            assert 0.0 <= entry["utilization"] <= 1.0
        assert (
            devices["cpu"]["items"] + devices["gpu"]["items"]
            == het.stats.n_combinations
        )

    def test_lane_op_counts_not_contaminated_by_global_merge(self, small_dataset):
        # The prototype (gpu-v4) sits on the *second* lane here; its lane's
        # op_counts must not absorb the cpu lane merged into the prototype
        # counter for the global statistics.
        result = EpistasisDetector(
            approach="gpu-v4", devices="cpu+gpu", schedule="static", n_workers=2
        ).detect(small_dataset)
        devices = result.stats.extra["devices"]
        lane_total = sum(
            count
            for entry in devices.values()
            for mnemonic, count in entry["op_counts"].items()
            if mnemonic not in ("LOAD", "STORE")
        )
        assert lane_total == result.stats.total_ops
        assert all(sum(e["op_counts"].values()) > 0 for e in devices.values())

    def test_gpu_single_lane(self, small_dataset):
        result = EpistasisDetector(approach="gpu-v3", devices="gpu").detect(small_dataset)
        assert result.stats.extra["devices"]["gpu"]["kind"] == "gpu"

    def test_heterogeneous_rejects_prebuilt_instances(self, small_dataset):
        from repro.core.approaches import get_approach

        detector = EpistasisDetector(
            approach=get_approach("cpu-v2"), devices="cpu+gpu", schedule="carm"
        )
        with pytest.raises(ValueError):
            detector.detect(small_dataset)

    def test_detect_progress_and_cancel_hooks(self, small_dataset):
        seen: list[int] = []
        EpistasisDetector(approach="cpu-v2", chunk_size=512).detect(
            small_dataset, progress=lambda done, total: seen.append(done)
        )
        assert seen[-1] == small_dataset.n_combinations(3)

        cancel = CancellationToken()
        cancel.cancel()
        with pytest.raises(RuntimeError, match="cancelled"):
            EpistasisDetector(approach="cpu-v2").detect(small_dataset, cancel=cancel)

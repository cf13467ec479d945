"""Tests of repro.distributed: sharding, checkpoint/resume, deterministic merge.

The acceptance properties of the subsystem:

* shard invariance under score ties — with every score tied, the
  lexicographically smallest combinations win however the space is cut
  (bit-identity under every worker count, pool and data plane is drawn by
  ``tests/test_oracle.py``);
* crash recovery — a run killed mid-sweep leaves a consistent ledger, and
  ``resume=True`` finishes the search without re-evaluating completed
  shards, reporting the same top-k as an uninterrupted run.

Process-pool spawns are expensive, so most coverage drives the identical
shard/checkpoint/merge code path inline (``workers=1``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines.mpi3snp import Mpi3snpBaseline
from repro.core import EpistasisDetector
from repro.core.detector import DetectorConfig
from repro.datasets import PlantedInteraction, SyntheticConfig, generate_dataset
from repro.datasets.dataset import GenotypeDataset
from repro.distributed import (
    DEFAULT_SHARD_COUNT,
    CheckpointStore,
    JsonLedger,
    Shard,
    ShardPlanner,
    ShardView,
    dataset_fingerprint,
    merge_minima,
    merge_rows,
    row_sort_key,
    run_distributed,
)
from repro.engine import (
    CancellationToken,
    DenseRangeSource,
    SubsetSource,
    TopKHeap,
)
from repro.perfmodel.distributed import (
    estimate_broadcast_seconds,
    estimate_distributed_run,
    shard_imbalance,
)
from repro.pipeline import ExpandStage, PermutationStage, ScreenStage, SearchPipeline


PLANTED = (3, 11, 17)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        SyntheticConfig(
            n_snps=20,
            n_samples=256,
            interaction=PlantedInteraction(snps=PLANTED, model="xor", effect=0.9),
            seed=11,
        )
    )


@pytest.fixture(scope="module")
def tied_dataset():
    """All-zero genotypes: every combination builds the identical table.

    Every score ties, so the reported top-k is *pure* tie-breaking — the
    lexicographically smallest combinations must win no matter how the
    space is chunked or sharded.
    """
    rng = np.random.default_rng(5)
    return GenotypeDataset(
        genotypes=np.zeros((14, 64), dtype=np.int8),
        phenotypes=(rng.random(64) < 0.5).astype(np.int8),
    )


def top_items(result):
    return [(i.snps, i.score) for i in result.top]


class TestShardPlanner:
    def test_static_covers_space(self):
        shards = ShardPlanner(n_shards=7).plan(100)
        assert [s.shard_id for s in shards] == list(range(7))
        assert shards[0].start == 0 and shards[-1].stop == 100
        assert sum(s.items for s in shards) == 100
        for a, b in zip(shards, shards[1:]):
            assert a.stop == b.start

    def test_static_default_independent_of_workers(self):
        # The default cut depends on the candidate total alone, and its
        # boundaries are pinned: ledgers record them, and a resume under
        # any fleet must keep matching them.
        shards = ShardPlanner().plan(10_000)
        assert len(shards) == DEFAULT_SHARD_COUNT == 32
        assert [(s.start, s.stop) for s in shards[:2]] == [(0, 313), (313, 626)]
        assert (shards[16].start, shards[16].stop) == (5008, 5320)
        assert (shards[-1].start, shards[-1].stop) == (9688, 10_000)

    def test_small_totals_drop_empty_shards(self):
        shards = ShardPlanner(n_shards=8).plan(3)
        assert len(shards) == 3
        assert all(s.items == 1 for s in shards)

    def test_zero_total(self):
        assert ShardPlanner().plan(0) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ShardPlanner(n_shards=0)
        with pytest.raises(ValueError):
            ShardPlanner().plan(-1)


class TestShardView:
    def test_materialisation_matches_base_slice(self):
        base = DenseRangeSource(12, 3)
        view = ShardView(base, 40, 90)
        assert view.total == 50
        assert view.order == 3
        np.testing.assert_array_equal(
            view.materialize(0, 50), base.materialize(40, 90)
        )
        np.testing.assert_array_equal(
            view.materialize(5, 10), base.materialize(45, 50)
        )

    def test_subset_base_keeps_global_indices(self):
        retained = np.array([1, 4, 6, 9, 13], dtype=np.int64)
        base = SubsetSource(retained, 3)
        view = ShardView.of(base, Shard(0, 2, 8))
        combos = view.materialize(0, 6)
        assert set(combos.ravel()) <= set(retained.tolist())
        assert view.effective_snps == base.effective_snps

    def test_invalid_range(self):
        base = DenseRangeSource(10, 2)
        with pytest.raises(ValueError):
            ShardView(base, -1, 5)
        with pytest.raises(ValueError):
            ShardView(base, 0, base.total + 1)
        view = ShardView(base, 0, 5)
        with pytest.raises(ValueError):
            view.materialize(0, 6)


class TestMergeRows:
    def test_tie_break_by_combination_rank(self):
        a = [[1.0, [5, 9], None], [1.0, [0, 3], None]]
        b = [[1.0, [0, 2], None], [2.0, [0, 1], None]]
        merged = merge_rows([a, b], top_k=2)
        assert [tuple(r[1]) for r in merged] == [(0, 2), (0, 3)]

    def test_merge_matches_global_selection(self):
        rng = np.random.default_rng(3)
        rows = [
            [float(rng.integers(0, 4)), [int(i), int(i) + 1], None]
            for i in range(0, 60, 2)
        ]
        global_top = sorted(rows, key=row_sort_key)[:10]
        sharded = [rows[:10], rows[10:17], rows[17:]]
        per_shard_top = [sorted(s, key=row_sort_key)[:10] for s in sharded]
        assert merge_rows(per_shard_top, 10) == global_top

    def test_merge_minima(self):
        merged = merge_minima(
            [np.array([1.0, np.inf, 3.0]), None, np.array([2.0, 0.5, np.inf])]
        )
        np.testing.assert_array_equal(merged, [1.0, 0.5, 3.0])
        assert merge_minima([None, None]) is None

    def test_merge_minima_reads_inline_ledger_lists(self):
        # Older ledgers hold a shard's minima inline, with null for inf
        # (SNP unseen by the shard).
        merged = merge_minima([np.array([1.5, np.inf, 0.25]), [None, 2.0, None]])
        np.testing.assert_array_equal(merged, [1.5, 2.0, 0.25])


class TestTopKHeapTieBreak:
    def test_chunk_boundaries_cannot_reorder_ties(self):
        combos = np.array([[0, 5], [0, 1], [0, 4], [0, 2], [0, 3]])
        scores = np.ones(5)
        whole = TopKHeap(2)
        whole.push_batch(combos, scores)
        split = TopKHeap(2)
        split.push_batch(combos[:3], scores[:3])
        split.push_batch(combos[3:], scores[3:])
        assert [i.snps for i in whole.items] == [(0, 1), (0, 2)]
        assert [i.snps for i in split.items] == [i.snps for i in whole.items]


class TestCheckpointStore:
    def _fingerprint(self, dataset):
        return {"dataset": dataset_fingerprint(dataset), "search": {"top_k": 3}}

    def test_round_trip(self, dataset, tmp_path):
        path = tmp_path / "run.ckpt.json"
        shards = ShardPlanner(n_shards=4).plan(100)
        store = CheckpointStore(path)
        assert store.begin(self._fingerprint(dataset), shards) == {}
        store.record_shard(2, {"top": [[1.0, [0, 1, 2], None]], "n_items": 25})
        store.record_shard(0, {"top": [], "n_items": 25})
        store.write()
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert sorted(doc["shards"]) == ["0", "2"]

        fresh = CheckpointStore(path)
        restored = fresh.begin(self._fingerprint(dataset), shards, resume=True)
        assert sorted(restored) == [0, 2]
        assert restored[2]["top"][0][1] == [0, 1, 2]
        assert fresh.done_ids() == [0, 2]

    def test_resume_without_ledger_starts_fresh(self, dataset, tmp_path):
        store = CheckpointStore(tmp_path / "missing.json")
        shards = ShardPlanner(n_shards=2).plan(10)
        assert store.begin(self._fingerprint(dataset), shards, resume=True) == {}

    def test_fingerprint_mismatch_rejected(self, dataset, tmp_path):
        path = tmp_path / "run.ckpt.json"
        shards = ShardPlanner(n_shards=2).plan(10)
        CheckpointStore(path).begin(self._fingerprint(dataset), shards)
        other = CheckpointStore(path)
        with pytest.raises(ValueError, match="fingerprint"):
            other.begin({"different": True}, shards, resume=True)

    def test_shard_plan_mismatch_rejected(self, dataset, tmp_path):
        path = tmp_path / "run.ckpt.json"
        CheckpointStore(path).begin(
            self._fingerprint(dataset), ShardPlanner(n_shards=2).plan(10)
        )
        with pytest.raises(ValueError, match="shard boundaries"):
            CheckpointStore(path).begin(
                self._fingerprint(dataset),
                ShardPlanner(n_shards=5).plan(10),
                resume=True,
            )

    def test_same_shape_different_candidates_rejected(self, dataset, tmp_path):
        """Content identity: a same-sized but different subset must not splice."""
        ckpt = str(tmp_path / "subset.ckpt.json")
        config = DetectorConfig(approach="cpu-v4", top_k=3)
        subset_a = SubsetSource(np.arange(0, 10, dtype=np.int64), 3)
        subset_b = SubsetSource(np.arange(10, 20, dtype=np.int64), 3)
        run_distributed(
            dataset, subset_a, config=config, checkpoint=ckpt, shard_budget=1
        )
        with pytest.raises(ValueError, match="fingerprint"):
            run_distributed(
                dataset, subset_b, config=config, checkpoint=ckpt, resume=True
            )

    def test_state_section(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.json")
        store.begin({"f": 1}, ShardPlanner(n_shards=1).plan(5))
        store.set_state("rng", {"state": 123})
        reloaded = CheckpointStore(tmp_path / "s.json")
        reloaded.load()
        assert reloaded.get_state("rng") == {"state": 123}


class TestDistributedDetect:
    def test_inline_sharded_run_finds_the_planted_triplet(self, dataset):
        outcome = run_distributed(
            dataset,
            DenseRangeSource(dataset.n_snps, 3),
            config=DetectorConfig(approach="cpu-v4", top_k=7),
            workers=1,
        )
        assert outcome.completed
        assert outcome.result.best_snps == PLANTED

    def test_tied_scores_shard_invariant(self, tied_dataset):
        plain = EpistasisDetector(
            approach="cpu-v1", order=2, top_k=8, chunk_size=97
        ).detect(tied_dataset)
        outcome = run_distributed(
            tied_dataset,
            DenseRangeSource(tied_dataset.n_snps, 2),
            config=DetectorConfig(approach="cpu-v1", order=2, top_k=8, chunk_size=13),
            workers=1,
            planner=ShardPlanner(n_shards=9),
        )
        assert top_items(plain) == top_items(outcome.result)
        # With every score tied, the winners are exactly the first 8
        # combinations in lexicographic (combination-rank) order.
        expected = [(0, j) for j in range(1, 9)]
        assert [i.snps for i in outcome.result.top] == expected

    def test_shard_budget_then_resume_skips_done_shards(self, dataset, tmp_path):
        """Kill-mid-run simulation: a partial ledger resumes to completion."""
        ckpt = str(tmp_path / "sweep.ckpt.json")
        config = DetectorConfig(approach="cpu-v4", top_k=5)
        source = DenseRangeSource(dataset.n_snps, 3)

        partial = run_distributed(
            dataset, source, config=config, workers=1, checkpoint=ckpt,
            shard_budget=3,
        )
        assert not partial.completed
        assert partial.shards_done == 3
        assert partial.result is None
        ledger = json.loads((tmp_path / "sweep.ckpt.json").read_text())
        assert len(ledger["shards"]) == 3 and not ledger["completed"]

        resumed = run_distributed(
            dataset, source, config=config, workers=1, checkpoint=ckpt,
            resume=True,
        )
        assert resumed.completed
        assert resumed.shards_restored == 3
        assert resumed.items_restored == partial.items_evaluated
        # No completed shard was re-evaluated.
        assert resumed.items_evaluated == source.total - partial.items_evaluated
        plain = EpistasisDetector(approach="cpu-v4", top_k=5).detect(dataset)
        assert top_items(resumed.result) == top_items(plain)
        assert json.loads((tmp_path / "sweep.ckpt.json").read_text())["completed"]
        # Accounting stays complete across the resume: restored shards'
        # recorded op counts merge with the fresh shards', so the stats
        # cover the whole search, not just this invocation's slice.
        uninterrupted = run_distributed(
            dataset, source, config=config, workers=1
        )
        assert resumed.op_counts == uninterrupted.op_counts
        assert resumed.bytes_loaded == uninterrupted.bytes_loaded
        for entry in resumed.result.stats.extra["devices"].values():
            assert entry["items"] == source.total

    def test_indented_ledger_resumes_under_compact_writer(self, dataset, tmp_path):
        """A half-done ledger written indented (the older format) resumes,
        and its restored rows merge bit-identically."""
        path = tmp_path / "sweep.ckpt.json"
        config = DetectorConfig(approach="cpu-v4", top_k=5)
        source = DenseRangeSource(dataset.n_snps, 3)
        run_distributed(
            dataset, source, config=config, workers=1, checkpoint=str(path),
            shard_budget=3,
        )
        old = json.loads(path.read_text())
        with path.open("w", encoding="utf-8") as fh:
            json.dump(old, fh, indent=1)
            fh.write("\n")

        resumed = run_distributed(
            dataset, source, config=config, workers=1, checkpoint=str(path),
            resume=True,
        )
        assert resumed.completed and resumed.shards_restored == 3

        def hexed(rows):
            return [(float(row[0]).hex(), row[1:]) for row in rows]

        new = json.loads(path.read_text())
        for shard_id, record in old["shards"].items():
            assert hexed(new["shards"][shard_id]["top"]) == hexed(record["top"])
        assert "\n " not in path.read_text()  # rewritten compact
        whole = run_distributed(dataset, source, config=config, workers=1)
        assert [(i.snps, i.score.hex()) for i in resumed.top] == [
            (i.snps, i.score.hex()) for i in whole.top
        ]

    def test_workers_must_be_positive(self, dataset):
        with pytest.raises(ValueError, match="workers"):
            EpistasisDetector(approach="cpu-v4").detect(dataset, workers=0)
        with pytest.raises(ValueError, match="workers"):
            EpistasisDetector(approach="cpu-v4").detect(dataset, workers=-2)

    def test_screen_minima_resume_via_side_files(self, dataset, tmp_path):
        """Per-shard minima land in side files and merge bit-exactly on resume."""
        config = DetectorConfig(approach="cpu-v4", order=2, top_k=3)
        source = DenseRangeSource(dataset.n_snps, 2)
        whole = run_distributed(
            dataset, source, config=config, collect_snp_minima=True
        )
        ckpt = tmp_path / "screen.ckpt.json"
        run_distributed(
            dataset, source, config=config, checkpoint=str(ckpt),
            collect_snp_minima=True, shard_budget=4,
        )
        side_files = list((tmp_path / "screen.ckpt.json.minima").glob("*.npy"))
        assert len(side_files) == 4
        # The JSON ledger itself stays small: minima are referenced, not inlined.
        ledger = json.loads(ckpt.read_text())
        assert all(
            "snp_minima" not in rec and rec["snp_minima_file"]
            for rec in ledger["shards"].values()
        )
        resumed = run_distributed(
            dataset, source, config=config, checkpoint=str(ckpt),
            collect_snp_minima=True, resume=True,
        )
        np.testing.assert_array_equal(resumed.snp_minima, whole.snp_minima)

    def test_progress_counts_restored_items(self, dataset, tmp_path):
        ckpt = str(tmp_path / "p.ckpt.json")
        config = DetectorConfig(approach="cpu-v4", top_k=3)
        source = DenseRangeSource(dataset.n_snps, 3)
        run_distributed(
            dataset, source, config=config, checkpoint=ckpt, shard_budget=2
        )
        seen = []
        run_distributed(
            dataset, source, config=config, checkpoint=ckpt, resume=True,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[0][0] > 0  # restored items reported up front
        assert seen[-1] == (source.total, source.total)

    def test_cancellation_stops_before_spawning(self, dataset):
        cancel = CancellationToken()
        cancel.cancel()  # pre-cancelled: the coordinator must not start work
        with pytest.raises(RuntimeError, match="cancelled"):
            EpistasisDetector(approach="cpu-v4").detect_candidates(
                dataset,
                DenseRangeSource(dataset.n_snps, 3),
                cancel=cancel,
                workers=2,
            )

    def test_approach_instance_rejected(self, dataset):
        from repro.core.approaches import get_approach

        detector = EpistasisDetector(approach=get_approach("cpu-v4"))
        with pytest.raises(TypeError, match="registry name"):
            detector.detect(dataset, workers=2)

    def test_observe_rejected_on_distributed_path(self, dataset):
        detector = EpistasisDetector(approach="cpu-v4")
        with pytest.raises(ValueError, match="observe"):
            detector.detect_candidates(
                dataset,
                DenseRangeSource(dataset.n_snps, 3),
                observe=lambda w, c, s: None,
                workers=2,
            )

    def test_empty_source_rejected(self, dataset):
        with pytest.raises(ValueError, match="empty"):
            run_distributed(
                dataset,
                ShardView(DenseRangeSource(dataset.n_snps, 3), 0, 0),
                config=DetectorConfig(approach="cpu-v4"),
            )


class TestDistributedPipeline:
    def _staged(self, dataset, **kwargs):
        return EpistasisDetector(approach="cpu-v4", order=3, top_k=5).detect_staged(
            dataset, screen_order=2, keep_snps=10, **kwargs
        )

    def test_inline_sharded_matches_plain(self, dataset, tmp_path):
        plain = self._staged(dataset)
        sharded = self._staged(
            dataset, workers=1, checkpoint=str(tmp_path / "pipe")
        )
        assert top_items(plain) == top_items(sharded)
        assert plain.retained_snps == sharded.retained_snps

    def test_resume_replays_completed_stages(self, dataset, tmp_path):
        ckpt = str(tmp_path / "pipe")
        first = self._staged(dataset, workers=1, checkpoint=ckpt)
        resumed = self._staged(dataset, workers=1, checkpoint=ckpt, resume=True)
        assert top_items(first) == top_items(resumed)
        assert all(s.extra.get("resumed") for s in resumed.stages)

    def test_pipeline_fingerprint_mismatch_rejected(self, dataset, tmp_path):
        ckpt = str(tmp_path / "pipe")
        self._staged(dataset, workers=1, checkpoint=ckpt)
        other = SearchPipeline(
            [ScreenStage(order=2, keep=6), ExpandStage(order=3)],
            approach="cpu-v4",
            checkpoint=ckpt,
            resume=True,
        )
        with pytest.raises(ValueError, match="pipeline checkpoint"):
            other.run(dataset)

    def test_permutation_rng_state_resumes_mid_loop(self, dataset, tmp_path):
        """A cancelled permutation null resumes its RNG stream bit-exactly."""
        stages = [
            ScreenStage(order=2, keep=10),
            ExpandStage(order=3),
            PermutationStage(n_permutations=30, seed=13, checkpoint_every=5),
        ]
        baseline = SearchPipeline(
            list(stages), approach="cpu-v4", top_k=5
        ).run(dataset)

        ckpt = str(tmp_path / "perm")
        cancel = CancellationToken()
        calls = {"n": 0}

        def cancel_mid_null(stage, done, total):
            if stage == "permutation":
                calls["n"] += 1
                if calls["n"] >= 12:
                    cancel.cancel()

        interrupted = SearchPipeline(
            list(stages), approach="cpu-v4", top_k=5, checkpoint=ckpt
        )
        with pytest.raises(RuntimeError, match="permutation stage cancelled"):
            interrupted.run(dataset, cancel=cancel, progress=cancel_mid_null)

        resumed = SearchPipeline(
            list(stages), approach="cpu-v4", top_k=5, checkpoint=ckpt, resume=True
        ).run(dataset)
        assert resumed.p_values == baseline.p_values
        assert top_items(resumed) == top_items(baseline)
        perm_report = resumed.stages[-1]
        assert perm_report.extra.get("resumed_at", 0) >= 10


class TestBatchedCommits:
    """A multi-worker run commits each arrived batch of shards in one write.

    Two workers cut the 32-shard plan of a 20-SNP pair sweep into eight
    dispatch batches of four consecutive shards.
    """

    @staticmethod
    def _sweep(dataset, telemetry=None, **run):
        config = DetectorConfig(approach="cpu-v4", order=2, top_k=5, telemetry=telemetry)
        return run_distributed(
            dataset, DenseRangeSource(dataset.n_snps, 2), config=config, **run
        )

    @pytest.fixture
    def ledger_sizes(self, monkeypatch):
        """The ledger's shard count at every ``JsonLedger.write``."""
        sizes = []
        write = JsonLedger.write

        def counting_write(ledger):
            sizes.append(len(ledger.doc.get("shards", {})))
            write(ledger)

        monkeypatch.setattr(JsonLedger, "write", counting_write)
        return sizes

    @staticmethod
    def _growth(sizes):
        return [after - before for before, after in zip(sizes, sizes[1:]) if after > before]

    def test_two_workers_commit_whole_batches(self, dataset, tmp_path, ledger_sizes):
        self._sweep(dataset, workers=2, checkpoint=str(tmp_path / "w2.json"))
        # begin, the run id, eight batch commits and finish.
        assert len(ledger_sizes) <= 11
        assert self._growth(ledger_sizes) == [4] * 8

    def test_one_worker_commits_every_shard(self, dataset, tmp_path, ledger_sizes):
        self._sweep(dataset, workers=1, checkpoint=str(tmp_path / "w1.json"))
        assert self._growth(ledger_sizes) == [1] * DEFAULT_SHARD_COUNT

    def test_interrupted_commit_leaves_whole_batches(
        self, dataset, tmp_path, monkeypatch
    ):
        class Killed(Exception):
            pass

        ckpt = tmp_path / "cut.json"
        write = JsonLedger.write
        commits = []

        def dying_write(ledger):
            if ledger.doc.get("shards"):
                commits.append(len(ledger.doc["shards"]))
                if len(commits) == 3:
                    raise Killed
            write(ledger)

        monkeypatch.setattr(JsonLedger, "write", dying_write)
        with pytest.raises(Killed):
            self._sweep(dataset, workers=2, checkpoint=str(ckpt))
        monkeypatch.undo()

        ledger = json.loads(ckpt.read_text())
        on_disk = sorted(int(shard_id) for shard_id in ledger["shards"])
        batches = [shard_id // 4 for shard_id in on_disk]
        assert len(on_disk) == 8
        assert all(batches.count(batch) == 4 for batch in batches)

        resumed = self._sweep(dataset, workers=2, checkpoint=str(ckpt), resume=True)
        assert resumed.completed
        assert resumed.shards_restored == len(on_disk)
        assert resumed.items_restored == sum(
            record["n_items"] for record in ledger["shards"].values()
        )
        assert resumed.items_evaluated == resumed.items_total - resumed.items_restored
        assert top_items(resumed) == top_items(self._sweep(dataset, workers=1))

    def test_traced_run_spans_every_commit(self, dataset, tmp_path, ledger_sizes):
        from repro.telemetry import last_run

        ckpt = tmp_path / "traced.json"
        self._sweep(dataset, telemetry="full", workers=2, checkpoint=str(ckpt))
        commits = [
            span for span in last_run().tracer.spans if span.name == "checkpoint.commit"
        ]
        assert len(commits) == len(ledger_sizes)
        assert {span.attrs["ledger"] for span in commits} == {ckpt.name}
        assert commits[-1].attrs["bytes"] == ckpt.stat().st_size


class TestMpi3snpRanks:
    def test_threads_and_processes_agree(self, dataset):
        threads = Mpi3snpBaseline(n_ranks=2, top_k=5).detect(dataset)
        procs = Mpi3snpBaseline(n_ranks=2, top_k=5, processes=True).detect(dataset)
        assert top_items(threads) == top_items(procs)
        assert threads.stats.extra["rank_mode"] == "threads"
        assert procs.stats.extra["rank_mode"] == "processes"
        assert procs.stats.extra["load_imbalance"] >= 1.0
        assert threads.best_snps == PLANTED

    def test_matches_reference_detector(self, dataset):
        reference = EpistasisDetector(approach="cpu-v4", top_k=5).detect(dataset)
        baseline = Mpi3snpBaseline(n_ranks=3, top_k=5).detect(dataset)
        assert top_items(baseline) == top_items(reference)


class TestPerfmodelDistributed:
    def test_shard_imbalance(self):
        assert shard_imbalance([10, 10, 10, 10], 4) == pytest.approx(1.0)
        assert shard_imbalance([40], 4) == pytest.approx(4.0)
        assert shard_imbalance([], 4) == 1.0
        with pytest.raises(ValueError):
            shard_imbalance([1], 0)

    def test_broadcast_scales_with_workers(self):
        one = estimate_broadcast_seconds(1 << 20, 1)
        four = estimate_broadcast_seconds(1 << 20, 4)
        assert four == pytest.approx(4 * one)

    def test_distributed_run_estimate_shape(self):
        estimates = [
            estimate_distributed_run(
                n_candidates=5_000_000,
                n_samples=4096,
                n_snps=1024,
                n_workers=w,
            )
            for w in (1, 2, 4)
        ]
        seconds = [e["estimated_seconds"] for e in estimates]
        assert seconds[0] > seconds[1] > seconds[2]
        for e in estimates:
            assert 0.0 < e["parallel_efficiency"] <= 1.0 + 1e-9
            assert e["imbalance"] >= 1.0
        assert estimates[0]["speedup_vs_single"] == pytest.approx(1.0)

"""Tests of the shared-memory data plane and the warm worker fleets.

The acceptance properties of PR 6:

* **segment lifecycle** — publish/attach/reuse/unlink is refcounted
  through :class:`StoreSession`; the last session closing unlinks owned
  segments, double publishes are no-ops, torn (half-written) segments are
  detected and republished;
* **zero re-packs** — a second ``detect()`` on the warm fleet ships no
  pickled arrays and misses the encoding cache exactly zero times;
* **one K2 table** — the coordinator publishes the log-factorial table
  once, keyed by its bytes; workers adopt it (a missing segment is an
  error), a batch's pickle stays within one pipe write, a fresh run
  unlinks every segment it published and a warm run reuses them;
* **fault tolerance** — a seeded ``shard.run:crash`` fault SIGKILLs a
  worker mid-run: the pool breaks once, the fleet respawns, un-completed
  shards are re-dispatched, and the result is bit-identical to an
  undisturbed run (the full chaos matrix lives in ``test_resilience.py``);
* **bit-identity** — warm-pool runs (including checkpoint/resume slicing
  and pipelines whose permutation null runs in-process) match the inline
  ``workers=1`` path exactly.

Real OS process spawns are expensive on CI, so multi-process coverage is
concentrated in a few tests sharing the process-wide warm fleet; the
segment-lifecycle tests run entirely in-process.
"""

from __future__ import annotations

import dataclasses
import hashlib
from multiprocessing import shared_memory
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.core.detector import DetectorConfig, EpistasisDetector
from repro.core.encoding_cache import ENCODING_CACHE, encoding_cache_key
from repro.datasets import PlantedInteraction, SyntheticConfig, generate_dataset
from repro.core.scoring import K2Score
from repro.distributed import run_distributed
from repro.distributed.fleet import WorkerFleet
from repro.distributed.runner import WorkerPayload, _WorkerContext
from repro.distributed.shm import (
    DatasetHandle,
    data_plane_delta,
    data_plane_snapshot,
    hydrate_dataset,
    load_logfact,
    publish_dataset,
    publish_logfact,
    scan_segments,
    shared_store,
    _key_text,
    _segment_kind,
    _segment_name,
)
from repro.engine import DenseRangeSource
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


def _delta(before, after=None):
    after = after if after is not None else data_plane_snapshot()
    return {k: v - before.get(k, 0) for k, v in after.items() if v - before.get(k, 0)}


class TestSegmentLifecycle:
    def test_publish_load_roundtrip(self):
        store = shared_store()
        key = ("test-roundtrip", 1)
        arrays = {
            "a": np.arange(12, dtype=np.uint64).reshape(3, 4),
            "b": np.ones(5, dtype=np.int8),
        }
        with store.session() as session:
            store.publish(key, arrays, {"tag": "x"}, session=session)
            loaded, meta = store.load(key, session=session)
            assert meta["tag"] == "x"
            for name, expected in arrays.items():
                np.testing.assert_array_equal(loaded[name], expected)
                assert loaded[name].dtype == expected.dtype
                # Attached views are read-only: workers cannot corrupt the
                # shared pages.
                with pytest.raises(ValueError):
                    loaded[name][0] = 0

    def test_unlink_after_last_session_closes(self):
        store = shared_store()
        key = ("test-unlink", 2)
        name = _segment_name(_key_text(key), store.prefix)
        s1 = store.session()
        s2 = store.session()
        store.publish(key, {"v": np.zeros(4)}, {}, session=s1)
        store.load(key, session=s2)
        s1.close()
        # Still retained by the second session.
        seg = shared_memory.SharedMemory(name=name)
        seg.close()
        s2.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_double_publish_is_noop(self):
        store = shared_store()
        key = ("test-double", 3)
        before = data_plane_snapshot()
        with store.session() as session:
            store.publish(key, {"v": np.arange(8)}, {}, session=session)
            store.publish(key, {"v": np.arange(8)}, {}, session=session)
            delta = _delta(before)
            assert delta.get("segments_published") == 1
            assert delta.get("segments_reused") == 1

    def test_torn_segment_republished(self):
        # A crashed publisher leaves a segment without the trailing magic
        # write; the next publish must detect it, unlink and republish.
        store = shared_store()
        key = ("test-torn", 4)
        name = _segment_name(_key_text(key), store.prefix)
        torn = shared_memory.SharedMemory(name=name, create=True, size=64)
        torn.buf[:8] = b"\x00" * 8  # no magic: torn write
        torn.close()
        before = data_plane_snapshot()
        with store.session() as session:
            store.publish(key, {"v": np.arange(3)}, {"ok": True}, session=session)
            loaded, meta = store.load(key, session=session)
            assert meta["ok"] is True
            np.testing.assert_array_equal(loaded["v"], np.arange(3))
            assert _delta(before).get("segments_stale_republished") == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_dataset_publish_hydrate_roundtrip(self, dataset):
        store = shared_store()
        with store.session() as session:
            handle = publish_dataset(dataset, session=session)
            assert isinstance(handle, DatasetHandle)
            assert handle.content_digest() == dataset.content_digest()
            hydrated = hydrate_dataset(handle)
            np.testing.assert_array_equal(hydrated.genotypes, dataset.genotypes)
            np.testing.assert_array_equal(hydrated.phenotypes, dataset.phenotypes)
            assert list(hydrated.snp_names) == list(dataset.snp_names)
            assert hydrated.content_digest() == dataset.content_digest()


    def test_logfact_segment_is_keyed_by_its_bytes(self):
        table = K2Score.log_factorials(300)
        # One ulp off in one entry: what another gammaln could give.
        other = table.copy()
        other[-1] = np.nextafter(other[-1], np.inf)
        with shared_store().session() as session:
            digest = publish_logfact(table, session=session)
            other_digest = publish_logfact(other, session=session)
            assert digest != other_digest
            loaded = load_logfact(digest)
            assert loaded.tobytes() == table.tobytes()
            assert not loaded.flags.writeable
            assert load_logfact(other_digest).tobytes() == other.tobytes()

    def test_missing_table_segment_is_an_error(self, dataset):
        with shared_store().session() as session:
            payload = WorkerPayload(
                dataset=publish_dataset(dataset, session=session),
                source=DenseRangeSource(dataset.n_snps, 2),
                config=DetectorConfig(order=2),
                logfact="0" * 40,
            )
            with pytest.raises(RuntimeError, match="log-factorial table"):
                _WorkerContext(payload)


class TestSharedEncodingTier:
    def test_shared_tier_hit_counts(self, dataset):
        from repro.core.approaches import get_approach

        approach = get_approach("cpu-v4")
        key = encoding_cache_key(dataset, approach)
        assert key is not None
        calls = []

        def loader(k):
            calls.append(k)
            return approach.prepare(dataset)

        ENCODING_CACHE.clear()
        ENCODING_CACHE.attach_shared_tier(loader)
        try:
            before = ENCODING_CACHE.shm_hits
            built = []
            ENCODING_CACHE.get_or_build(key, lambda: built.append(1))
            assert ENCODING_CACHE.shm_hits == before + 1
            assert calls == [key]
            assert not built  # the shared tier supplied it; builder unused
            # Second lookup is a plain local hit, not a shared-tier fetch.
            ENCODING_CACHE.get_or_build(key, lambda: built.append(1))
            assert ENCODING_CACHE.shm_hits == before + 1
            assert calls == [key]
        finally:
            ENCODING_CACHE.detach_shared_tier()
            ENCODING_CACHE.clear()


class TestRunDataPlane:
    def test_inline_shards_count_each_event_once(self, dataset, tmp_path):
        # A workers=1 sharded run executes every shard in this process, so
        # the data plane it reports is exactly this process's counter
        # movement over the call, with nothing added again per shard.
        detector = EpistasisDetector(approach="cpu-v4", order=2, top_k=5)
        detector.detect(dataset)  # the encoding is cached from here on
        before = data_plane_snapshot()
        result = detector.detect(
            dataset, workers=1, checkpoint=str(tmp_path / "ledger.json")
        )
        reported = result.stats.extra["distributed"]["data_plane"]
        assert reported == data_plane_delta(before)
        assert reported.get("encoding_cache_hits", 0) >= 1


class TestWarmFleetRuns:
    """Multi-process coverage sharing one warm 2-worker fleet."""

    def _config(self):
        return DetectorConfig(approach="cpu-v4", order=2, top_k=5)

    def test_zero_repacks_on_second_run(self):
        # First contact needs a dataset no other test uses: the kept fleet
        # outlives a test file, so a dataset another file already ran on
        # it is attached before this test starts.
        dataset = generate_dataset(
            SyntheticConfig(
                n_snps=20,
                n_samples=256,
                interaction=PlantedInteraction(snps=PLANTED, model="xor", effect=0.9),
                seed=1717,
            )
        )
        source = DenseRangeSource(dataset.n_snps, 2)
        config = self._config()
        first = run_distributed(
            dataset, source, config=config, workers=2, pool="keep", shm="on"
        )
        second = run_distributed(
            dataset, source, config=config, workers=2, pool="keep", shm="on"
        )
        assert [ (i.snps, i.score) for i in first.top ] == [
            (i.snps, i.score) for i in second.top
        ]
        # First contact publishes the dataset + encoding and every worker
        # attaches the dataset instead of unpickling it.
        assert first.data_plane.get("dataset_published", 0) == 1
        assert first.data_plane.get("encoding_published", 0) == 1
        assert first.data_plane.get("dataset_shm_attached", 0) >= 1
        assert first.data_plane.get("dataset_pickled", 0) == 0
        assert first.data_plane.get("dataset_unpickled", 0) == 0
        # Warm run: segments reused, worker contexts reused, nothing
        # re-packed, nothing shipped.
        assert second.data_plane.get("segments_reused", 0) >= 1
        assert second.data_plane.get("worker_context_reused", 0) >= 1
        assert second.data_plane.get("encoding_cache_misses", 0) == 0
        assert second.data_plane.get("dataset_pickled", 0) == 0
        assert second.data_plane.get("dataset_unpickled", 0) == 0
        assert second.data_plane.get("worker_context_built", 0) == 0

    def test_warm_pool_matches_inline(self, dataset):
        source = DenseRangeSource(dataset.n_snps, 2)
        config = self._config()
        inline = run_distributed(dataset, source, config=config, workers=1)
        warm = run_distributed(
            dataset, source, config=config, workers=2, pool="keep"
        )
        assert [(i.snps, i.score) for i in inline.top] == [
            (i.snps, i.score) for i in warm.top
        ]

    def test_shard_budget_resume_on_warm_pool(self, dataset, tmp_path):
        source = DenseRangeSource(dataset.n_snps, 2)
        config = self._config()
        ledger = tmp_path / "budget.json"
        partial = run_distributed(
            dataset, source, config=config, workers=2, pool="keep",
            checkpoint=str(ledger), shard_budget=3,
        )
        assert not partial.completed
        assert partial.shards_done == 3
        resumed = run_distributed(
            dataset, source, config=config, workers=2, pool="keep",
            checkpoint=str(ledger), resume=True,
        )
        assert resumed.completed
        assert resumed.shards_restored == 3
        inline = run_distributed(dataset, source, config=config, workers=1)
        assert [(i.snps, i.score) for i in resumed.top] == [
            (i.snps, i.score) for i in inline.top
        ]

    def test_pipeline_permutation_fleet_matches_inline(self, dataset, monkeypatch):
        def run(workers):
            pipeline = SearchPipeline(
                [
                    ScreenStage(order=2, keep=10),
                    ExpandStage(order=3),
                    PermutationStage(
                        n_permutations=24, seed=7, checkpoint_every=8
                    ),
                ],
                approach="cpu-v4",
                workers=workers,
            )
            return pipeline.run(dataset)

        # Count what reaches the fleet while the permutation stage runs.
        from repro.distributed.fleet import WorkerFleet

        submit, stage_run = WorkerFleet.submit, PermutationStage.run
        submitted = {"sweeps": 0, "null": 0}
        phase = ["sweeps"]

        def counting_submit(fleet, *args, **kwargs):
            submitted[phase[0]] += 1
            return submit(fleet, *args, **kwargs)

        def null_phase_run(stage, ctx):
            phase[0] = "null"
            try:
                return stage_run(stage, ctx)
            finally:
                phase[0] = "sweeps"

        monkeypatch.setattr(WorkerFleet, "submit", counting_submit)
        monkeypatch.setattr(PermutationStage, "run", null_phase_run)
        inline = run(1)
        fleet = run(2)
        assert [i.snps for i in inline.top] == [i.snps for i in fleet.top]
        assert [i.score for i in inline.top] == [i.score for i in fleet.top]
        assert inline.p_values == fleet.p_values
        # The sweeps ran on the fleet; the null submitted nothing to it.
        assert submitted["sweeps"] > 0
        assert submitted["null"] == 0

    def test_pipeline_checkpoint_replay_with_warm_pool(self, dataset, tmp_path):
        def pipeline(resume):
            return SearchPipeline(
                [
                    ScreenStage(order=2, keep=10),
                    ExpandStage(order=3),
                    PermutationStage(
                        n_permutations=16, seed=3, checkpoint_every=4
                    ),
                ],
                approach="cpu-v4",
                workers=2,
                checkpoint=str(tmp_path / "ckpt"),
                resume=resume,
            ).run(dataset)

        first = pipeline(False)
        replayed = pipeline(True)
        assert [i.snps for i in first.top] == [i.snps for i in replayed.top]
        assert first.p_values == replayed.p_values
        assert all(s.extra.get("resumed") for s in replayed.stages)

    def test_worker_death_recovers_and_matches(self, dataset, tmp_path):
        # One seeded SIGKILL at the shard.run site: the pool breaks once,
        # the fleet respawns, the victim shard is retried, and the merge is
        # still bit-identical.  The fault plan ships inside the worker
        # payload, so the warm keep-fleet works too — pool="fresh" keeps
        # this test independent of fleet state left by earlier tests.
        source = DenseRangeSource(dataset.n_snps, 2)
        config = self._config()
        outcome = run_distributed(
            dataset, source, config=config, workers=2, pool="fresh",
            faults="shard.run:crash",
        )
        assert outcome.completed
        # The fault fired exactly once (count=1 is the default; a SIGKILLed
        # worker ships no counters, so the evidence is coordinator-side):
        # the pool broke and respawned once, and the victim shard retried.
        assert outcome.resilience["pool_breaks"] == 1
        assert outcome.resilience["retries"] >= 1
        assert outcome.resilience["ladder"] == "respawned"
        inline = run_distributed(dataset, source, config=config, workers=1)
        assert [(i.snps, i.score) for i in outcome.top] == [
            (i.snps, i.score) for i in inline.top
        ]


def _unique_dataset(n_samples, seed):
    """A dataset whose sample count no other test publishes.

    The K2 table segment depends on the sample count alone, so a kept
    fleet holding a table of the same size would make these runs reuse
    it instead of publishing their own.
    """
    return generate_dataset(
        SyntheticConfig(n_snps=14, n_samples=n_samples, seed=seed)
    )


class TestK2TableDataPlane:
    """The coordinator's K2 table in shared memory, seen from a run."""

    def _config(self):
        return DetectorConfig(approach="cpu-v4", objective="k2", order=2, top_k=5)

    @pytest.mark.parametrize("prepared_instance", [False, True])
    def test_every_batch_pickles_within_one_pipe_write(
        self, monkeypatch, prepared_instance
    ):
        # Above 16 384 bytes multiprocessing.connection sends the header
        # and the body in two writes; the table alone is 131 KB here.  A
        # K2 instance that already built its table rides in the config.
        dataset = generate_dataset(
            SyntheticConfig(n_snps=12, n_samples=16384, seed=2616)
        )
        config = self._config()
        if prepared_instance:
            objective = K2Score()
            objective.prepare(dataset)
            config = dataclasses.replace(config, objective=objective)
        sizes = []
        submit = WorkerFleet.submit

        def measuring_submit(fleet, fn, /, *args, **kwargs):
            sizes.append(len(ForkingPickler.dumps(args)))
            return submit(fleet, fn, *args, **kwargs)

        monkeypatch.setattr(WorkerFleet, "submit", measuring_submit)
        detector = EpistasisDetector(config=config)
        fleet = detector.detect(dataset, workers=2, shm="on")
        monkeypatch.undo()
        assert fleet.stats.extra["distributed"]["data_plane"]["logfact_published"] == 1
        assert sizes
        assert max(sizes) <= 16384, sizes
        inline = detector.detect(dataset)
        assert [(i.snps, i.score) for i in fleet.top] == [
            (i.snps, i.score) for i in inline.top
        ]

    def test_fresh_run_leaves_none_of_its_segments(self, monkeypatch):
        dataset = _unique_dataset(333, 2617)
        store = shared_store()
        publish = store.publish
        keys = {}

        def recording_publish(key, arrays, meta=None, session=None):
            name = publish(key, arrays, meta, session=session)
            keys[name] = _key_text(key)
            return name

        monkeypatch.setattr(store, "publish", recording_publish)
        outcome = run_distributed(
            dataset, DenseRangeSource(dataset.n_snps, 2), config=self._config(),
            workers=2, pool="fresh", shm="on",
        )
        monkeypatch.undo()
        assert outcome.completed
        assert outcome.data_plane.get("segments_published") == 3
        assert sorted(_segment_kind(key) for key in keys.values()) == [
            "dataset", "encoding", "logfact"
        ]
        assert not set(keys) & {info.name for info in scan_segments()}

    def test_warm_run_reuses_the_table_segment(self):
        dataset = _unique_dataset(347, 2618)
        source = DenseRangeSource(dataset.n_snps, 2)
        runs = [
            run_distributed(
                dataset, source, config=self._config(),
                workers=2, pool="keep", shm="on",
            )
            for _ in range(2)
        ]
        first, second = (run.data_plane for run in runs)
        assert first.get("segments_published") == 3
        assert first.get("logfact_published") == 1
        # The second run publishes nothing new: all three segments,
        # the table's among them, are the kept fleet's from the first.
        assert second.get("segments_published", 0) == 0
        assert second.get("segments_reused") == 3
        assert second.get("logfact_published") == 1
        table = K2Score.log_factorials(dataset.n_samples)
        key = _key_text(("logfact", hashlib.sha1(table.tobytes()).hexdigest()))
        assert key in {info.key for info in scan_segments() if info.kind == "logfact"}

    @pytest.mark.parametrize("shm", ["on", "off"])
    def test_fleet_scores_and_p_values_match_inline(self, dataset, shm):
        def staged(**run):
            return EpistasisDetector(
                approach="cpu-v4", objective="k2", order=3, top_k=5
            ).detect_staged(
                dataset, keep_snps=8, n_permutations=16, permutation_seed=5, **run
            )

        inline = staged(workers=1)
        fleet = staged(workers=2, pool="keep", shm=shm)
        assert [(i.snps, i.score) for i in fleet.top] == [
            (i.snps, i.score) for i in inline.top
        ]
        assert fleet.p_values == inline.p_values

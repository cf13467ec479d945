"""Tests of the two specs of a search in :mod:`repro.core.detector`.

One frozen :class:`~repro.core.detector.DetectorConfig` runs a search
everywhere: the detector, every pipeline stage (which replaces the order
and its own overrides) and every distributed worker (which receives the
coordinator's spec and takes the order from its candidate source).  One
frozen :class:`~repro.core.detector.RunSpec` says where it runs, and is
checked before anything else happens.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import tempfile

import pytest

from repro.core import DetectorConfig, EpistasisDetector, RunSpec
from repro.datasets import SyntheticConfig, generate_dataset
from repro.distributed import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    coordinator,
    get_fleet,
    run_distributed,
)
from repro.distributed.runner import ProcessRunner, _WorkerContext
from repro.engine import DenseRangeSource
from repro.faults import FAULTS_ENV, FaultPlan, current_plan, install_plan
from repro.pipeline import ExpandStage, ScreenStage, SearchPipeline


@pytest.fixture(scope="module")
def dataset():
    """12 SNPs x 256 samples: 220 triplets, 66 pairs."""
    return generate_dataset(SyntheticConfig(n_snps=12, n_samples=256, seed=2020))


def _rows(result):
    return [(inter.snps, inter.score) for inter in result.top]


def _hydrated_config(payload):
    """Worker-side probe: the detector config a payload hydrates to."""
    from repro.distributed.runner import _context_for

    return _context_for(payload).detector.config


@pytest.fixture
def payloads(monkeypatch):
    """Every worker payload the coordinator builds while the test runs."""
    seen = []

    class RecordingRunner(ProcessRunner):
        def __init__(self, run, payload, **kwargs):
            seen.append(payload)
            super().__init__(run, payload, **kwargs)

    monkeypatch.setattr(coordinator, "ProcessRunner", RecordingRunner)
    return seen


class TestSpecValue:
    def test_assignment_raises(self):
        config = DetectorConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.top_k = 3

    def test_approach_params_are_a_sorted_copy(self):
        params = {"isa": "avx-128", "block_snps": 4}
        config = DetectorConfig(approach_params=params)
        params["isa"] = "avx2-256"
        assert list(config.approach_params.items()) == [
            ("block_snps", 4),
            ("isa", "avx-128"),
        ]
        assert config.context_key() == DetectorConfig(
            approach_params={"isa": "avx-128", "block_snps": 4}
        ).context_key()

    def test_context_key_ignores_telemetry_only(self):
        base = DetectorConfig(telemetry="off")
        traced = DetectorConfig(telemetry="full")
        assert base.context_key("ds") == traced.context_key("ds")
        for change in ({"word_layout": "u32"}, {"fused": "off"}, {"n_workers": 2}):
            assert base.context_key("ds") != dataclasses.replace(
                base, **change
            ).context_key("ds")
        assert base.context_key("ds") != base.context_key("other")

    def test_ledger_search_document(self):
        config = DetectorConfig(
            approach="cpu-v4",
            objective="k2",
            top_k=7,
            n_workers=2,
            chunk_size=64,
            word_layout="u32",
            backend="numpy",
            fused="off",
        )
        assert config.ledger_key(True) == {
            "approach": "cpu-v4",
            "objective": "k2",
            "top_k": 7,
            "collect_snp_minima": True,
        }

    def test_environment_is_read_at_construction(
        self, dataset, monkeypatch, tmp_path
    ):
        from repro.telemetry import last_run

        for name in ("REPRO_BACKEND", "REPRO_TELEMETRY", "REPRO_FUSED"):
            monkeypatch.delenv(name, raising=False)
        pairs = EpistasisDetector(order=2, top_k=5)
        triplets = EpistasisDetector(order=3, top_k=5)
        baseline = pairs.detect(dataset)
        staged_baseline = triplets.detect_staged(dataset, keep_snps=6)
        # Values that would raise, or start a trace, if a run read them.
        monkeypatch.setenv("REPRO_BACKEND", "warp9")
        monkeypatch.setenv("REPRO_TELEMETRY", "full")
        traced_before = last_run()
        runs = [
            pairs.detect(dataset),
            pairs.detect(dataset, checkpoint=str(tmp_path / "ledger.json")),
        ]
        for result in runs:
            assert _rows(result) == _rows(baseline)
            assert result.stats.extra["backend"] == baseline.stats.extra["backend"]
            assert "telemetry" not in result.stats.extra
        staged = triplets.detect_staged(dataset, keep_snps=6)
        assert _rows(staged) == _rows(staged_baseline)
        assert last_run() is traced_before
        # Stages derive their specs with replace(): it keeps what the
        # pipeline's spec resolved.  A new spec reads the environment.
        derived = dataclasses.replace(triplets.config, order=2)
        assert (derived.backend, derived.telemetry) == ("auto", "off")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            EpistasisDetector(order=2)


class TestStagedSearchKeepsApproachParams:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_expand_charges_like_detect(self, dataset, workers):
        detector = EpistasisDetector(approach="cpu-v4", isa="avx-128", top_k=5)
        dense = detector.detect(dataset)
        staged = detector.detect_staged(
            dataset, keep_snps=dataset.n_snps, workers=workers
        )
        expand = staged.stages[1]
        assert expand.stage == "expand"
        assert expand.device_stats["cpu"]["op_counts"] == (
            dense.stats.extra["devices"]["cpu"]["op_counts"]
        )
        assert _rows(staged) == _rows(dense)

    def test_stage_naming_another_approach_drops_them(self, dataset):
        pipeline = SearchPipeline(
            [ScreenStage(order=2, keep=6, approach="gpu-v4"), ExpandStage(order=3)],
            approach="cpu-v4",
            approach_params={"isa": "avx-128"},
        )
        [screen, expand] = pipeline.run(dataset).stages
        assert screen.approach == "gpu-v4"
        assert expand.approach == "cpu-v4"


class TestPipelineRejectsInvalidConfig:
    @pytest.mark.parametrize(
        "override, message",
        [
            pytest.param({"n_workers": 0}, "n_workers must be positive", id="n_workers"),
            pytest.param({"chunk_size": 0}, "chunk_size must be positive", id="chunk_size"),
            pytest.param({"top_k": 0}, "top_k must be positive", id="top_k"),
            pytest.param({"schedule": "nope"}, "schedule must be one of", id="schedule"),
            pytest.param({"devices": "tpu"}, "unknown device kind", id="devices"),
            pytest.param({"devices": "cpu+cpu"}, "duplicate device kind", id="devices-twice"),
        ],
    )
    def test_stage_override(self, override, message):
        with pytest.raises(ValueError, match=message):
            SearchPipeline([ScreenStage(order=2, keep=6), ExpandStage(**override)])

    def test_pipeline_spec(self):
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            SearchPipeline([ExpandStage(order=3)], chunk_size=0)

    def test_detect_staged_stage_list(self, dataset):
        with pytest.raises(ValueError, match="top_k must be positive"):
            EpistasisDetector().detect_staged(
                dataset, stages=[ExpandStage(order=3, top_k=0)]
            )


class TestWorkersRunTheCoordinatorsSpec:
    CONFIG = DetectorConfig(
        approach="cpu-v4",
        order=3,
        top_k=5,
        word_layout="u32",
        backend="numpy",
        telemetry="off",
        approach_params={"isa": "avx-128"},
    )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_config_equals_coordinators(self, dataset, payloads, workers):
        source = DenseRangeSource(dataset.n_snps, 2)
        run_distributed(
            dataset, source, config=self.CONFIG, workers=workers, pool="keep"
        )
        [payload] = payloads
        assert payload.config == self.CONFIG
        expected = dataclasses.replace(self.CONFIG, order=2)
        if workers == 1:
            hydrated = _WorkerContext(payload).detector
            assert hydrated.approach.isa.name == "avx-128"
            assert hydrated.approach.word_layout.name == "u32"
            assert hydrated.config == expected
        else:
            probe = get_fleet(2).submit(_hydrated_config, payload)
            assert probe.result(timeout=120) == expected

    def test_traced_and_untraced_share_warm_context(self, dataset):
        source = DenseRangeSource(dataset.n_snps, 2)

        def run(config):
            return run_distributed(
                dataset, source, config=config, workers=2, pool="keep", shm="on"
            )

        # Two untraced runs: the second starts with both workers idle, so
        # each of them takes a batch and holds the context afterwards.
        run(self.CONFIG)
        reference = run(self.CONFIG)
        traced = run(dataclasses.replace(self.CONFIG, telemetry="minimal"))
        assert _rows(traced.result) == _rows(reference.result)
        assert "telemetry" in traced.result.stats.extra
        assert traced.data_plane.get("worker_context_reused", 0) >= 1
        assert traced.data_plane.get("worker_context_built", 0) == 0


class TestLedgerResume:
    def test_search_document_on_disk(self, dataset, tmp_path):
        ledger = tmp_path / "ledger.json"
        run_distributed(
            dataset,
            DenseRangeSource(dataset.n_snps, 2),
            config=DetectorConfig(approach="cpu-v4", order=2, top_k=6),
            checkpoint=str(ledger),
        )
        assert json.loads(ledger.read_text())["fingerprint"]["search"] == {
            "approach": "cpu-v4",
            "objective": "k2",
            "top_k": 6,
            "collect_snp_minima": False,
        }

    def test_resume_under_other_execution(self, dataset, tmp_path):
        source = DenseRangeSource(dataset.n_snps, 3)
        config = DetectorConfig(approach="cpu-v4", top_k=5)
        ledger = str(tmp_path / "ledger.json")
        partial = run_distributed(
            dataset, source, config=config, checkpoint=ledger, shard_budget=3
        )
        assert not partial.completed
        resumed = run_distributed(
            dataset,
            source,
            config=dataclasses.replace(
                config, n_workers=2, chunk_size=64, word_layout="u32"
            ),
            checkpoint=ledger,
            resume=True,
        )
        assert resumed.completed
        assert resumed.shards_restored == 3
        whole = run_distributed(dataset, source, config=config)
        assert _rows(resumed.result) == _rows(whole.result)
        # The run spec is in no key either: a one-worker partial resumes on
        # a fresh two-process pool without the shared-memory data plane.
        ledger = str(tmp_path / "placement.json")
        run_distributed(
            dataset, source, config=config, checkpoint=ledger, shard_budget=3
        )
        moved = run_distributed(
            dataset,
            source,
            config=config,
            run=RunSpec(
                workers=2, checkpoint=ledger, resume=True, pool="fresh", shm="off"
            ),
        )
        assert moved.shards_restored == 3
        assert _rows(moved.result) == _rows(whole.result)

    @pytest.mark.parametrize(
        "change", [{"objective": "gini"}, {"top_k": 4}], ids=["objective", "top_k"]
    )
    def test_resume_refused_on_search_change(self, dataset, tmp_path, change):
        source = DenseRangeSource(dataset.n_snps, 3)
        config = DetectorConfig(approach="cpu-v4", top_k=5)
        ledger = str(tmp_path / "ledger.json")
        run_distributed(
            dataset, source, config=config, checkpoint=ledger, shard_budget=3
        )
        with pytest.raises(ValueError, match="cannot resume"):
            run_distributed(
                dataset,
                source,
                config=dataclasses.replace(config, **change),
                checkpoint=ledger,
                resume=True,
            )


def _head_resolve_shm(shm, workers):
    """The data-plane switch as ``coordinator.resolve_shm`` computed it."""
    if isinstance(shm, str):
        lowered = shm.lower()
        if lowered == "on":
            shm = True
        elif lowered == "off":
            shm = False
        elif lowered == "auto":
            shm = None
        else:
            raise ValueError(f"shm must be 'on', 'off' or 'auto', got {shm!r}")
    if shm is None:
        return workers > 1
    return bool(shm) and workers > 1


def _claim_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-faults-*")))


def _placement(result):
    """``extra["distributed"]`` without what depends on the warm fleet's
    history (which worker took which batch, how often it was spawned)."""
    distributed = dict(result.stats.extra["distributed"])
    del distributed["fleet"], distributed["data_plane"]
    return distributed


class TestRunSpecValue:
    def test_assignment_raises(self):
        run = RunSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.workers = 2

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        run = RunSpec()
        assert (run.workers, run.checkpoint, run.resume, run.pool) == (
            1,
            None,
            False,
            "keep",
        )
        assert run.shm is False
        assert run.retry is DEFAULT_RETRY_POLICY
        assert run.faults == FaultPlan()
        assert not run.sharded
        assert RunSpec(workers=2).sharded
        assert RunSpec(checkpoint="ledger.json").sharded

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "shm", [None, "auto", "AUTO", "on", "On", "off", "OFF", True, False, 0, 1]
    )
    def test_shm_normalises_as_before(self, shm, workers):
        assert RunSpec(workers=workers, shm=shm).shm is _head_resolve_shm(
            shm, workers
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bogus_shm_refused_as_before(self, workers):
        with pytest.raises(ValueError) as expected:
            _head_resolve_shm("bogus", workers)
        with pytest.raises(ValueError, match=str(expected.value)):
            RunSpec(workers=workers, shm="bogus")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"workers": 0}, "workers must be positive"),
            ({"pool": "bogus"}, "pool must be 'keep' or 'fresh'"),
            ({"resume": True}, "resume=True needs a checkpoint"),
            ({"faults": "shard.nowhere:crash"}, "unknown fault site"),
        ],
        ids=["workers", "pool", "resume", "faults"],
    )
    def test_invalid_fields(self, fields, message):
        with pytest.raises(ValueError, match=message):
            RunSpec(**fields)

    def test_of_applies_fields_on_top(self):
        retry = RetryPolicy(max_attempts=2)
        base = RunSpec(workers=2, retry=retry)
        assert RunSpec.of(base) is base
        assert RunSpec.of(base, pool="fresh") == RunSpec(
            workers=2, retry=retry, pool="fresh"
        )
        assert RunSpec.of(None, workers=2) == RunSpec(workers=2)


class TestFaultsEnvironment:
    """``REPRO_FAULTS`` is read once, when the run spec is built."""

    def test_set_after_the_spec_injects_nothing(self, dataset, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        detector = EpistasisDetector(top_k=5)
        run = RunSpec(workers=2)
        baseline = detector.detect(dataset)
        monkeypatch.setenv(FAULTS_ENV, "shard.run:crash")
        derived = dataclasses.replace(run, shm="off")
        assert run.faults == derived.faults == FaultPlan()
        for spec in (run, derived):
            result = detector.detect(dataset, run=spec)
            resilience = result.stats.extra["distributed"]["resilience"]
            assert resilience["retries"] == resilience["pool_breaks"] == 0
            assert _rows(result) == _rows(baseline)

    def test_set_before_the_spec_injects(self, dataset, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        detector = EpistasisDetector(top_k=5)
        baseline = detector.detect(dataset)
        monkeypatch.setenv(FAULTS_ENV, "shard.run:error")
        run = RunSpec(workers=2, pool="fresh")
        assert run.faults == FaultPlan.parse("shard.run:error")
        result = detector.detect(dataset, run=run)
        assert result.stats.extra["distributed"]["resilience"]["retries"] >= 1
        assert _rows(result) == _rows(baseline)


class TestRunSpecEqualsKeywords:
    FIELDS = {"workers": 2, "pool": "keep", "shm": "on"}

    def test_detect(self, dataset, tmp_path):
        detector = EpistasisDetector(top_k=5)
        fields = dict(self.FIELDS, checkpoint=str(tmp_path / "ledger.json"))
        detector.detect(dataset, **fields)
        by_keywords = detector.detect(dataset, **fields)
        by_spec = detector.detect(dataset, run=RunSpec(**fields))
        assert _rows(by_spec) == _rows(by_keywords)
        assert _placement(by_spec) == _placement(by_keywords)

    def test_detect_staged(self, dataset, tmp_path):
        detector = EpistasisDetector(top_k=5)
        fields = dict(self.FIELDS, checkpoint=str(tmp_path))
        options = {"keep_snps": 8, "n_permutations": 16}
        by_keywords = detector.detect_staged(dataset, **options, **fields)
        by_spec = detector.detect_staged(dataset, **options, run=RunSpec(**fields))
        assert _rows(by_spec) == _rows(by_keywords)
        assert by_spec.p_values == by_keywords.p_values
        assert sorted(os.listdir(tmp_path)) == [
            "pipeline.json",
            "stage00_screen.ckpt.json",
            "stage00_screen.ckpt.json.minima",
            "stage01_expand.ckpt.json",
            "stage02_permutation.ckpt.json",
        ]

    def test_run_distributed(self, dataset):
        source = DenseRangeSource(dataset.n_snps, 3)
        config = DetectorConfig(top_k=5)
        run_distributed(dataset, source, config=config, **self.FIELDS)
        by_keywords = run_distributed(dataset, source, config=config, **self.FIELDS)
        by_spec = run_distributed(
            dataset, source, config=config, run=RunSpec(**self.FIELDS)
        )
        assert _rows(by_spec.result) == _rows(by_keywords.result)
        assert _placement(by_spec.result) == _placement(by_keywords.result)


class TestPlacementRefusedUpFront:
    """Each bad value is refused with the spec's message before any ledger,
    fleet or fault plan exists."""

    def test_staged_zero_workers(self, dataset, payloads):
        with pytest.raises(ValueError, match="workers must be positive"):
            EpistasisDetector().detect_staged(dataset, workers=0, keep_snps=8)
        assert payloads == []

    def test_bogus_pool_and_shm(self, dataset, payloads):
        with pytest.raises(ValueError, match="pool must be 'keep' or 'fresh'"):
            EpistasisDetector().detect(dataset, pool="bogus", shm="bogus")
        assert payloads == []

    def test_bogus_shm_before_the_ledger(self, dataset, payloads, tmp_path):
        ledger = tmp_path / "ledger.json"
        with pytest.raises(ValueError, match="shm must be"):
            EpistasisDetector().detect(
                dataset, workers=2, checkpoint=str(ledger), shm="bogus"
            )
        assert not ledger.exists()
        assert payloads == []

    def test_resume_without_checkpoint(self, dataset, payloads):
        with pytest.raises(ValueError, match="resume=True needs a checkpoint"):
            EpistasisDetector().detect(dataset, resume=True)
        assert payloads == []

    @pytest.mark.parametrize(
        "spec, message",
        [
            pytest.param({"schedule": "round-robin"}, "schedule must be one of", id="schedule"),
            pytest.param({"devices": "tpu"}, "unknown device kind", id="devices"),
            pytest.param({"devices": "cpu+cpu"}, "duplicate device kind", id="devices-twice"),
        ],
    )
    def test_unknown_schedule_or_devices(self, dataset, payloads, spec, message):
        with pytest.raises(ValueError, match=message):
            EpistasisDetector(order=2, **spec).detect(dataset, workers=2, pool="fresh")
        with pytest.raises(ValueError, match=message):
            DetectorConfig(**spec)
        assert payloads == []


class TestCoordinatorReleasesTheFaultPlan:
    def test_failure_after_arming(self, dataset, monkeypatch):
        closed = []

        class ClosingRunner(ProcessRunner):
            def close(self):
                closed.append(self)
                super().close()

        def failing_publish(*args):
            raise RuntimeError("publish failed")

        monkeypatch.setattr(coordinator, "ProcessRunner", ClosingRunner)
        monkeypatch.setattr(coordinator, "_publish_data_plane", failing_publish)
        callers_plan = FaultPlan.parse("shard.run:slow:delay=0")
        install_plan(callers_plan)
        dirs = _claim_dirs()
        try:
            with pytest.raises(RuntimeError, match="publish failed"):
                run_distributed(
                    dataset,
                    DenseRangeSource(dataset.n_snps, 2),
                    config=DetectorConfig(order=2),
                    workers=2,
                    pool="fresh",
                    shm="on",
                    faults="shard.run:crash",
                )
            assert current_plan() is callers_plan
        finally:
            install_plan(None)
        assert len(closed) == 1
        assert _claim_dirs() == dirs

    def test_crash_run_leaves_no_claim_directory(self, dataset):
        dirs = _claim_dirs()
        result = EpistasisDetector(top_k=5).detect(
            dataset, workers=2, pool="fresh", faults="shard.run:crash"
        )
        assert result.stats.extra["distributed"]["resilience"]["retries"] >= 1
        assert _claim_dirs() == dirs

"""Chaos suite for the fault-tolerance layer.

The acceptance properties of the resilience PR:

* **bit-identity under faults** — every single-fault kind (worker crash,
  hard exit, injected error, torn shared-memory write, slow shard)
  completes a 2-worker ``run_distributed`` on its recorded ladder rung
  with a merged top-k bit-identical to the fault-free run (seeded
  multi-fault schedules are drawn by ``tests/test_oracle.py``);
* **poison-shard quarantine** — a shard that crashes its worker on every
  attempt exhausts the retry budget, is quarantined, and finishes
  *inline in the coordinator* (the degradation ladder's last rung) —
  still bit-identically;
* **heartbeat watchdog** — a hung worker is detected via the
  shard-completion heartbeat, killed, and its shards re-dispatched;
* **determinism of the plumbing** — fault plans parse from the compact
  grammar / JSON / ``@file`` and schedule reproducibly by seed; retry
  backoff is a pure function of the attempt count; process-killing kinds
  never fire in the coordinator;
* **orphan reaping** — torn or dead-owner ``/dev/shm`` segments are
  reclaimed, live segments never are;
* **cross-resume budgets** — retry/quarantine history persists in the
  checkpoint ledger and re-seeds the next run's attempt counts;
* **friendly resume refusals** — a fingerprint mismatch names the
  diverged component instead of dumping two hashes.

Multi-process chaos tests spawn fresh pools (the fault plan must reach
pristine workers), so they are the slowest tests in the tree; the unit
coverage of the policy/plan machinery runs entirely in-process.
"""

from __future__ import annotations

import json
import shutil
import uuid
from multiprocessing import shared_memory

import pytest

from repro.core.detector import DetectorConfig
from repro.datasets import PlantedInteraction, SyntheticConfig, generate_dataset
from repro.distributed import run_distributed
from repro.distributed.checkpoint import JsonLedger, fingerprint_divergence
from repro.distributed.resilience import (
    BACKOFF_FACTOR,
    LADDER_RUNGS,
    MAX_BACKOFF_SECONDS,
    MAX_POOL_BREAKS,
    POLL_SECONDS,
    ResilienceLog,
    RetryPolicy,
    merge_history,
)
from repro.distributed.shm import (
    data_plane_snapshot,
    reap_orphans,
    scan_segments,
    shared_store,
)
from repro.engine import DenseRangeSource
from repro.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FAULTS_ENV,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    fire,
    install_plan,
    resolve_fault_plan,
)

PLANTED = (3, 11, 17)

#: Fast pacing for chaos tests — backoff is pure pacing, never results.
FAST = RetryPolicy(backoff_seconds=0.01)


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


def _config():
    return DetectorConfig(approach="cpu-v4", order=2, top_k=5)


def _rows(outcome):
    return [(i.snps, i.score) for i in outcome.top]


@pytest.fixture(scope="module")
def baseline(dataset):
    """The fault-free reference merge (inline, no pools, no faults)."""
    source = DenseRangeSource(dataset.n_snps, 2)
    return _rows(run_distributed(dataset, source, config=_config(), workers=1))


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with fault injection disabled."""
    install_plan(None)
    yield
    install_plan(None)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_seconds=0.1)
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.1 * BACKOFF_FACTOR)
        assert policy.backoff(3) == pytest.approx(0.1 * BACKOFF_FACTOR**2)
        assert policy.backoff(40) == pytest.approx(MAX_BACKOFF_SECONDS)  # capped

    def test_backoff_is_deterministic(self):
        # The same failure count always maps to the same delay: pacing is
        # a pure function of the attempt history, never of wall-clock.
        policy = RetryPolicy()
        assert [policy.backoff(n) for n in range(6)] == [
            policy.backoff(n) for n in range(6)
        ]

    def test_exhausted(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)

    def test_wait_timeout_implements_watchdog_poll(self):
        assert RetryPolicy().wait_timeout() is None
        policy = RetryPolicy(shard_deadline_seconds=10.0)
        assert policy.wait_timeout() == POLL_SECONDS
        tight = RetryPolicy(shard_deadline_seconds=POLL_SECONDS / 2)
        assert tight.wait_timeout() == pytest.approx(POLL_SECONDS / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(shard_deadline_seconds=0.0)


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan
# ---------------------------------------------------------------------------
class TestFaultPlanParsing:
    def test_compact_spec(self):
        spec = FaultSpec.parse("shard.run:crash")
        assert spec.site == "shard.run"
        assert spec.kind == "crash"
        assert spec.shard is None
        assert spec.count == 1

    def test_compact_options(self):
        spec = FaultSpec.parse("shard.run:hang:shard=3:count=2:delay=0.5")
        assert (spec.shard, spec.count, spec.delay_seconds) == (3, 2, 0.5)

    def test_broken_pool_alias(self):
        assert FaultSpec.parse("shard.claim:broken-pool").kind == "exit"

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("nowhere:crash")
        with pytest.raises(ValueError):
            FaultSpec.parse("shard.run:melt")
        with pytest.raises(ValueError):
            FaultSpec.parse("shard.run:crash:volume=11")
        with pytest.raises(ValueError):
            FaultSpec.parse("shard.run")
        # Torn writes only exist at the publish site.
        with pytest.raises(ValueError):
            FaultSpec.parse("shard.run:torn")

    def test_plan_from_compact_list(self):
        plan = FaultPlan.parse("shard.run:crash, shm.publish:torn")
        assert [s.kind for s in plan.specs] == ["crash", "torn"]

    def test_plan_from_json_and_file(self, tmp_path):
        doc = [{"site": "shard.run", "kind": "slow", "delay_seconds": 0.1}]
        plan = FaultPlan.parse(json.dumps(doc))
        assert plan.specs[0].delay_seconds == 0.1
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert FaultPlan.parse(f"@{path}") == plan

    def test_roundtrip(self):
        plan = FaultPlan.parse("shard.run:crash:shard=3:count=2")
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_schedule_is_a_pure_function_of_the_seed(self):
        first = FaultPlan.schedule(seed=7, n_faults=4)
        again = FaultPlan.schedule(seed=7, n_faults=4)
        assert first.specs == again.specs
        assert first.seed == 7
        for spec in first.specs:
            assert spec.site in FAULT_SITES
            assert spec.kind in FAULT_KINDS

    def test_resolve(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert resolve_fault_plan(None) is None
        monkeypatch.setenv(FAULTS_ENV, "shard.run:crash")
        env_plan = resolve_fault_plan(None)
        assert env_plan is not None and env_plan.specs[0].kind == "crash"
        assert resolve_fault_plan("shm.publish:torn").specs[0].kind == "torn"
        plan = FaultPlan.parse("shard.run:slow")
        assert resolve_fault_plan(plan) is plan
        with pytest.raises(TypeError):
            resolve_fault_plan(42)


class TestFire:
    def test_worker_only_kinds_never_fire_in_the_coordinator(self):
        # crash / exit / error would take down (or fail) this very test
        # process; the coordinator-side fire() must skip them so the
        # quarantine/inline path is immune by construction.
        for kind in ("crash", "exit", "error"):
            install_plan(FaultPlan.parse(f"shard.run:{kind}"))
            fire("shard.run", shard=0)  # must be a no-op

    def test_parent_safe_kind_fires_and_respects_count(self):
        install_plan(FaultPlan.parse("shard.run:slow:delay=0:count=2"))
        before = data_plane_snapshot()
        for _ in range(5):
            fire("shard.run", shard=0)
        after = data_plane_snapshot()
        assert (
            after.get("faults_injected_slow", 0)
            - before.get("faults_injected_slow", 0)
        ) == 2

    def test_shard_targeting(self):
        install_plan(FaultPlan.parse("shard.run:slow:delay=0:shard=3"))
        before = data_plane_snapshot()
        fire("shard.run", shard=1)
        fire("shard.run", shard=None)
        after = data_plane_snapshot()
        assert after.get("faults_injected_slow", 0) == before.get(
            "faults_injected_slow", 0
        )
        fire("shard.run", shard=3)
        assert data_plane_snapshot().get("faults_injected_slow", 0) == (
            before.get("faults_injected_slow", 0) + 1
        )

    def test_armed_plan_claims_cross_process_budget(self):
        plan = FaultPlan.parse("shard.run:slow:delay=0:count=2").arm()
        try:
            assert plan.claim_dir is not None
            install_plan(plan)
            for _ in range(5):
                fire("shard.run", shard=0)
            # Exactly count slots were claimed, as files — a second
            # process sharing the plan would see the same budget.
            assert plan.fired() == 2
        finally:
            install_plan(None)
            shutil.rmtree(plan.claim_dir, ignore_errors=True)

    def test_error_kind_raises_in_workers(self):
        # Simulate the worker side directly: the error kind raises
        # FaultInjected from _execute (fire() gates it on being in a
        # worker process, exercised end-to-end by the chaos matrix).
        from repro.faults import _execute

        with pytest.raises(FaultInjected):
            _execute(FaultSpec(site="shard.run", kind="error"), None)


# ---------------------------------------------------------------------------
# ResilienceLog / cross-resume history
# ---------------------------------------------------------------------------
class TestResilienceLog:
    def test_record_failure_counts(self):
        log = ResilienceLog()
        assert log.record_failure(4) == 1
        assert log.record_failure(4) == 2
        assert log.record_failure(7) == 1
        assert log.attempts == {4: 2, 7: 1}

    def test_quarantine_dedups(self):
        log = ResilienceLog()
        log.record_quarantine(3)
        log.record_quarantine(3)
        assert log.quarantined == [3]

    def test_faulted(self):
        assert not ResilienceLog().faulted
        log = ResilienceLog()
        log.retries = 1
        assert log.faulted

    def test_history_roundtrip(self):
        log = ResilienceLog()
        log.record_failure(4)
        log.record_failure(4)
        log.record_quarantine(4)
        log.retries = 1
        history = merge_history(None, "run-a", log)
        reloaded = ResilienceLog.from_history(history)
        assert reloaded.attempts == {4: 2}
        assert reloaded.quarantined == [4]
        assert history["runs"][0]["run_id"] == "run-a"

    def test_merge_history_accumulates(self):
        first = ResilienceLog()
        first.record_failure(4)
        first.retries = 1
        history = merge_history(None, "run-a", first)
        second = ResilienceLog.from_history(history)
        second.record_failure(4)  # 2 total
        second.record_failure(9)
        second.record_quarantine(9)
        history = merge_history(history, "run-b", second)
        assert history["attempts"] == {"4": 2, "9": 1}
        assert history["quarantined"] == [9]
        assert [r["run_id"] for r in history["runs"]] == ["run-a", "run-b"]

    def test_clean_runs_leave_no_history_entry(self):
        history = merge_history(None, "run-a", ResilienceLog())
        assert history["runs"] == []

    def test_ladder_rungs(self):
        assert LADDER_RUNGS == ("warm", "respawned", "inline")
        assert ResilienceLog().ladder == "warm"


# ---------------------------------------------------------------------------
# Friendly fingerprint-mismatch refusals
# ---------------------------------------------------------------------------
class TestFingerprintDivergence:
    def test_names_the_diverged_component(self):
        expected = {"dataset": {"sha1": "aaa", "n_snps": 20}, "source": "x"}
        found = {"dataset": {"sha1": "bbb", "n_snps": 20}, "source": "x"}
        lines = fingerprint_divergence(expected, found)
        assert len(lines) == 1
        assert "dataset content digest" in lines[0]
        assert "aaa" in lines[0] and "bbb" in lines[0]

    def test_reports_missing_components(self):
        lines = fingerprint_divergence({"search": {"order": 3}}, {})
        assert any("only in this run" in line for line in lines)

    def test_resume_refusal_is_human_readable(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = JsonLedger(path)
        ledger.begin({"dataset": {"sha1": "aaa", "n_snps": 20}})
        ledger.write()
        fresh = JsonLedger(path)
        with pytest.raises(ValueError) as err:
            fresh.begin(
                {"dataset": {"sha1": "bbb", "n_snps": 20}},
                resume=True,
                label="shard ledger",
            )
        message = str(err.value)
        assert "cannot resume" in message
        assert "dataset content digest" in message
        assert "shard ledger" in message
        assert "Delete the file" in message


# ---------------------------------------------------------------------------
# Orphaned shared-memory segments
# ---------------------------------------------------------------------------
class TestOrphanReaper:
    def _fake_torn_segment(self) -> str:
        """A zero-headed rp* segment, as left by a publisher SIGKILLed
        mid-write (no magic, no manifest — invalid on scan)."""
        name = "rp" + uuid.uuid4().hex[:24]
        seg = shared_memory.SharedMemory(name=name, create=True, size=4096)
        seg.buf[:64] = bytes(64)
        seg.close()
        # The reaper owns the unlink (and suppresses tracker chatter); drop
        # this process's registration so teardown does not double-clean.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
        return name

    def test_scan_reports_torn_segments(self):
        shared_store()  # the startup sweep must not race this test's fixture
        name = self._fake_torn_segment()
        try:
            infos = {info.name: info for info in scan_segments()}
            assert name in infos
            assert not infos[name].valid
            assert infos[name].orphan
        finally:
            reap_orphans()

    def test_dry_run_reports_without_unlinking(self):
        shared_store()
        name = self._fake_torn_segment()
        try:
            would = reap_orphans(dry_run=True)
            assert name in {info.name for info in would}
            assert name in {info.name for info in scan_segments()}
        finally:
            reap_orphans()

    def test_reap_unlinks_torn_segments(self):
        shared_store()
        name = self._fake_torn_segment()
        reclaimed = reap_orphans()
        assert name in {info.name for info in reclaimed}
        assert name not in {info.name for info in scan_segments()}

    def test_live_segments_are_never_reaped(self, dataset):
        from repro.distributed.shm import publish_dataset

        assert publish_dataset(dataset) is not None
        before = {info.name for info in scan_segments()}
        assert before  # the published dataset segment is visible
        reaped = {info.name for info in reap_orphans()}
        assert not (before & reaped)
        after = {info.name for info in scan_segments()}
        assert before <= after


# ---------------------------------------------------------------------------
# The chaos matrix (multi-process; every run must stay bit-identical)
# ---------------------------------------------------------------------------
class TestChaosMatrix:
    @pytest.mark.parametrize(
        "spec, rung, breaks",
        [
            ("shard.run:crash", "respawned", 1),
            # Each break respawns the pool in place, so a shard that crashes
            # it twice completes on its third attempt, not inline.
            ("shard.run:crash:shard=3:count=2", "respawned", 2),
            ("shard.claim:exit", "respawned", 1),
            ("outcome.ship:error", "warm", 0),
            ("shard.run:slow:delay=0.1", "warm", 0),
        ],
        ids=["crash", "crash-twice", "exit", "error", "slow"],
    )
    def test_single_fault_completes_bit_identically(
        self, dataset, baseline, spec, rung, breaks
    ):
        source = DenseRangeSource(dataset.n_snps, 2)
        outcome = run_distributed(
            dataset, source, config=_config(), workers=2, pool="fresh",
            faults=spec, retry=FAST,
        )
        assert outcome.completed
        assert _rows(outcome) == baseline
        res = outcome.resilience
        assert (res["ladder"], res["pool_breaks"]) == (rung, breaks)
        assert res["quarantined"] == []
        kind = spec.split(":")[1]
        if kind in ("crash", "exit", "error"):
            # A dead worker breaks the pool; an in-worker exception fails
            # the batch without breaking it.  Either way the victims retry.
            assert res["retries"] >= 1

    def test_torn_publish_is_detected_and_replaced(self, baseline):
        # A fresh dataset (new content digest) forces a fresh publish for
        # the torn-write fault to intercept.
        ds = generate_dataset(
            SyntheticConfig(
                n_snps=20,
                n_samples=256,
                interaction=PlantedInteraction(
                    snps=PLANTED, model="xor", effect=0.9
                ),
                seed=12,
            )
        )
        source = DenseRangeSource(ds.n_snps, 2)
        reference = _rows(
            run_distributed(ds, source, config=_config(), workers=1)
        )
        outcome = run_distributed(
            ds, source, config=_config(), workers=2, pool="fresh",
            shm="on", faults="shm.publish:torn", retry=FAST,
        )
        assert outcome.completed
        assert _rows(outcome) == reference
        assert outcome.data_plane.get("segments_torn_injected", 0) >= 1

    def test_poison_shard_is_quarantined_and_finished_inline(
        self, dataset, baseline
    ):
        source = DenseRangeSource(dataset.n_snps, 2)
        outcome = run_distributed(
            dataset, source, config=_config(), workers=2, pool="fresh",
            faults="shard.run:crash:shard=3:count=99", retry=FAST,
        )
        assert outcome.completed
        assert _rows(outcome) == baseline
        res = outcome.resilience
        assert res["quarantined"] == [3]
        assert res["attempts"]["3"] == FAST.max_attempts
        # Every pool rung broke on the poison shard; the run finished on
        # the ladder's last rung, inline in the coordinator.
        assert res["ladder"] == "inline"
        assert res["pool_breaks"] == MAX_POOL_BREAKS

    def test_quarantine_before_the_break_budget_ends_inline(
        self, dataset, baseline
    ):
        # Two attempts break the pool twice, below the pool-break budget,
        # but the quarantined shard still finishes in the coordinator: the
        # recorded rung says so.
        source = DenseRangeSource(dataset.n_snps, 2)
        outcome = run_distributed(
            dataset, source, config=_config(), workers=2, pool="fresh",
            faults="shard.run:crash:shard=3:count=99",
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
        )
        assert outcome.completed
        assert _rows(outcome) == baseline
        res = outcome.resilience
        assert res["quarantined"] == [3]
        assert res["pool_breaks"] == 2
        assert res["ladder"] == "inline"

    def test_watchdog_kills_hung_workers(self, dataset, baseline):
        source = DenseRangeSource(dataset.n_snps, 2)
        outcome = run_distributed(
            dataset, source, config=_config(), workers=2, pool="fresh",
            faults="shard.run:hang:delay=120:count=1",
            retry=RetryPolicy(backoff_seconds=0.01, shard_deadline_seconds=1.5),
        )
        assert outcome.completed
        assert _rows(outcome) == baseline
        assert outcome.resilience["watchdog_kills"] >= 1
        assert outcome.resilience["retries"] >= 1

    def test_history_persists_across_resume(self, dataset, tmp_path):
        source = DenseRangeSource(dataset.n_snps, 2)
        ledger = tmp_path / "chaos.json"
        outcome = run_distributed(
            dataset, source, config=_config(), workers=2, pool="fresh",
            checkpoint=str(ledger), faults="shard.run:crash", retry=FAST,
        )
        assert outcome.completed
        assert outcome.resilience["retries"] >= 1
        doc = json.loads(ledger.read_text())
        history = doc["state"]["resilience"]
        assert history["attempts"]  # the crashed shard's failed attempt
        assert len(history["runs"]) == 1
        # The resumed run re-seeds its attempt budget from the ledger.
        resumed = run_distributed(
            dataset, source, config=_config(), workers=2, pool="fresh",
            checkpoint=str(ledger), resume=True,
        )
        assert resumed.completed
        assert resumed.resilience["attempts"] == history["attempts"]
        assert _rows(resumed) == _rows(outcome)

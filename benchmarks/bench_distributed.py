"""Process-scaling benchmark of the sharded distributed executor.

Measures, on a synthetic dataset with a planted third-order interaction,
the sharded sweep (``repro.distributed``) at 1, 2 and 4 worker processes.
Every worker count is measured twice on the warm fleet (``pool="keep"``,
shared-memory data plane on):

* **cold** — first contact: the fleet spawns, the coordinator publishes
  the dataset and the prepared encoding into shared memory, workers attach
  and hydrate their execution state;
* **warm** — the steady state a long session actually lives in: processes
  up, segments reused, worker contexts cached.  Speedup is computed from
  the warm runs (that is the cost model users pay per call), with the cold
  run recorded next to it so the amortised startup is visible.

The per-run ``data_plane`` counters are part of the artifact; the warm
runs must show **zero re-packs** — no ``encoding_cache_misses``, no
``dataset_pickled``/``dataset_unpickled`` — or the shared-memory tier is
not doing its job.

On a many-core host the measured curve should track the modelled one
(:func:`repro.perfmodel.distributed.estimate_distributed_run`, now
including spawn and attach terms); worker counts above ``os.cpu_count()``
are flagged ``"oversubscribed": true`` and their timings are reported but
never gated — a 4-worker run on a 1-core CI box measures context
switching, not scaling.

The artifact also carries a **fault-recovery** section
(:func:`measure_fault_recovery`): the measured cost of recovering from one
seeded worker crash (pool respawn + shard retry, next to the modelled
:func:`~repro.perfmodel.distributed.estimate_recovery_seconds`) and the
fault-free overhead of arming the heartbeat watchdog, which must stay
negligible — detection is passive, so resilience costs nothing until a
fault actually happens.

``--check`` runs a small sweep and gates on the structural claims
(deterministic merge at every worker count — including the crash and
watchdog runs — zero warm re-packs, watchdog overhead above
:data:`WATCHDOG_OVERHEAD_FLOOR`) plus — on hosts with at least 2 CPUs —
the 2-worker warm speedup floor.

Run standalone (``PYTHONPATH=src python benchmarks/bench_distributed.py``)
or through pytest (``pytest benchmarks/bench_distributed.py``); both paths
emit the artifact.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

from repro.core.combinations import combination_count
from repro.core.detector import DetectorConfig
from repro.datasets import PlantedInteraction, SyntheticConfig, generate_dataset
from repro.distributed import RetryPolicy, run_distributed, shutdown_fleets
from repro.perfmodel.distributed import (
    estimate_distributed_run,
    estimate_recovery_seconds,
)

#: Planted interaction of the benchmark dataset.
PLANTED = (5, 23, 41)

#: Worker process counts of the scaling sweep (the quick/--check sweep
#: stops at 2 — enough to exercise every data-plane path).
WORKER_COUNTS = (1, 2, 4)
QUICK_WORKER_COUNTS = (1, 2)

#: Where the artifact lands (the repository root).
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_distributed.json"

#: ``--check``: minimum 2-worker warm speedup on a host with >= 2 CPUs.
SPEEDUP_FLOOR = 1.4

#: ``--check``: allowed warm-speedup shortfall vs the committed artifact.
CHECK_TOLERANCE = 0.30

#: Warm data-plane counters that must stay at zero: any of these firing on
#: a warm run means arrays were re-packed or re-shipped instead of reused.
REPACK_COUNTERS = ("encoding_cache_misses", "dataset_pickled", "dataset_unpickled")

#: ``--check``: minimum fault-free throughput ratio of a run with the
#: heartbeat watchdog armed vs the same run without it.  Passive detection
#: (the pool break surfaces failures; the watchdog only bounds waits) must
#: cost essentially nothing when no fault fires.
WATCHDOG_OVERHEAD_FLOOR = 0.95


def _bench_dataset(quick: bool = False):
    return generate_dataset(
        SyntheticConfig(
            n_snps=48 if quick else 64,
            n_samples=1024,
            interaction=PlantedInteraction(
                snps=PLANTED, model="threshold", baseline=0.05, effect=0.9
            ),
            seed=42,
        )
    )


def repack_events(data_plane: dict) -> dict:
    """The re-pack/re-ship counters that fired (empty == zero re-packs)."""
    return {
        name: int(data_plane.get(name, 0))
        for name in REPACK_COUNTERS
        if data_plane.get(name, 0)
    }


def measure_distributed(quick: bool = False) -> dict:
    """Run the cold/warm scaling sweep and assemble the artifact document."""
    from repro.engine import DenseRangeSource

    dataset = _bench_dataset(quick)
    config = DetectorConfig(approach="cpu-v4", order=3, top_k=5)
    source = DenseRangeSource(dataset.n_snps, 3)
    total = combination_count(dataset.n_snps, 3)
    host_cpus = os.cpu_count() or 1
    counts = QUICK_WORKER_COUNTS if quick else WORKER_COUNTS

    runs = []
    reference_top = None
    warm_baseline = None
    try:
        for workers in counts:
            outcomes = []
            for _ in range(2):  # cold, then warm on the same fleet
                outcomes.append(
                    run_distributed(
                        dataset, source, config=config, workers=workers,
                        pool="keep", shm="auto",
                    )
                )
            cold, warm = outcomes
            top = [
                {"snps": list(i.snps), "score": float(i.score)}
                for i in warm.result.top
            ]
            if reference_top is None:
                reference_top = top
            if warm_baseline is None:
                warm_baseline = warm.elapsed_seconds
            oversubscribed = workers > host_cpus
            if oversubscribed:
                print(
                    f"warning: {workers} workers on a {host_cpus}-CPU host — "
                    "oversubscribed, timing measures contention not scaling"
                )
            model_shape = dict(
                n_candidates=total,
                n_samples=dataset.n_samples,
                n_snps=dataset.n_snps,
                order=3,
                n_workers=workers,
                n_shards=warm.n_shards,
                dataset_bytes=dataset.genotypes.nbytes + dataset.phenotypes.nbytes,
                top_k=config.top_k,
            )
            # Warm steady state: fleet up, worker contexts hydrated,
            # segments reused — no spawn, no attach (what speedup_vs_1
            # measures).  The cold estimate prices the per-run startup a
            # fresh pool would pay every call.
            modelled = estimate_distributed_run(
                **model_shape, pool="keep", shm=True, attach_seconds=0.0
            )
            modelled_cold = estimate_distributed_run(
                **model_shape, pool="fresh", shm=True
            )
            runs.append(
                {
                    "workers": workers,
                    "oversubscribed": oversubscribed,
                    "n_shards": warm.n_shards,
                    "cold_seconds": cold.elapsed_seconds,
                    "warm_seconds": warm.elapsed_seconds,
                    "tables_per_second": total / warm.elapsed_seconds,
                    "speedup_vs_1": warm_baseline / warm.elapsed_seconds,
                    "top_identical_to_workers_1": top == reference_top,
                    "best_snps": top[0]["snps"],
                    "data_plane_cold": dict(cold.data_plane),
                    "data_plane_warm": dict(warm.data_plane),
                    "warm_repacks": repack_events(warm.data_plane),
                    "modelled": {
                        "speedup_vs_single": modelled["speedup_vs_single"],
                        "parallel_efficiency": modelled["parallel_efficiency"],
                        "imbalance": modelled["imbalance"],
                        "broadcast_seconds": modelled["broadcast_seconds"],
                        "gather_seconds": modelled["gather_seconds"],
                        "cold_spawn_seconds": modelled_cold["spawn_seconds"],
                        "cold_attach_seconds": modelled_cold["attach_seconds"],
                        "cold_estimated_seconds": modelled_cold[
                            "estimated_seconds"
                        ],
                    },
                }
            )
    finally:
        shutdown_fleets()
    from repro.telemetry import host_metadata

    return {
        "benchmark": "distributed",
        "quick": bool(quick),
        "dataset": {
            "n_snps": dataset.n_snps,
            "n_samples": dataset.n_samples,
            "planted": list(PLANTED),
        },
        "total_tables": total,
        "host_cpus": host_cpus,
        "host": host_metadata(),
        "pool": "keep",
        "shm": True,
        "runs": runs,
        "fault_recovery": measure_fault_recovery(quick),
    }


def measure_fault_recovery(quick: bool = False) -> dict:
    """Measure the overhead of fault recovery and of the armed watchdog.

    Three 2-worker runs on dedicated fresh pools (fault handling must not
    inherit a warm fleet's hydrated state to be honestly priced):

    * **fault-free** — the reference wall-clock;
    * **watchdog armed** — same run with a ``shard_deadline_seconds``; no
      fault fires, so any slowdown is pure detection overhead (the
      ``--check`` gate holds it above :data:`WATCHDOG_OVERHEAD_FLOOR`);
    * **one crash** — a seeded ``shard.run:crash`` SIGKILLs a worker; the
      recovery cost (pool respawn + shard retry) is the measured delta,
      reported next to :func:`estimate_recovery_seconds`'s modelled figure.

    Every run must merge bit-identically to the fault-free one.
    """
    from repro.engine import DenseRangeSource

    dataset = _bench_dataset(quick)
    config = DetectorConfig(approach="cpu-v4", order=3, top_k=5)
    source = DenseRangeSource(dataset.n_snps, 3)
    retry = RetryPolicy(backoff_seconds=0.01)

    def run(**kwargs):
        return run_distributed(
            dataset, source, config=config, workers=2, pool="fresh",
            shm="auto", **kwargs,
        )

    clean = run()
    watchdog = run(retry=RetryPolicy(backoff_seconds=0.01,
                                     shard_deadline_seconds=30.0))
    crashed = run(faults="shard.run:crash", retry=retry)

    reference = [(list(i.snps), float(i.score)) for i in clean.result.top]
    shard_seconds = clean.elapsed_seconds / max(1, clean.n_shards) * 2
    modelled = estimate_recovery_seconds(
        1, shard_seconds, 2, backoff_seconds=retry.backoff_seconds
    )
    return {
        "workers": 2,
        "pool": "fresh",
        "fault_free_seconds": clean.elapsed_seconds,
        "watchdog_seconds": watchdog.elapsed_seconds,
        "watchdog_throughput_ratio": (
            clean.elapsed_seconds / watchdog.elapsed_seconds
        ),
        "watchdog_faulted": watchdog.resilience.get("retries", 0) > 0,
        "crash_seconds": crashed.elapsed_seconds,
        "crash_recovery_seconds": max(
            0.0, crashed.elapsed_seconds - clean.elapsed_seconds
        ),
        "crash_resilience": dict(crashed.resilience),
        "modelled_recovery_seconds": modelled,
        "watchdog_identical": (
            [(list(i.snps), float(i.score)) for i in watchdog.result.top]
            == reference
        ),
        "crash_identical": (
            [(list(i.snps), float(i.score)) for i in crashed.result.top]
            == reference
        ),
    }


def write_artifact(doc: dict) -> Path:
    ARTIFACT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return ARTIFACT


def check_against_baseline(doc: dict, baseline_path: Path) -> int:
    """Gate on the structural claims of the distributed data plane.

    Always enforced: the merge is bit-identical at every worker count, the
    planted interaction is recovered, and warm runs re-pack nothing.  On a
    host with >= 2 CPUs the 2-worker warm speedup must clear
    :data:`SPEEDUP_FLOOR` (and stay within :data:`CHECK_TOLERANCE` of the
    committed artifact's, when one exists for a comparable host).
    Oversubscribed runs are exempt from every timing gate.
    """
    failures = []
    for run in doc["runs"]:
        if not run["top_identical_to_workers_1"]:
            failures.append(f"workers={run['workers']}: merge not bit-identical")
        if sorted(run["best_snps"]) != list(PLANTED):
            failures.append(
                f"workers={run['workers']}: planted interaction not recovered "
                f"(got {run['best_snps']})"
            )
        if run["warm_repacks"]:
            failures.append(
                f"workers={run['workers']}: warm run re-packed data "
                f"{run['warm_repacks']}"
            )

    recovery = doc.get("fault_recovery") or {}
    if recovery:
        if not recovery["crash_identical"]:
            failures.append("crash recovery: merge not bit-identical")
        if not recovery["watchdog_identical"]:
            failures.append("watchdog run: merge not bit-identical")
        if recovery["crash_resilience"].get("retries", 0) < 1:
            failures.append(
                "crash recovery: the injected crash caused no retry "
                f"({recovery['crash_resilience']})"
            )
        oversubscribed = (os.cpu_count() or 1) < 2
        ratio = recovery["watchdog_throughput_ratio"]
        if not oversubscribed and ratio < WATCHDOG_OVERHEAD_FLOOR:
            failures.append(
                f"armed watchdog costs too much on a fault-free run: "
                f"{ratio:.2f}x < {WATCHDOG_OVERHEAD_FLOOR:.2f}x"
            )

    host_cpus = int(doc.get("host_cpus") or 1)
    two = next((r for r in doc["runs"] if r["workers"] == 2), None)
    if two is not None and host_cpus >= 2 and not two["oversubscribed"]:
        speedup = two["speedup_vs_1"]
        floor = SPEEDUP_FLOOR
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
            base_two = next(
                (
                    r
                    for r in baseline.get("runs", [])
                    if r["workers"] == 2 and not r.get("oversubscribed")
                ),
                None,
            )
            if base_two is not None:
                floor = max(
                    floor, base_two["speedup_vs_1"] * (1.0 - CHECK_TOLERANCE)
                )
        if speedup < floor:
            failures.append(
                f"2-worker warm speedup {speedup:.2f}x below {floor:.2f}x "
                f"({host_cpus}-CPU host)"
            )
    elif two is not None:
        print(
            f"host has {host_cpus} CPU(s): speedup gate skipped "
            f"(2-worker warm speedup measured {two['speedup_vs_1']:.2f}x)"
        )

    if failures:
        print("distributed benchmark check failed:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        f"distributed check OK ({len(doc['runs'])} worker counts, "
        "deterministic merge, zero warm re-packs)"
    )
    return 0


def test_distributed_benchmark_emits_artifact():
    """Pytest entry point: run the scaling sweep, emit JSON, check claims."""
    doc = measure_distributed(quick=True)
    runs = doc["runs"]
    assert [r["workers"] for r in runs] == list(QUICK_WORKER_COUNTS)
    # Acceptance: every worker count merges to the identical top-k,
    # recovers the planted interaction, and warm runs re-pack nothing.
    assert check_against_baseline(doc, ARTIFACT) == 0
    # The model must predict non-degrading scaling for this compute-bound
    # shape (the measured curve depends on the host's core count).
    modelled = [r["modelled"]["speedup_vs_single"] for r in runs]
    assert modelled == sorted(modelled)
    # The shared-memory data plane must actually carry the arrays: the cold
    # multi-process run publishes segments and every worker attaches.
    multi = next(r for r in runs if r["workers"] > 1)
    assert multi["data_plane_cold"].get("segments_published", 0) >= 1
    assert multi["data_plane_cold"].get("dataset_shm_attached", 0) >= 1
    # Fault recovery: the injected crash retried and recovered to the
    # identical merge (timing gates live in check_against_baseline).
    recovery = doc["fault_recovery"]
    assert recovery["crash_identical"] and recovery["watchdog_identical"]
    assert recovery["crash_resilience"]["retries"] >= 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI-sized sweep (printed, not written to the artifact)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the quick sweep and gate on the structural claims "
        "(deterministic merge, zero warm re-packs, and the 2-worker warm "
        "speedup floor on multi-CPU hosts); does not overwrite the artifact",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check_against_baseline(measure_distributed(quick=True), ARTIFACT)
    doc = measure_distributed(quick=args.quick)
    if args.quick:
        print(json.dumps(doc["dataset"]))
    else:
        print(f"wrote {write_artifact(doc)}")
    for run in doc["runs"]:
        note = " OVERSUBSCRIBED" if run["oversubscribed"] else ""
        print(
            f"workers={run['workers']}: cold {run['cold_seconds']:.3f} s, "
            f"warm {run['warm_seconds']:.3f} s, "
            f"{run['tables_per_second']:.0f} tables/s, "
            f"speedup {run['speedup_vs_1']:.2f}x "
            f"(modelled {run['modelled']['speedup_vs_single']:.2f}x), "
            f"identical={run['top_identical_to_workers_1']}{note}"
        )
    recovery = doc["fault_recovery"]
    print(
        f"fault recovery: fault-free {recovery['fault_free_seconds']:.3f} s, "
        f"watchdog armed {recovery['watchdog_seconds']:.3f} s "
        f"({recovery['watchdog_throughput_ratio']:.2f}x), one crash "
        f"{recovery['crash_seconds']:.3f} s "
        f"(+{recovery['crash_recovery_seconds']:.3f} s recovery, modelled "
        f"+{recovery['modelled_recovery_seconds']:.3f} s), "
        f"identical={recovery['crash_identical']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

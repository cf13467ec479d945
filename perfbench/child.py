"""One benchmark role in a fresh interpreter.

``run.py`` starts this script once per role and reads the JSON document it
writes to ``--out``:

* ``reference`` -- the answer every timed search must reproduce, from the
  validated ``cpu-v2`` path (plus, for the staged workload, the in-process
  ``cpu-v4`` run) and the brute-force oracle's re-scoring of the top-k;
* ``setup`` -- import, load, detector construction, first encode and (on
  the fleet workload) the fleet warm-up, then exit: one set-up sample;
* ``measure`` -- set-up, one warm-up search, then timed searches for
  ``--seconds``, tracing off;
* ``trace`` -- set-up and searches alternating between untraced and traced
  (the layer wrappers of ``layers.py`` plus ``telemetry="full"``).

The roles that set up print ``READY`` on stdout once the program can
search, so the parent times set-up from the moment it started the process.
Spawned fleet workers re-import this file; everything below the imports
runs only under ``__main__``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from layers import LayerTracer, install_repro_layers
from workloads import APPROACH, OBJECTIVE, TOP_K, WORKLOADS, answer_of

#: Searches every timed or traced loop runs at least, however long they take.
MIN_SEARCHES = 3


def make_detector(workload, telemetry="off", **overrides):
    from repro import EpistasisDetector

    config = dict(
        approach=APPROACH,
        objective=OBJECTIVE,
        order=workload.order,
        n_workers=1,
        top_k=TOP_K,
        telemetry=telemetry,
    )
    config.update(overrides)
    return EpistasisDetector(**config)


def set_up(workload, npz):
    """Load, construct, encode and (fleet workload) warm the fleet.

    Returns ``(dataset, detector, fleet_warm_s)``.  The first encode goes
    through the public scoring call, which packs the dataset into the
    process-wide encoding cache.  The fleet warm-up is a small candidate
    sweep on the kept fleet with shared memory on: it spawns the workers,
    publishes the dataset and encoding and hydrates the worker contexts.
    """
    from repro.datasets.io import load_npz

    dataset = load_npz(npz)
    detector = make_detector(workload)
    first = np.arange(workload.order, dtype=np.int64)[None, :]
    detector.score_combinations(dataset, first)
    warm_s = 0.0
    if workload.workers > 1:
        from repro.engine import ExplicitCombinationSource

        combos = np.array(list(itertools.combinations(range(12), workload.order)))
        started = time.perf_counter()
        detector.detect_candidates(
            dataset,
            ExplicitCombinationSource(combos),
            workers=workload.workers,
            pool="keep",
            shm="on",
        )
        warm_s = time.perf_counter() - started
    return dataset, detector, warm_s


def search(workload, detector, dataset, seed, checkpoint):
    """One search of the workload; returns ``(answer, result)``."""
    if not workload.staged:
        result = detector.detect(dataset)
        return answer_of(result.top), result
    result = detector.detect_staged(
        dataset,
        screen_order=workload.screen_order,
        keep_snps=workload.keep_snps,
        n_permutations=workload.n_permutations,
        permutation_seed=seed,
        workers=workload.workers,
        checkpoint=str(checkpoint),
        pool="keep",
        shm="on",
    )
    return answer_of(result.top, result.p_values), result


def program_info(detector) -> dict:
    """The program configuration a search actually resolved to."""
    from repro.core.fusion import resolve_fused_mode
    from repro.telemetry import host_metadata, resolve_telemetry_mode

    approach = detector.approach
    return {
        "backend": approach.backend_name,
        "word_layout": approach.word_layout.name,
        "fused": resolve_fused_mode(detector.config.fused),
        "telemetry": resolve_telemetry_mode(detector.config.telemetry),
        "host": host_metadata(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its fleet workers, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
    return kib / 1024.0


class Searches:
    """Runs searches, keeping every answer and every failure."""

    def __init__(self, workload, dataset, seed, scratch, corrupt=None):
        self.workload = workload
        self.dataset = dataset
        self.seed = seed
        self.scratch = scratch
        self.corrupt = corrupt
        self.answers = []
        self.errors = []

    def run(self, detector, span=contextlib.nullcontext):
        """One search: ``(wall_s, result)``, or ``(None, None)`` if it raised.

        ``span()`` is entered around exactly the search call.
        """
        checkpoint = self.scratch / f"ckpt-{len(self.answers)}"
        try:
            with span():
                started = time.perf_counter()
                answer, result = search(
                    self.workload, detector, self.dataset, self.seed, checkpoint
                )
                wall = time.perf_counter() - started
        except Exception:
            self.answers.append(None)
            self.errors.append(traceback.format_exc(limit=4))
            return None, None
        finally:
            shutil.rmtree(checkpoint, ignore_errors=True)
        if self.corrupt is not None and len(self.answers) == self.corrupt:
            # Self-test hook: one answer off by the last bit of a score.
            score = float.fromhex(answer["top"][0][1])
            answer["top"][0][1] = float(np.nextafter(score, np.inf)).hex()
        self.answers.append(answer)
        return wall, result


def role_reference(args, workload) -> dict:
    from repro.baselines.reference import BruteForceReference
    from repro.datasets.io import load_npz

    if workload.workers > 1:
        from repro.distributed import reap_orphans

        reap_orphans()
    dataset = load_npz(args.npz)
    validated = make_detector(workload, approach="cpu-v2", validate=True)
    checks = {}
    if workload.staged:
        options = dict(
            screen_order=workload.screen_order,
            keep_snps=workload.keep_snps,
            n_permutations=workload.n_permutations,
            permutation_seed=args.seed,
        )
        result = validated.detect_staged(dataset, **options)
        answer = answer_of(result.top, result.p_values)
        inline = make_detector(workload).detect_staged(dataset, workers=1, **options)
        checks["cpu-v4 workers=1 agrees"] = answer_of(inline.top, inline.p_values) == answer
    else:
        result = validated.detect(dataset)
        answer = answer_of(result.top)
    oracle = BruteForceReference(objective=OBJECTIVE, order=workload.order)
    exact = sum(
        oracle.score_combination(dataset, inter.snps) == inter.score for inter in result.top
    )
    checks[f"oracle re-scores {exact}/{len(result.top)} exactly"] = exact == len(result.top)
    return {"answer": answer, "checks": checks}


def role_setup(args, workload) -> dict:
    set_up(workload, args.npz)
    print("READY", flush=True)
    return {}


def role_measure(args, workload) -> dict:
    dataset, detector, _ = set_up(workload, args.npz)
    print("READY", flush=True)
    searches = Searches(workload, dataset, args.seed, args.scratch, args.corrupt)
    searches.run(detector)  # warm-up: caches fill, lazy set-up finishes
    walls = []
    began = time.perf_counter()
    for attempt in itertools.count():
        if attempt >= MIN_SEARCHES and time.perf_counter() - began >= args.seconds:
            break
        wall, _ = searches.run(detector)
        if wall is not None:
            walls.append(wall)
    return {
        "search_s": walls,
        "answers": searches.answers,
        "errors": searches.errors,
        "peak_rss_mb": peak_rss_mb(),
        "program": program_info(detector),
    }


def layer_row(tracer, session, result) -> dict:
    """Per-layer metrics of one traced search."""
    own = tracer.self_s
    counts = tracer.counts
    tiles = counts["tiling.tiles"]
    registry = session.metrics
    counters = registry.counters()
    spans = session.tracer.export_spans()
    shard_runs = defaultdict(float)
    for span in spans:
        if span["name"] == "shard.run":
            shard_runs[span["pid"]] += span["duration"]
    reused = counters.get("dataplane.worker_context_reused", 0)
    built = counters.get("dataplane.worker_context_built", 0)
    ops = sum(value for name, value in counters.items() if name.startswith("ops."))
    traffic = counters.get("traffic.bytes_loaded", 0) + counters.get("traffic.bytes_stored", 0)
    stages = {report.stage: report for report in getattr(result, "stages", [])}

    def span_total(name):
        return sum(span["duration"] for span in spans if span["name"] == name)

    def stage_s(name):
        return stages[name].elapsed_seconds if name in stages else 0.0

    return {
        "trace.search_s": tracer.wall,
        "backends.build_s": own["backends"],
        "backends.build_calls": tracer.spans["backends"],
        "backends.tables": counts["backends.tables"],
        "scoring.score_s": own["scoring"],
        "scoring.calls": tracer.spans["scoring"],
        "tiling.s": own["tiling"],
        "tiling.tiles": tiles,
        "tiling.combos_per_tile": counts["tiling.combos"] / tiles if tiles else 0.0,
        "tiling.snps_per_tile": counts["tiling.snps"] / tiles if tiles else 0.0,
        "topk.s": own["topk"],
        "topk.batches": tracer.spans["topk"],
        "candidates.s": own["candidates"],
        "candidates.rows": counts["candidates.rows"],
        "engine.chunks": counters.get("engine.chunks", 0),
        "engine.unattributed_s": own["search"] + own["engine"],
        "engine.lane_utilization": registry.gauge("engine.lane.cpu.utilization") or 0.0,
        "encode.s": own["encode"],
        "encode.builds": counts["encode.builds"],
        "pipeline.s": own["pipeline"],
        "pipeline.screen_s": stage_s("screen"),
        "pipeline.expand_s": stage_s("expand"),
        "pipeline.permutation_s": stage_s("permutation"),
        "pipeline.tables": sum(report.evaluated for report in stages.values()),
        "distributed.s": own["distributed"],
        "distributed.shards": len([s for s in spans if s["name"] == "shard.run"]),
        "distributed.shard_run_s": sum(shard_runs.values()),
        "distributed.worker_imbalance": (
            max(shard_runs.values()) / statistics.fmean(shard_runs.values())
            if shard_runs
            else 0.0
        ),
        "distributed.dispatch_wait_s": span_total("shard.dispatch"),
        "distributed.shm_publish_s": span_total("shm.publish"),
        "distributed.context_reuse_ratio": reused / (reused + built) if reused + built else 0.0,
        "distributed.retries": counters.get("resilience.retries", 0),
        "checkpoint.s": own["checkpoint"],
        "checkpoint.writes": counts["checkpoint.writes"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "model.ops": ops,
        "model.bytes": traffic,
        "model.ops_per_byte": ops / traffic if traffic else 0.0,
    }


def role_trace(args, workload) -> dict:
    import repro  # noqa: F401  (set-up cost, and the layers must exist to wrap)
    from repro.core.encoding_cache import ENCODING_CACHE
    from repro.telemetry import last_run

    setup_tracer = LayerTracer()
    with setup_tracer.installed(install_repro_layers), setup_tracer.search():
        dataset, untraced, warm_s = set_up(workload, args.npz)
    print("READY", flush=True)
    searches = Searches(workload, dataset, args.seed, args.scratch, args.corrupt)
    searches.run(untraced)  # warm-up, as in the timed runs

    def cache_lookups():
        hits = ENCODING_CACHE.hits + ENCODING_CACHE.shm_hits
        return hits, hits + ENCODING_CACHE.misses

    hits0, lookups0 = cache_lookups()
    tracer = LayerTracer()
    rows, untraced_walls, sums = [], [], []
    began = time.perf_counter()
    for attempt in itertools.count():
        if attempt >= MIN_SEARCHES and time.perf_counter() - began >= args.seconds:
            break
        wall, _ = searches.run(untraced)
        if wall is not None:
            untraced_walls.append(wall)
        # A fresh detector per traced search: a detector's operation
        # counters accumulate across its searches.
        traced = make_detector(workload, telemetry="full")
        with tracer.installed(install_repro_layers):
            wall, result = searches.run(traced, tracer.search)
        if wall is None:
            continue
        rows.append(layer_row(tracer, last_run(), result))
        sums.append(
            {
                "wall": tracer.wall,
                "self_sum": sum(tracer.self_s.values()),
                "min_self": tracer.min_self,
            }
        )
    hits1, lookups1 = cache_lookups()
    doc = {
        "traced": len(rows),
        "untraced": len(untraced_walls),
        "identity": sums,
        "answers": searches.answers,
        "errors": searches.errors,
        "program": program_info(make_detector(workload, telemetry="full")),
    }
    if not rows or not untraced_walls:
        return doc
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    # A user's first search pays the set-up encode on top of a search's own.
    metrics["encode.s"] += setup_tracer.self_s["encode"]
    metrics["encode.builds"] += setup_tracer.counts["encode.builds"]
    metrics["encode.cache_hit_ratio"] = (
        (hits1 - hits0) / (lookups1 - lookups0) if lookups1 > lookups0 else 0.0
    )
    metrics["distributed.spawn_s"] = warm_s
    metrics["telemetry.overhead_ratio"] = metrics["trace.search_s"] / statistics.median(
        untraced_walls
    )
    doc["metrics"] = metrics
    return doc


ROLES = {
    "reference": role_reference,
    "setup": role_setup,
    "measure": role_measure,
    "trace": role_trace,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--npz", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--corrupt", type=int, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload].scaled(args.toy)
    try:
        doc = ROLES[args.role](args, workload)
    finally:
        if workload.workers > 1 and "repro.distributed" in sys.modules:
            from repro.distributed import shutdown_fleets

            shutdown_fleets()
    args.out.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

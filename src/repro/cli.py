"""Command-line interface.

``repro-epistasis`` (or ``python -m repro``) exposes the library's main entry
points without writing any Python:

* ``generate`` — create a synthetic case/control dataset (optionally with a
  planted interaction of any order 2-5) and save it to ``.npz`` or text;
* ``detect`` — run the exhaustive k-way search (``--order``, default 3) on a
  dataset file with a chosen approach/objective and print the best
  interactions; ``--workers N`` shards the space across OS processes and
  ``--checkpoint``/``--resume`` make long sweeps crash-safe;
* ``pipeline`` — run the staged search (screen → expand, optional refine
  and permutation stages) with a retention budget (``--retain``); the same
  ``--workers``/``--checkpoint``/``--resume`` flags shard and checkpoint
  every sweep stage;
* ``backends`` — report the execution backends (availability, versions,
  calibrated throughput) and optionally run the micro-calibration probes
  (``--calibrate``);
* ``shm`` — inspect (``ls``) or reclaim (``clean``) the shared-memory data
  plane's segments, e.g. orphans left by a SIGKILLed run;
* ``devices`` — print Tables I and II (the device catalog);
* ``figures`` — regenerate the paper's figures/tables from the analytical
  models (Figure 2, Figure 3, Figure 4, Table III, §V-D comparison,
  ablations).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def _devices_expression(value: str) -> str:
    """argparse type for ``--devices``: validate early, keep the string."""
    from repro.engine import parse_devices

    try:
        parse_devices(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _chunk_size(value: str) -> "int | str":
    """argparse type for ``--chunk-size``: a positive integer or ``auto``."""
    if value.strip().lower() == "auto":
        return "auto"
    try:
        chunk = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid chunk size {value!r}: use a positive integer or 'auto'"
        ) from None
    if chunk < 1:
        raise argparse.ArgumentTypeError("chunk size must be positive")
    return chunk


def _output_path(value: str) -> str:
    """argparse type for ``--output``: only .json / .csv exports exist."""
    if not value.endswith((".json", ".csv")):
        raise argparse.ArgumentTypeError(
            f"unsupported output format {value!r}: use a .json or .csv path"
        )
    return value


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    """Execution options shared by the ``detect`` and ``pipeline`` commands.

    ``--approach``, ``--objective`` and ``--schedule`` validate against the
    registries (names plus accepted aliases), so a typo fails at parse time
    with the list of valid names instead of surfacing as a deep ``KeyError``.
    """
    from repro.core.approaches import list_approaches
    from repro.core.scoring import OBJECTIVES
    from repro.engine import list_policies

    parser.add_argument(
        "--approach",
        default="cpu-v4",
        choices=list_approaches(include_aliases=True),
        help="table-construction approach (aliases like 'cpu' resolve to "
        "the best variant of the device kind)",
    )
    parser.add_argument(
        "--objective",
        default="k2",
        choices=sorted(OBJECTIVES),
        help="objective function scored over the frequency tables",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="distributed worker processes (repro.distributed): the "
        "candidate space is cut into shards executed across N OS "
        "processes with a deterministic merge — results are bit-identical "
        "for any N",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="T",
        help="host threads per worker process (the engine's in-process "
        "parallelism)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="atomic shard-ledger path (detect: a .json file; pipeline: a "
        "directory) committed after every arrived batch of shards, enabling "
        "--resume after a kill",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore completed shards/stages from the --checkpoint ledger "
        "instead of re-evaluating them (safe when no ledger exists yet)",
    )
    parser.add_argument(
        "--pool",
        choices=("keep", "fresh"),
        default="keep",
        help="worker-process lifecycle: 'keep' (default) executes on a "
        "process-wide warm fleet that survives across runs and pipeline "
        "stages (spawn once, reuse hydrated workers); 'fresh' spawns a "
        "dedicated pool per run and tears it down afterwards",
    )
    parser.add_argument(
        "--shm",
        choices=("on", "off", "auto"),
        default="auto",
        help="shared-memory data plane: publish the dataset and prepared "
        "encodings into POSIX shared memory so worker processes attach "
        "zero-copy views instead of unpickling arrays ('auto' enables it "
        "whenever --workers > 1)",
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=None,
        metavar="N",
        help="per-shard attempt budget of the distributed sweep (default 3): "
        "a shard whose worker crashes is retried with exponential backoff "
        "up to N attempts, then quarantined and executed inline in the "
        "coordinator — the run still completes with bit-identical results",
    )
    parser.add_argument(
        "--shard-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat-watchdog deadline: if no shard completes for this "
        "many seconds while work is in flight, the hung worker pool is "
        "killed and its shards are re-dispatched (default: no deadline)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for chaos testing: a compact "
        "spec like 'shard.run:crash' or 'shm.publish:torn:count=2', a JSON "
        "list, or '@plan.json' (also: the REPRO_FAULTS environment "
        "variable). Faults are injected at seeded sites; the run must "
        "still produce bit-identical results",
    )
    parser.add_argument(
        "--chunk-size",
        type=_chunk_size,
        default=None,
        metavar="N|auto",
        help="combinations per scheduler chunk (claim), or 'auto' to let "
        "every worker tune its claim size from measured per-chunk "
        "throughput (default: sized per search from the kernel byte budget "
        "and the order: 5461 pairs, 1820 triplets, 606 at k=4, 202 at k=5; "
        "smaller when several threads share a small search)",
    )
    parser.add_argument(
        "--word-width",
        choices=("32", "64", "auto"),
        default="auto",
        help="machine-word width of the packed encodings: 32 is the "
        "paper-fidelity word, 64 halves the kernel element count "
        "(bit-identical results); 'auto' picks 64 when NumPy offers a "
        "native popcount",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "cupy", "numba", "numpy"),
        default=None,
        help="execution backend of the CPU kernel hot loop: 'numpy' is the "
        "always-available reference, 'numba' JIT-compiles it, 'cupy' runs "
        "the split kernel on a CUDA device; 'auto' picks numba when "
        "importable, else numpy (default: the REPRO_BACKEND environment "
        "variable, else auto). Results are bit-identical across backends",
    )
    parser.add_argument(
        "--fused",
        choices=("auto", "on", "off"),
        default=None,
        help="fused build+score path: fold each combination's table "
        "straight into the objective without materialising the chunk-wide "
        "table array. 'auto' fuses whenever the objective/backend support "
        "it, 'on' requires it, 'off' always materialises (default: the "
        "REPRO_FUSED environment variable, else auto). Results are "
        "bit-identical either way",
    )
    parser.add_argument(
        "--telemetry",
        choices=("off", "minimal", "full"),
        default=None,
        help="telemetry plane: 'off' compiles tracing to no-ops, 'minimal' "
        "records coarse spans and the metrics registry, 'full' adds "
        "per-chunk kernel samples (default: the REPRO_TELEMETRY "
        "environment variable, else off). Results are bit-identical in "
        "every mode",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="export the run's telemetry trace: a .jsonl span log, or a "
        "Chrome trace-event .json loadable in Perfetto (implies "
        "--telemetry full unless a mode is given explicitly)",
    )
    parser.add_argument("--top-k", type=int, default=5)
    parser.add_argument(
        "--devices",
        default=None,
        type=_devices_expression,
        metavar="EXPR",
        help="execution-engine device lanes: 'cpu', 'gpu' or 'cpu+gpu' "
        "(default: the approach's own device kind)",
    )
    parser.add_argument(
        "--schedule",
        default="dynamic",
        choices=list_policies(include_aliases=True),
        help="engine scheduling policy; 'carm' splits work across device "
        "lanes proportionally to their modelled throughput",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print chunk-level progress to stderr",
    )
    parser.add_argument(
        "--output",
        default=None,
        type=_output_path,
        metavar="PATH",
        help="export the result (top-k table, scores, ranks, per-device "
        "stats) to a .json or .csv file",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-epistasis",
        description="Exhaustive k-way epistasis detection (IPDPS 2022 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("output", help="output path (.npz or .csv/.txt)")
    gen.add_argument("--snps", type=int, default=64)
    gen.add_argument("--samples", type=int, default=1024)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--maf-low", type=float, default=0.05)
    gen.add_argument("--maf-high", type=float, default=0.5)
    gen.add_argument(
        "--interaction",
        type=int,
        nargs="+",
        metavar="SNP",
        help="plant an interaction at these 2-5 SNP indices "
        "(3 indices reproduce the paper's third-order setting)",
    )
    gen.add_argument(
        "--model",
        choices=("threshold", "multiplicative", "xor"),
        default="threshold",
        help="penetrance model of the planted interaction",
    )
    gen.add_argument("--effect", type=float, default=0.8)
    gen.add_argument("--baseline", type=float, default=0.05)

    det = sub.add_parser("detect", help="run the exhaustive k-way search")
    det.add_argument("dataset", help="dataset path (.npz or text)")
    det.add_argument(
        "--order",
        type=int,
        default=3,
        choices=(2, 3, 4, 5),
        help="interaction order k: 2 = pairwise screen, 3 = the paper's "
        "third-order search (default), 4/5 = higher-order searches; every "
        "approach supports every order",
    )
    _add_search_options(det)

    pipe = sub.add_parser(
        "pipeline",
        help="run the staged search (screen -> expand -> refine -> permutation)",
    )
    pipe.add_argument("dataset", help="dataset path (.npz or text)")
    pipe.add_argument(
        "--order",
        type=int,
        default=3,
        choices=(3, 4, 5),
        help="interaction order k of the expand stage (the finalists); "
        "the screen must run at a lower order, so a staged order-2 search "
        "does not exist (use 'detect --order 2' for a dense pairwise scan)",
    )
    pipe.add_argument(
        "--screen-order",
        type=int,
        default=2,
        choices=(2, 3, 4),
        help="interaction order of the cheap screening scan (must be below "
        "--order)",
    )
    pipe.add_argument(
        "--retain",
        type=int,
        default=None,
        metavar="M",
        help="SNPs retained by the screen (the retention budget; default: a "
        "quarter of the dataset's SNPs)",
    )
    from repro.core.scoring import OBJECTIVES

    pipe.add_argument(
        "--refine-objective",
        default=None,
        choices=sorted(OBJECTIVES),
        help="re-score the finalists under a second objective",
    )
    pipe.add_argument(
        "--permutations",
        type=int,
        default=0,
        metavar="P",
        help="phenotype permutations for empirical p-values over the "
        "finalists (0 = skip the permutation stage)",
    )
    pipe.add_argument(
        "--permutation-seed",
        type=int,
        default=0,
        help="seed of the permutation null",
    )
    _add_search_options(pipe)

    back = sub.add_parser(
        "backends",
        help="report execution backends (availability, calibrated throughput)",
    )
    back.add_argument(
        "--calibrate",
        action="store_true",
        help="run the micro-calibration probes on every available backend "
        "and persist the measured throughput to the per-host store",
    )
    back.add_argument(
        "--family",
        choices=("split", "naive"),
        default="split",
        help="kernel family reported/calibrated (default: split, the "
        "paper's best CPU family)",
    )
    back.add_argument(
        "--order",
        type=int,
        default=3,
        choices=(2, 3, 4, 5),
        help="interaction order reported/calibrated",
    )
    back.add_argument(
        "--word-width",
        choices=("32", "64", "auto"),
        default="auto",
        help="word layout reported/calibrated (default: the session's "
        "default layout)",
    )
    back.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per calibration probe (best-of)",
    )
    back.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of the table",
    )

    shm = sub.add_parser(
        "shm",
        help="inspect or clean the shared-memory data plane's segments",
    )
    shm_sub = shm.add_subparsers(dest="shm_command", required=True)
    shm_ls = shm_sub.add_parser(
        "ls", help="list the data plane's /dev/shm segments"
    )
    shm_ls.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    shm_clean = shm_sub.add_parser(
        "clean",
        help="unlink orphaned segments (torn writes, dead owners); live "
        "segments owned by running processes are never touched",
    )
    shm_clean.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be reaped without unlinking anything",
    )
    shm_clean.add_argument(
        "--force",
        action="store_true",
        help="also reap segments whose owner cannot be determined "
        "(pre-upgrade segments without an owner stamp)",
    )

    trace = sub.add_parser(
        "trace", help="inspect telemetry trace files exported with --trace-out"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="aggregate a trace's spans into a per-name table"
    )
    trace_summary.add_argument(
        "path",
        help="trace file: a .jsonl span log or a Chrome trace-event .json",
    )

    sub.add_parser("devices", help="print the device catalog (Tables I and II)")

    fig = sub.add_parser("figures", help="regenerate figures/tables from the models")
    fig.add_argument(
        "which",
        choices=("figure2", "figure3", "figure4", "table3", "comparison", "ablations", "all"),
        nargs="?",
        default="all",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import PlantedInteraction, SyntheticConfig, generate_dataset, save_npz, save_text

    interaction = None
    if args.interaction:
        if not 2 <= len(args.interaction) <= 5:
            print(
                f"error: --interaction takes 2 to 5 SNP indices, "
                f"got {len(args.interaction)}",
                file=sys.stderr,
            )
            return 2
        interaction = PlantedInteraction(
            snps=tuple(args.interaction),
            model=args.model,
            effect=args.effect,
            baseline=args.baseline,
        )
    config = SyntheticConfig(
        n_snps=args.snps,
        n_samples=args.samples,
        maf_range=(args.maf_low, args.maf_high),
        interaction=interaction,
        seed=args.seed,
    )
    dataset = generate_dataset(config)
    if args.output.endswith(".npz"):
        save_npz(dataset, args.output)
    else:
        save_text(dataset, args.output)
    print(f"wrote {dataset} to {args.output}")
    return 0


def _progress_printer():
    """Progress callback printing a line per completed decile to stderr."""
    last_decile = -1

    def progress(done: int, total: int) -> None:
        nonlocal last_decile
        pct = 100 if total == 0 else done * 100 // total
        if pct // 10 > last_decile:
            last_decile = pct // 10
            print(
                f"progress: {pct:3d}% ({done}/{total} combinations)",
                file=sys.stderr,
                flush=True,
            )

    return progress


def _export_result(path: str, doc: dict) -> None:
    """Write a result document to ``path`` (.json full doc, .csv top table)."""
    if path.endswith(".json"):
        import json

        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        return
    import csv

    top = doc.get("top", [])
    has_p = any("p_value" in row for row in top)
    run_id = doc.get("run_id")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["rank", "snps", "snp_names", "score"]
        if has_p:
            header.append("p_value")
        if run_id:
            header.append("run_id")
        writer.writerow(header)
        for row in top:
            record = [
                row["rank"],
                ";".join(str(s) for s in row["snps"]),
                ";".join(row["snp_names"]) if row.get("snp_names") else "",
                row["score"],
            ]
            if has_p:
                record.append(row.get("p_value", ""))
            if run_id:
                record.append(run_id)
            writer.writerow(record)


def _print_distributed_summary(distributed: dict | None) -> None:
    if not distributed:
        return
    restored = distributed.get("shards_restored", 0)
    note = f" ({restored} restored from checkpoint)" if restored else ""
    print(
        f"distributed : {distributed.get('workers')} worker(s), "
        f"{distributed.get('n_shards')} shards{note}"
    )
    if distributed.get("shm"):
        plane = distributed.get("data_plane") or {}
        print(
            f"data plane  : shm on, pool {distributed.get('pool', 'keep')} "
            f"({plane.get('segments_published', 0)} segment(s) published, "
            f"{plane.get('segments_reused', 0)} reused, "
            f"{plane.get('segments_attached', 0)} worker attach(es))"
        )
    resilience = distributed.get("resilience") or {}
    faulted = (
        resilience.get("retries", 0)
        or resilience.get("watchdog_kills", 0)
        or resilience.get("pool_breaks", 0)
        or resilience.get("quarantined")
    )
    if faulted:
        quarantined = resilience.get("quarantined") or []
        print(
            f"resilience  : {resilience.get('retries', 0)} shard retr"
            f"{'y' if resilience.get('retries', 0) == 1 else 'ies'}, "
            f"{resilience.get('pool_breaks', 0)} pool break(s), "
            f"{resilience.get('watchdog_kills', 0)} watchdog kill(s), "
            f"{len(quarantined)} quarantined"
            + (f" {quarantined}" if quarantined else "")
            + f"; recovered on the '{resilience.get('ladder', 'warm')}' rung"
        )


def _print_device_summary(devices: dict) -> None:
    if len(devices) > 1:
        for label, entry in devices.items():
            print(
                f"device {label:<4s}: {entry['items']} combinations in "
                f"{entry['chunks']} chunks, utilization {entry['utilization']:.0%}"
            )


def _check_resume_flags(args: argparse.Namespace) -> bool:
    """``--resume`` without ``--checkpoint`` has no ledger to read — error
    out rather than silently re-running the whole sweep from scratch."""
    if args.resume and not args.checkpoint:
        print(
            "error: --resume requires --checkpoint (the ledger to restore "
            "completed shards from)",
            file=sys.stderr,
        )
        return False
    return True


def _telemetry_mode(args: argparse.Namespace) -> "str | None":
    """The run's telemetry mode: ``--trace-out`` implies ``full``."""
    if args.telemetry is not None:
        return args.telemetry
    if args.trace_out:
        return "full"
    return None


def _run_spec(args: argparse.Namespace):
    """The :class:`RunSpec` of ``--workers``/``--checkpoint``/``--resume``/
    ``--pool``/``--shm``/``--fault-plan``; ``--shard-retries`` and
    ``--shard-deadline`` override the default retry policy."""
    from repro.core import RunSpec
    from repro.distributed.resilience import RetryPolicy

    retry = None
    if args.shard_retries is not None or args.shard_deadline is not None:
        attempts = {} if args.shard_retries is None else {"max_attempts": args.shard_retries}
        retry = RetryPolicy(shard_deadline_seconds=args.shard_deadline, **attempts)
    return RunSpec(
        workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
        pool=args.pool,
        shm=args.shm,
        retry=retry,
        faults=args.fault_plan,
    )


def _build_detector(args: argparse.Namespace):
    from repro.core import EpistasisDetector

    return EpistasisDetector(
        approach=args.approach,
        objective=args.objective,
        order=args.order,
        n_workers=args.threads,
        chunk_size=args.chunk_size,
        top_k=args.top_k,
        devices=args.devices,
        schedule=args.schedule,
        word_layout=None if args.word_width == "auto" else args.word_width,
        backend=args.backend,
        fused=args.fused,
        telemetry=_telemetry_mode(args),
    )


def _export_trace(args: argparse.Namespace) -> None:
    """Write the finished run's trace file when ``--trace-out`` was given."""
    if not args.trace_out:
        return
    from repro.telemetry import last_run, write_trace

    run = last_run()
    if run is None:
        print(
            "warning: no telemetry session recorded; trace not written",
            file=sys.stderr,
        )
        return
    n_spans = write_trace(run, args.trace_out)
    print(f"wrote trace to {args.trace_out} ({n_spans} spans, run {run.run_id})")


def _print_telemetry_summary(telemetry: dict | None) -> None:
    if not telemetry:
        return
    print(
        f"telemetry   : {telemetry.get('mode')}, run {telemetry.get('run_id')} "
        f"({telemetry.get('n_spans')} spans, {telemetry.get('n_metrics')} metrics)"
    )


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset

    if not _check_resume_flags(args):
        return 2
    dataset = load_dataset(args.dataset)
    progress = _progress_printer() if args.progress else None
    try:
        result = _build_detector(args).detect(
            dataset, progress=progress, run=_run_spec(args)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    backend = result.stats.extra.get("backend")
    if backend:
        print(f"backend     : {backend}")
    fused = result.stats.extra.get("fused")
    if fused:
        print(f"fused       : {fused}")
    _print_distributed_summary(result.stats.extra.get("distributed"))
    _print_device_summary(result.stats.extra.get("devices", {}))
    _print_telemetry_summary(result.stats.extra.get("telemetry"))
    _export_trace(args)
    if args.output:
        _export_result(args.output, result.to_dict())
        print(f"wrote results to {args.output}")
    return 0


def _stage_progress_printer():
    """Per-stage progress callback printing a line per completed decile."""
    deciles: dict = {}

    def progress(stage: str, done: int, total: int) -> None:
        pct = 100 if total == 0 else done * 100 // total
        if pct // 10 > deciles.get(stage, -1):
            deciles[stage] = pct // 10
            print(
                f"{stage}: {pct:3d}% ({done}/{total})",
                file=sys.stderr,
                flush=True,
            )

    return progress


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset

    if not _check_resume_flags(args):
        return 2
    dataset = load_dataset(args.dataset)
    progress = _stage_progress_printer() if args.progress else None
    try:
        run = _run_spec(args)
        result = _build_detector(args).detect_staged(
            dataset,
            screen_order=args.screen_order,
            keep_snps=args.retain,
            refine_objective=args.refine_objective,
            n_permutations=args.permutations,
            permutation_seed=args.permutation_seed,
            progress=progress,
            run=run,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    if run.sharded:
        resumed = sum(1 for s in result.stages if s.extra.get("resumed"))
        note = f", {resumed} stage(s) restored from checkpoint" if resumed else ""
        print(
            f"distributed : {run.workers} worker(s) per sweep stage"
            + (f", checkpoint {run.checkpoint}" if run.checkpoint else "")
            + note
        )
    for stage in result.stages:
        _print_device_summary(stage.device_stats)
    if _telemetry_mode(args) not in (None, "off"):
        print(f"telemetry   : {_telemetry_mode(args)}, run {result.run_id}")
    _export_trace(args)
    if args.output:
        _export_result(args.output, result.to_dict())
        print(f"wrote results to {args.output}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.backends import (
        BACKENDS,
        CalibrationStore,
        calibrate,
        list_backends,
        resolve_backend_name,
    )
    from repro.bitops.packing import get_layout

    layout = get_layout(None if args.word_width == "auto" else args.word_width)
    store = CalibrationStore()
    if args.calibrate:
        records = calibrate(
            families=(args.family,),
            orders=(args.order,),
            layout=layout,
            store=store,
            repeats=args.repeats,
        )
        if not args.json:
            for rec in records:
                print(
                    f"calibrated {rec.backend:<6s} {rec.family}/k{rec.order}/"
                    f"{rec.layout}: {rec.combos_per_second:,.0f} combos/s "
                    f"({rec.probe_seconds:.2f}s probe)"
                )
            print(f"store       : {store.path}")

    default = resolve_backend_name()
    rows = []
    for row in list_backends():
        cls = BACKENDS[row["name"]]
        record = store.lookup(
            row["name"],
            cls.version() or "unknown",
            args.family,
            args.order,
            layout.name,
        )
        rows.append(
            {
                **row,
                "default": row["name"] == default,
                "calibrated_combos_per_second": (
                    record.combos_per_second if record else None
                ),
                "calibrated_elements_per_second": (
                    record.elements_per_second if record else None
                ),
            }
        )

    if args.json:
        import json

        print(
            json.dumps(
                {
                    "default": default,
                    "family": args.family,
                    "order": args.order,
                    "layout": layout.name,
                    "store": str(store.path),
                    "backends": rows,
                },
                indent=2,
            )
        )
        return 0

    print(f"default     : {default} ({args.family}/k{args.order}/{layout.name})")
    for row in rows:
        status = "available" if row["available"] else "unavailable"
        marker = "*" if row["default"] else " "
        calibrated = (
            f"{row['calibrated_combos_per_second']:,.0f} combos/s"
            if row["calibrated_combos_per_second"]
            else "not calibrated"
        )
        print(
            f"{marker} {row['name']:<6s} [{row['kind']:<3s}] {status:<11s} "
            f"{row['detail']:<24s} {calibrated}"
        )
        print(f"          {row['description']}")
    return 0


def _cmd_shm(args: argparse.Namespace) -> int:
    from repro.distributed.shm import reap_orphans, scan_segments

    if args.shm_command == "ls":
        infos = scan_segments()
        if args.json:
            import json

            print(json.dumps([info.to_dict() for info in infos], indent=2))
            return 0
        if not infos:
            print("no repro shared-memory segments")
            return 0
        print(f"{'segment':<28s} {'kind':<9s} {'size':>12s} {'owner':>8s} state")
        for info in infos:
            if not info.valid:
                state = "torn"
            elif info.owner_alive is False:
                state = "orphaned"
            elif info.owner_alive is None:
                state = "unknown"
            else:
                state = "live"
            owner = str(info.owner_pid) if info.owner_pid else "-"
            print(
                f"{info.name:<28s} {info.kind or '-':<9s} "
                f"{info.size:>12,d} {owner:>8s} {state}"
            )
        return 0

    reclaimed = reap_orphans(dry_run=args.dry_run, force=args.force)
    verb = "would reap" if args.dry_run else "reaped"
    if not reclaimed:
        print("nothing to reap: no torn or dead-owner segments")
        return 0
    for info in reclaimed:
        reason = "torn" if not info.valid else (
            "dead owner" if info.owner_alive is False else "unknown owner"
        )
        print(f"{verb} {info.name} ({info.size:,d} bytes, {reason})")
    print(f"{verb} {len(reclaimed)} segment(s)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import load_trace, summarize_spans

    try:
        manifest, spans, metrics = load_trace(args.path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host = manifest.get("host") or {}
    print(
        f"run         : {manifest.get('run_id', '?')} "
        f"(mode {manifest.get('mode', '?')})"
    )
    if host:
        print(
            f"host        : {host.get('host_cpus')} cpu(s), "
            f"python {host.get('python')}, numpy {host.get('numpy')}, "
            f"{host.get('word_layout')} words, backend {host.get('backend')}"
        )
    print()
    print(summarize_spans(spans))
    counters = metrics.get("counters") or {}
    if counters:
        ops = sum(v for k, v in counters.items() if k.startswith("ops."))
        print()
        print(
            f"metrics     : {len(counters)} counter(s), "
            f"{ops:,} word ops recorded"
        )
    return 0


def _cmd_devices(_: argparse.Namespace) -> int:
    from repro.experiments.tables import format_table1, format_table2

    print(format_table1())
    print()
    print(format_table2())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import format_ablations
    from repro.experiments.comparison import format_comparison
    from repro.experiments.figure2 import format_figure2
    from repro.experiments.figure3 import format_figure3
    from repro.experiments.figure4 import format_figure4
    from repro.experiments.table3 import format_table3

    sections = {
        "figure2": format_figure2,
        "figure3": format_figure3,
        "figure4": format_figure4,
        "table3": format_table3,
        "comparison": format_comparison,
        "ablations": format_ablations,
    }
    chosen = sections if args.which == "all" else {args.which: sections[args.which]}
    for name, fn in chosen.items():
        print(f"================ {name} ================")
        print(fn())
        print()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "detect": _cmd_detect,
        "pipeline": _cmd_pipeline,
        "backends": _cmd_backends,
        "shm": _cmd_shm,
        "trace": _cmd_trace,
        "devices": _cmd_devices,
        "figures": _cmd_figures,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

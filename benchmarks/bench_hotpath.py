"""Hot-path benchmark: word width x K2 lookup table x kernel family.

Measures the evaluation hot path before and after the overhaul, in one
process on one machine so the comparison is honest:

* **before** — a faithful replica of the *pre-PR* hot path
  (:class:`PrePrVectorizedApproach` below): ``uint32`` packed words, the
  unfused ``popcount().astype(int64).sum()`` reduction, the blocked kernel
  re-gathering and re-NOR-expanding every BP-sized sample pass, and
  closed-form ``gammaln`` K2 scoring (``K2Score(precompute=False)``);
* **after** — the overhauled path: ``uint64`` packed words (halving the
  element count of every AND/POPCNT), fused popcount reduction,
  gather-once blocked kernel and the per-dataset log-factorial K2 table.

The dataset uses the paper's reference sample count (16384, the §V
workload the CARM splitter is also sized for), where the word-level kernel
work dominates the fixed per-batch overheads.

Two families of numbers are recorded into ``BENCH_hotpath.json``:

* ``kernels`` — raw table-construction + scoring throughput (tables/s) per
  kernel family (naive / split), word width, interaction order (2..4) and
  objective, measured on explicit combination batches;
* ``end_to_end`` — full ``detect()`` throughput at the paper's ``k = 3``
  (combinations/s through the engine, scheduler and top-k reduction) for
  the before/after configurations, the ``chunk_size="auto"`` tuner and
  the fused build+score path (``fused="on"``), with the before/after
  speedup that the acceptance gate (>= 1.5x) reads and the fused-vs-
  unfused ratio the self-normalizing fused gate reads.  Both ratios (like
  the telemetry gate's) are medians over :data:`PAIRED_RUNS` alternating
  searches of the two sides, so host drift between the sides cancels.

``--quick`` shrinks the dataset/orders for the CI smoke job, and
``--check`` compares the *normalized* throughput of a fresh run against
the committed artifact, failing on a >30% regression.  The check normalizes
every entry by the same run's uint32 k=3 split-kernel reference, so it
detects code regressions without tripping on absolute machine speed.  The
artifact's quick baseline is measured in a fresh interpreter, the context
``--check`` runs in.

Run standalone (``PYTHONPATH=src python benchmarks/bench_hotpath.py``) or
through pytest; both paths emit the artifact.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import EpistasisDetector
from repro.core.approaches.cpu_vectorized import CpuVectorizedApproach
from repro.core.combinations import generate_combinations
from repro.core.encoding_cache import ENCODING_CACHE
from repro.core.scoring import K2Score, get_objective
from repro.datasets import SyntheticConfig, generate_dataset

#: Where the artifact lands (the repository root).
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

#: Kernel families and the approach that exercises each.
FAMILIES = {"naive": "cpu-v1", "split": "cpu-v2"}

#: Regression tolerance of ``--check`` (fraction of the baseline).
CHECK_TOLERANCE = 0.30

#: The entry every throughput is normalized by in ``--check`` mode.
REFERENCE_KEY = "split/u32/k3/k2"

#: Per-backend gate of ``--check``: a compiled CPU backend may not run the
#: split/k3 probe slower than this fraction of the numpy reference (a JIT
#: backend losing to the interpreter is a regression, machine-independent).
BACKEND_CHECK_FLOOR = 1.0

#: Fused gate of ``--check`` on the numpy backend: the tiled fused path
#: must be no slower than the unfused path in the same run (0.95 leaves a
#: small margin for timing noise; measured, fusion is a clear win).
NUMPY_FUSED_FLOOR = 0.95

#: Fused gate of ``--check`` on compiled backends: the in-kernel fused
#: ``detect()`` must beat the unfused one by this factor in the same run
#: (runs on hosts with numba installed, e.g. the optional-deps CI job).
FUSED_BACKEND_FLOOR = 1.5

#: Alternating pairs behind every same-run ratio (after/before,
#: fused/unfused, telemetry full/off): each ratio is the median over the
#: pairs.  Also the number of interleaved kernel-entry rounds.
PAIRED_RUNS = 15

#: Telemetry gate of ``--check``: a ``telemetry="full"`` detect() may not
#: fall below this fraction of the ``telemetry="off"`` throughput measured
#: in the same run.  (The "off is free" half of the claim is covered by
#: :func:`check_against_baseline`: every other configuration runs with
#: telemetry off, so any off-mode overhead trips the 30% gate against the
#: pre-telemetry baseline.)
TELEMETRY_CHECK_FLOOR = 0.95


def _dataset(quick: bool):
    if quick:
        return generate_dataset(SyntheticConfig(n_snps=40, n_samples=2048, seed=2026))
    return generate_dataset(SyntheticConfig(n_snps=56, n_samples=16384, seed=2026))


# ---------------------------------------------------------------------------
# Pre-PR baseline replica: the seed hot path, kept verbatim (uint32 words,
# unfused popcount reduction, per-pass re-gather in the blocked kernel) so
# the before/after comparison always measures against the same reference,
# on the same machine, in the same run.
# ---------------------------------------------------------------------------


def _legacy_popcount32(words: np.ndarray) -> np.ndarray:
    from repro.bitops.popcount import HAS_BITWISE_COUNT, popcount_lut

    arr = np.asarray(words)
    if arr.dtype != np.uint32:
        arr = arr.astype(np.uint32)
    if HAS_BITWISE_COUNT:
        return np.bitwise_count(arr).astype(np.int64)
    return popcount_lut(arr)  # the seed's NumPy<2 fallback


def _legacy_split_class_counts(class_planes, padding_mask, combos) -> np.ndarray:
    combos = np.asarray(combos, dtype=np.int64)
    order = combos.shape[1]
    n_combos = combos.shape[0]
    mask = np.asarray(padding_mask, dtype=np.uint32)

    def expand(planes_sel):
        g2 = np.bitwise_and(
            np.bitwise_not(np.bitwise_or(planes_sel[:, 0], planes_sel[:, 1])), mask
        )
        return np.concatenate([planes_sel, g2[:, None, :]], axis=1)

    selected = [expand(class_planes[combos[:, t]]) for t in range(order)]

    def grid_of(stacks):
        grid = stacks[0]
        cells = 3
        for planes in stacks[1:]:
            grid = np.bitwise_and(grid[:, :, None, :], planes[:, None, :, :])
            cells *= 3
            grid = grid.reshape(n_combos, cells, grid.shape[-1])
        return grid

    cells = 3**order
    sub_cells = cells // 3
    counts = np.empty((n_combos, cells), dtype=np.int64)
    sub_grid = grid_of(selected[1:])
    for g0 in range(3):
        head = selected[0][:, g0, :]
        grid = np.bitwise_and(head[:, None, :], sub_grid)
        span = slice(g0 * sub_cells, (g0 + 1) * sub_cells)
        counts[:, span] = _legacy_popcount32(grid).sum(axis=-1)
    return counts


class PrePrVectorizedApproach(CpuVectorizedApproach):
    """The seed cpu-v4: uint32 words, per-pass re-gather, unfused popcount."""

    name = "cpu-v4-pre-pr"

    def __init__(self) -> None:
        super().__init__(word_layout="u32")

    def build_tables(self, encoded, combos):
        combos = self._check_combos(combos)
        split = encoded.split
        n_combos, order = combos.shape
        words_per_chunk = max(1, encoded.block_samples // 32)
        tables = np.zeros((n_combos, 3**order, 2), dtype=np.int64)
        for phenotype_class in (0, 1):
            planes, _ = split.planes_for_class(phenotype_class)
            mask = split.padding_mask(phenotype_class)
            n_words = planes.shape[2]
            for start in range(0, n_words, words_per_chunk):
                stop = min(start + words_per_chunk, n_words)
                tables[:, :, phenotype_class] += _legacy_split_class_counts(
                    planes[:, :, start:stop], mask[start:stop], combos
                )
        return tables


def _objective(name: str, dataset, precompute: bool):
    if name == "k2":
        objective = K2Score(precompute=precompute)
    else:
        objective = get_objective(name)
    prepare = getattr(objective, "prepare", None)
    if prepare is not None:
        prepare(dataset)
    return objective


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _paired_speedup(run, base, pairs: int = PAIRED_RUNS) -> float:
    """Median over alternating pairs of ``base`` seconds / ``run`` seconds.

    The two sides alternate which goes first, so a host whose speed drifts
    over seconds slows both sides of a pair alike.
    """
    ratios = []
    for pair in range(pairs):
        seconds = {}
        for side in (run, base) if pair % 2 else (base, run):
            started = time.perf_counter()
            side()
            seconds[side] = time.perf_counter() - started
        ratios.append(seconds[base] / seconds[run])
    return statistics.median(ratios)


def measure_kernels(dataset, quick: bool) -> list[dict]:
    """Tables/s per (family, word width, order, objective) batch kernel.

    Every entry is timed once per round, over :data:`PAIRED_RUNS` rounds,
    and keeps its best round: a host whose speed drifts over seconds slows
    all entries of a round alike, so the ratios ``--check`` reads do not
    depend on when each entry happened to run.
    """
    from repro.core.approaches import get_approach

    orders = (2, 3) if quick else (2, 3, 4)
    batches = {2: 1024, 3: 1024} if quick else {2: 2048, 3: 2048, 4: 512}
    objectives = ("k2",) if quick else ("k2", "gini")
    entries, runs = [], []
    for family, approach_name in FAMILIES.items():
        for order in orders:
            combos = generate_combinations(dataset.n_snps, order)[: batches[order]]
            for layout in ("u32", "u64"):
                approach = get_approach(approach_name, word_layout=layout)
                encoded = approach.prepare(dataset)
                for obj_name in objectives:
                    # The kernel matrix is a pure word-width axis: both
                    # layouts score through the same (lookup) objective.
                    # The gammaln-vs-lookup axis is measured separately by
                    # the end-to-end before/after configurations.
                    objective = _objective(obj_name, dataset, precompute=True)

                    def run(approach=approach, encoded=encoded, combos=combos,
                            objective=objective):
                        objective.score(approach.build_tables(encoded, combos))

                    run()  # warm-up
                    runs.append(run)
                    entries.append(
                        {
                            "key": f"{family}/{layout}/k{order}/{obj_name}",
                            "family": family,
                            "approach": approach_name,
                            "word_layout": layout,
                            "order": order,
                            "objective": obj_name,
                            "batch": int(combos.shape[0]),
                        }
                    )
    best = [float("inf")] * len(runs)
    for _ in range(PAIRED_RUNS):
        for index, run in enumerate(runs):
            best[index] = min(best[index], _time_best(run, 1))
    for entry, seconds in zip(entries, best):
        entry["seconds"] = seconds
        entry["tables_per_second"] = entry["batch"] / seconds
    return entries


def measure_end_to_end(dataset, quick: bool, repeats: int = 3) -> dict:
    """Full ``detect()`` at k=3: pre-PR replica vs overhauled vs autotuned.

    Each configuration's absolute ``seconds`` is the best of ``repeats``
    searches; the speedups are medians of :data:`PAIRED_RUNS` pairs.
    """
    # fused="off" everywhere except the fused configuration: the default
    # ("auto") activates the fused build+score path, which would silently
    # turn the pre-PR replica and the unfused denominators into fused runs.
    configs = {
        "before_pre_pr_u32_gammaln": dict(
            approach=PrePrVectorizedApproach(),
            objective=K2Score(precompute=False),
            fused="off",
        ),
        "after_u64_lookup": dict(
            approach="cpu-v4", word_layout="u64", objective="k2", fused="off"
        ),
        "after_u64_lookup_autochunk": dict(
            approach="cpu-v4",
            word_layout="u64",
            objective="k2",
            chunk_size="auto",
            fused="off",
        ),
        "after_u64_lookup_fused": dict(
            approach="cpu-v4", word_layout="u64", objective="k2", fused="on"
        ),
    }
    total = None
    results = {}
    searches = {}
    for label, overrides in configs.items():
        detector = EpistasisDetector(order=3, top_k=5, **overrides)

        def run(detector=detector):
            return detector.detect(dataset)

        result = run()  # warm-up (also warms the encoding cache)
        total = result.stats.n_combinations
        seconds = _time_best(run, repeats)
        results[label] = {
            "seconds": seconds,
            "combinations": total,
            "combos_per_second": total / seconds,
        }
        searches[label] = run
    results["speedup_after_vs_before"] = _paired_speedup(
        searches["after_u64_lookup"], searches["before_pre_pr_u32_gammaln"]
    )
    results["speedup_fused_vs_unfused"] = _paired_speedup(
        searches["after_u64_lookup_fused"], searches["after_u64_lookup"]
    )
    results["paired_runs"] = PAIRED_RUNS
    return results


def run_benchmark(quick: bool = False, repeats: int = 3) -> dict:
    dataset = _dataset(quick)
    ENCODING_CACHE.clear()
    kernels = measure_kernels(dataset, quick)
    end_to_end = measure_end_to_end(dataset, quick, repeats)
    return {
        "quick": bool(quick),
        "dataset": {"n_snps": dataset.n_snps, "n_samples": dataset.n_samples},
        "kernels": kernels,
        "end_to_end": end_to_end,
    }


def run_artifact(repeats: int = 3) -> dict:
    """The committed artifact: the full matrix plus the CI-sized quick run.

    Both sections are measured so the ``--check`` smoke job can compare a
    fresh quick run against a baseline of the same dataset scale.  The
    quick baseline runs in a fresh interpreter (``--quick``), like
    ``--check``: after the full run this process's allocator and caches
    are warm, which shifts the kernels' ratios to the reference entry.
    """
    from repro.telemetry import host_metadata

    quick = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--quick",
         "--repeats", str(repeats)],
        capture_output=True, text=True, check=True,
    )
    return {
        "benchmark": "hotpath",
        "numpy": np.__version__,
        "host": host_metadata(),
        "full": run_benchmark(quick=False, repeats=repeats),
        "quick_baseline": json.loads(quick.stdout.splitlines()[-1]),
    }


def _normalized(doc: dict) -> dict:
    """Per-entry throughput divided by the run's own u32 reference entry."""
    by_key = {e["key"]: e["tables_per_second"] for e in doc["kernels"]}
    ref = by_key.get(REFERENCE_KEY)
    if not ref:
        raise SystemExit(f"reference entry {REFERENCE_KEY} missing from run")
    return {k: v / ref for k, v in by_key.items()}


def check_against_baseline(doc: dict, baseline_path: Path) -> int:
    """Fail (return 1) on a >30% normalized-throughput regression.

    ``doc`` must be a quick run; it is compared against the committed
    artifact's ``quick_baseline`` section (same dataset scale, throughput
    normalized within each run so machine speed cancels out).
    """
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return 0
    baseline = json.loads(baseline_path.read_text())["quick_baseline"]
    current = _normalized(doc)
    reference = _normalized(baseline)
    failures = []
    for key, base_value in reference.items():
        now = current.get(key)
        if now is None:
            continue  # quick runs carry a subset of the full matrix
        if now < base_value * (1.0 - CHECK_TOLERANCE):
            failures.append(f"{key}: {now:.3f}x vs baseline {base_value:.3f}x")
    speedup = doc["end_to_end"]["speedup_after_vs_before"]
    base_speedup = baseline["end_to_end"]["speedup_after_vs_before"]
    if speedup < base_speedup * (1.0 - CHECK_TOLERANCE):
        failures.append(
            f"end-to-end speedup: {speedup:.2f}x vs baseline {base_speedup:.2f}x"
        )
    if failures:
        print("hot-path benchmark regression (>30% vs committed baseline):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        f"regression check OK ({len(reference)} entries, end-to-end "
        f"{speedup:.2f}x vs baseline {base_speedup:.2f}x)"
    )
    return 0


def check_fused(doc: dict) -> int:
    """Self-normalizing fused gate on the numpy backend.

    The tiled fused path must not lose to the unfused path measured in the
    same run — no committed baseline involved, so machine speed cancels.
    """
    ratio = doc["end_to_end"]["speedup_fused_vs_unfused"]
    print(
        f"fused vs unfused detect() (numpy tiled): {ratio:.2f}x "
        f"(median of {PAIRED_RUNS} alternating pairs)"
    )
    if ratio < NUMPY_FUSED_FLOOR:
        print(
            f"fused regression: numpy tiled fused path at {ratio:.2f}x "
            f"unfused (floor {NUMPY_FUSED_FLOOR:.2f}x)"
        )
        return 1
    return 0


def _warm_search(dataset, **overrides):
    """A ``detect()`` at k=3 over ``dataset``, warmed up once (JIT, cache)."""
    detector = EpistasisDetector(order=3, top_k=5, word_layout="u64", **overrides)
    detector.detect(dataset)
    return lambda: detector.detect(dataset)


def check_backends(repeats: int = 2) -> int:
    """Per-backend regression gate of ``--check``.

    Probes the split/k3 kernel through every *available* CPU execution
    backend (:mod:`repro.backends`) and fails when a compiled backend
    falls below :data:`BACKEND_CHECK_FLOOR` times the numpy reference
    measured in the same run — self-normalizing, so no committed baseline
    is needed.  On a numpy-only host the gate reports a skip.

    On top of the probe gate, every compiled backend runs fused-vs-
    unfused ``detect()`` pairs at k=3: the in-kernel fused path must reach
    :data:`FUSED_BACKEND_FLOOR` times the unfused throughput of the same
    backend in the same run (median of :data:`PAIRED_RUNS` pairs).
    """
    from repro.backends import get_backend, list_backends, run_probe

    names = [
        row["name"]
        for row in list_backends()
        if row["available"] and row["kind"] == "cpu"
    ]
    if names == ["numpy"]:
        print("per-backend gate: only numpy available, skipped")
        return 0
    rates = {}
    for name in names:
        record = run_probe(
            get_backend(name),
            family="split",
            order=3,
            n_snps=32,
            n_samples=2048,
            repeats=repeats,
        )
        rates[name] = record.combos_per_second
    failures = []
    for name, rate in rates.items():
        if name == "numpy":
            continue
        ratio = rate / rates["numpy"]
        print(f"per-backend gate: {name} split/k3 at {ratio:.2f}x numpy")
        if ratio < BACKEND_CHECK_FLOOR:
            failures.append(
                f"{name}: {ratio:.2f}x numpy (floor {BACKEND_CHECK_FLOOR:.2f}x)"
            )
    from repro.datasets import SyntheticConfig, generate_dataset

    dataset = generate_dataset(
        SyntheticConfig(n_snps=40, n_samples=2048, seed=2026)
    )
    for name in rates:
        if name == "numpy":
            continue  # numpy's fused gate is check_fused (floor: no slower)
        ratio = _paired_speedup(
            _warm_search(dataset, backend=name, fused="on"),
            _warm_search(dataset, backend=name, fused="off"),
        )
        print(f"fused gate: {name} detect() k=3 fused at {ratio:.2f}x unfused")
        if ratio < FUSED_BACKEND_FLOOR:
            failures.append(
                f"{name} fused: {ratio:.2f}x unfused "
                f"(floor {FUSED_BACKEND_FLOOR:.2f}x)"
            )
    if failures:
        print("per-backend regression gate failed:")
        for line in failures:
            print(f"  {line}")
        return 1
    return 0


def check_telemetry() -> int:
    """Telemetry-overhead gate of ``--check``.

    Measures ``detect()`` at k=3 with ``telemetry="off"`` and
    ``telemetry="full"`` in the same run (same dataset, same warmed
    encoding cache), alternating over :data:`PAIRED_RUNS` pairs, and fails
    when full-mode tracing costs more than ``1 - TELEMETRY_CHECK_FLOOR`` of
    the off-mode throughput — self-normalizing, so machine speed cancels
    out.
    """
    dataset = generate_dataset(
        SyntheticConfig(n_snps=40, n_samples=2048, seed=2026)
    )
    ratio = _paired_speedup(
        _warm_search(dataset, telemetry="full"), _warm_search(dataset, telemetry="off")
    )
    print(
        f"telemetry gate: detect() k=3 full tracing at {ratio:.2f}x off "
        f"(median of {PAIRED_RUNS} alternating pairs)"
    )
    if ratio < TELEMETRY_CHECK_FLOOR:
        print(
            f"telemetry overhead regression: full tracing at {ratio:.2f}x "
            f"off-mode throughput (floor {TELEMETRY_CHECK_FLOOR:.2f}x)"
        )
        return 1
    return 0


def emit(doc: dict, path: Path = ARTIFACT) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    e2e = doc["full"]["end_to_end"]
    print(f"wrote {path}")
    print(
        f"end-to-end k=3 detect(): "
        f"{e2e['before_pre_pr_u32_gammaln']['combos_per_second']:.0f} -> "
        f"{e2e['after_u64_lookup']['combos_per_second']:.0f} combos/s "
        f"({e2e['speedup_after_vs_before']:.2f}x)"
    )
    print(
        f"fused build+score: "
        f"{e2e['after_u64_lookup_fused']['combos_per_second']:.0f} combos/s "
        f"({e2e['speedup_fused_vs_unfused']:.2f}x over unfused)"
    )


def test_hotpath_benchmark_smoke():
    """Pytest entry point: a quick run must show the overhaul winning and
    stay within the regression tolerance of the committed baseline."""
    doc = run_benchmark(quick=True, repeats=2)
    assert doc["end_to_end"]["speedup_after_vs_before"] > 1.0
    assert check_against_baseline(doc, ARTIFACT) == 0
    assert check_fused(doc) == 0
    assert check_backends(repeats=1) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI-sized run (printed as JSON on the last line, not "
        "written to the artifact)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of repetitions of the end-to-end rows' absolute timings "
        "and of the per-backend probes; kernel entries and every same-run "
        f"ratio always run {PAIRED_RUNS} interleaved rounds",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the quick matrix and compare it against the committed "
        "BENCH_hotpath.json, failing on a >30%% normalized regression "
        "(does not overwrite the artifact)",
    )
    args = parser.parse_args(argv)
    if args.check:
        doc = run_benchmark(quick=True, repeats=args.repeats)
        e2e = doc["end_to_end"]
        print(
            f"measured end-to-end speedup (quick): "
            f"{e2e['speedup_after_vs_before']:.2f}x"
        )
        return (
            check_against_baseline(doc, ARTIFACT)
            or check_fused(doc)
            or check_backends(args.repeats)
            or check_telemetry()
        )
    if args.quick:
        doc = run_benchmark(quick=True, repeats=args.repeats)
        e2e = doc["end_to_end"]
        print(
            f"quick end-to-end k=3 speedup: "
            f"{e2e['speedup_after_vs_before']:.2f}x (not written)"
        )
        print(json.dumps(doc))
        return 0
    emit(run_artifact(repeats=args.repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Backend benchmark: measured kernel throughput per execution backend.

Measures the real-hardware backend plane end to end and records the
numbers into ``BENCH_backends.json``:

* ``probes`` — calibration-probe combos/s (and paper elements/s) per
  backend x kernel family (naive / split, each unfused and fused) x
  interaction order x word layout, plus the probe cost itself (the wall
  time of calibrating, including the JIT / module-build warm-up the probe
  deliberately absorbs);
* ``end_to_end`` — full ``detect()`` throughput at the paper's ``k = 3``
  per available CPU backend, unfused and with the fused build+score path,
  with the numba-vs-numpy speedup the acceptance gate reads;
* ``carm_split`` — the heterogeneous CARM cpu+gpu shares of 100 000
  combinations, priced by the analytical model on both lanes (the split
  ``--schedule carm`` runs), next to the measured probes above.

The probes are timed in memory; the benchmark writes no calibration store.

``--check`` is the regression gate: on a host with numba the JIT backend
must reach ``REPRO_BENCH_NUMBA_FLOOR`` (default 2.0) times the numpy
``detect()`` throughput at k=3; without numba the gate reports a skip
and passes (the numpy fallback is covered by the equivalence tests).

Run standalone (``PYTHONPATH=src python benchmarks/bench_backends.py``)
or through pytest; both paths emit the artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

#: Where the artifact lands (the repository root).
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_backends.json"

#: Environment override of the numba end-to-end speedup floor.
FLOOR_ENV = "REPRO_BENCH_NUMBA_FLOOR"

#: Required detect() k=3 speedup of numba over numpy (the acceptance gate).
DEFAULT_NUMBA_FLOOR = 2.0


def _available_backends() -> dict:
    from repro.backends import list_backends

    return {
        row["name"]: row["detail"] for row in list_backends() if row["available"]
    }


def _probe_matrix(quick: bool, repeats: int) -> list[dict]:
    """Calibration probes per backend x family x order x layout."""
    from repro.backends import get_backend, run_probe

    orders = (2, 3) if quick else (2, 3, 4)
    n_snps, n_samples = (32, 1024) if quick else (48, 4096)
    entries = []
    for name in sorted(_available_backends()):
        backend = get_backend(name)
        for family in ("naive", "split"):
            for order in orders:
                for layout in ("u32", "u64"):
                    for fused in (False, True):
                        record = run_probe(
                            backend,
                            family=family,
                            order=order,
                            layout=layout,
                            n_snps=n_snps,
                            n_samples=n_samples,
                            repeats=repeats,
                            fused=fused,
                        )
                        entries.append(
                            {
                                "key": f"{name}/{record.family}/k{order}/{layout}",
                                "backend": name,
                                "family": record.family,
                                "order": order,
                                "layout": layout,
                                "combos_per_second": record.combos_per_second,
                                "elements_per_second": record.elements_per_second,
                                "probe_seconds": record.probe_seconds,
                            }
                        )
    return entries


def _end_to_end(quick: bool, repeats: int) -> dict:
    """detect() k=3 combos/s per available CPU backend."""
    from repro.backends import BACKENDS
    from repro.core import EpistasisDetector
    from repro.core.encoding_cache import ENCODING_CACHE
    from repro.datasets import SyntheticConfig, generate_dataset

    shape = (40, 2048) if quick else (56, 16384)
    dataset = generate_dataset(
        SyntheticConfig(n_snps=shape[0], n_samples=shape[1], seed=2026)
    )
    ENCODING_CACHE.clear()
    names = [
        name
        for name in ("numpy", "numba")
        if name in _available_backends() and BACKENDS[name].kind == "cpu"
    ]
    results: dict = {}
    for name in names:
        for fused in ("off", "on"):
            detector = EpistasisDetector(
                order=3, top_k=5, backend=name, fused=fused
            )
            result = detector.detect(dataset)  # warm-up: JIT + encoding cache
            total = result.stats.n_combinations
            best = float("inf")
            for _ in range(max(1, repeats)):
                started = time.perf_counter()
                detector.detect(dataset)
                best = min(best, time.perf_counter() - started)
            label = name if fused == "off" else f"{name}_fused"
            results[label] = {
                "seconds": best,
                "combinations": total,
                "combos_per_second": total / best,
            }
        results[f"speedup_fused_{name}"] = (
            results[f"{name}_fused"]["combos_per_second"]
            / results[name]["combos_per_second"]
        )
    if "numba" in results:
        results["speedup_numba_vs_numpy"] = (
            results["numba"]["combos_per_second"]
            / results["numpy"]["combos_per_second"]
        )
    return {
        "dataset": {"n_snps": shape[0], "n_samples": shape[1]},
        **results,
    }


def _carm_split(quick: bool) -> dict:
    """cpu+gpu CARM shares of 100 000 combinations, priced by the model."""
    from repro.engine import parse_devices
    from repro.engine.policies import CarmRatioPolicy

    n_snps, n_samples = (32, 1024) if quick else (48, 4096)
    policy = CarmRatioPolicy()
    policy.configure(n_snps=n_snps, n_samples=n_samples, order=3)
    total = 100_000
    return {
        "devices": "cpu+gpu",
        "n_snps": n_snps,
        "n_samples": n_samples,
        "order": 3,
        "total": total,
        "shares": policy.shares(total, parse_devices("cpu+gpu")),
    }


def run_benchmark(quick: bool = False, repeats: int = 3) -> dict:
    return {
        "quick": bool(quick),
        "available": _available_backends(),
        "probes": _probe_matrix(quick, repeats),
        "end_to_end": _end_to_end(quick, repeats),
        "carm_split": _carm_split(quick),
    }


def run_artifact(repeats: int = 3) -> dict:
    from repro.telemetry import host_metadata

    return {
        "benchmark": "backends",
        "numpy": np.__version__,
        "host": host_metadata(),
        "full": run_benchmark(quick=False, repeats=repeats),
    }


def check_gate(doc: dict) -> int:
    """The --check gate: probe sanity plus the numba speedup floor."""
    failures = []
    for entry in doc["probes"]:
        if not entry["combos_per_second"] > 0:
            failures.append(f"probe {entry['key']}: non-positive throughput")
    e2e = doc["end_to_end"]
    if "numba" in e2e:
        floor = float(os.environ.get(FLOOR_ENV, DEFAULT_NUMBA_FLOOR))
        speedup = e2e["speedup_numba_vs_numpy"]
        print(f"numba detect() k=3 speedup: {speedup:.2f}x (floor {floor:.2f}x)")
        if speedup < floor:
            failures.append(
                f"numba end-to-end speedup {speedup:.2f}x below the "
                f"{floor:.2f}x floor (override via {FLOOR_ENV})"
            )
    else:
        print("numba not available: speedup gate skipped (numpy fallback only)")
    if failures:
        print("backend benchmark gate failed:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"backend gate OK ({len(doc['probes'])} probes)")
    return 0


def emit(doc: dict, path: Path = ARTIFACT) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    e2e = doc["full"]["end_to_end"]
    for name in ("numpy", "numba"):
        if name in e2e:
            print(f"detect() k=3 [{name}]: {e2e[name]['combos_per_second']:,.0f} combos/s")
            print(
                f"detect() k=3 [{name}, fused]: "
                f"{e2e[f'{name}_fused']['combos_per_second']:,.0f} combos/s "
                f"({e2e[f'speedup_fused_{name}']:.2f}x)"
            )
    split = doc["full"]["carm_split"]
    print(f"carm cpu+gpu split of {split['total']}: {split['shares']}")


def test_backends_benchmark_smoke():
    """Pytest entry point: quick run satisfies the gate and the artifact shape."""
    doc = run_benchmark(quick=True, repeats=1)
    assert check_gate(doc) == 0
    split = doc["carm_split"]
    assert sum(split["shares"]) == split["total"]
    assert all(share > 0 for share in split["shares"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI-sized run (printed, not written to the artifact)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of repetitions per timing"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the quick matrix and apply the regression gate: with "
        "numba installed, detect() k=3 must be >= the speedup floor "
        f"(default {DEFAULT_NUMBA_FLOOR}x over numpy; override via "
        f"{FLOOR_ENV}). Does not write the artifact",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check_gate(run_benchmark(quick=True, repeats=args.repeats))
    if args.quick:
        doc = run_benchmark(quick=True, repeats=args.repeats)
        print(json.dumps({k: v for k, v in doc["end_to_end"].items()}, indent=2))
        return 0
    emit(run_artifact(repeats=args.repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())

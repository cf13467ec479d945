"""Micro-calibration: measured per-backend throughput of this host.

The analytical models price the paper's catalogued hardware (and the
CARM-ratio split of a heterogeneous plan); this module measures the
*actual* host next to them: a small probe dataset is encoded, the
backend's kernel is timed over a combination batch, and the resulting
combos/s (and the paper's combinations x samples elements/s) are
persisted to a per-host JSON store that ``repro backends`` reports.

Records are keyed by a **fingerprint** — host identity, backend name and
version, kernel family, interaction order and word layout — so any change
that could shift throughput (a numba upgrade, a different word width,
another order) misses the store and reports "not calibrated" until
re-calibrated.  The store location defaults to
``~/.cache/repro-epistasis/calibration.json`` and is overridden by the
``REPRO_CALIBRATION_PATH`` environment variable (tests point it at a
temporary file so calibration never leaks between runs).
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.bitops.packing import WordLayout, get_layout

__all__ = [
    "CalibrationRecord",
    "CalibrationStore",
    "calibration_fingerprint",
    "default_store_path",
    "host_identity",
    "run_probe",
    "calibrate",
]

#: Environment variable overriding the calibration-store path.
STORE_PATH_ENV = "REPRO_CALIBRATION_PATH"

#: Schema version of the store document (bump to invalidate wholesale).
#: Version 2: the NumPy split kernel switched from NOR expansion to
#: inclusion–exclusion, so version-1 ``numpy`` split records price a kernel
#: that no longer runs.  Version 3: the NumPy kernels reuse a per-thread
#: workspace instead of page-faulting fresh temporaries on every call, so
#: version-2 ``numpy`` records underprice the CPU lanes.  Version 4: the
#: NumPy split kernel builds each prefix's planes once per run of
#: combinations and counts each pair once per call, so version-3 ``numpy``
#: split records underprice it too.  Version 5: the probe scores through
#: K2, which now adds the two class columns instead of reducing over them,
#: and ``popcount_sum`` adds short word axes column by column, so version-4
#: records underprice the fused probes.
STORE_VERSION = 5

#: Probe shape: small enough to calibrate in well under a second per
#: backend, large enough that per-call dispatch overhead is amortised.
PROBE_SNPS = 48
PROBE_SAMPLES = 4096
PROBE_SEED = 7


def host_identity() -> str:
    """Stable identity of this host for fingerprinting (node + core count)."""
    return f"{platform.node() or 'unknown'}/{os.cpu_count() or 1}c"


def calibration_fingerprint(
    backend: str,
    backend_version: str,
    family: str,
    order: int,
    layout: str,
    host: str | None = None,
) -> str:
    """The store key of one measured configuration.

    Any component changing — a library upgrade, another word layout or
    order, a different machine — produces a different key, which is how
    stale measurements are invalidated (they are simply never found).
    """
    host = host or host_identity()
    return f"{host}|{backend}@{backend_version}|{family}|k{int(order)}|{layout}"


@dataclass
class CalibrationRecord:
    """One measured throughput point of one backend configuration."""

    backend: str
    backend_version: str
    family: str
    order: int
    layout: str
    combos_per_second: float
    elements_per_second: float
    probe_snps: int = PROBE_SNPS
    probe_samples: int = PROBE_SAMPLES
    probe_seconds: float = 0.0
    host: str = field(default_factory=host_identity)

    @property
    def fingerprint(self) -> str:
        return calibration_fingerprint(
            self.backend,
            self.backend_version,
            self.family,
            self.order,
            self.layout,
            host=self.host,
        )


def default_store_path() -> Path:
    """The per-host store path (env override, else the user cache dir)."""
    forced = os.environ.get(STORE_PATH_ENV, "").strip()
    if forced:
        return Path(forced)
    return Path.home() / ".cache" / "repro-epistasis" / "calibration.json"


class CalibrationStore:
    """Per-host JSON store of measured backend throughput.

    The on-disk document is ``{"version": STORE_VERSION, "records":
    {fingerprint: record}}``, and a document of any other version reads as
    empty.  Writes are atomic (temp file + rename) and read/save failures
    degrade to an empty store (calibration is an optimisation, never a
    correctness dependency).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_store_path()
        self._records: Dict[str, dict] | None = None

    # -- persistence -----------------------------------------------------------
    def _load(self) -> Dict[str, dict]:
        if self._records is None:
            try:
                doc = json.loads(self.path.read_text())
                if doc.get("version") == STORE_VERSION:
                    self._records = dict(doc.get("records", {}))
                else:
                    self._records = {}
            except (OSError, ValueError):
                self._records = {}
        return self._records

    def save(self) -> bool:
        """Atomically persist the store; ``False`` when the path is unwritable."""
        records = self._load()
        doc = {"version": STORE_VERSION, "records": records}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
            return True
        except OSError:
            return False

    # -- record access ---------------------------------------------------------
    def get(self, fingerprint: str) -> CalibrationRecord | None:
        raw = self._load().get(fingerprint)
        if raw is None:
            return None
        return CalibrationRecord(**raw)

    def put(self, record: CalibrationRecord, save: bool = True) -> None:
        self._load()[record.fingerprint] = asdict(record)
        if save:
            self.save()

    def lookup(
        self,
        backend: str,
        backend_version: str,
        family: str,
        order: int,
        layout: str,
    ) -> CalibrationRecord | None:
        """Fingerprint-checked lookup for the current host."""
        return self.get(
            calibration_fingerprint(backend, backend_version, family, order, layout)
        )

    def records(self) -> List[CalibrationRecord]:
        return [CalibrationRecord(**raw) for raw in self._load().values()]

    def __len__(self) -> int:
        return len(self._load())


# -- probing -------------------------------------------------------------------


def _probe_dataset(n_snps: int, n_samples: int, seed: int):
    from repro.datasets.synthetic import SyntheticConfig, generate_dataset

    return generate_dataset(
        SyntheticConfig(n_snps=n_snps, n_samples=n_samples, seed=seed)
    )


def _probe_combos(n_snps: int, order: int, limit: int = 4096) -> np.ndarray:
    from itertools import combinations, islice

    return np.array(
        list(islice(combinations(range(n_snps), order), limit)), dtype=np.int64
    )


def run_probe(
    backend: ExecutionBackend,
    family: str = "split",
    order: int = 3,
    layout: WordLayout | str | None = None,
    *,
    n_snps: int = PROBE_SNPS,
    n_samples: int = PROBE_SAMPLES,
    repeats: int = 3,
    seed: int = PROBE_SEED,
    fused: bool = False,
) -> CalibrationRecord:
    """Measure one backend configuration on the probe workload.

    The first (untimed) kernel call absorbs one-off costs — JIT
    compilation, CUDA module build, device upload — so the record reflects
    steady-state throughput; the total wall time including that warm-up is
    reported as ``probe_seconds`` (the cost of calibrating).

    ``fused=True`` probes the fused build+score capability
    (:meth:`~repro.backends.base.ExecutionBackend.score_combinations`
    under the K2 objective) instead of bare table construction; the record
    is keyed under the ``"<family>+fused"`` family so fused and unfused
    measurements never collide in the store.
    """
    from repro.datasets.binarization import BinarizedDataset, PhenotypeSplitDataset

    layout = get_layout(layout)
    dataset = _probe_dataset(n_snps, n_samples, seed)
    combos = _probe_combos(n_snps, order)
    objective = None
    if fused:
        from repro.core.scoring import get_objective

        objective = get_objective("k2")
        objective.prepare(dataset)
    started = time.perf_counter()
    if family == "split":
        split = PhenotypeSplitDataset.from_dataset(dataset, layout=layout)

        if fused:

            def run() -> None:
                backend.score_combinations(
                    "split",
                    combos,
                    objective,
                    control_planes=split.control_planes,
                    case_planes=split.case_planes,
                    control_mask=split.padding_mask(0),
                    case_mask=split.padding_mask(1),
                )

        else:

            def run() -> None:
                backend.split_class_counts(
                    split.control_planes, split.padding_mask(0), combos
                )
                backend.split_class_counts(
                    split.case_planes, split.padding_mask(1), combos
                )

    elif family == "naive":
        binarized = BinarizedDataset.from_dataset(dataset, layout=layout)

        if fused:

            def run() -> None:
                backend.score_combinations(
                    "naive",
                    combos,
                    objective,
                    planes=binarized.planes,
                    phenotype_words=binarized.phenotype_words,
                )

        else:

            def run() -> None:
                backend.naive_tables(
                    binarized.planes, binarized.phenotype_words, combos
                )

    else:
        raise ValueError(f"unknown kernel family {family!r}; use 'split' or 'naive'")

    run()  # warm-up: JIT / module compilation, device upload
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    probe_seconds = time.perf_counter() - started
    combos_per_second = len(combos) / max(best, 1e-9)
    return CalibrationRecord(
        backend=backend.name,
        backend_version=backend.version() or "unknown",
        family=f"{family}+fused" if fused else family,
        order=int(order),
        layout=layout.name,
        combos_per_second=combos_per_second,
        elements_per_second=combos_per_second * n_samples,
        probe_snps=n_snps,
        probe_samples=n_samples,
        probe_seconds=probe_seconds,
    )


def calibrate(
    backends: Iterable[str] | None = None,
    *,
    families: Iterable[str] = ("split",),
    orders: Iterable[int] = (3,),
    layout: WordLayout | str | None = None,
    store: CalibrationStore | None = None,
    repeats: int = 3,
) -> List[CalibrationRecord]:
    """Measure every available requested backend and persist the records.

    ``backends=None`` calibrates every *available* registered backend.
    Unavailable backends are skipped silently (calibration is best-effort);
    the records are written to ``store`` (default per-host store) and also
    returned for reporting.
    """
    from repro.backends import BACKENDS, get_backend

    if backends is None:
        names = [n for n, cls in BACKENDS.items() if cls.is_available()]
    else:
        names = list(backends)
    if store is None:  # NOT `store or ...`: an empty store is falsy (len 0)
        store = CalibrationStore()
    records: List[CalibrationRecord] = []
    for name in names:
        backend = get_backend(name)
        if backend.name != name:
            continue  # fell back: don't record the substitute under this name
        for family in families:
            for order in orders:
                record = run_probe(
                    backend, family=family, order=order, layout=layout,
                    repeats=repeats,
                )
                store.put(record, save=False)
                records.append(record)
    store.save()
    return records

"""Crash-safe checkpoint ledgers for sharded runs.

A checkpoint is a single JSON document updated with an atomic
write-temp-then-:func:`os.replace` cycle once per arrived batch of shards
(once per shard inline), so a killed run (OOM, pre-emption, ``kill -9``)
always leaves either the previous or the next consistent ledger on disk —
never a torn file, and never part of a batch.  The ledger records

* a **fingerprint** of the run (dataset digest, candidate-source *content*
  identity, search configuration, shard boundaries) so ``--resume`` refuses
  to splice partials from a different run into the result;
* the **per-shard records**: shard id, partial top-k rows, item/op/traffic
  counts and a reference to the shard's per-SNP screening minima, which
  live as write-once binary side files under ``<ledger>.minima/`` (keeping
  each JSON commit proportional to the shard count);
* free-form **state** sections used by non-sharded consumers (the
  permutation stage stores its RNG bit-generator state and exceedance
  counters here).

Ledgers are compact JSON (no indentation), which is what lets CPython
encode them in C.  Scores are stored as JSON numbers; Python's ``json``
encodes floats via ``repr`` in either encoder, which round-trips
``float64`` exactly, so a resumed run merges bit-identical values — also
from an indented ledger an older writer left.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List

import numpy as np

from repro.datasets.dataset import GenotypeDataset
from repro.distributed.shards import Shard

__all__ = [
    "dataset_fingerprint",
    "fingerprint_divergence",
    "JsonLedger",
    "CheckpointStore",
]

#: Ledger format version; bumped on incompatible layout changes.
LEDGER_VERSION = 1


def dataset_fingerprint(dataset: GenotypeDataset) -> Dict[str, object]:
    """Content digest of a dataset (shape plus SHA-1 of the raw arrays)."""
    return {
        "n_snps": int(dataset.n_snps),
        "n_samples": int(dataset.n_samples),
        "sha1": dataset.content_digest(),
    }


#: Friendly names of the standard fingerprint components, used when a
#: resume is refused so the error names *what* diverged instead of a flat
#: "fingerprint mismatch".
_COMPONENT_NAMES = {
    "dataset": "dataset",
    "dataset.sha1": "dataset content digest",
    "dataset.n_snps": "dataset SNP count",
    "dataset.n_samples": "dataset sample count",
    "source": "candidate source",
    "search": "search configuration",
    "config": "configuration",
}


def fingerprint_divergence(
    expected: Dict[str, object], found: Dict[str, object]
) -> List[str]:
    """Name each fingerprint component where a ledger diverges from a run.

    Walks both documents recursively and returns human-readable lines like
    ``"dataset content digest: ledger has 3f2a…, this run has 91bc…"`` —
    the substance of the resume-refusal error message.
    """

    def walk(exp, got, path: str, out: List[str]) -> None:
        if isinstance(exp, dict) and isinstance(got, dict):
            for key in sorted(set(exp) | set(got), key=str):
                child = f"{path}.{key}" if path else str(key)
                if key not in exp:
                    out.append(f"{_name(child)}: only in the ledger ({_short(got[key])})")
                elif key not in got:
                    out.append(f"{_name(child)}: only in this run ({_short(exp[key])})")
                else:
                    walk(exp[key], got[key], child, out)
            return
        if exp != got:
            out.append(
                f"{_name(path)}: ledger has {_short(got)}, "
                f"this run has {_short(exp)}"
            )

    def _name(path: str) -> str:
        return _COMPONENT_NAMES.get(path, path)

    def _short(value) -> str:
        text = json.dumps(value, sort_keys=True, default=str)
        return text if len(text) <= 60 else text[:57] + "..."

    lines: List[str] = []
    walk(expected, found, "", lines)
    return lines


class JsonLedger:
    """Atomic JSON document on disk (the base of every checkpoint format).

    The in-memory document is the single source of truth between writes;
    :meth:`write` serialises it to a temporary file in the same directory
    and atomically replaces the target, so readers (and crashed writers)
    only ever observe complete documents.  :meth:`begin` implements the
    shared open-or-initialise flow (version stamp + fingerprint
    validation) every concrete ledger — shard, pipeline stage-output,
    permutation RNG — builds on.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.doc: Dict[str, object] = {}

    def begin(
        self,
        fingerprint: Dict[str, object],
        resume: bool = False,
        label: str = "checkpoint",
    ) -> bool:
        """Open an existing ledger or initialise a fresh one.

        Returns ``True`` when ``resume`` found a valid on-disk ledger (its
        document is loaded); returns ``False`` after initialising a fresh
        in-memory document ``{"version", "fingerprint"}`` — the caller adds
        its sections and calls :meth:`write`.  A version or fingerprint
        mismatch raises ``ValueError`` (``label`` names the ledger kind in
        the message) rather than silently splicing state from a different
        run.
        """
        if resume and self.load() is not None:
            if self.doc.get("version") != LEDGER_VERSION:
                raise ValueError(
                    f"{self.path}: {label} version {self.doc.get('version')!r} "
                    f"is not {LEDGER_VERSION}; delete the file to start fresh"
                )
            recorded = self.doc.get("fingerprint")
            if recorded != fingerprint:
                diverged = fingerprint_divergence(
                    fingerprint, recorded if isinstance(recorded, dict) else {}
                )
                detail = "; ".join(diverged) if diverged else "fingerprint differs"
                raise ValueError(
                    f"{self.path}: cannot resume — this {label} belongs to a "
                    f"different run; its fingerprint diverged: {detail}. "
                    "Delete the file to start fresh, or rerun with the "
                    "original configuration."
                )
            return True
        self.doc = {"version": LEDGER_VERSION, "fingerprint": fingerprint}
        return False

    @property
    def exists(self) -> bool:
        """Whether a ledger file is present on disk."""
        return self.path.exists()

    def load(self) -> Dict[str, object] | None:
        """Read the on-disk document into memory (``None`` when absent)."""
        if not self.path.exists():
            return None
        with self.path.open("r", encoding="utf-8") as fh:
            self.doc = json.load(fh)
        return self.doc

    def write(self) -> None:
        """Atomically persist the in-memory document as compact JSON.

        ``json.dumps`` without ``indent`` runs CPython's C encoder, and the
        text goes out in one write; ``json.dump`` would run the pure-Python
        encoder with one write per token.  Each write is a
        ``checkpoint.commit`` span on the active telemetry run, if any.
        """
        from repro.telemetry import span_or_null

        self.path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.doc) + "\n"
        with span_or_null("checkpoint.commit", ledger=self.path.name, bytes=len(text)):
            fd, tmp_path = tempfile.mkstemp(
                prefix=self.path.name + ".", suffix=".tmp", dir=self.path.parent
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp_path, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise

    def delete(self) -> None:
        """Remove the ledger file (ignored when absent)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def note_run(self, run_id: str | None) -> None:
        """Append a run identity to the ledger's run history and persist.

        Exported trace files carry the same ``run_id`` in their manifest,
        so every run — fresh or resumed — that touched this ledger stays
        correlatable with its telemetry.  The history lives outside the
        fingerprint, so resuming under a new ``run_id`` never invalidates
        the ledger.
        """
        if not run_id:
            return
        runs = self.doc.setdefault("run_ids", [])
        if run_id not in runs:
            runs.append(run_id)
            self.write()


class CheckpointStore(JsonLedger):
    """Shard ledger of one distributed run.

    Life cycle: :meth:`begin` either starts a fresh ledger or — under
    ``resume=True`` — validates the on-disk fingerprint and returns the
    already-completed shard records; :meth:`record_shard` adds one shard's
    partial result to the document and :meth:`write` commits every shard
    recorded since the last commit atomically; :meth:`finish` marks the
    run complete (purely informational — a complete ledger resumes to a
    no-op merge).
    """

    def begin(
        self,
        fingerprint: Dict[str, object],
        shards: Iterable[Shard],
        resume: bool = False,
    ) -> Dict[int, Dict[str, object]]:
        """Open the ledger and return the records of already-done shards.

        A fresh run (or ``resume=True`` with no ledger on disk) starts
        empty.  Resuming an existing ledger requires its fingerprint to
        match exactly; anything else raises ``ValueError`` rather than
        silently merging partials of a different dataset, candidate space
        or shard geometry.
        """
        boundaries = [[s.start, s.stop] for s in shards]
        if super().begin(fingerprint, resume=resume, label="shard checkpoint"):
            planned = self.doc.get("shards_planned")
            if planned != boundaries:
                if not isinstance(planned, list):
                    detail = "the ledger records no shard plan"
                elif len(planned) != len(boundaries):
                    detail = (
                        f"the ledger planned {len(planned)} shards, this run "
                        f"plans {len(boundaries)} (different shard count "
                        "or candidate total)"
                    )
                else:
                    diverged = next(
                        i
                        for i, (a, b) in enumerate(zip(planned, boundaries))
                        if a != b
                    )
                    detail = (
                        f"shard {diverged} covers ranks "
                        f"{planned[diverged]} in the ledger but "
                        f"{boundaries[diverged]} in this run"
                    )
                raise ValueError(
                    f"{self.path}: cannot resume — shard boundaries diverged: "
                    f"{detail}. Delete the checkpoint to start fresh, or rerun "
                    "with the original shard plan."
                )
            return self.done_records()
        self.doc.update(
            {
                "shards_planned": boundaries,
                "completed": False,
                "shards": {},
                "state": {},
            }
        )
        # A fresh ledger owns its side-file directory; drop leftovers of a
        # previous (overwritten) run so stale minima can never be read.
        shutil.rmtree(self.minima_dir, ignore_errors=True)
        self.write()
        return {}

    def record_shard(self, shard_id: int, record: Dict[str, object]) -> None:
        """Add one completed shard's partial result to the next commit.

        The record joins the in-memory document; the caller commits it with
        :meth:`write`, once for every shard of an arrived batch.  Dense
        per-SNP minima arrays are written now, durably, to a side file
        under ``<ledger>.minima/`` (NPZ-style binary, atomic rename) and
        only referenced from the JSON document — each commit stays
        proportional to the shard count, not to ``n_shards x n_snps``, on
        whole-genome screens.  A kill before the commit leaves side files
        no ledger names; the rerun of those shards overwrites them.
        """
        record = dict(record)
        minima = record.pop("snp_minima", None)
        if minima is not None:
            record["snp_minima_file"] = self._write_minima(shard_id, minima)
        self.doc.setdefault("shards", {})[str(int(shard_id))] = record

    @property
    def minima_dir(self) -> Path:
        """Directory of the per-shard minima side files."""
        return self.path.with_name(self.path.name + ".minima")

    def _write_minima(self, shard_id: int, minima: np.ndarray) -> str:
        """Atomically write one shard's minima array; returns the file name."""
        self.minima_dir.mkdir(parents=True, exist_ok=True)
        name = f"shard{int(shard_id):05d}.npy"
        fd, tmp_path = tempfile.mkstemp(
            prefix=name + ".", suffix=".tmp", dir=self.minima_dir
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, minima)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.minima_dir / name)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return name

    def shard_minima(self, shard_id: int, record: Dict[str, object]):
        """A restored shard's per-SNP minima (``None`` when not collected)."""
        if record.get("snp_minima") is not None:
            return record["snp_minima"]  # inline payload (legacy/small runs)
        name = record.get("snp_minima_file")
        if name is None:
            return None
        path = self.minima_dir / str(name)
        if not path.exists():
            raise ValueError(
                f"{self.path}: ledger records minima file {name} for shard "
                f"{shard_id} but it is missing; delete the checkpoint and "
                "restart"
            )
        return np.load(path)

    def done_records(self) -> Dict[int, Dict[str, object]]:
        """Completed shard records keyed by integer shard id."""
        return {
            int(shard_id): record
            for shard_id, record in self.doc.get("shards", {}).items()
        }

    def done_ids(self) -> List[int]:
        """Sorted ids of the completed shards."""
        return sorted(self.done_records())

    def finish(self) -> None:
        """Mark the run complete."""
        self.doc["completed"] = True
        self.write()

    # -- free-form state (RNG/permutation progress, ...) -------------------
    def get_state(self, key: str):
        """Read a free-form state entry (``None`` when absent)."""
        return self.doc.get("state", {}).get(key)

    def set_state(self, key: str, value) -> None:
        """Persist a free-form state entry atomically."""
        self.doc.setdefault("state", {})[key] = value
        self.write()

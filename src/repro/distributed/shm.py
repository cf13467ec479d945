"""The shared-memory data plane: zero-copy dataset and encoding transport.

Before this module every distributed run shipped the whole dataset to every
worker process by pickling it into the pool (one copy per worker, repeated
for every ``detect()`` call and pipeline stage).  The
:class:`SharedEncodingStore` replaces that with POSIX shared memory: the
coordinator *publishes* the genotype matrix, the phenotype vector, the
prepared bit-plane encodings and (for K2) the log-factorial table into
:mod:`multiprocessing.shared_memory` segments once, and workers *attach*
read-only views — what crosses the process boundary per task is a tiny
:class:`DatasetHandle` (a content digest) instead of the arrays themselves.

Segments are **content-addressed**: the segment name is a digest of the
publish key (which itself contains :meth:`GenotypeDataset.content_digest`
and :meth:`Approach.encoding_key`), so

* a double publish of the same content is a no-op (the existing segment is
  reused and refcounted up);
* a stale segment left behind by a *crashed* run of the same content is
  either valid by construction (complete header) and adopted, or detected
  as torn — the completeness magic is written *last* — and republished.

Lifecycle is refcounted through :class:`StoreSession` objects: every
runner (or the warm worker fleet) holds a session, publishes and loads
retain segments into it, and closing the last session that references a
segment unlinks it.  An ``atexit`` hook unlinks everything the process
still owns, so a clean exit never leaks ``/dev/shm`` entries; POSIX
semantics keep already-attached worker mappings valid even after the
parent unlinks.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "DatasetHandle",
    "SharedEncodingStore",
    "StoreSession",
    "SegmentInfo",
    "shared_store",
    "publish_dataset",
    "hydrate_dataset",
    "publish_encoding",
    "load_encoding",
    "publish_logfact",
    "load_logfact",
    "scan_segments",
    "reap_orphans",
    "data_plane_snapshot",
    "data_plane_delta",
    "note_event",
    "reset_data_plane_counters",
]

#: Completeness magic, written only after the manifest and every array
#: payload landed — a segment without it is a torn write from a crashed
#: publisher and must be republished, never trusted.
_MAGIC = b"RPSHM001"
#: Byte offset of the manifest-length word (directly after the magic).
_LEN_OFFSET = len(_MAGIC)
_HEADER_BYTES = _LEN_OFFSET + 8
#: Array payloads start on cache-line boundaries.
_ALIGN = 64

#: Process-wide data-plane event counters (monotonic; see
#: :func:`data_plane_snapshot`).  Keys are created on first use so the
#: snapshot only carries events that actually happened.
_COUNTERS: Dict[str, int] = {}
_COUNTERS_LOCK = threading.Lock()


def note_event(name: str, count: int = 1) -> None:
    """Record ``count`` occurrences of a data-plane event."""
    with _COUNTERS_LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + int(count)


def reset_data_plane_counters() -> None:
    """Zero every data-plane counter (tests and benchmark harnesses)."""
    with _COUNTERS_LOCK:
        _COUNTERS.clear()


def data_plane_snapshot() -> Dict[str, int]:
    """Current cumulative data-plane counters of this process.

    Merges the shared-memory store events with the process-wide encoding
    cache counters, so one snapshot answers both "how many segments moved"
    and "how many times was a dataset (re-)packed".
    """
    from repro.core.encoding_cache import ENCODING_CACHE

    with _COUNTERS_LOCK:
        snap = dict(_COUNTERS)
    snap["encoding_cache_hits"] = int(ENCODING_CACHE.hits)
    snap["encoding_cache_misses"] = int(ENCODING_CACHE.misses)
    snap["encoding_cache_shm_hits"] = int(ENCODING_CACHE.shm_hits)
    return snap


def data_plane_delta(
    before: Dict[str, int], after: Dict[str, int] | None = None
) -> Dict[str, int]:
    """Counter increments between two snapshots (zero entries dropped)."""
    if after is None:
        after = data_plane_snapshot()
    delta = {}
    for name, value in after.items():
        change = int(value) - int(before.get(name, 0))
        if change:
            delta[name] = change
    return delta


def _key_text(key: object) -> str:
    """Canonical text form of a publish key (tuples of str/int)."""
    return repr(tuple(key) if isinstance(key, (tuple, list)) else (key,))


def _segment_name(key_text: str, prefix: str) -> str:
    """Content-addressed segment name (short: macOS caps names at 31)."""
    return prefix + hashlib.sha1(key_text.encode()).hexdigest()[:24]


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _attach_untracked(name: str):
    """Attach an existing segment without registering it for cleanup.

    The resource tracker is one process shared by the whole process tree,
    and Python < 3.13 offers no ``track=False`` — attaching registers the
    name, and *unregistering* after the fact would delete the publisher's
    own registration (the tracker's cache is a set).  Suppressing the
    registration call during attach keeps the tracker's view exactly
    "publisher owns it": readers never touch it.

    Returns ``None`` when no segment of that name exists.
    """
    from multiprocessing import resource_tracker
    from multiprocessing.shared_memory import SharedMemory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return None
    finally:
        resource_tracker.register = original


def _parse_manifest(shm, key_text: str | None):
    """Parse and check a segment header; returns the manifest or ``None``.

    ``None`` marks a torn segment: missing magic, truncated length or
    unparseable manifest — exactly what a publisher SIGKILLed mid-write
    leaves behind.
    """
    buf = shm.buf
    if buf is None or len(buf) < _HEADER_BYTES:
        return None
    if bytes(buf[0:_LEN_OFFSET]) != _MAGIC:
        return None
    (length,) = struct.unpack("<Q", bytes(buf[_LEN_OFFSET:_HEADER_BYTES]))
    if length <= 0 or _HEADER_BYTES + length > len(buf):
        return None
    try:
        manifest = json.loads(bytes(buf[_HEADER_BYTES : _HEADER_BYTES + length]))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if key_text is not None and manifest.get("key") != key_text:
        return None
    return manifest


def _track(shm) -> None:
    """Register an adopted segment with the resource tracker (owner side)."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass


def _quiet_close(shm) -> None:
    """Close a segment without destructor noise.

    Numpy views exported from the buffer pin the mapping, making
    ``close()`` raise ``BufferError``; in that case the destructor is
    disarmed (the mapping dies with the process) so interpreter teardown
    stays silent.
    """
    import os

    try:
        shm.close()
    except BufferError:
        shm._buf = None
        shm._mmap = None
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass
            shm._fd = -1
    except Exception:
        pass


class _OwnedSegment:
    """A segment this process created (or adopted) and will unlink."""

    __slots__ = ("shm", "key_text", "refs")

    def __init__(self, shm, key_text: str) -> None:
        self.shm = shm
        self.key_text = key_text
        self.refs = 0


class StoreSession:
    """A refcount scope over store segments.

    Every distributed runner (or the long-lived warm fleet) opens one
    session; publishes and loads retain the touched segments into it, and
    :meth:`close` releases them — the store unlinks a segment when the
    last session referencing it closes.
    """

    def __init__(self, store: "SharedEncodingStore") -> None:
        self._store = store
        self._names: set[str] = set()
        self.closed = False

    def _retain(self, name: str) -> None:
        if self.closed or name in self._names:
            return
        self._names.add(name)
        self._store._retain(name)

    def close(self) -> None:
        """Release every retained segment (idempotent)."""
        if self.closed:
            return
        self.closed = True
        names, self._names = self._names, set()
        self._store._release(names)

    def __enter__(self) -> "StoreSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SharedEncodingStore:
    """Publish/attach named arrays through POSIX shared memory.

    One segment per key, laid out as::

        [magic 8B] [manifest-length 8B] [manifest JSON] [array payloads]

    with the magic written last so an interrupted publish is detectable.
    The manifest records each array's dtype/shape/offset plus arbitrary
    JSON metadata (codec name, sample counts, SNP names).
    """

    def __init__(self, prefix: str = "rp") -> None:
        self.prefix = prefix
        self._owned: Dict[str, _OwnedSegment] = {}
        self._attached: Dict[str, object] = {}
        self._lock = threading.RLock()

    # -- sessions / refcounting ---------------------------------------------
    def session(self) -> StoreSession:
        """Open a new refcount scope."""
        return StoreSession(self)

    def _retain(self, name: str) -> None:
        with self._lock:
            owned = self._owned.get(name)
            if owned is not None:
                owned.refs += 1

    def _release(self, names: Iterable[str]) -> None:
        with self._lock:
            for name in names:
                owned = self._owned.get(name)
                if owned is None:
                    continue
                owned.refs -= 1
                if owned.refs <= 0:
                    self._unlink_owned(name)

    def _unlink_owned(self, name: str) -> None:
        owned = self._owned.pop(name, None)
        if owned is None:
            return
        try:
            owned.shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass
        _quiet_close(owned.shm)
        note_event("segments_unlinked")

    # -- publish --------------------------------------------------------------
    def publish(
        self,
        key: object,
        arrays: Dict[str, np.ndarray],
        meta: Optional[Dict[str, object]] = None,
        session: StoreSession | None = None,
    ) -> str:
        """Publish named arrays under ``key``; returns the segment name.

        Publishing content that is already live is a no-op (the segment is
        reused); a stale incomplete segment with the same name is unlinked
        and republished.
        """
        key_text = _key_text(key)
        name = _segment_name(key_text, self.prefix)
        with self._lock:
            if name in self._owned or name in self._attached:
                note_event("segments_reused")
                if session is not None:
                    session._retain(name)
                return name

            manifest_bytes, total_size, offsets = self._layout(key_text, arrays, meta)
            shm = self._create_segment(name, key_text, total_size)
            if shm is None:
                # A valid complete segment of identical content already
                # exists (crashed prior run, or a concurrent publisher):
                # adopt it instead of rewriting identical bytes.
                shm = self._adopt_or_replace(name, key_text, total_size)
            if isinstance(shm, _OwnedSegment):
                owned = shm
            else:
                self._write_segment(shm, manifest_bytes, arrays, offsets)
                owned = _OwnedSegment(shm, key_text)
                note_event("segments_published")
            self._owned[name] = owned
            if session is not None:
                session._retain(name)
            return name

    def _layout(self, key_text, arrays, meta):
        """The manifest bytes, the segment size and each array's offset.

        The manifest's offsets are relative to the payload base, so the
        manifest never depends on where the payload starts: one pass.
        """
        entries = []
        offset = 0
        for aname, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            entries.append(
                {
                    "name": aname,
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "offset": offset,
                    "nbytes": int(arr.nbytes),
                }
            )
            offset = _align(offset + arr.nbytes)
        manifest = {
            "key": key_text,
            "arrays": entries,
            "meta": meta or {},
            # Owner provenance for the orphan reaper: a segment whose
            # publishing process is gone (SIGKILL skips every atexit hook)
            # is reclaimable; one with a live owner never is.  Not part of
            # the content address — adoption only compares the key.
            "owner": {"pid": os.getpid(), "created": round(time.time(), 3)},
        }
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
        base = _align(_HEADER_BYTES + len(manifest_bytes))
        total = max(base + offset, base + 1)
        return manifest_bytes, total, {e["name"]: base + e["offset"] for e in entries}

    def _create_segment(self, name, key_text, size):
        from multiprocessing.shared_memory import SharedMemory

        try:
            return SharedMemory(name=name, create=True, size=size)
        except FileExistsError:
            return None

    def _adopt_or_replace(self, name, key_text, size):
        """Handle a name collision: adopt a valid segment, replace a torn one."""
        existing = _attach_untracked(name)
        if existing is not None:
            # Either way this process takes ownership of the name (adopt
            # the valid content, or unlink the torn leftovers), so the
            # tracker gets the registration the suppressed attach skipped.
            _track(existing)
            if _parse_manifest(existing, key_text) is not None:
                note_event("segments_reused")
                return _OwnedSegment(existing, key_text)
            # Torn write from a crashed publisher: never trust it.
            try:
                existing.unlink()
            except FileNotFoundError:
                pass
            _quiet_close(existing)
            note_event("segments_stale_republished")
        shm = self._create_segment(name, key_text, size)
        if shm is None:
            raise RuntimeError(
                f"shared-memory segment {name!r} reappeared while republishing"
            )
        return shm

    def _write_segment(self, shm, manifest_bytes, arrays, offsets):
        buf = shm.buf
        buf[_LEN_OFFSET:_HEADER_BYTES] = struct.pack("<Q", len(manifest_bytes))
        buf[_HEADER_BYTES : _HEADER_BYTES + len(manifest_bytes)] = manifest_bytes
        for aname, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            if arr.nbytes == 0:
                continue
            dest = np.frombuffer(
                buf, dtype=arr.dtype, count=arr.size, offset=offsets[aname]
            ).reshape(arr.shape)
            np.copyto(dest, arr)
        # Completeness magic goes in last: readers that see it know the
        # manifest and every payload byte landed.
        buf[0:_LEN_OFFSET] = _MAGIC

    # -- attach ---------------------------------------------------------------
    def load(
        self,
        key: object,
        session: StoreSession | None = None,
    ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, object]]]:
        """Attach the segment for ``key`` as read-only array views.

        Returns ``(arrays, meta)`` or ``None`` when no valid segment
        exists.  The views alias shared memory directly — zero copies.
        """
        key_text = _key_text(key)
        name = _segment_name(key_text, self.prefix)
        with self._lock:
            owned = self._owned.get(name)
            if owned is not None:
                shm = owned.shm
            elif name in self._attached:
                shm = self._attached[name]
            else:
                shm = _attach_untracked(name)
                if shm is None:
                    return None
                self._attached[name] = shm
                note_event("segments_attached")
            manifest = _parse_manifest(shm, key_text)
            if manifest is None:
                return None
            if session is not None:
                session._retain(name)
            (length,) = struct.unpack(
                "<Q", bytes(shm.buf[_LEN_OFFSET:_HEADER_BYTES])
            )
            base = _align(_HEADER_BYTES + int(length))
            arrays: Dict[str, np.ndarray] = {}
            for entry in manifest["arrays"]:
                dtype = np.dtype(entry["dtype"])
                shape = tuple(entry["shape"])
                count = int(np.prod(shape, dtype=np.int64)) if shape else 1
                if count == 0:
                    view = np.empty(shape, dtype=dtype)
                else:
                    view = np.frombuffer(
                        shm.buf,
                        dtype=dtype,
                        count=count,
                        offset=base + int(entry["offset"]),
                    ).reshape(shape)
                view.flags.writeable = False
                arrays[entry["name"]] = view
            return arrays, dict(manifest.get("meta", {}))

    # -- lifecycle -------------------------------------------------------------
    def close_all(self) -> None:
        """Unlink every owned segment and close every attachment."""
        with self._lock:
            for name in list(self._owned):
                self._unlink_owned(name)
            for shm in self._attached.values():
                _quiet_close(shm)
            self._attached.clear()


# -- the process-wide store singleton ----------------------------------------
_STORE: SharedEncodingStore | None = None
_STORE_LOCK = threading.Lock()


def shared_store() -> SharedEncodingStore:
    """The process-wide :class:`SharedEncodingStore` (created on demand).

    The first store in a *parent* process also sweeps orphaned segments:
    a run killed with SIGKILL skips every ``atexit`` hook and leaves its
    ``/dev/shm`` entries behind, so the next run reclaims whatever a dead
    owner left (live owners' segments are never touched).
    """
    global _STORE
    import multiprocessing

    sweep = False
    with _STORE_LOCK:
        if _STORE is None:
            _STORE = SharedEncodingStore()
            atexit.register(_STORE.close_all)
            sweep = multiprocessing.parent_process() is None
        store = _STORE
    if sweep:
        try:
            reap_orphans()
        except Exception:
            pass
    return store


# -- orphan inventory and reaping ---------------------------------------------

#: Where POSIX shared memory is mounted (Linux).  On platforms without it
#: the scanner reports nothing — segments there are reclaimed by the OS
#: differently and the reaper degrades to a no-op.
_SHM_DIR = "/dev/shm"


def _pid_alive(pid: int) -> bool:
    """Whether a process with ``pid`` exists (signal-0 probe)."""
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


@dataclass(frozen=True)
class SegmentInfo:
    """One shared-memory segment as seen by :func:`scan_segments`."""

    name: str
    size: int
    #: Complete header (magic + parseable manifest)?  ``False`` marks a
    #: torn write from a publisher that died mid-publish.
    valid: bool
    #: ``"dataset"`` / ``"encoding"`` / ``"logfact"`` (``None`` when torn).
    kind: str | None = None
    key: str | None = None
    owner_pid: int | None = None
    #: ``None`` when the segment predates owner provenance (or is torn).
    owner_alive: bool | None = None
    created: float | None = None

    @property
    def orphan(self) -> bool:
        """Reclaimable: torn, or owned by a process that no longer exists."""
        return (not self.valid) or self.owner_alive is False

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "size": int(self.size),
            "valid": bool(self.valid),
            "kind": self.kind,
            "key": self.key,
            "owner_pid": self.owner_pid,
            "owner_alive": self.owner_alive,
            "created": self.created,
            "orphan": self.orphan,
        }


def _segment_kind(key: object) -> str:
    """What a valid segment holds, read from its publish key's text."""
    for kind in ("dataset", "logfact"):
        if isinstance(key, str) and key.startswith(f"('{kind}'"):
            return kind
    return "encoding"


def scan_segments(prefix: str = "rp") -> List[SegmentInfo]:
    """Inventory every repro shared-memory segment visible on this host.

    Read-only: segments are attached, inspected and detached — nothing is
    unlinked.  Returns an empty list on platforms without a ``/dev/shm``
    listing.
    """
    if not os.path.isdir(_SHM_DIR):
        return []
    hex_digits = set("0123456789abcdef")
    infos: List[SegmentInfo] = []
    for entry in sorted(os.listdir(_SHM_DIR)):
        suffix = entry[len(prefix) :]
        if not entry.startswith(prefix) or len(suffix) != 24:
            continue
        if not set(suffix) <= hex_digits:
            continue
        try:
            size = os.path.getsize(os.path.join(_SHM_DIR, entry))
        except OSError:
            size = 0
        shm = _attach_untracked(entry)
        if shm is None:
            continue
        try:
            manifest = _parse_manifest(shm, None)
            if manifest is None:
                infos.append(SegmentInfo(name=entry, size=size, valid=False))
                continue
            key = manifest.get("key")
            owner = manifest.get("owner") or {}
            pid = owner.get("pid")
            infos.append(
                SegmentInfo(
                    name=entry,
                    size=size,
                    valid=True,
                    kind=_segment_kind(key),
                    key=key,
                    owner_pid=None if pid is None else int(pid),
                    owner_alive=None if pid is None else _pid_alive(int(pid)),
                    created=owner.get("created"),
                )
            )
        finally:
            _quiet_close(shm)
    return infos


def reap_orphans(
    prefix: str = "rp", dry_run: bool = False, force: bool = False
) -> List[SegmentInfo]:
    """Unlink orphaned segments; returns what was (or would be) reclaimed.

    A segment is an orphan when its header is torn or its owner process is
    dead.  Segments owned or attached by *this* process are never touched,
    nor are segments with a live owner — a sweep during someone else's run
    reclaims only garbage.  ``force=True`` widens the net to segments with
    unknown provenance (published before owner stamping existed);
    ``dry_run=True`` reports without unlinking.
    """
    store = _STORE
    protected: set[str] = set()
    if store is not None:
        with store._lock:
            protected = set(store._owned) | set(store._attached)
    reclaimed: List[SegmentInfo] = []
    for info in scan_segments(prefix):
        if info.name in protected:
            continue
        if info.owner_pid == os.getpid():
            continue
        eligible = info.orphan or (force and info.owner_alive is not True)
        if not eligible:
            continue
        if not dry_run:
            shm = _attach_untracked(info.name)
            if shm is None:
                continue
            # The attach above never registered with the resource tracker,
            # so the unlink must not unregister either (the tracker daemon
            # logs a KeyError for unknown names).
            from multiprocessing import resource_tracker

            original = resource_tracker.unregister
            resource_tracker.unregister = lambda *args, **kwargs: None
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass
            finally:
                resource_tracker.unregister = original
            _quiet_close(shm)
            note_event("segments_reaped")
        reclaimed.append(info)
    return reclaimed


# -- dataset transport --------------------------------------------------------

@dataclass(frozen=True)
class DatasetHandle:
    """What a shard task ships instead of the dataset: a content address.

    Workers resolve the handle against shared memory
    (:func:`hydrate_dataset`); the arrays never cross a pipe.
    """

    digest: str
    n_snps: int
    n_samples: int

    def content_digest(self) -> str:
        """Mirror of :meth:`GenotypeDataset.content_digest` (fingerprints)."""
        return self.digest


def _dataset_key(digest: str) -> tuple:
    return ("dataset", digest)


def _tear_segment(key: object) -> None:
    """Pre-write a torn segment under ``key`` (the torn-fault payload).

    Creates the content-addressed segment with a zeroed header — no
    completeness magic, exactly what a publisher killed mid-write leaves
    behind — so the real publish that follows must take the
    detect-and-replace path.  Skipped when the segment is already live in
    this process (tearing it would corrupt a real run).
    """
    store = shared_store()
    key_text = _key_text(key)
    name = _segment_name(key_text, store.prefix)
    with store._lock:
        if name in store._owned or name in store._attached:
            return
    from multiprocessing.shared_memory import SharedMemory

    try:
        shm = SharedMemory(name=name, create=True, size=_HEADER_BYTES + _ALIGN)
    except (FileExistsError, OSError):
        return
    shm.buf[:_HEADER_BYTES] = b"\x00" * _HEADER_BYTES
    _quiet_close(shm)
    note_event("segments_torn_injected")


def _publish(
    kind: str,
    key: tuple,
    arrays: Dict[str, np.ndarray],
    meta: Optional[Dict[str, object]] = None,
    session: StoreSession | None = None,
    **span: object,
) -> None:
    """Publish one segment at the ``shm.publish`` fault site.

    ``kind`` names the span and the ``<kind>_published`` event; ``span``
    adds attributes to the span.
    """
    from repro.faults import fire
    from repro.telemetry import span_or_null

    fire("shm.publish", tear=lambda: _tear_segment(key))
    with span_or_null("shm.publish", kind=kind, **span):
        shared_store().publish(key, arrays, meta=meta, session=session)
    note_event(f"{kind}_published")


def publish_dataset(dataset, session: StoreSession | None = None) -> DatasetHandle:
    """Publish a :class:`GenotypeDataset` into shared memory.

    Returns the :class:`DatasetHandle` shard tasks ship in place of the
    arrays.  Publishing the same content twice reuses the live segment.
    """
    digest = dataset.content_digest()
    _publish(
        "dataset",
        _dataset_key(digest),
        {"genotypes": dataset.genotypes, "phenotypes": dataset.phenotypes},
        meta={"snp_names": list(dataset.snp_names), "digest": digest},
        session=session,
        digest=digest[:12],
    )
    return DatasetHandle(
        digest=digest, n_snps=dataset.n_snps, n_samples=dataset.n_samples
    )


#: Per-process hydrated datasets (workers resolve each digest once).
_DATASET_CACHE: Dict[str, object] = {}


def hydrate_dataset(handle: DatasetHandle):
    """Resolve a :class:`DatasetHandle` to a dataset backed by shared memory.

    The first touch per process attaches the segment and builds a
    :class:`GenotypeDataset` over read-only views (the content digest is
    seeded from the handle, skipping the re-hash); later touches hit the
    per-process cache.
    """
    from repro.telemetry import span_or_null

    cached = _DATASET_CACHE.get(handle.digest)
    if cached is not None:
        note_event("dataset_cache_hits")
        return cached
    with span_or_null("shm.attach", kind="dataset", digest=handle.digest[:12]):
        loaded = shared_store().load(_dataset_key(handle.digest))
    if loaded is None:
        raise RuntimeError(
            f"shared dataset segment for digest {handle.digest[:12]} is "
            "missing — the publishing coordinator exited or never published"
        )
    arrays, meta = loaded
    from repro.datasets.dataset import GenotypeDataset

    dataset = GenotypeDataset(
        genotypes=arrays["genotypes"],
        phenotypes=arrays["phenotypes"],
        snp_names=meta.get("snp_names"),
    )
    dataset._content_digest = handle.digest
    _DATASET_CACHE[handle.digest] = dataset
    note_event("dataset_shm_attached")
    return dataset


# -- encoding codecs ----------------------------------------------------------
#
# Prepared encodings are plain dataclasses of ndarrays; each shareable type
# has a codec turning it into (arrays, meta) and back.  GPU layouts carry
# device-side state and are deliberately not shareable — workers rebuild
# them locally from the shared dataset.

def _encode_encoding(encoded) -> Optional[Tuple[str, Dict, Dict]]:
    tname = type(encoded).__name__
    if tname == "BinarizedDataset":
        return (
            "binarized",
            {"planes": encoded.planes, "phenotype_words": encoded.phenotype_words},
            {"n_samples": int(encoded.n_samples)},
        )
    if tname == "PhenotypeSplitDataset":
        return ("phenotype-split", *_split_payload(encoded))
    if tname == "_BlockedEncoding":
        arrays, meta = _split_payload(encoded.split)
        meta = dict(meta)
        meta["block_snps"] = int(encoded.block_snps)
        meta["block_samples"] = int(encoded.block_samples)
        return ("split-blocked", arrays, meta)
    return None


def _split_payload(split) -> Tuple[Dict, Dict]:
    return (
        {
            "control_planes": split.control_planes,
            "case_planes": split.case_planes,
            "control_order": np.asarray(split.control_order, dtype=np.int64),
            "case_order": np.asarray(split.case_order, dtype=np.int64),
        },
        {"n_controls": int(split.n_controls), "n_cases": int(split.n_cases)},
    )


def _decode_split(arrays, meta):
    from repro.datasets.binarization import PhenotypeSplitDataset

    return PhenotypeSplitDataset(
        control_planes=arrays["control_planes"],
        case_planes=arrays["case_planes"],
        n_controls=int(meta["n_controls"]),
        n_cases=int(meta["n_cases"]),
        control_order=arrays["control_order"],
        case_order=arrays["case_order"],
    )


def _decode_encoding(codec: str, arrays, meta):
    if codec == "binarized":
        from repro.datasets.binarization import BinarizedDataset

        return BinarizedDataset(
            planes=arrays["planes"],
            phenotype_words=arrays["phenotype_words"],
            n_samples=int(meta["n_samples"]),
        )
    if codec == "phenotype-split":
        return _decode_split(arrays, meta)
    if codec == "split-blocked":
        from repro.core.approaches.cpu_blocked import _BlockedEncoding

        return _BlockedEncoding(
            split=_decode_split(arrays, meta),
            block_snps=int(meta["block_snps"]),
            block_samples=int(meta["block_samples"]),
        )
    raise ValueError(f"unknown encoding codec {codec!r}")


def publish_encoding(key: tuple, encoded, session: StoreSession | None = None) -> bool:
    """Publish a prepared encoding under its encoding-cache key.

    Returns ``False`` (and publishes nothing) for encoding types without a
    codec — GPU layouts, duck-typed approaches — which workers rebuild
    locally from the shared dataset instead.
    """
    payload = _encode_encoding(encoded)
    if payload is None:
        return False
    codec, arrays, meta = payload
    _publish(
        "encoding", key, arrays, meta={**meta, "codec": codec},
        session=session, codec=codec,
    )
    return True


def load_encoding(key: tuple):
    """Attach a published encoding by cache key (``None`` when absent).

    This is the encoding cache's shared-memory tier
    (:meth:`EncodingCache.attach_shared_tier`): a local cache miss resolves
    against the store before falling back to re-packing the dataset.
    """
    from repro.telemetry import span_or_null

    with span_or_null("shm.attach", kind="encoding"):
        loaded = shared_store().load(key)
        if loaded is None:
            return None
        arrays, meta = loaded
        codec = meta.pop("codec", None)
        if codec is None:
            return None
        encoded = _decode_encoding(codec, arrays, meta)
    note_event("encoding_shm_attached")
    return encoded


# -- the K2 log-factorial table -------------------------------------------------

def _logfact_key(digest: str) -> tuple:
    return ("logfact", digest)


def publish_logfact(logfact: np.ndarray, session: StoreSession | None = None) -> str:
    """Publish a K2 log-factorial table; returns the digest workers load it by.

    The segment is addressed by a digest of the table's bytes, not of the
    dataset: a table computed with another ``gammaln`` (a scipy-less
    fallback, say) gets another segment, so a worker can only ever adopt
    the exact bytes its coordinator built.
    """
    digest = hashlib.sha1(logfact.tobytes()).hexdigest()
    _publish(
        "logfact", _logfact_key(digest), {"logfact": logfact},
        session=session, digest=digest[:12],
    )
    return digest


def load_logfact(digest: str) -> np.ndarray:
    """Attach a published K2 log-factorial table as a read-only view.

    A missing segment is an error, as a missing dataset segment is: the
    worker must not rebuild the table with its own ``gammaln``.
    """
    from repro.telemetry import span_or_null

    with span_or_null("shm.attach", kind="logfact", digest=digest[:12]):
        loaded = shared_store().load(_logfact_key(digest))
    if loaded is None:
        raise RuntimeError(
            f"shared log-factorial table segment for digest {digest[:12]} is "
            "missing — the publishing coordinator exited or never published"
        )
    note_event("logfact_shm_attached")
    return loaded[0]["logfact"]

"""Persistent worker fleets: spawn once, reuse across every run.

A :class:`WorkerFleet` wraps a :class:`~concurrent.futures.ProcessPoolExecutor`
that *outlives* individual ``detect()`` calls and pipeline stages.  A
dedicated pool pays a fresh ``spawn`` (a full
interpreter start plus imports, ~300 ms per worker) for every sweep; a warm
fleet pays it once per process lifetime, which is what makes multi-process
execution profitable for the short stage sweeps the staged pipeline issues.

Fleets are registered per worker count in a process-wide pool
(:func:`get_fleet`) torn down by ``atexit``; the fleet also owns the
long-lived :class:`~repro.distributed.shm.StoreSession` that keeps
published shared-memory segments alive between runs, so a second
``detect()`` over the same dataset attaches the segments the first one
published (zero re-packs, zero re-publishes).

A fleet can :meth:`respawn` after a worker death (``BrokenProcessPool``):
the broken executor is discarded, a fresh one is spawned, and the caller
re-dispatches only the unfinished work — see
:meth:`repro.distributed.runner.ProcessRunner.map_shards`.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict

__all__ = ["WorkerFleet", "get_fleet", "shutdown_fleets"]

#: Start method of every worker pool: safe with threads in the parent and
#: identical across platforms.
START_METHOD = "spawn"


class WorkerFleet:
    """A lazily-spawned, persistent pool of worker processes.

    Parameters
    ----------
    workers:
        Worker process count (fixed for the fleet's lifetime; different
        counts get different fleets).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = int(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._session = None
        self._lock = threading.Lock()
        #: Pool spawn generations (1 after first use; +1 per respawn) —
        #: the perf model's measured spawn-cost accounting reads this.
        self.generation = 0
        self.respawns = 0

    # -- execution -------------------------------------------------------------
    def _executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                from repro.distributed.shm import note_event

                self._pool = ProcessPoolExecutor(
                    self.workers, multiprocessing.get_context(START_METHOD)
                )
                self.generation += 1
                note_event("pool_spawns")
                note_event("pool_workers_spawned", self.workers)
            return self._pool

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Submit a task, spawning the pool on first use."""
        return self._executor().submit(fn, *args, **kwargs)

    @property
    def warm(self) -> bool:
        """Whether the pool is already spawned (no start-up cost left)."""
        return self._pool is not None

    def describe(self) -> dict:
        """Fleet bookkeeping snapshot for run statistics and telemetry."""
        return {
            "workers": self.workers,
            "warm": self.warm,
            "generation": self.generation,
            "respawns": self.respawns,
        }

    def kill_workers(self) -> int:
        """SIGKILL every live worker process (the watchdog's hammer).

        Used when the heartbeat watchdog declares the pool hung: killing
        the workers breaks the executor, which surfaces every in-flight
        future as ``BrokenProcessPool`` — the same recovery path a genuine
        worker crash takes.  Returns how many processes were signalled.
        """
        import os
        import signal

        with self._lock:
            pool = self._pool
        if pool is None:
            return 0
        killed = 0
        for proc in list(getattr(pool, "_processes", {}).values()):
            pid = getattr(proc, "pid", None)
            if pid is None or not proc.is_alive():
                continue
            try:
                os.kill(pid, signal.SIGKILL)
                killed += 1
            except (OSError, ProcessLookupError):
                pass
        return killed

    def respawn(self) -> None:
        """Replace a broken pool with a freshly spawned one.

        The old executor is shut down without waiting (its processes are
        dead or doomed); pending futures are cancelled — the caller owns
        re-dispatching unfinished work onto the new pool.
        """
        with self._lock:
            old, self._pool = self._pool, None
            self.respawns += 1
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)
        self._executor()

    # -- data-plane session -----------------------------------------------------
    def store_session(self):
        """The fleet's long-lived shared-memory session.

        Segments retained into it survive across runs for as long as the
        fleet does — the warm-pool analogue of the runner-scoped session a
        ``--pool fresh`` run closes at its end.
        """
        with self._lock:
            if self._session is None or self._session.closed:
                from repro.distributed.shm import shared_store

                self._session = shared_store().session()
            return self._session

    # -- lifecycle --------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the pool and release the fleet's shared-memory segments."""
        with self._lock:
            pool, self._pool = self._pool, None
            session, self._session = self._session, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if session is not None:
            session.close()


_FLEETS: Dict[int, WorkerFleet] = {}
_FLEETS_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def get_fleet(workers: int) -> WorkerFleet:
    """The process-wide warm fleet of ``workers`` processes.

    Created on first request and kept until :func:`shutdown_fleets` (or
    process exit); every ``--pool keep`` run with the same worker count
    reuses it.
    """
    global _ATEXIT_REGISTERED
    key = int(workers)
    with _FLEETS_LOCK:
        fleet = _FLEETS.get(key)
        if fleet is None:
            fleet = WorkerFleet(key)
            _FLEETS[key] = fleet
            if not _ATEXIT_REGISTERED:
                atexit.register(shutdown_fleets)
                _ATEXIT_REGISTERED = True
        return fleet


def shutdown_fleets() -> None:
    """Shut down every warm fleet (idempotent; re-registered on next use)."""
    with _FLEETS_LOCK:
        fleets = list(_FLEETS.values())
        _FLEETS.clear()
    for fleet in fleets:
        fleet.shutdown()

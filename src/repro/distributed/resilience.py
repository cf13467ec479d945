"""Fault-tolerance policy and bookkeeping for sharded distributed runs.

The PR-6 runner could survive exactly one worker death (respawn once,
re-dispatch, give up on the second break) and had no defence at all
against a *hung* worker — a single stuck process stalled the run forever.
This module turns those seeds into a real policy layer:

* :class:`RetryPolicy` — bounded per-shard retries with exponential
  backoff.  Deterministic by construction: every decision (retry or
  quarantine, backoff length) is a pure function of the attempt count, so
  wall-clock never leaks into anything that affects results — backoff only
  paces *when* a shard re-runs, never *what* it computes.
* a **heartbeat watchdog** — shard completions are the heartbeat; when a
  run with a ``shard_deadline_seconds`` goes that long without any shard
  completing while work is in flight, the pool is declared hung, its
  workers are killed and the in-flight shards are re-dispatched under the
  same retry accounting as a crash.
* **poison-shard quarantine** — a shard whose failures exhaust the retry
  budget is quarantined and executed *inline in the coordinator*, the last
  rung of the degradation ladder (warm pool → respawned pool → inline), so
  a run always completes and — because the merge order is a total order —
  always bit-identically.
* :class:`ResilienceLog` — the one record of retries, watchdog kills,
  pool breaks, ladder position and quarantined shards; it feeds the
  telemetry metrics (``resilience.*``), the run statistics
  (``stats.extra["distributed"]["resilience"]``) and the checkpoint
  ledger's cross-resume history (a shard's failure count survives
  ``--resume``, so a shard that keeps killing workers across restarts is
  quarantined instead of re-breaking every resumed run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = [
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "ResilienceLog",
    "merge_history",
    "LADDER_RUNGS",
    "BACKOFF_FACTOR",
    "MAX_BACKOFF_SECONDS",
    "POLL_SECONDS",
    "MAX_POOL_BREAKS",
]

#: The degradation ladder, in escalation order.  ``warm`` is the configured
#: pool; a pool break respawns it in place, and the run finishes in the
#: coordinator once the pool-break budget is spent or a shard is quarantined.
LADDER_RUNGS = ("warm", "respawned", "inline")

#: Growth factor and cap of the backoff before a failed shard re-runs:
#: ``backoff(n) = backoff_seconds * BACKOFF_FACTOR**(n-1)``, at most
#: ``MAX_BACKOFF_SECONDS``.
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_SECONDS = 2.0
#: Watchdog heartbeat-check interval (bounded by the deadline).
POLL_SECONDS = 0.25
#: Pool breaks after which every remaining shard finishes inline.
MAX_POOL_BREAKS = 3


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry/backoff/deadline policy of one run.

    Attributes
    ----------
    max_attempts:
        Total execution attempts per shard (first run included) before the
        shard is quarantined and finished inline.  Attempt counts persist
        in the checkpoint ledger, so the budget spans resumes.
    backoff_seconds:
        First delay of the exponential backoff before a failed shard is
        re-dispatched (see :data:`BACKOFF_FACTOR`).  Pure pacing — results
        never depend on it.
    shard_deadline_seconds:
        Heartbeat watchdog deadline: with shards in flight, this long
        without *any* shard completing declares the pool hung (workers are
        killed and in-flight shards re-dispatched).  It must exceed the
        time a respawned pool takes to spawn, hydrate and finish its first
        shard, or the watchdog kills healthy replacement pools too.
        ``None`` disables the watchdog (a hung worker then blocks forever).
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    shard_deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if self.shard_deadline_seconds is not None and (
            self.shard_deadline_seconds <= 0
        ):
            raise ValueError("shard_deadline_seconds must be positive")

    def backoff(self, failures: int) -> float:
        """Deterministic backoff before re-dispatching a shard.

        ``failures`` is the shard's failure count so far (>= 1 at the
        first retry).
        """
        if failures < 1:
            return 0.0
        delay = self.backoff_seconds * BACKOFF_FACTOR ** (failures - 1)
        return min(delay, MAX_BACKOFF_SECONDS)

    def exhausted(self, attempts: int) -> bool:
        """Whether ``attempts`` executions used up this shard's budget."""
        return attempts >= self.max_attempts

    def wait_timeout(self) -> float | None:
        """The pool-wait timeout implementing the watchdog poll."""
        if self.shard_deadline_seconds is None:
            return None
        return min(POLL_SECONDS, self.shard_deadline_seconds)


#: The policy distributed runs use when the caller passes none.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class ResilienceLog:
    """What one distributed run's fault-tolerance machinery actually did.

    ``attempts`` counts *failed* attempts per shard (a shard that succeeds
    first try never appears); seeded from the checkpoint ledger on resume
    so budgets span restarts.
    """

    attempts: Dict[int, int] = field(default_factory=dict)
    quarantined: List[int] = field(default_factory=list)
    retries: int = 0
    watchdog_kills: int = 0
    pool_breaks: int = 0
    ladder: str = LADDER_RUNGS[0]

    def record_failure(self, shard_id: int) -> int:
        """Count one failed attempt; returns the shard's failure total."""
        count = self.attempts.get(int(shard_id), 0) + 1
        self.attempts[int(shard_id)] = count
        return count

    def record_quarantine(self, shard_id: int) -> None:
        if int(shard_id) not in self.quarantined:
            self.quarantined.append(int(shard_id))

    @property
    def faulted(self) -> bool:
        """Whether any fault-handling path ran at all."""
        return bool(
            self.attempts
            or self.quarantined
            or self.retries
            or self.watchdog_kills
            or self.pool_breaks
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (run statistics, ledger history entries)."""
        return {
            "retries": int(self.retries),
            "watchdog_kills": int(self.watchdog_kills),
            "pool_breaks": int(self.pool_breaks),
            "ladder": self.ladder,
            "quarantined": sorted(self.quarantined),
            "attempts": {
                str(shard): int(count)
                for shard, count in sorted(self.attempts.items())
            },
        }

    @classmethod
    def from_history(cls, history: Dict[str, object] | None) -> "ResilienceLog":
        """Seed a fresh log from the ledger's persisted attempt history."""
        log = cls()
        if history:
            for shard, count in (history.get("attempts") or {}).items():
                log.attempts[int(shard)] = int(count)
            for shard in history.get("quarantined") or []:
                log.quarantined.append(int(shard))
        return log


def merge_history(
    history: Dict[str, object] | None, run_id: str | None, log: ResilienceLog
) -> Dict[str, object]:
    """Fold one run's log into the ledger's cross-resume history document.

    The history keeps cumulative per-shard attempt counts and quarantine
    membership (what :meth:`ResilienceLog.from_history` reloads) plus an
    append-only per-run event list correlated by ``run_id``.
    """
    doc: Dict[str, object] = dict(history or {})
    attempts = {
        str(shard): int(count)
        for shard, count in (doc.get("attempts") or {}).items()
    }
    for shard, count in log.attempts.items():
        attempts[str(shard)] = max(attempts.get(str(shard), 0), int(count))
    quarantined = {int(s) for s in (doc.get("quarantined") or [])}
    quarantined.update(log.quarantined)
    runs = list(doc.get("runs") or [])
    if log.faulted:
        runs.append({"run_id": run_id, **log.to_dict()})
    doc.update(
        {
            "attempts": attempts,
            "quarantined": sorted(quarantined),
            "runs": runs,
        }
    )
    return doc

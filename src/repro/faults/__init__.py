"""Deterministic fault injection for the distributed execution layers.

Chaos engineering needs faults that are **schedulable** (fire at a named
site, optionally at a named shard), **bounded** (fire exactly ``count``
times across the whole process tree, no matter how many workers race) and
**inert by default** (a production run with no plan installed pays one
``None`` check per site).  A :class:`FaultPlan` is a list of
:class:`FaultSpec` entries naming

* a **site** — ``shard.claim`` (a worker picked up a batch), ``shard.run``
  (a worker is about to evaluate one shard), ``outcome.ship`` (a worker
  computed its batch and is about to return it) and ``shm.publish`` (the
  coordinator is about to publish a shared-memory segment);
* a **kind** — ``crash`` (SIGKILL the worker), ``exit`` (hard
  ``os._exit``, the ``broken-pool`` variant with an exit code), ``hang``
  (sleep far past any deadline, exercising the watchdog), ``slow`` (sleep
  ``delay_seconds`` then continue), ``error`` (raise
  :class:`FaultInjected`) and ``torn`` (pre-write a torn shared-memory
  segment so the publisher must detect and republish it);
* optional **targeting** (``shard=``) and a firing budget (``count=``).

Cross-process exactly-``count`` semantics use a *claim directory*: firing a
spec requires atomically creating one of its ``count`` claim files
(``O_CREAT | O_EXCL``), so concurrent workers can race for a fault but only
the winners inject it.  :meth:`FaultPlan.arm` allocates the directory; the
armed plan is shipped to workers inside the
:class:`~repro.distributed.runner.WorkerPayload` (and is installable from
the ``REPRO_FAULTS`` environment variable or the ``--fault-plan`` CLI flag
— a JSON document, an ``@path`` reference, or the compact
``site:kind[:key=value...]`` grammar).

Process-killing kinds (``crash``, ``exit``, ``hang``, ``error``) only fire
inside *worker* processes: the coordinator — including the quarantine
path, which re-executes a poison shard inline — is immune by construction,
so a run always has a process left standing to finish the job.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "FAULT_SITES",
    "FAULT_KINDS",
    "FAULTS_ENV",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "current_plan",
    "install_plan",
    "resolve_fault_plan",
    "fire",
]

#: Environment variable carrying a fault plan (JSON, ``@path`` or compact
#: spec grammar) injected into every distributed run that does not pass an
#: explicit plan — the hook chaos runs and the CI smoke use.
FAULTS_ENV = "REPRO_FAULTS"

#: Injection sites wired through the distributed layers.
FAULT_SITES = ("shard.claim", "shard.run", "outcome.ship", "shm.publish")

#: Fault kinds.  ``broken-pool`` is accepted as an alias of ``exit``.
FAULT_KINDS = ("crash", "exit", "hang", "slow", "error", "torn")

#: Kinds that take a process (or the run) down and therefore only ever
#: fire inside worker processes, never in the coordinator.
_WORKER_ONLY_KINDS = frozenset({"crash", "exit", "hang", "error"})

#: Default sleep per kind when the spec does not set ``delay_seconds``.
_DEFAULT_DELAYS = {"hang": 600.0, "slow": 0.25}


class FaultInjected(RuntimeError):
    """The exception raised by an ``error``-kind fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One schedulable fault: where, what, and how often.

    Attributes
    ----------
    site:
        Injection site (one of :data:`FAULT_SITES`).
    kind:
        Fault kind (one of :data:`FAULT_KINDS`; ``broken-pool`` is
        normalised to ``exit``).
    shard:
        Only fire when the site reports this shard id (``None`` matches
        any).  Sites without a shard in scope (``shm.publish``,
        ``outcome.ship``) never match a shard-targeted spec.
    count:
        Total firings across the whole process tree (claimed atomically).
    delay_seconds:
        Sleep length for ``slow``/``hang`` (defaults: 0.25 s / 600 s).
    """

    site: str
    kind: str
    shard: int | None = None
    count: int = 1
    delay_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "broken-pool":
            object.__setattr__(self, "kind", "exit")
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; valid sites: "
                + ", ".join(FAULT_SITES)
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid kinds: "
                + ", ".join(FAULT_KINDS + ("broken-pool",))
            )
        if self.kind == "torn" and self.site != "shm.publish":
            raise ValueError("torn-write faults only exist at the shm.publish site")
        if self.count < 1:
            raise ValueError("count must be positive")

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"site": self.site, "kind": self.kind}
        if self.shard is not None:
            doc["shard"] = int(self.shard)
        if self.count != 1:
            doc["count"] = int(self.count)
        if self.delay_seconds is not None:
            doc["delay_seconds"] = float(self.delay_seconds)
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FaultSpec":
        return cls(
            site=str(doc["site"]),
            kind=str(doc["kind"]),
            shard=None if doc.get("shard") is None else int(doc["shard"]),
            count=int(doc.get("count", 1)),
            delay_seconds=(
                None
                if doc.get("delay_seconds") is None
                else float(doc["delay_seconds"])
            ),
        )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the compact grammar ``site:kind[:key=value...]``.

        Examples: ``shard.run:crash``, ``shard.run:hang:shard=3``,
        ``shard.claim:slow:delay=0.5:count=2``, ``shm.publish:torn``.
        """
        parts = [p.strip() for p in text.split(":") if p.strip()]
        if len(parts) < 2:
            raise ValueError(
                f"invalid fault spec {text!r}: expected site:kind[:key=value...]"
            )
        kwargs: Dict[str, object] = {"site": parts[0], "kind": parts[1]}
        for option in parts[2:]:
            if "=" not in option:
                raise ValueError(
                    f"invalid fault option {option!r} in {text!r}: "
                    "expected key=value"
                )
            key, value = option.split("=", 1)
            key = key.strip()
            if key == "shard":
                kwargs["shard"] = int(value)
            elif key == "count":
                kwargs["count"] = int(value)
            elif key in ("delay", "delay_seconds"):
                kwargs["delay_seconds"] = float(value)
            else:
                raise ValueError(
                    f"unknown fault option {key!r} in {text!r}: "
                    "valid options are shard=, count=, delay="
                )
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered schedule of faults, armable for cross-process injection.

    A plan is inert until installed (:func:`install_plan`); the distributed
    coordinator arms it (:meth:`arm` — allocating the claim directory that
    makes firing exactly-``count`` across processes), installs it for its
    own sites and ships it to workers inside the task payload.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int | None = None
    claim_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    # -- construction ---------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON, an ``@path`` JSON file, or compact specs.

        The compact form is a comma-separated list of
        :meth:`FaultSpec.parse` entries, e.g.
        ``"shard.run:crash,shm.publish:torn"``.
        """
        text = text.strip()
        if not text:
            raise ValueError("empty fault plan")
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        if text.startswith("{") or text.startswith("["):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid fault-plan JSON: {exc}") from exc
            return cls.from_dict(doc)
        return cls(
            specs=tuple(FaultSpec.parse(part) for part in text.split(",") if part.strip())
        )

    @classmethod
    def schedule(
        cls,
        seed: int,
        n_faults: int = 1,
        sites: Sequence[str] = ("shard.claim", "shard.run", "outcome.ship"),
        kinds: Sequence[str] = ("crash", "exit", "slow", "error"),
        delay_seconds: float | None = None,
    ) -> "FaultPlan":
        """A seeded random schedule (chaos runs): ``n_faults`` site/kind draws.

        The draw is a pure function of ``seed``, so a chaos failure is
        replayable by seed alone.
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        specs = tuple(
            FaultSpec(
                site=str(rng.choice(list(sites))),
                kind=str(rng.choice(list(kinds))),
                delay_seconds=delay_seconds,
            )
            for _ in range(int(n_faults))
        )
        return cls(specs=specs, seed=int(seed))

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"specs": [s.to_dict() for s in self.specs]}
        if self.seed is not None:
            doc["seed"] = int(self.seed)
        if self.claim_dir is not None:
            doc["claim_dir"] = str(self.claim_dir)
        return doc

    @classmethod
    def from_dict(cls, doc) -> "FaultPlan":
        if isinstance(doc, list):
            doc = {"specs": doc}
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in doc.get("specs", [])),
            seed=None if doc.get("seed") is None else int(doc["seed"]),
            claim_dir=doc.get("claim_dir"),
        )

    # -- arming / claims ------------------------------------------------------
    def arm(self) -> "FaultPlan":
        """Allocate the claim directory enforcing cross-process budgets.

        Returns an armed copy (idempotent when already armed); the returned
        plan — including the directory path — is what must be shipped to
        worker processes.
        """
        if self.claim_dir is not None:
            return self
        return replace(self, claim_dir=tempfile.mkdtemp(prefix="repro-faults-"))

    def _claim(self, spec_index: int, count: int) -> bool:
        """Atomically claim one of the spec's firing slots.

        Without a claim directory (an unarmed plan) a per-process budget is
        kept instead — single-process tests need no filesystem.
        """
        if self.claim_dir is None:
            key = id(self), spec_index
            fired = _LOCAL_FIRED.get(key, 0)
            if fired >= count:
                return False
            _LOCAL_FIRED[key] = fired + 1
            return True
        for slot in range(count):
            path = os.path.join(self.claim_dir, f"spec{spec_index}.{slot}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False  # claim dir vanished — stand down, never loop
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            return True
        return False

    def fired(self) -> int:
        """How many faults have been claimed so far (armed plans only)."""
        if self.claim_dir is None or not os.path.isdir(self.claim_dir):
            return 0
        return len(os.listdir(self.claim_dir))


#: Unarmed-plan per-process firing budgets (see :meth:`FaultPlan._claim`).
_LOCAL_FIRED: Dict[Tuple[int, int], int] = {}

#: The installed plan of this process (``None`` = injection disabled).
_ACTIVE: List[FaultPlan | None] = [None]


def install_plan(plan: FaultPlan | None) -> None:
    """Install (or, with ``None``, clear) this process's active plan."""
    _ACTIVE[0] = plan


def current_plan() -> FaultPlan | None:
    """The active plan of this process, if any."""
    return _ACTIVE[0]


def resolve_fault_plan(plan: object) -> FaultPlan | None:
    """Normalise a fault-plan argument (plan / spec string / env fallback).

    ``None`` falls back to the :data:`FAULTS_ENV` environment variable so
    chaos runs can inject faults into any entry point without touching
    call sites; an empty/unset environment resolves to no plan.
    """
    if plan is None:
        env = os.environ.get(FAULTS_ENV, "").strip()
        return FaultPlan.parse(env) if env else None
    if isinstance(plan, FaultPlan):
        return plan
    if isinstance(plan, str):
        return FaultPlan.parse(plan)
    if isinstance(plan, dict) or isinstance(plan, list):
        return FaultPlan.from_dict(plan)
    raise TypeError(
        f"faults must be a FaultPlan, a spec string or None, got "
        f"{type(plan).__name__}"
    )


def _note(name: str) -> None:
    """Count an injection on the data-plane counters (ships with outcomes)."""
    from repro.distributed.shm import note_event

    note_event(name)


def fire(
    site: str,
    shard: int | None = None,
    tear: Callable[[], None] | None = None,
) -> None:
    """Injection point: execute any matching armed fault at ``site``.

    Called from the distributed layers with the site name, the shard id
    when one is in scope, and — at ``shm.publish`` — a ``tear`` callback
    that pre-writes a torn segment (the ``torn`` kind's payload).  A
    process with no installed plan returns immediately.
    """
    plan = _ACTIVE[0]
    if plan is None:
        return
    in_worker = multiprocessing.parent_process() is not None
    for index, spec in enumerate(plan.specs):
        if spec.site != site:
            continue
        if spec.shard is not None and spec.shard != shard:
            continue
        if spec.kind in _WORKER_ONLY_KINDS and not in_worker:
            # The coordinator (and the quarantine/inline path it runs) is
            # immune to process-killing faults by construction.
            continue
        if not plan._claim(index, spec.count):
            continue
        _note(f"faults_injected_{spec.kind}")
        _execute(spec, tear)


def _execute(spec: FaultSpec, tear: Callable[[], None] | None) -> None:
    if spec.kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.kind == "exit":
        os._exit(13)
    elif spec.kind in ("hang", "slow"):
        time.sleep(
            spec.delay_seconds
            if spec.delay_seconds is not None
            else _DEFAULT_DELAYS[spec.kind]
        )
    elif spec.kind == "error":
        raise FaultInjected(
            f"injected fault at {spec.site}"
            + (f" (shard {spec.shard})" if spec.shard is not None else "")
        )
    elif spec.kind == "torn":
        if tear is not None:
            tear()

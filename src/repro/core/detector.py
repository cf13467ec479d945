"""The :class:`EpistasisDetector` public API.

A detector combines

* one of the CPU/GPU approaches of §IV (frequency-table construction) —
  every approach is order-generic, building ``3^k x 2`` tables for any
  interaction order ``k`` between 2 (pairwise) and 5,
* an objective function (Bayesian K2 score by default), and
* the unified heterogeneous execution engine (:mod:`repro.engine`): device
  lanes, a pluggable scheduling policy (``dynamic``, ``static``, ``guided``
  or the CARM-ratio heterogeneous splitter) and a streaming bounded-memory
  top-k reduction

into a single ``detect(dataset)`` call that exhaustively evaluates every SNP
combination of the requested order and returns the best-scoring interaction
together with execution statistics (including per-device chunk counts and
utilization in ``stats.extra["devices"]``).

Beyond the dense sweep, :meth:`EpistasisDetector.detect_candidates` runs the
same engine over any :class:`~repro.engine.CandidateSource` (explicit ranks,
pre-materialised tuples, subset-restricted enumeration), and
:meth:`EpistasisDetector.detect_staged` composes those into the staged
screen→expand(→refine→permutation) pipeline of :mod:`repro.pipeline`.
Smaller entry points (:meth:`EpistasisDetector.score_combinations`,
:meth:`EpistasisDetector.build_tables`) expose the intermediate results for
testing, ablation studies and the benchmark harness.

Example
-------
>>> from repro.datasets import SyntheticConfig, PlantedInteraction, generate_dataset
>>> from repro.core import EpistasisDetector
>>> cfg = SyntheticConfig(n_snps=32, n_samples=512,
...                       interaction=PlantedInteraction(snps=(3, 11, 17)), seed=7)
>>> result = EpistasisDetector(approach="cpu-v4").detect(generate_dataset(cfg))
>>> result.best_snps
(3, 11, 17)

A pairwise (order-2) screen on the same engine:

>>> pairs = EpistasisDetector(approach="cpu-v2", order=2).detect(generate_dataset(cfg))

A heterogeneous CPU+GPU run with the CARM-ratio splitter:

>>> detector = EpistasisDetector(approach="cpu-v4", devices="cpu+gpu",
...                              schedule="carm", n_workers=2)
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping

import numpy as np

from repro.core.approaches import APPROACHES, Approach, get_approach
from repro.core.approaches._kernels import check_order, claim_combos
from repro.core.contingency import validate_tables
from repro.core.encoding_cache import ENCODING_CACHE, encoding_cache_key
from repro.core.result import ApproachStats, DetectionResult
from repro.core.scoring import ObjectiveFunction, get_objective
from repro.datasets.dataset import GenotypeDataset
from repro.engine import (
    CancellationToken,
    CandidateSource,
    DenseRangeSource,
    DeviceWorker,
    EngineDevice,
    ExecutionPlan,
    HeterogeneousExecutor,
    SchedulingPolicy,
    get_policy,
    list_policies,
    parse_devices,
)

if TYPE_CHECKING:
    from repro.distributed.resilience import RetryPolicy
    from repro.faults import FaultPlan

__all__ = ["DetectorConfig", "EpistasisDetector", "RunSpec"]

#: Claims every thread of a multi-threaded plan gets at least when the
#: detector sizes them, so dynamic scheduling can still even the threads out.
CLAIMS_PER_THREAD = 4


@dataclass
class _WorkerState:
    """Per-worker kernel state: an approach instance plus its encoding."""

    approach: Approach
    encoded: object


@dataclass(frozen=True)
class DetectorConfig:
    """The execution spec of a search: one frozen, validated value.

    A detector, every stage of a staged search and every distributed worker
    process run from one of these; a pipeline stage derives its own with
    :func:`dataclasses.replace`, a worker receives the coordinator's.

    Attributes
    ----------
    approach:
        Approach name (``"cpu-v1"`` … ``"gpu-v4"``) or a pre-built
        :class:`~repro.core.approaches.base.Approach` instance.
    objective:
        Objective-function name or instance (default: Bayesian K2 score).
    order:
        Interaction order ``k`` (``2 <= k <= 5``); every approach kernel
        builds the matching ``3^k``-cell tables.  ``order=3`` is the
        paper's exhaustive third-order study, ``order=2`` the pairwise
        screen of the related work.
    n_workers:
        Host threads for the search.  In a multi-lane ``devices``
        expression the CPU lane receives all ``n_workers`` threads and GPU
        lanes a single launch-stream thread; a default (``devices=None``)
        plan keeps ``n_workers`` on whatever lane the approach targets.
    chunk_size:
        Combinations per scheduler chunk (the claim: the unit of dynamic
        scheduling and of the vectorised kernel batch), ``"auto"``: each
        worker then tunes its own claim size from measured per-chunk
        throughput within per-device-lane bounds
        (:mod:`repro.engine.autotune`), or ``None`` (default): each search
        sizes its claims from the kernel byte budget for its order
        (:func:`~repro.core.approaches._kernels.claim_combos`), at most a
        quarter of each thread's share when several threads run.
    top_k:
        Number of best interactions kept in the result.
    word_layout:
        Machine-word layout of the packed encodings: ``"u32"`` (the paper's
        32-bit word), ``"u64"`` (halves the element count of every kernel
        operation; bit-identical results) or ``None``/``"auto"`` for the
        NumPy-version-dependent default
        (:func:`repro.bitops.packing.default_layout`).  All instruction and
        traffic accounting stays per 32-bit paper word either way.
    backend:
        Execution backend of the table-construction hot loop: ``"numpy"``
        (reference), ``"numba"`` (JIT-compiled CPU kernels), ``"cupy"``
        (real CUDA device) or ``"auto"`` for the registry default
        (:func:`repro.backends.get_backend`).  ``None`` takes the
        ``REPRO_BACKEND`` environment variable, else ``"auto"``.  All
        backends are bit-exact, and the §IV op/traffic accounting is
        backend-independent; an unavailable optional backend degrades to
        ``numpy`` with a warning.  The selection reaches every approach
        instance the spec builds — both lanes of a heterogeneous plan and
        the distributed worker processes.
    fused:
        Fused build+score path: ``"auto"`` folds each combination's table
        straight into its objective score whenever the
        approach/backend/objective supports it bit-identically (SNP-block
        tiled, no chunk-wide table array; compiled backends score K2/Gini
        inside the kernel), ``"on"`` requires it (rejecting
        ``validate=True``, which needs materialized tables), ``"off"``
        pins the classic build-then-score path.  ``None`` takes the
        ``REPRO_FUSED`` environment variable, else ``"auto"``.  Top-k
        results and §IV op/traffic accounting are bit-identical whichever
        path runs.
    validate:
        If ``True``, every produced table batch is checked against the
        column-sum invariants (costs a few percent, useful in tests).
        Validation implies the unfused path (``fused="auto"`` falls back
        silently; ``fused="on"`` raises).
    devices:
        Device expression for the execution engine: ``None`` (default) runs
        on a single lane matching the approach's device kind; ``"cpu+gpu"``
        co-executes the search on a CPU lane and a simulated-GPU lane, each
        running its own approach variant of the same optimisation level.
        An expression :func:`~repro.engine.plan.parse_devices` refuses is
        refused here.
    schedule:
        Scheduling policy name (``"dynamic"``, ``"static"``, ``"guided"``,
        ``"carm"`` or an alias) or a
        :class:`~repro.engine.policies.SchedulingPolicy` instance; an
        unknown name is refused here.
    telemetry:
        Telemetry mode of the run (:mod:`repro.telemetry`): ``"off"``
        (zero recording, zero hot-path cost), ``"minimal"``
        (run/plan/lane/stage/shard spans plus the metrics registry) or
        ``"full"`` (adds per-chunk ``kernel`` samples).  ``None`` takes the
        ``REPRO_TELEMETRY`` environment variable, else ``"off"``.
        Results are bit-identical whatever the mode; every run carries a
        ``run_id`` in ``stats.extra`` either way.
    approach_params:
        Constructor keyword arguments of the named approach (``isa=`` for
        ``cpu-v4``, ``block_size=`` for ``gpu-v4``, ...); the
        ``**approach_params`` of :class:`EpistasisDetector`.  They apply to
        that approach only, never to the counterpart of another device
        lane.  Kept as a key-sorted copy, so equal params fingerprint
        equally.

    The ``REPRO_BACKEND``, ``REPRO_FUSED`` and ``REPRO_TELEMETRY`` defaults
    are read here, once, at construction: a spec holds what they resolved
    to, so changing the environment later does not change a search built
    from it.
    """

    approach: str | Approach = "cpu-v4"
    objective: str | ObjectiveFunction = "k2"
    order: int = 3
    n_workers: int = 1
    chunk_size: int | str | None = None
    top_k: int = 10
    validate: bool = False
    devices: str | None = None
    schedule: str | SchedulingPolicy = "dynamic"
    word_layout: str | None = None
    backend: str | None = None
    fused: str | None = None
    telemetry: str | None = None
    approach_params: Mapping[str, object] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        from repro.backends import check_backend_name, default_backend_name
        from repro.core.fusion import resolve_fused_mode
        from repro.engine.autotune import is_auto_chunk
        from repro.telemetry import resolve_telemetry_mode

        resolved = {
            "order": check_order(self.order),
            "backend": (
                check_backend_name(self.backend)
                if self.backend is not None
                else default_backend_name()
            ),
            "fused": resolve_fused_mode(self.fused),
            "telemetry": resolve_telemetry_mode(self.telemetry),
            "approach_params": dict(sorted(dict(self.approach_params).items())),
        }
        for name, value in resolved.items():
            object.__setattr__(self, name, value)
        if self.fused == "on" and self.validate:
            raise ValueError(
                "fused='on' is incompatible with validate=True: table "
                "validation needs the materialized tables the fused "
                "path never builds (use fused='auto' or drop validate)"
            )
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if isinstance(self.chunk_size, str):
            if not is_auto_chunk(self.chunk_size):
                raise ValueError(
                    f"chunk_size must be a positive integer or 'auto'; "
                    f"got {self.chunk_size!r}"
                )
        elif self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.top_k < 1:
            raise ValueError("top_k must be positive")
        if not isinstance(self.schedule, SchedulingPolicy):
            names = list_policies(include_aliases=True)
            if not isinstance(self.schedule, str) or self.schedule.lower() not in names:
                raise ValueError(
                    f"schedule must be one of {names} or a SchedulingPolicy; "
                    f"got {self.schedule!r}"
                )
        if self.devices is not None:
            parse_devices(self.devices)

    def approach_kwargs(self) -> Dict[str, object]:
        """Constructor keyword arguments of the configured approach."""
        kwargs = dict(self.approach_params)
        if self.word_layout is not None:
            kwargs["word_layout"] = self.word_layout
        kwargs["backend"] = self.backend
        return kwargs

    def context_key(self, *context: object) -> str:
        """Digest of everything but ``telemetry``, plus ``context``.

        Two equal keys hydrate identical execution state: a warm worker
        process reuses one context per key (``context`` names the dataset,
        the candidate source and the minima switch), so traced and
        untraced searches share it.
        """
        spec = tuple(
            getattr(self, f.name) for f in fields(self) if f.name != "telemetry"
        )
        blob = pickle.dumps((spec, context), protocol=4)
        return hashlib.sha1(blob).hexdigest()

    def ledger_key(self, collect_snp_minima: bool) -> Dict[str, object]:
        """The ``"search"`` document a shard ledger must match to resume.

        Only what changes the ledger's recorded rows: threads, claim size,
        layout, backend, devices and schedule may differ across a resume.
        """
        return {
            "approach": self.approach,
            "objective": get_objective(self.objective).name,
            "top_k": int(self.top_k),
            "collect_snp_minima": bool(collect_snp_minima),
        }


@dataclass(frozen=True)
class RunSpec:
    """Where a search runs: one frozen, validated value beside the search spec.

    ``detect``, ``detect_candidates``, ``detect_staged``, ``SearchPipeline``
    and :func:`repro.distributed.run_distributed` take one as ``run=``; their
    keywords of the same names are applied on top of it (:meth:`of`).  It
    changes where and how the work runs, never what a search returns, so it
    is in neither :meth:`DetectorConfig.context_key` nor
    :meth:`DetectorConfig.ledger_key`: a ledger resumes under any worker
    count, pool or data plane, and warm worker contexts are shared.

    Attributes
    ----------
    workers:
        Worker processes (:mod:`repro.distributed`).  ``1`` runs in-process
        with the search spec's ``n_workers`` host threads; ``N > 1`` cuts
        the candidate space into shards run across ``N`` spawn-started
        processes and merged deterministically (the top-k is bit-identical
        for any count).  ``n_workers`` stays the per-process thread count.
    checkpoint:
        Atomic ledger committed once per arrived batch of shards (once per
        shard for one worker); it forces the sharded path even for one
        worker.  A file for ``detect`` and
        ``run_distributed``; a directory for ``detect_staged`` and
        ``SearchPipeline``, which write ``pipeline.json`` plus one ledger
        per sweep stage and the permutation stage's RNG-state ledger.
    resume:
        Restore completed shards (and stages) from ``checkpoint`` instead
        of re-running them; fingerprints are checked, and a missing ledger
        starts fresh.  Needs a ``checkpoint``.
    pool:
        ``"keep"`` runs on the process-wide warm fleet of ``workers``
        processes, which outlives the call (later runs and stages skip the
        spawn and reuse hydrated workers); ``"fresh"`` spawns a pool for
        the call and tears it down afterwards.
    shm:
        The shared-memory data plane: ``"on"``/``True`` publishes the
        dataset and the prototype lane's encoding for workers to attach,
        ``"off"``/``False`` pickles the dataset into every batch, and
        ``None``/``"auto"`` enables it whenever ``workers > 1``.  Stored as
        the resolved bool, which is ``False`` whenever ``workers == 1``;
        pass ``shm`` again when deriving a spec with another ``workers``.
    retry:
        The :class:`~repro.distributed.resilience.RetryPolicy` of sharded
        runs: per-shard attempts, the first backoff delay and the
        heartbeat-watchdog deadline.  Pool breaks respawn the pool, and the
        run finishes inline after the third (see
        :mod:`repro.distributed.runner`).  ``None`` becomes
        :data:`~repro.distributed.resilience.DEFAULT_RETRY_POLICY`.
    faults:
        Deterministic fault injection for chaos runs: a
        :class:`~repro.faults.FaultPlan`, a compact spec string such as
        ``"shard.run:crash"`` or a JSON document.  ``None`` takes the
        ``REPRO_FAULTS`` environment variable; no plan is stored as an
        empty ``FaultPlan()``.  The plan stays unarmed: every sharded sweep
        arms its own copy, so each has its own firing budget.

    The ``REPRO_FAULTS`` default is read here, once, at construction, as
    :class:`DetectorConfig` reads its environment defaults.
    """

    workers: int = 1
    checkpoint: str | None = None
    resume: bool = False
    pool: str = "keep"
    shm: bool | str | None = None
    retry: RetryPolicy | None = None
    faults: FaultPlan | str | None = None

    def __post_init__(self) -> None:
        from repro.distributed.resilience import DEFAULT_RETRY_POLICY
        from repro.faults import FaultPlan, resolve_fault_plan

        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.pool not in ("keep", "fresh"):
            raise ValueError(f"pool must be 'keep' or 'fresh', got {self.pool!r}")
        if self.resume and self.checkpoint is None:
            raise ValueError("resume=True needs a checkpoint to restore from")
        shm = self.shm
        if isinstance(shm, str):
            modes = {"on": True, "off": False, "auto": None}
            if shm.lower() not in modes:
                raise ValueError(f"shm must be 'on', 'off' or 'auto', got {shm!r}")
            shm = modes[shm.lower()]
        resolved = {
            "shm": self.workers > 1 and (shm is None or bool(shm)),
            "retry": self.retry if self.retry is not None else DEFAULT_RETRY_POLICY,
            "faults": resolve_fault_plan(self.faults) or FaultPlan(),
        }
        for name, value in resolved.items():
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, run: RunSpec | None = None, **fields) -> RunSpec:
        """``run`` with ``fields`` applied on top (a new spec without ``run``)."""
        if run is None:
            return cls(**fields)
        return replace(run, **fields) if fields else run

    @property
    def sharded(self) -> bool:
        """Whether searches take the sharded path of :mod:`repro.distributed`."""
        return self.workers > 1 or self.checkpoint is not None


class EpistasisDetector:
    """Exhaustive k-way epistasis detector (public API).

    The interaction order is part of the configuration
    (``DetectorConfig(order=k)``, ``2 <= k <= 5``) and drives the engine's
    :class:`~repro.engine.plan.ExecutionPlan` sizing, the CARM-policy
    split and the result reporting; the default ``order=3`` reproduces the
    paper's third-order study.  Parameters mirror :class:`DetectorConfig`;
    either pass a config object or the individual keyword arguments.  Any
    other keyword is an approach param (``isa=``, ``block_size=``, ...),
    added to ``config.approach_params`` when a config is given.
    """

    def __init__(
        self,
        approach: str | Approach = "cpu-v4",
        objective: str | ObjectiveFunction = "k2",
        *,
        order: int = 3,
        n_workers: int = 1,
        chunk_size: int | str | None = None,
        top_k: int = 10,
        validate: bool = False,
        devices: str | None = None,
        schedule: str | SchedulingPolicy = "dynamic",
        word_layout: str | None = None,
        backend: str | None = None,
        fused: str | None = None,
        telemetry: str | None = None,
        config: DetectorConfig | None = None,
        **approach_params,
    ) -> None:
        if config is None:
            config = DetectorConfig(
                approach=approach,
                objective=objective,
                order=order,
                n_workers=n_workers,
                chunk_size=chunk_size,
                top_k=top_k,
                validate=validate,
                devices=devices,
                schedule=schedule,
                word_layout=word_layout,
                backend=backend,
                fused=fused,
                telemetry=telemetry,
                approach_params=approach_params,
            )
        elif approach_params:
            config = replace(
                config, approach_params={**config.approach_params, **approach_params}
            )
        self.config = config
        if isinstance(config.approach, Approach):
            self._prototype = config.approach
        else:
            self._prototype = get_approach(config.approach, **config.approach_kwargs())
        self.objective = get_objective(config.objective)

    # -- approach management -----------------------------------------------------
    @property
    def approach(self) -> Approach:
        """The prototype approach instance (shared, used for single-threaded runs)."""
        return self._prototype

    def _approach_name_for_kind(self, kind: str) -> str:
        """Approach registry name to run on a device lane of ``kind``.

        A lane matching the prototype's device kind runs the configured
        approach; the other kind runs its counterpart of the same
        optimisation level (``cpu-v4`` pairs with ``gpu-v4``, ...).
        """
        if kind == self._prototype.device:
            return self._prototype.name
        counterpart = f"{kind}-v{self._prototype.version}"
        if counterpart not in APPROACHES:
            counterpart = f"{kind}-v4"
        return counterpart

    def _worker_approach(self, kind: str | None = None) -> Approach:
        """A fresh approach instance for one worker thread.

        Counters are per-instance, so every worker gets its own approach to
        avoid false sharing of the accounting state (results are unaffected).
        """
        kind = kind or self._prototype.device
        if isinstance(self.config.approach, Approach):
            # A user-provided instance cannot be cloned generically; reuse it
            # (documented: custom instances imply single-threaded accounting).
            if kind != self._prototype.device:
                raise ValueError(
                    "heterogeneous device plans require an approach name, "
                    "not a pre-built Approach instance"
                )
            return self.config.approach
        name = self._approach_name_for_kind(kind)
        # Approach params (isa=, block_size=, ...) only apply to the
        # approach family they were written for; the word layout and the
        # backend are family-agnostic and apply to every lane.
        spec = self.config
        if name != self._prototype.name:
            spec = replace(spec, approach_params={})
        return get_approach(name, **spec.approach_kwargs())

    @staticmethod
    def _prepare_cached(approach: Approach, dataset: GenotypeDataset) -> object:
        """Encode ``dataset`` for ``approach`` through the process-wide cache.

        Keyed by dataset content digest plus the approach's encoding
        identity, so repeated ``detect`` calls, pipeline stages and
        distributed shards over the same dataset never re-pack it.
        """
        key = encoding_cache_key(dataset, approach)
        if key is None:
            # Duck-typed approaches without a cache identity are prepared
            # directly (correct, just uncached).
            return approach.prepare(dataset)
        return ENCODING_CACHE.get_or_build(key, lambda: approach.prepare(dataset))

    # -- low-level entry points ----------------------------------------------------
    def build_tables(
        self, dataset: GenotypeDataset, combos: np.ndarray, *, cache: bool = True
    ) -> np.ndarray:
        """Frequency tables for explicit combinations (single-threaded).

        ``cache=False`` bypasses the process-wide encoding cache — for
        throw-away datasets that are scored exactly once (a relabelled
        phenotype, say), where caching would pay the content digest and
        evict reusable encodings for nothing.
        """
        if cache:
            encoded = self._prepare_cached(self._prototype, dataset)
        else:
            encoded = self._prototype.prepare(dataset)
        tables = self._prototype.build_tables(encoded, np.asarray(combos))
        if self.config.validate:
            validate_tables(tables, dataset.n_controls, dataset.n_cases)
        return tables

    def score_combinations(
        self, dataset: GenotypeDataset, combos: np.ndarray, *, cache: bool = True
    ) -> np.ndarray:
        """Objective scores for explicit combinations (single-threaded).

        Honours the ``fused`` knob: under ``auto``/``on`` the scores come
        from the fused build+score path when the approach supports it
        (bit-identical).
        """
        if self.config.fused != "off" and not self.config.validate:
            self._prepare_objective(dataset)
            if cache:
                encoded = self._prepare_cached(self._prototype, dataset)
            else:
                encoded = self._prototype.prepare(dataset)
            scores = self._prototype.score_combinations(
                encoded, np.asarray(combos), self.objective
            )
            if scores is not None:
                return scores
        tables = self.build_tables(dataset, combos, cache=cache)
        self._prepare_objective(dataset)
        return self.objective.score(tables)

    def _prepare_objective(self, dataset: GenotypeDataset) -> None:
        """Give the objective its per-dataset precomputation hook.

        Idempotent and cheap (the K2 log-factorial table is O(n_samples));
        custom objective instances without a ``prepare`` method are fine.
        """
        prepare = getattr(self.objective, "prepare", None)
        if prepare is not None:
            prepare(dataset)

    # -- execution-plan assembly ---------------------------------------------------
    def engine_devices(self, source: CandidateSource | None = None) -> List[EngineDevice]:
        """The resolved engine device lanes this detector's plans run on.

        Public so orchestration layers (the staged pipeline's per-stage cost
        reports) can price work against the same lanes the executor uses.
        An unset ``chunk_size`` becomes budget-sized claims for ``source``'s
        order (the configured order without a source); when the lanes run
        several threads, a claim is at most ``1/CLAIMS_PER_THREAD`` of each
        thread's share of ``source``.
        """
        cfg = self.config
        if cfg.devices is None:
            lanes = [
                EngineDevice(
                    kind=self._prototype.device,
                    n_workers=cfg.n_workers,
                    chunk_size=cfg.chunk_size,
                )
            ]
        else:
            lanes = parse_devices(
                cfg.devices, n_workers=cfg.n_workers, chunk_size=cfg.chunk_size
            )
        if cfg.chunk_size is None:
            claim = claim_combos(source.order if source is not None else cfg.order)
            threads = sum(lane.n_workers for lane in lanes)
            if threads > 1 and source is not None:
                share = -(-source.total // (CLAIMS_PER_THREAD * threads))
                claim = min(claim, max(1, share))
            for lane in lanes:
                lane.chunk_size = claim
        return lanes

    def _build_policy(
        self, dataset: GenotypeDataset, source: CandidateSource
    ) -> SchedulingPolicy:
        # A subset-restricted stage is priced on its retained universe.
        policy = get_policy(self.config.schedule)
        policy.configure(
            source.effective_snps or dataset.n_snps, dataset.n_samples, source.order
        )
        return policy

    # -- exhaustive search -----------------------------------------------------------
    def detect(
        self,
        dataset: GenotypeDataset,
        *,
        cancel: CancellationToken | None = None,
        progress: Callable[[int, int], None] | None = None,
        run: RunSpec | None = None,
        **run_fields,
    ) -> DetectionResult:
        """Exhaustively evaluate every SNP combination of the dataset.

        Parameters
        ----------
        dataset:
            The case/control dataset to search.
        cancel:
            Optional cooperative cancellation token; when set mid-run the
            engine stops at the next chunk boundary and the call raises
            :class:`RuntimeError` (no complete result exists).
        progress:
            Optional callback invoked after every chunk with
            ``(combinations_done, combinations_total)``.
        run / **run_fields:
            Where the search runs: a :class:`RunSpec` and its fields
            (``workers=``, ``checkpoint=``, ...) applied on top of it.  A
            sharded spec runs :func:`repro.distributed.run_distributed`.

        Returns
        -------
        DetectionResult
            Best interaction, top-k ranking and execution statistics
            (throughput in the paper's combinations x samples unit, dynamic
            instruction counts, memory traffic, per-device utilization).
        """
        run = RunSpec.of(run, **run_fields)
        cfg = self.config
        n_snps = dataset.n_snps
        if n_snps < cfg.order:
            raise ValueError(
                f"dataset has {n_snps} SNPs; at least {cfg.order} are required"
            )
        return self.detect_candidates(
            dataset,
            DenseRangeSource(n_snps, cfg.order),
            cancel=cancel,
            progress=progress,
            run=run,
        )

    def detect_candidates(
        self,
        dataset: GenotypeDataset,
        source: CandidateSource,
        *,
        cancel: CancellationToken | None = None,
        progress: Callable[[int, int], None] | None = None,
        collect_snp_minima: bool = False,
        run: RunSpec | None = None,
        **run_fields,
    ) -> DetectionResult:
        """Evaluate an arbitrary candidate stream on the execution engine.

        Every sweep enters here: :meth:`detect` is the dense instance
        (``source = DenseRangeSource(n_snps, order)``), a screen-then-expand
        stage passes a :class:`~repro.engine.SubsetSource` over its retained
        SNPs, finalist re-scoring passes an
        :class:`~repro.engine.ExplicitCombinationSource`, every shard a
        distributed worker runs passes a slice of its run's source, and the
        MPI3SNP baseline's thread ranks are one static-schedule call.  The
        interaction order is taken from the source (not from the detector
        config), so one configured detector can serve every stage of a
        pipeline.

        Parameters
        ----------
        dataset:
            The case/control dataset to score against.
        source:
            Candidate k-tuples to evaluate
            (:class:`~repro.engine.CandidateSource`).
        cancel / progress / run:
            As in :meth:`detect`.
        collect_snp_minima:
            Also return each SNP's best (lowest) participating score over
            the evaluated candidates as ``result.snp_minima`` (``inf`` for a
            SNP no candidate contains): the screening stage's retention
            statistic.  It is folded chunk by chunk inside the engine
            workers, and on a sharded run inside every shard, then merged.

        Returns
        -------
        DetectionResult
            Best interaction, top-k ranking and execution statistics;
            ``stats.extra["candidates"]`` describes the evaluated source,
            and ``stats.extra["distributed"]`` the shard bookkeeping of a
            multi-process run.
        """
        from repro.telemetry import join_run, span_or_null

        run = RunSpec.of(run, **run_fields)
        cfg = self.config
        # Join the ambient telemetry run (pipeline stage, distributed
        # worker) when one is active; otherwise this call owns the run.
        with join_run(cfg.telemetry) as (session, run_id), span_or_null(
            "detect", order=source.order, total=source.total, approach=str(cfg.approach)
        ):
            if run.sharded:
                from repro.distributed import run_distributed

                outcome = run_distributed(
                    dataset,
                    source,
                    config=cfg,
                    run=run,
                    collect_snp_minima=collect_snp_minima,
                    progress=progress,
                    cancel=cancel,
                    run_id=run_id,
                )
                if outcome.cancelled or not outcome.completed:
                    raise RuntimeError(
                        f"detection cancelled after "
                        f"{outcome.items_restored + outcome.items_evaluated} of "
                        f"{source.total} combinations"
                    )
                return outcome.result
            # Statistics count this call only: drop what earlier calls
            # charged to the prototype (every other lane gets a fresh
            # approach).
            self._prototype.reset_counter()
            total = source.total
            with span_or_null("plan", total=total):
                self._prepare_objective(dataset)
                devices = self.engine_devices(source)
                policy = self._build_policy(dataset, source)
                plan = ExecutionPlan(
                    source=source, devices=devices, policy=policy, top_k=cfg.top_k
                )

            # Encode the dataset once per device lane (CPU and GPU approaches
            # consume different layouts); workers of a lane share the
            # read-only encoding but own their approach instance.  The first
            # worker whose lane matches the prototype's kind reuses the
            # prototype so single-lane runs keep a single counter to inspect.
            encodings: Dict[str, object] = {}
            prototype_assigned = False

            def worker_factory(device: EngineDevice, worker_id: int) -> _WorkerState:
                nonlocal prototype_assigned
                if device.kind == self._prototype.device and not prototype_assigned:
                    prototype_assigned = True
                    approach = self._prototype
                else:
                    approach = self._worker_approach(device.kind)
                if device.kind not in encodings:
                    encodings[device.kind] = self._prepare_cached(approach, dataset)
                return _WorkerState(approach=approach, encoded=encodings[device.kind])

            snp_names = list(dataset.snp_names)
            n_cases, n_controls = dataset.n_cases, dataset.n_controls
            fused_active = cfg.fused != "off" and not cfg.validate
            fold_minima = None
            if collect_snp_minima:
                from repro.distributed.merge import snp_minima_accumulator

                fold_minima, finalize_minima = snp_minima_accumulator(dataset.n_snps)

            def scorer(worker: DeviceWorker, combos: np.ndarray) -> np.ndarray:
                state: _WorkerState = worker.state
                scores = None
                if fused_active:
                    scores = state.approach.score_combinations(
                        state.encoded, combos, self.objective
                    )
                if scores is None:
                    tables = state.approach.build_tables(state.encoded, combos)
                    if cfg.validate:
                        validate_tables(tables, n_controls, n_cases)
                    scores = self.objective.score(tables)
                if fold_minima is not None:
                    fold_minima(worker, combos, scores)
                return scores

            executor = HeterogeneousExecutor(plan, cancel=cancel)
            swept = executor.run(
                worker_factory, scorer=scorer, snp_names=snp_names, progress=progress
            )
            if swept.cancelled:
                raise RuntimeError(
                    f"detection cancelled after {swept.n_items} of {total} combinations"
                )
            if not swept.top:
                raise RuntimeError("exhaustive search produced no interactions")

            stats = self._build_stats(swept, plan, total, dataset, policy, source)
            stats.extra["run_id"] = run_id
            if session is not None:
                from repro.telemetry import absorb_stats

                absorb_stats(session, stats)
                stats.extra["telemetry"] = session.summary()
            return DetectionResult(
                best=swept.top[0],
                top=list(swept.top),
                stats=stats,
                snp_minima=finalize_minima() if fold_minima is not None else None,
            )

    # -- staged search --------------------------------------------------------------
    def detect_staged(
        self,
        dataset: GenotypeDataset,
        *,
        screen_order: int = 2,
        keep_snps: int | None = None,
        refine_objective: str | ObjectiveFunction | None = None,
        n_permutations: int = 0,
        permutation_seed: int = 0,
        stages: List | None = None,
        cancel: CancellationToken | None = None,
        progress: Callable[[str, int, int], None] | None = None,
        run: RunSpec | None = None,
        **run_fields,
    ):
        """Run a staged screen-then-expand search instead of the dense sweep.

        A cheap order-``screen_order`` scan first retains the ``keep_snps``
        SNPs with the best participating score; the expensive
        order-``config.order`` sweep then evaluates only ``nCr(keep_snps,
        order)`` combinations instead of ``nCr(n_snps, order)`` — the
        retention budget is the knob trading recall for cost.  Optional
        refine (second objective) and permutation (empirical p-values)
        stages harden the finalists.  Every stage runs on the execution
        engine with this detector's approach/devices/schedule configuration.

        Parameters
        ----------
        dataset:
            The case/control dataset to search.
        screen_order:
            Interaction order of the screening scan (must be below the
            configured detection order).
        keep_snps:
            Retention budget of the screen; defaults to a quarter of the
            SNP universe (at least the detection order).  ``keep_snps =
            n_snps`` (full retention) makes the staged run bit-identical to
            :meth:`detect`.
        refine_objective:
            Optional second objective re-scoring the finalists.
        n_permutations:
            When positive, append a phenotype-permutation stage computing
            empirical p-values over the finalists.
        permutation_seed:
            Seed of the permutation null.
        stages:
            Explicit stage list overriding the standard construction (the
            other staging arguments are then ignored).
        cancel / progress:
            Cooperative cancellation token and per-stage progress callback
            ``progress(stage_name, done, total)``.
        run / **run_fields:
            Where the sweep stages run, as in :meth:`detect`; here
            ``checkpoint`` names a directory (see :class:`RunSpec`).

        Returns
        -------
        repro.pipeline.PipelineResult
            Finalists, per-stage reports and the evaluated fraction.

        Example
        -------
        >>> from repro.datasets import SyntheticConfig, PlantedInteraction, generate_dataset
        >>> from repro.core import EpistasisDetector
        >>> cfg = SyntheticConfig(n_snps=32, n_samples=2048,
        ...                       interaction=PlantedInteraction(snps=(3, 11, 17), effect=0.9),
        ...                       seed=7)
        >>> detector = EpistasisDetector(approach="cpu-v4", order=3)
        >>> staged = detector.detect_staged(generate_dataset(cfg),
        ...                                 screen_order=2, keep_snps=12)
        >>> staged.best_snps
        (3, 11, 17)
        >>> staged.evaluated_fraction < 0.2
        True
        """
        from repro.pipeline import (
            ExpandStage,
            PermutationStage,
            RefineStage,
            ScreenStage,
            SearchPipeline,
        )

        run = RunSpec.of(run, **run_fields)
        cfg = self.config
        if stages is None:
            if keep_snps is None:
                keep_snps = max(cfg.order, dataset.n_snps // 4)
            if screen_order >= cfg.order:
                raise ValueError(
                    f"screen_order={screen_order} must be below the detection "
                    f"order {cfg.order}"
                )
            stages = [
                ScreenStage(order=screen_order, keep=keep_snps),
                ExpandStage(order=cfg.order),
            ]
            if refine_objective is not None:
                stages.append(RefineStage(objective=refine_objective))
            if n_permutations > 0:
                # The null must test the statistic the finalists are ranked
                # (and displayed) under — the refine objective when present.
                stages.append(
                    PermutationStage(
                        n_permutations=n_permutations,
                        seed=permutation_seed,
                        objective=refine_objective,
                    )
                )
        pipeline = SearchPipeline(stages, config=cfg, run=run)
        return pipeline.run(dataset, cancel=cancel, progress=progress)

    def _build_stats(self, run, plan, total, dataset, policy, source) -> ApproachStats:
        """Merge worker counters and engine bookkeeping into run statistics."""
        # Snapshot every distinct approach counter before mutating anything:
        # the prototype is itself a worker, so merging into its counter
        # mid-iteration would contaminate lanes read after the merge.
        # Deduplication is by instance identity (a shared custom approach is
        # only counted once).
        device_stats = {label: dict(entry) for label, entry in run.device_stats.items()}
        snapshots: Dict[int, Dict[str, int]] = {}
        for worker in run.workers:
            approach = worker.state.approach
            if id(approach) not in snapshots:
                snapshots[id(approach)] = dict(approach.counter.as_dict())

        for label in device_stats:
            lane_workers = [w for w in run.workers if w.label == label]
            lane_ops: Dict[str, int] = {}
            lane_seen: set[int] = set()
            for worker in lane_workers:
                approach_id = id(worker.state.approach)
                if approach_id in lane_seen:
                    continue
                lane_seen.add(approach_id)
                for mnemonic, count in snapshots[approach_id].items():
                    lane_ops[mnemonic] = lane_ops.get(mnemonic, 0) + count
            if lane_workers:
                lane_approach = lane_workers[0].state.approach
                device_stats[label]["approach"] = lane_approach.name
                device_stats[label]["backend"] = getattr(
                    lane_approach, "backend_name", None
                )
            device_stats[label]["op_counts"] = lane_ops

        # Global merge into the prototype's counter, after every lane has
        # read its (pre-merge) snapshot.
        merged_counter = self._prototype.counter
        seen_ids = {id(self._prototype)}
        for worker in run.workers:
            approach = worker.state.approach
            if id(approach) not in seen_ids:
                seen_ids.add(id(approach))
                merged_counter.merge(approach.counter)

        extra: Dict[str, object] = dict(self._prototype.extra_stats())
        extra["order"] = source.order
        extra["schedule"] = policy.name
        # The backend that actually ran (post-fallback), not the requested
        # name — surfaced by the CLI summary line.
        extra["backend"] = getattr(self._prototype, "backend_name", None)
        extra["fused"] = self.config.fused
        extra["candidates"] = source.describe()
        extra["devices"] = device_stats

        # Single-lane plans report the approach that actually ran (a
        # ``devices="gpu"`` plan with a CPU-named config runs the GPU
        # counterpart); heterogeneous plans keep the configured name and
        # detail per-lane approaches in ``extra["devices"]``.
        approach_name = self._prototype.name
        if len(device_stats) == 1:
            (entry,) = device_stats.values()
            approach_name = entry.get("approach", approach_name)

        return ApproachStats(
            approach=approach_name,
            n_combinations=total,
            n_samples=dataset.n_samples,
            elapsed_seconds=run.elapsed_seconds,
            op_counts=merged_counter.as_dict(),
            bytes_loaded=merged_counter.bytes_loaded,
            bytes_stored=merged_counter.bytes_stored,
            n_workers=plan.total_workers,
            extra=extra,
        )

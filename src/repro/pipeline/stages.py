"""The staged-search pipeline stages.

Each stage is one engine run (plus, for the permutation null, a batched
in-process count) with its own approach/devices/schedule/order
configuration, reading and updating a shared :class:`StageContext`:

* :class:`ScreenStage` — cheap low-order exhaustive scan that retains the
  top-``keep`` SNPs by best participating score, pruning the universe the
  later stages sweep;
* :class:`ExpandStage` — the expensive high-order sweep, restricted to the
  retained subset (``nCr(keep, k)`` instead of ``nCr(M, k)`` tables);
* :class:`RefineStage` — re-scores the finalists under a second objective
  function and re-ranks them;
* :class:`PermutationStage` — phenotype-permutation null distribution over
  the finalists, yielding empirical p-values.

Every stage executes through
:meth:`~repro.core.detector.EpistasisDetector.detect_candidates`, so device
lanes, scheduling policies (including the CARM-ratio splitter, configured
with the stage's *effective* SNP universe) and the streaming top-k
reduction behave exactly as in a dense search.  The two sweep stages, screen
and expand, pass it the pipeline's run spec with their own ledger under the
checkpoint directory, so they shard across worker processes exactly as a
dense ``detect(workers=N)`` does; refine and the permutation stage's
observed re-scoring always run in-process.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields, replace
from typing import Callable, ClassVar, List

import numpy as np

from repro.bitops.packing import pack_bits
from repro.core.approaches._kernels import naive_permutation_tables
from repro.core.contingency import validate_tables
from repro.core.detector import DetectorConfig, EpistasisDetector, RunSpec
from repro.core.result import DetectionResult, Interaction
from repro.core.scoring import ObjectiveFunction
from repro.datasets.binarization import BinarizedDataset
from repro.datasets.dataset import GenotypeDataset
from repro.engine import (
    CancellationToken,
    CandidateSource,
    DenseRangeSource,
    EngineDevice,
    ExplicitCombinationSource,
    SchedulingPolicy,
    SubsetSource,
)
from repro.perfmodel.staged import estimate_stage_seconds
from repro.pipeline.result import StageReport

__all__ = [
    "StageContext",
    "PipelineStage",
    "ScreenStage",
    "ExpandStage",
    "RefineStage",
    "PermutationStage",
]

#: Pipeline-level progress callback: ``progress(stage_name, done, total)``.
PipelineProgress = Callable[[str, int, int], None]


@dataclass
class StageContext:
    """Mutable state flowing through the stages of one pipeline run.

    ``retained`` is the current SNP universe (``None`` = all SNPs) — set by
    screening stages, consumed by later screens/expands.  ``top`` is the
    current finalist list — set by expand, re-ranked by refine, annotated
    with ``p_values`` by the permutation stage.

    ``run`` is where the sweep stages run
    (:class:`~repro.core.detector.RunSpec`); its ``checkpoint`` is a
    directory holding one ledger per stage, named by ``stage_index`` (kept
    by the pipeline run loop) and the stage name, so a killed pipeline
    resumes mid-stage.
    """

    dataset: GenotypeDataset
    defaults: DetectorConfig
    retained: np.ndarray | None = None
    top: List[Interaction] = field(default_factory=list)
    p_values: List[float] | None = None
    cancel: CancellationToken | None = None
    progress: PipelineProgress | None = None
    run: RunSpec = field(default_factory=RunSpec)
    stage_index: int = 0

    def stage_ledger_path(self, stage_name: str) -> str | None:
        """This stage's ledger path under the checkpoint directory."""
        if self.run.checkpoint is None:
            return None
        from pathlib import Path

        return str(
            Path(self.run.checkpoint)
            / f"stage{self.stage_index:02d}_{stage_name}.ckpt.json"
        )

    def stage_progress(self, stage_name: str) -> Callable[[int, int], None] | None:
        """Adapt the pipeline progress callback for one stage's engine run."""
        if self.progress is None:
            return None
        callback = self.progress

        def report(done: int, total: int) -> None:
            callback(stage_name, done, total)

        return report


@dataclass
class PipelineStage(ABC):
    """One stage of a staged search.

    The execution fields (``approach``, ``objective``, ``devices``,
    ``schedule``, ``n_workers``, ``chunk_size``, ``top_k``, ``validate``)
    override the pipeline's :class:`~repro.core.detector.DetectorConfig`
    when they are not ``None``, so e.g. a screen can run on a GPU lane with
    a guided schedule while the expand runs cpu+gpu under the CARM
    splitter.  A stage naming another approach does not inherit the
    pipeline's approach params (they are that approach's constructor
    arguments).
    """

    name: ClassVar[str] = "abstract"

    approach: str | None = None
    objective: str | ObjectiveFunction | None = None
    devices: str | None = None
    schedule: str | SchedulingPolicy | None = None
    n_workers: int | None = None
    chunk_size: int | str | None = None
    top_k: int | None = None
    validate: bool | None = None

    @abstractmethod
    def run(self, ctx: StageContext) -> StageReport:
        """Execute the stage, updating ``ctx`` and returning its report."""

    # -- shared helpers --------------------------------------------------------
    def config(self, defaults: DetectorConfig, **overrides) -> DetectorConfig:
        """``defaults`` with this stage's overrides, then ``overrides``, applied."""
        stage = {
            f.name: getattr(self, f.name)
            for f in fields(PipelineStage)
            if getattr(self, f.name) is not None
        }
        if stage.get("approach", defaults.approach) != defaults.approach:
            stage["approach_params"] = {}
        return replace(defaults, **{**stage, **overrides})

    def _detector(
        self, ctx: StageContext, order: int, **overrides
    ) -> EpistasisDetector:
        """A detector of order ``order`` running this stage's config."""
        return EpistasisDetector(
            config=self.config(ctx.defaults, order=order, **overrides)
        )

    @staticmethod
    def _universe_source(ctx: StageContext, order: int) -> CandidateSource:
        """Dense space over the current universe (full or retained subset)."""
        if ctx.retained is None:
            return DenseRangeSource(ctx.dataset.n_snps, order)
        return SubsetSource(ctx.retained, order)

    def _report(
        self,
        ctx: StageContext,
        detector: EpistasisDetector,
        source: CandidateSource,
        result: DetectionResult,
        *,
        evaluated: int | None = None,
        estimate_devices: list | None = None,
        **fields,
    ) -> StageReport:
        """Assemble the stage report from a detection result.

        ``estimate_devices`` overrides the lanes the analytic cost estimate
        is priced against (stages whose work does not run on the engine
        lanes — the permutation null loop — pass their actual execution
        shape).
        """
        effective = source.effective_snps or ctx.dataset.n_snps
        return StageReport(
            stage=self.name,
            order=source.order,
            candidates=source.total,
            evaluated=evaluated if evaluated is not None else source.total,
            elapsed_seconds=result.stats.elapsed_seconds,
            estimated_seconds=estimate_stage_seconds(
                (
                    estimate_devices
                    if estimate_devices is not None
                    else detector.engine_devices()
                ),
                evaluated if evaluated is not None else source.total,
                ctx.dataset.n_samples,
                source.order,
                effective,
                approach_version=detector.approach.version,
            ),
            approach=result.stats.approach,
            objective=detector.objective.name,
            schedule=str(result.stats.extra.get("schedule", "")),
            effective_snps=effective,
            device_stats=dict(result.stats.extra.get("devices", {})),
            **fields,
        )


@dataclass
class ScreenStage(PipelineStage):
    """Order-``j`` exhaustive scan retaining the best-scoring SNPs.

    Every combination of the current universe is evaluated at the (cheap)
    screening order, and each SNP is credited with the best (lowest) score
    of any combination it participates in; the ``keep`` best SNPs survive.
    Per-SNP minima are folded chunk-by-chunk inside the engine workers
    (``detect_candidates(collect_snp_minima=True)``, in every shard of a
    sharded screen), so the screen streams through the space with O(n_snps)
    extra memory and no full score materialisation.

    ``keep`` is the retention budget — the knob trading recall for expand
    cost: the following order-``k`` expand evaluates ``nCr(keep, k)``
    instead of ``nCr(M, k)`` tables.
    """

    name: ClassVar[str] = "screen"

    order: int = 2
    keep: int = 32

    def __post_init__(self) -> None:
        if self.keep < 1:
            raise ValueError("keep must be positive")

    def run(self, ctx: StageContext) -> StageReport:
        dataset = ctx.dataset
        source = self._universe_source(ctx, self.order)
        universe = (
            ctx.retained
            if ctx.retained is not None
            else np.arange(dataset.n_snps, dtype=np.int64)
        )
        detector = self._detector(ctx, self.order)
        result = detector.detect_candidates(
            dataset,
            source,
            cancel=ctx.cancel,
            progress=ctx.stage_progress(self.name),
            collect_snp_minima=True,
            run=replace(ctx.run, checkpoint=ctx.stage_ledger_path(self.name)),
        )

        keep = min(self.keep, int(universe.size))
        universe_scores = result.snp_minima[universe]
        ranked = np.argsort(universe_scores, kind="stable")[:keep]
        retained = np.sort(universe[ranked])
        ctx.retained = retained

        return self._report(
            ctx,
            detector,
            source,
            result,
            retained_snps=int(retained.size),
            extra={
                "keep": keep,
                "retention_threshold": float(np.max(universe_scores[ranked])),
            },
        )


@dataclass
class ExpandStage(PipelineStage):
    """Order-``k`` sweep over the retained universe, producing finalists."""

    name: ClassVar[str] = "expand"

    order: int = 3

    def run(self, ctx: StageContext) -> StageReport:
        source = self._universe_source(ctx, self.order)
        detector = self._detector(ctx, self.order)
        result = detector.detect_candidates(
            ctx.dataset,
            source,
            cancel=ctx.cancel,
            progress=ctx.stage_progress(self.name),
            run=replace(ctx.run, checkpoint=ctx.stage_ledger_path(self.name)),
        )
        ctx.top = list(result.top)
        ctx.p_values = None
        return self._report(ctx, detector, source, result)


@dataclass
class RefineStage(PipelineStage):
    """Re-score the current finalists under a second objective and re-rank.

    The staged search's last full sweep optimises one objective (the K2
    score by default); refining re-evaluates only the finalists under an
    independent criterion (mutual information, chi-squared, ...), which is
    cheap — ``top_k`` tables — and guards against single-objective
    artefacts.
    """

    name: ClassVar[str] = "refine"

    def __post_init__(self) -> None:
        if self.objective is None:
            raise ValueError("RefineStage needs an objective to re-score under")

    def run(self, ctx: StageContext) -> StageReport:
        if not ctx.top:
            raise ValueError(
                "refine stage needs finalists; run an expand stage before it"
            )
        combos = np.array([inter.snps for inter in ctx.top], dtype=np.int64)
        source = ExplicitCombinationSource(combos)
        keep = self.top_k if self.top_k is not None else len(ctx.top)
        detector = self._detector(
            ctx, source.order, top_k=min(keep, len(ctx.top))
        )
        result = detector.detect_candidates(
            ctx.dataset,
            source,
            cancel=ctx.cancel,
            progress=ctx.stage_progress(self.name),
        )
        scores_before = {inter.snps: inter.score for inter in ctx.top}
        ctx.top = list(result.top)
        ctx.p_values = None
        return self._report(
            ctx,
            detector,
            source,
            result,
            sweep=False,
            extra={
                "scores_before": [
                    scores_before[inter.snps] for inter in result.top
                ],
            },
        )


@dataclass
class PermutationStage(PipelineStage):
    """Phenotype-permutation null distribution over the finalists.

    The finalists' scores are compared against ``n_permutations`` re-scores
    under random phenotype relabellings (genotypes untouched, case/control
    balance preserved); the empirical p-value of finalist ``c`` is
    ``(1 + #{permutations with score(c) <= observed(c)}) / (1 +
    n_permutations)`` — the standard add-one estimate, never exactly zero.

    The observed re-scoring is the stage's engine run (per-stage
    device/schedule overrides apply, and it feeds the stage report).  The
    null never launches the engine or the worker fleet: the dataset is
    sliced to the distinct finalist SNPs and encoded once in the naïve
    three-plane form, and each window of ``checkpoint_every`` relabellings
    is one batched count of their packed phenotypes against those planes
    (:func:`~repro.core.approaches._kernels.naive_permutation_tables`),
    scored with the stage's objective.  Counts are exact integers, so
    inline, fleet and resumed runs give bit-identical p-values whatever the
    approach or backend.

    When a :class:`RefineStage` re-scored the finalists, give this stage
    the same ``objective`` so the p-values test the statistic displayed
    next to them (``detect_staged`` wires this automatically).

    Under a checkpointed pipeline run the null is crash-safe too: after
    every window the stage persists its exceedance counters and the RNG
    bit-generator state to its ledger, so a resumed run continues the
    *same* permutation stream mid-loop and the p-values are bit-identical
    to an uninterrupted run.  Cancellation is checked at each window start.
    """

    name: ClassVar[str] = "permutation"

    n_permutations: int = 100
    seed: int = 0
    checkpoint_every: int = 32

    def __post_init__(self) -> None:
        if self.n_permutations < 1:
            raise ValueError("n_permutations must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")

    @staticmethod
    def null_scores(
        detector: EpistasisDetector,
        encoded: BinarizedDataset,
        draws: np.ndarray,
        combos: np.ndarray,
    ) -> np.ndarray:
        """``(P, n_combos)`` scores of ``combos`` under each row of ``draws``.

        ``draws`` holds ``P`` relabelled phenotype vectors of the dataset
        ``encoded`` encodes.  One batched count builds every relabelling's
        tables; they are validated under ``validate=True`` and scored with
        the detector's objective.
        """
        tables = naive_permutation_tables(
            encoded.planes, pack_bits(draws.astype(bool), encoded.layout), combos
        )
        if detector.config.validate:
            validate_tables(tables, encoded.n_controls, encoded.n_cases)
        scores = detector.objective.score(tables.reshape((-1,) + tables.shape[2:]))
        return scores.reshape(tables.shape[:2])

    def run(self, ctx: StageContext) -> StageReport:
        if not ctx.top:
            raise ValueError(
                "permutation stage needs finalists; run an expand stage before it"
            )
        dataset = ctx.dataset
        combos = np.array([inter.snps for inter in ctx.top], dtype=np.int64)

        # Slice the dataset down to the distinct finalist SNPs once and
        # remap the combinations to local indices: the observed run and the
        # null's encoding then cover order x top_k SNPs instead of the full
        # genotype matrix.
        distinct = np.unique(combos)
        local_combos = np.searchsorted(distinct, combos)
        sliced = dataset.subset_snps(distinct)
        source = ExplicitCombinationSource(local_combos)
        local_keys = [tuple(int(s) for s in row) for row in local_combos]
        detector = self._detector(ctx, source.order, top_k=len(ctx.top))

        # Observed scores under this stage's objective (identical to the
        # finalists' scores when the objective is inherited; re-computed so
        # the null comparison stays consistent after a refine stage).
        observed_run = detector.detect_candidates(
            sliced, source, cancel=ctx.cancel
        )
        observed = {inter.snps: inter.score for inter in observed_run.top}

        rng = np.random.default_rng(self.seed)
        observed_scores = np.array([observed[key] for key in local_keys])
        exceed = np.zeros(len(local_keys), dtype=np.int64)
        progress = ctx.stage_progress(self.name)

        # Crash-safe null loop: under a checkpointed pipeline the exceedance
        # counters and the RNG bit-generator state are persisted atomically,
        # so a resumed run continues the same permutation stream mid-loop.
        ledger = None
        start_perm = 0
        if ctx.run.checkpoint is not None:
            from repro.distributed.checkpoint import JsonLedger, dataset_fingerprint

            fingerprint = {
                "dataset": dataset_fingerprint(dataset),
                "combos": [[int(s) for s in row] for row in combos],
                "seed": int(self.seed),
                "n_permutations": int(self.n_permutations),
                "objective": detector.objective.name,
            }
            ledger = JsonLedger(ctx.stage_ledger_path(self.name))
            if ledger.begin(
                fingerprint, resume=ctx.run.resume, label="permutation checkpoint"
            ):
                start_perm = int(ledger.doc.get("perm_done", 0))
                exceed = np.asarray(ledger.doc["exceed"], dtype=np.int64)
                rng.bit_generator.state = ledger.doc["rng_state"]
            else:
                ledger.doc.update(
                    {
                        "perm_done": 0,
                        "exceed": [int(c) for c in exceed],
                        "rng_state": rng.bit_generator.state,
                    }
                )
                ledger.write()

        def _record(perm_done: int) -> None:
            if ledger is None:
                return
            ledger.doc["perm_done"] = int(perm_done)
            ledger.doc["exceed"] = [int(c) for c in exceed]
            ledger.doc["rng_state"] = rng.bit_generator.state
            ledger.write()

        # The null: one batched count per window.  Draws follow the RNG
        # stream in order, and the ledger is written at window ends, where
        # the live RNG state matches ``perm_done`` draws exactly; the last
        # window's write records the finished null.  Each draw permutes
        # sample indices, which consumes the stream exactly as permuting
        # the phenotype vector itself does, at a lower cost per draw.
        null_started = time.perf_counter()
        n_samples = sliced.phenotypes.shape[0]
        encoded = BinarizedDataset.from_dataset(
            sliced, layout=detector.approach.word_layout
        )
        for window_start in range(
            start_perm, self.n_permutations, self.checkpoint_every
        ):
            if ctx.cancel is not None and ctx.cancel.cancelled:
                _record(window_start)
                raise RuntimeError(
                    f"permutation stage cancelled after {window_start} of "
                    f"{self.n_permutations} permutations"
                )
            window = range(
                window_start,
                min(window_start + self.checkpoint_every, self.n_permutations),
            )
            indices = np.stack([rng.permutation(n_samples) for _ in window])
            draws = sliced.phenotypes[indices]
            null_scores = self.null_scores(detector, encoded, draws, local_combos)
            exceed += (null_scores <= observed_scores).sum(axis=0)
            _record(window[-1] + 1)
            if progress is not None:
                for perm in window:
                    progress(perm + 1, self.n_permutations)
        elapsed = observed_run.stats.elapsed_seconds + (
            time.perf_counter() - null_started
        )

        ctx.p_values = [
            (1 + int(count)) / (1 + self.n_permutations) for count in exceed
        ]
        report = self._report(
            ctx,
            detector,
            source,
            observed_run,
            evaluated=(1 + self.n_permutations) * source.total,
            sweep=False,
            # The null is one batched in-process count per window, not an
            # engine run over the lanes — price it single-threaded on the
            # prototype approach's device.
            estimate_devices=[EngineDevice(kind=detector.approach.device)],
            extra={
                "n_permutations": self.n_permutations,
                "seed": self.seed,
                "min_attainable_p": 1.0 / (1 + self.n_permutations),
                **({"resumed_at": start_perm} if start_perm else {}),
            },
        )
        report.elapsed_seconds = elapsed
        return report

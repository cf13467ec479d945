"""The :class:`SearchPipeline` orchestrator.

A pipeline is an ordered list of stages sharing one dataset and one
execution spec (:class:`~repro.core.detector.DetectorConfig`); running it
threads a :class:`~repro.pipeline.stages.StageContext` through the stages
and aggregates their reports into a
:class:`~repro.pipeline.result.PipelineResult`.

Example — screen at order 2, keep 16 SNPs, expand at order 3, validate the
finalists with a permutation null::

    from repro.pipeline import (
        SearchPipeline, ScreenStage, ExpandStage, PermutationStage,
    )

    pipeline = SearchPipeline(
        [
            ScreenStage(order=2, keep=16),
            ExpandStage(order=3),
            PermutationStage(n_permutations=100, seed=7),
        ],
        approach="cpu-v4",
        n_workers=2,
    )
    outcome = pipeline.run(dataset)
    print(outcome.summary())
"""

from __future__ import annotations

import time
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from math import comb
from typing import List, Sequence

from repro.core.detector import DetectorConfig, RunSpec
from repro.datasets.dataset import GenotypeDataset
from repro.engine import CancellationToken
from repro.pipeline.result import PipelineResult, StageReport
from repro.pipeline.stages import PipelineProgress, PipelineStage, StageContext

__all__ = ["SearchPipeline"]


class SearchPipeline:
    """A staged search: candidate streams from screen → expand → refine.

    Parameters
    ----------
    stages:
        The stages to execute, in order.  At least one stage must produce
        finalists (an :class:`~repro.pipeline.stages.ExpandStage`) for the
        pipeline to return a result.
    config:
        The execution spec every stage derives its own from
        (:class:`~repro.core.detector.DetectorConfig`; stages replace the
        order and whatever they override).  Its ``telemetry`` mode is the
        pipeline's: the pipeline owns one telemetry session, and every
        stage, engine run and distributed sweep joins it, so a single trace
        covers the whole staged search under one ``run_id``.
    run:
        Where the sweep stages run (:class:`~repro.core.detector.RunSpec`).
        With ``workers > 1`` each screen/expand stage shards its candidates
        across that many processes; with the default ``pool="keep"`` all of
        them run on one warm fleet, and the permutation null runs
        in-process.  ``checkpoint`` is a directory: the pipeline writes a
        stage-output ledger (``pipeline.json``) plus one shard ledger per
        sweep stage and the permutation stage's RNG-state ledger, so a
        killed run resumes mid-stage.
    **fields:
        :class:`~repro.core.detector.DetectorConfig` fields
        (``approach="cpu-v4"``, ``n_workers=2``, ...) and
        :class:`~repro.core.detector.RunSpec` fields (``workers=2``, ...),
        applied on top of ``config`` and ``run`` (or of the defaults
        without them).  Both specs and every stage's overrides are
        validated here, before any stage runs.
    """

    def __init__(
        self,
        stages: Sequence[PipelineStage],
        *,
        config: DetectorConfig | None = None,
        run: RunSpec | None = None,
        **fields,
    ) -> None:
        stages = list(stages)
        if not stages:
            raise ValueError("a search pipeline needs at least one stage")
        run_names = {f.name for f in dataclass_fields(RunSpec)}
        run = RunSpec.of(run, **{k: v for k, v in fields.items() if k in run_names})
        spec_fields = {k: v for k, v in fields.items() if k not in run_names}
        if config is None:
            config = DetectorConfig(**spec_fields)
        elif spec_fields:
            config = replace(config, **spec_fields)
        for stage in stages:
            # Refuse invalid overrides (n_workers=0, ...) before any stage runs.
            stage.config(config)
        self.stages = stages
        self.defaults = config
        self.run_spec = run

    def run(
        self,
        dataset: GenotypeDataset,
        *,
        cancel: CancellationToken | None = None,
        progress: PipelineProgress | None = None,
    ) -> PipelineResult:
        """Execute every stage and aggregate the pipeline result.

        Parameters
        ----------
        dataset:
            The case/control dataset to search.
        cancel:
            Optional cooperative cancellation token shared by every stage's
            engine run.
        progress:
            Optional callback ``progress(stage_name, done, total)`` invoked
            after every chunk of every stage.
        """
        from repro.telemetry import join_run, span_or_null

        with join_run(self.defaults.telemetry) as (_, run_id), span_or_null(
            "pipeline", stages=len(self.stages), n_snps=dataset.n_snps
        ):
            ctx = StageContext(
                dataset=dataset,
                defaults=self.defaults,
                cancel=cancel,
                progress=progress,
                run=self.run_spec,
            )
            ledger = self._open_ledger(dataset)
            if ledger is not None:
                ledger.note_run(run_id)
            reports: List[StageReport] = []
            started = time.perf_counter()
            for index, stage in enumerate(self.stages):
                ctx.stage_index = index
                restored = self._restore_stage(ledger, index, ctx)
                if restored is not None:
                    reports.append(restored)
                    continue
                with span_or_null("pipeline.stage", stage=stage.name, index=index):
                    report = stage.run(ctx)
                reports.append(report)
                self._record_stage(ledger, index, ctx, report)
            elapsed = time.perf_counter() - started

            if not ctx.top:
                raise RuntimeError(
                    "pipeline produced no finalists; include an expand stage "
                    f"(ran: {[stage.name for stage in self.stages]})"
                )
            final_order = len(ctx.top[0].snps)
            return PipelineResult(
                best=ctx.top[0],
                top=list(ctx.top),
                stages=reports,
                elapsed_seconds=elapsed,
                n_snps=dataset.n_snps,
                n_samples=dataset.n_samples,
                final_order=final_order,
                exhaustive_combinations=comb(dataset.n_snps, final_order),
                retained_snps=(
                    [int(s) for s in ctx.retained] if ctx.retained is not None else None
                ),
                p_values=ctx.p_values,
                run_id=run_id,
            )

    # -- pipeline-level checkpointing -------------------------------------------
    def _fingerprint(self, dataset: GenotypeDataset) -> dict:
        from repro.distributed.checkpoint import dataset_fingerprint

        return {
            "dataset": dataset_fingerprint(dataset),
            "stages": [repr(stage) for stage in self.stages],
        }

    def _open_ledger(self, dataset: GenotypeDataset):
        """The stage-output ledger of a checkpointed run (``None`` otherwise).

        ``pipeline.json`` records every completed stage's report and its
        context mutations (retained universe, finalists, p-values), so a
        resumed run replays finished stages without executing them and
        re-enters the first incomplete stage, whose own shard ledger then
        resumes mid-sweep.
        """
        if self.run_spec.checkpoint is None:
            return None
        from pathlib import Path

        from repro.distributed.checkpoint import JsonLedger

        ledger = JsonLedger(Path(self.run_spec.checkpoint) / "pipeline.json")
        if ledger.begin(
            self._fingerprint(dataset),
            resume=self.run_spec.resume,
            label="pipeline checkpoint",
        ):
            return ledger
        ledger.doc["stages"] = {}
        ledger.write()
        return ledger

    def _restore_stage(self, ledger, index: int, ctx: StageContext):
        """Replay a completed stage from the ledger (``None`` = execute it)."""
        if ledger is None or not self.run_spec.resume:
            return None
        record = ledger.doc.get("stages", {}).get(str(index))
        if record is None:
            return None
        import numpy as np

        from repro.distributed.merge import row_to_interaction

        ctx.retained = (
            np.asarray(record["retained"], dtype=np.int64)
            if record.get("retained") is not None
            else None
        )
        ctx.top = [row_to_interaction(row) for row in record.get("top", [])]
        ctx.p_values = (
            [float(p) for p in record["p_values"]]
            if record.get("p_values") is not None
            else None
        )
        report = StageReport.from_dict(record["report"])
        report.extra = dict(report.extra)
        report.extra["resumed"] = True
        return report

    def _record_stage(
        self, ledger, index: int, ctx: StageContext, report: StageReport
    ) -> None:
        """Persist a completed stage's report and context mutations."""
        if ledger is None:
            return
        from repro.distributed.merge import interaction_to_row

        ledger.doc.setdefault("stages", {})[str(index)] = {
            "report": report.to_dict(),
            "retained": (
                [int(s) for s in ctx.retained] if ctx.retained is not None else None
            ),
            "top": [interaction_to_row(inter) for inter in ctx.top],
            "p_values": (
                [float(p) for p in ctx.p_values]
                if ctx.p_values is not None
                else None
            ),
        }
        ledger.write()

"""Staged search pipelines: candidate streams from screen → expand → refine.

The exhaustive k-way search costs ``nCr(M, k)`` frequency tables — the wall
that keeps dense sweeps at small SNP counts.  Real GWAS-scale tools stage
the search: a cheap low-order *screen* prunes the SNP universe, the
expensive high-order *expand* sweeps only the retained subset, and
lightweight *refine*/*permutation* stages harden the finalists.  This
package implements that decomposition on top of the heterogeneous execution
engine — every stage is an engine run over a
:class:`~repro.engine.candidates.CandidateSource`, with per-stage
approach/devices/schedule/order configuration:

* :class:`SearchPipeline` — the orchestrator;
* :class:`ScreenStage` / :class:`ExpandStage` / :class:`RefineStage` /
  :class:`PermutationStage` — the stage family;
* :class:`StageReport` / :class:`PipelineResult` — aggregated statistics,
  including per-stage modelled-vs-measured cost and the final-order
  evaluated fraction (the pruning headline).

The convenience entry point
:meth:`repro.core.detector.EpistasisDetector.detect_staged` builds a
standard screen→expand(→refine→permutation) pipeline from a configured
detector; the CLI exposes the same through ``repro-epistasis pipeline``.
"""

from repro.pipeline.pipeline import SearchPipeline
from repro.pipeline.result import PipelineResult, StageReport
from repro.pipeline.stages import (
    ExpandStage,
    PermutationStage,
    PipelineStage,
    RefineStage,
    ScreenStage,
    StageContext,
)

__all__ = [
    "SearchPipeline",
    "PipelineResult",
    "StageReport",
    "PipelineStage",
    "StageContext",
    "ScreenStage",
    "ExpandStage",
    "RefineStage",
    "PermutationStage",
]

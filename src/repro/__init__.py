"""repro — exhaustive k-way epistasis detection on modern CPUs/GPUs.

Reproduction of Marques et al., "Unlocking Personalized Healthcare on Modern
CPUs/GPUs: Three-way Gene Interaction Study" (IPDPS 2022, arXiv:2201.10956),
generalised to an order-generic search core: every approach, scheduling
policy and performance model is parametric in the interaction order
``k`` (2-5), with the paper's third-order study as the default.

The package is organised as:

* :mod:`repro.datasets` — case/control SNP datasets: synthetic generators,
  BOOST binarisation, phenotype split, GPU memory layouts, I/O.
* :mod:`repro.bitops` — packed bit-plane operations, population counts and a
  software model of the AVX/AVX-512 vector ISAs.
* :mod:`repro.core` — the detection engine: contingency tables, the Bayesian
  K2 score, the four CPU and four GPU approaches of the paper (all
  order-generic) and the :class:`~repro.core.detector.EpistasisDetector`
  public API (``order=2`` runs the pairwise screen on the same stack).
* :mod:`repro.engine` — the unified heterogeneous execution engine: device
  lanes, candidate sources (dense/explicit/subset work models), scheduling
  policies (dynamic/static/guided/CARM-ratio) and the streaming top-k
  executor behind every search path.
* :mod:`repro.pipeline` — staged search pipelines (screen → expand →
  refine → permutation): every stage is an engine run with per-stage
  configuration, turning the ``nCr(M, k)`` wall into a retention-budget
  knob.
* :mod:`repro.distributed` — sharded multi-process execution: near-equal
  shard planning, spawn-safe worker processes with a bounded recovery
  ladder, atomic checkpoint/resume ledgers and a deterministic
  ``(score, combination-rank)`` merge — ``detect(..., workers=N,
  checkpoint=...)`` survives kills and reports bit-identical top-k for any
  worker count.
* :mod:`repro.gpusim` — a functional GPU execution simulator with coalescing
  analysis.
* :mod:`repro.devices` — the catalog of the 13 CPUs/GPUs of Tables I and II.
* :mod:`repro.carm` — the Cache-Aware Roofline Model characterisation.
* :mod:`repro.perfmodel` — analytical CPU/GPU performance models.
* :mod:`repro.baselines` — MPI3SNP-style baseline, brute-force oracle and the
  published state-of-the-art figures.
* :mod:`repro.experiments` — harnesses regenerating every table and figure.

Quickstart
----------
>>> from repro import EpistasisDetector, SyntheticConfig, PlantedInteraction, generate_dataset
>>> cfg = SyntheticConfig(n_snps=32, n_samples=512,
...                       interaction=PlantedInteraction(snps=(3, 11, 17)), seed=7)
>>> result = EpistasisDetector(approach="cpu-v4").detect(generate_dataset(cfg))
>>> result.best_snps
(3, 11, 17)
"""

from repro.core.detector import DetectorConfig, EpistasisDetector, RunSpec
from repro.core.result import ApproachStats, DetectionResult, Interaction
from repro.core.scoring import K2Score, get_objective
from repro.datasets.dataset import GenotypeDataset
from repro.datasets.synthetic import (
    PlantedInteraction,
    SyntheticConfig,
    generate_dataset,
    generate_null_dataset,
)
from repro.datasets.io import load_dataset, load_npz, save_npz
from repro.devices.catalog import cpu, device, gpu, list_devices
from repro.engine import (
    EngineDevice,
    ExecutionPlan,
    HeterogeneousExecutor,
    get_policy,
    list_policies,
)
from repro.distributed import (
    CheckpointStore,
    ShardPlanner,
    run_distributed,
)
from repro.pipeline import (
    ExpandStage,
    PermutationStage,
    PipelineResult,
    RefineStage,
    ScreenStage,
    SearchPipeline,
    StageReport,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "EpistasisDetector",
    "DetectorConfig",
    "RunSpec",
    "DetectionResult",
    "Interaction",
    "ApproachStats",
    "K2Score",
    "get_objective",
    "GenotypeDataset",
    "SyntheticConfig",
    "PlantedInteraction",
    "generate_dataset",
    "generate_null_dataset",
    "save_npz",
    "load_npz",
    "load_dataset",
    "cpu",
    "gpu",
    "device",
    "list_devices",
    "EngineDevice",
    "ExecutionPlan",
    "HeterogeneousExecutor",
    "get_policy",
    "list_policies",
    "ShardPlanner",
    "CheckpointStore",
    "run_distributed",
    "SearchPipeline",
    "PipelineResult",
    "StageReport",
    "ScreenStage",
    "ExpandStage",
    "RefineStage",
    "PermutationStage",
]

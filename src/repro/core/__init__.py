"""Core k-way epistasis detection engine — the paper's contribution,
generalised to any interaction order 2-5 (the paper's study is the
third-order instance).

The engine is organised as:

* :mod:`repro.core.combinations` — enumeration, ranking and chunking of the
  exhaustive SNP k-tuple search space, including the triangular block
  schedule of Algorithm 1 and the vectorised order-dispatched unranking.
* :mod:`repro.core.contingency` — ``3^k x 2`` genotype/phenotype frequency
  tables and the direct (non-binarised) oracle construction used for
  validation.
* :mod:`repro.core.scoring` — objective functions over frequency tables:
  the Bayesian K2 score of the paper plus additional criteria (mutual
  information, Gini impurity, chi-squared) offered as extensions.
* :mod:`repro.core.approaches` — the four CPU approaches and four GPU
  approaches of §IV, all instrumented with operation counters.
* :mod:`repro.core.detector` — the :class:`EpistasisDetector` public API,
  which combines an approach, an objective function, an interaction order
  and the heterogeneous execution engine (:mod:`repro.engine`) into a
  single ``detect()`` call.
* :mod:`repro.core.result` — result containers (best interaction, top-k
  ranking, execution statistics).
"""

from repro.core.combinations import (
    combination_count,
    combination_from_rank,
    combination_rank,
    combinations_from_ranks,
    generate_combinations,
    iter_combination_chunks,
    iter_triangular_blocks,
)
from repro.core.contingency import (
    N_GENOTYPE_COMBINATIONS,
    cell_index_to_genotypes,
    combination_cell_index,
    contingency_oracle,
    contingency_oracle_many,
    table_totals,
    validate_tables,
)
from repro.core.scoring import (
    K2Score,
    ChiSquaredScore,
    GiniScore,
    MutualInformationScore,
    ObjectiveFunction,
    get_objective,
)
from repro.core.result import ApproachStats, DetectionResult, Interaction
from repro.core.detector import DetectorConfig, EpistasisDetector, RunSpec
from repro.core.approaches import get_approach, list_approaches

__all__ = [
    "combination_count",
    "combination_rank",
    "combination_from_rank",
    "combinations_from_ranks",
    "generate_combinations",
    "iter_combination_chunks",
    "iter_triangular_blocks",
    "N_GENOTYPE_COMBINATIONS",
    "combination_cell_index",
    "cell_index_to_genotypes",
    "contingency_oracle",
    "contingency_oracle_many",
    "table_totals",
    "validate_tables",
    "ObjectiveFunction",
    "K2Score",
    "MutualInformationScore",
    "GiniScore",
    "ChiSquaredScore",
    "get_objective",
    "Interaction",
    "ApproachStats",
    "DetectionResult",
    "EpistasisDetector",
    "DetectorConfig",
    "RunSpec",
    "get_approach",
    "list_approaches",
]

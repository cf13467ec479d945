"""Result containers for epistasis detection runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Sequence

import numpy as np

__all__ = ["Interaction", "ApproachStats", "DetectionResult", "interaction_row"]


@dataclass(frozen=True)
class Interaction:
    """One scored SNP combination.

    Attributes
    ----------
    snps:
        SNP indices, strictly increasing.
    score:
        Objective-function value (lower is better for every objective in
        :mod:`repro.core.scoring`).
    snp_names:
        Optional resolved SNP names for reporting.
    """

    snps: tuple[int, ...]
    score: float
    snp_names: tuple[str, ...] | None = None

    def __lt__(self, other: "Interaction") -> bool:
        # Deterministic ordering: by score, ties broken by SNP indices.
        return (self.score, self.snps) < (other.score, other.snps)

    def __str__(self) -> str:
        names = (
            "(" + ", ".join(self.snp_names) + ")"
            if self.snp_names
            else str(tuple(self.snps))
        )
        return f"{names}: score={self.score:.6f}"


def interaction_row(interaction: "Interaction", rank: int) -> dict:
    """JSON-ready record of one ranked interaction.

    The shared export shape of ``DetectionResult.to_dict`` and the staged
    pipeline's ``PipelineResult.to_dict`` — keep both CLI ``--output``
    formats in lockstep.
    """
    return {
        "rank": rank,
        "snps": [int(s) for s in interaction.snps],
        "snp_names": (
            list(interaction.snp_names) if interaction.snp_names else None
        ),
        "score": float(interaction.score),
    }


@dataclass
class ApproachStats:
    """Execution statistics of one detection run.

    Attributes
    ----------
    approach:
        Registry name of the approach that produced the result.
    n_combinations:
        Number of SNP combinations evaluated.
    n_samples:
        Samples per combination (so ``elements = n_combinations * n_samples``).
    elapsed_seconds:
        Wall-clock time of the table-construction + scoring phase.
    op_counts:
        Dynamic instruction counters recorded by the approach (word-level
        mnemonics; see :class:`repro.bitops.ops.OpCounter`).
    bytes_loaded / bytes_stored:
        Memory traffic recorded by the approach.
    n_workers:
        Host threads/processes used.
    extra:
        Approach-specific metadata (blocking parameters, layout, ISA, ...).
    """

    approach: str
    n_combinations: int
    n_samples: int
    elapsed_seconds: float
    op_counts: Mapping[str, int] = field(default_factory=dict)
    bytes_loaded: int = 0
    bytes_stored: int = 0
    n_workers: int = 1
    extra: Mapping[str, object] = field(default_factory=dict)

    @property
    def elements(self) -> int:
        """Paper's throughput unit: combinations x samples."""
        return self.n_combinations * self.n_samples

    @property
    def elements_per_second(self) -> float:
        """Measured throughput in elements per second."""
        if self.elapsed_seconds <= 0:
            return float("nan")
        return self.elements / self.elapsed_seconds

    @property
    def total_ops(self) -> int:
        """Total compute operations (excluding loads/stores)."""
        return sum(v for k, v in self.op_counts.items() if k not in ("LOAD", "STORE"))

    @property
    def arithmetic_intensity(self) -> float:
        """Operations per byte of traffic (CARM x-axis)."""
        total_bytes = self.bytes_loaded + self.bytes_stored
        if total_bytes == 0:
            return float("nan")
        return self.total_ops / total_bytes


@dataclass
class DetectionResult:
    """Outcome of an exhaustive detection run.

    Attributes
    ----------
    best:
        The lowest-scoring interaction.
    top:
        The ``k`` best interactions in ascending score order (including
        ``best``).
    stats:
        Execution statistics.
    snp_minima:
        Each SNP's best (lowest) participating score over the evaluated
        candidates (``inf`` for SNPs none contains), when the search was
        asked to collect it (``detect_candidates(collect_snp_minima=True)``);
        ``None`` otherwise.
    """

    best: Interaction
    top: List[Interaction]
    stats: ApproachStats
    snp_minima: np.ndarray | None = None

    @property
    def best_snps(self) -> tuple[int, ...]:
        """SNP indices of the best interaction."""
        return self.best.snps

    @property
    def best_score(self) -> float:
        """Score of the best interaction."""
        return self.best.score

    def contains(self, snps: Sequence[int]) -> bool:
        """Whether a given combination appears in the top list."""
        target = tuple(sorted(int(s) for s in snps))
        return any(tuple(sorted(i.snps)) == target for i in self.top)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"approach          : {self.stats.approach}",
            f"combinations      : {self.stats.n_combinations}",
            f"samples           : {self.stats.n_samples}",
            f"elapsed           : {self.stats.elapsed_seconds:.4f} s",
            f"throughput        : {self.stats.elements_per_second:.3e} elems/s",
            f"best interaction  : {self.best}",
        ]
        if len(self.top) > 1:
            lines.append("top interactions  :")
            lines.extend(f"  {i + 1}. {inter}" for i, inter in enumerate(self.top))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready representation (CLI ``--output`` export).

        Contains the run configuration, the top-k table (rank, SNP indices
        and names, score) and the per-device engine statistics, so detect
        runs compose with downstream tooling without scraping the text
        summary.
        """
        devices = self.stats.extra.get("devices", {})
        return {
            "run_id": self.stats.extra.get("run_id"),
            "approach": self.stats.approach,
            "order": self.stats.extra.get("order"),
            "schedule": self.stats.extra.get("schedule"),
            "candidates": self.stats.extra.get("candidates"),
            "n_combinations": int(self.stats.n_combinations),
            "n_samples": int(self.stats.n_samples),
            "n_workers": int(self.stats.n_workers),
            "elapsed_seconds": float(self.stats.elapsed_seconds),
            "elements_per_second": float(self.stats.elements_per_second),
            "devices": {
                label: {k: v for k, v in entry.items()}
                for label, entry in devices.items()
            },
            "top": [
                interaction_row(inter, i + 1) for i, inter in enumerate(self.top)
            ],
        }

    @staticmethod
    def from_scores(
        combos: np.ndarray,
        scores: np.ndarray,
        stats: ApproachStats,
        top_k: int = 10,
        snp_names: Sequence[str] | None = None,
    ) -> "DetectionResult":
        """Build a result from parallel arrays of combinations and scores."""
        combos = np.asarray(combos)
        scores = np.asarray(scores, dtype=np.float64)
        if combos.shape[0] != scores.shape[0]:
            raise ValueError("combos and scores must have the same length")
        if combos.shape[0] == 0:
            raise ValueError("cannot build a DetectionResult from zero combinations")
        top_k = min(top_k, scores.shape[0])
        order = np.argsort(scores, kind="stable")[:top_k]

        def _interaction(idx: int) -> Interaction:
            snps = tuple(int(s) for s in combos[idx])
            names = (
                tuple(snp_names[s] for s in snps) if snp_names is not None else None
            )
            return Interaction(snps=snps, score=float(scores[idx]), snp_names=names)

        top = [_interaction(i) for i in order]
        return DetectionResult(best=top[0], top=top, stats=stats)

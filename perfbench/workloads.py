"""The benchmark's workloads, their seeded inputs and the answer format.

Inputs are generated here, from the workload seed, with NumPy alone and
written as ``.npz`` archives in the layout ``repro.datasets.io.load_npz``
reads; the program under test only ever sees those files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Workload", "answer_of", "write_inputs"]

#: Approach, objective and ranking depth of every timed search.
APPROACH = "cpu-v4"
OBJECTIVE = "k2"
TOP_K = 10


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the search the benchmark runs on them."""

    name: str
    #: Seed-stream tag, so two workloads never draw the same inputs.
    stream: int
    n_snps: int
    n_samples: int
    order: int
    #: Staged search (screen at ``screen_order`` keeping ``keep_snps``,
    #: expand at ``order``, ``n_permutations`` null) instead of a sweep.
    staged: bool = False
    screen_order: int = 2
    keep_snps: int = 0
    n_permutations: int = 0
    #: Worker processes of the warm fleet (1 = in-process).
    workers: int = 1
    #: Sizes of the self-test variant.
    toy: dict = dataclasses.field(default_factory=dict, compare=False)

    @property
    def space(self) -> int:
        """Combinations of the exhaustive order-k search the workload answers."""
        return comb(self.n_snps, self.order)

    def scaled(self, toy: bool) -> "Workload":
        """The workload itself, or its toy-sized variant for the self-test."""
        return dataclasses.replace(self, **self.toy) if toy else self


WORKLOADS = {
    workload.name: workload
    for workload in (
        # The paper's sample count and the ROADMAP headline: per search
        # nearly all time is table building over 128 u64 words per class.
        Workload(
            "paper-k3", 0, n_snps=56, n_samples=16384, order=3,
            toy={"n_snps": 16, "n_samples": 512},
        ),
        # 4 words per class: per-combination overhead (scoring, tiling,
        # top-k, unranking, executor) is about half of a search.
        Workload(
            "wide-k2", 1, n_snps=1536, n_samples=512, order=2,
            toy={"n_snps": 96, "n_samples": 256},
        ),
        # The only workload entering pipeline, distributed and checkpoint,
        # and the only one re-packing encodings (the permutation null).
        Workload(
            "staged-fleet", 2, n_snps=512, n_samples=4096, order=3,
            staged=True, keep_snps=32, n_permutations=500, workers=2,
            toy={"n_snps": 40, "n_samples": 512, "keep_snps": 10, "n_permutations": 20},
        ),
    )
}


def make_inputs(workload: Workload, seed: int):
    """``(genotypes, phenotypes, planted)`` drawn from ``seed`` alone.

    Genotypes follow Hardy-Weinberg at minor-allele frequencies in
    ``[0.05, 0.5]``.  Sweeps get balanced random labels.  The staged
    workload plants a three-SNP interaction: carriers of a minor allele at
    all three SNPs are cases with probability 0.8, everyone else 0.45.
    """
    rng = np.random.default_rng([seed, workload.stream])
    m, n = workload.n_snps, workload.n_samples
    maf = rng.uniform(0.05, 0.5, size=m)
    planted = None
    if workload.staged:
        planted = np.sort(rng.choice(m, size=3, replace=False))
        maf[planted] = rng.uniform(0.25, 0.5, size=3)
    alleles = rng.random((2, m, n)) < maf[None, :, None]
    genotypes = alleles.sum(axis=0, dtype=np.int8)
    if planted is None:
        phenotypes = np.zeros(n, dtype=np.int8)
        phenotypes[rng.permutation(n)[: n // 2]] = 1
    else:
        carriers = (genotypes[planted] > 0).all(axis=0)
        phenotypes = (rng.random(n) < np.where(carriers, 0.8, 0.45)).astype(np.int8)
    return genotypes, phenotypes, planted


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, list | None]:
    """Write the workload's dataset for ``seed``; return its path and planted SNPs."""
    genotypes, phenotypes, planted = make_inputs(workload, seed)
    path = directory / f"{workload.name}-{seed}.npz"
    np.savez(path, genotypes=genotypes, phenotypes=phenotypes)
    return path, None if planted is None else [int(s) for s in planted]


def answer_of(top, p_values=None) -> dict:
    """Exact, comparable form of a search's answer.

    SNP tuples, float64 scores as hexadecimal (every bit) and, for staged
    searches, the empirical p-values the same way.
    """
    return {
        "top": [[[int(s) for s in inter.snps], float(inter.score).hex()] for inter in top],
        "p_values": None if p_values is None else [float(p).hex() for p in p_values],
    }

"""Baseline and comparator implementations.

Table III of the paper compares the best proposed approach against three
state-of-the-art third-order detectors:

* **MPI3SNP** (Ponte-Fernández et al.) — re-implemented here at the
  algorithmic level (:mod:`repro.baselines.mpi3snp`): static partitioning of
  the combination space across ranks (threads or OS processes), binarised
  kernel without cache blocking or layout tiling, scalar (64-bit) population
  counts on the CPU.  A companion analytical model predicts its throughput
  on the catalogued devices.
* **Nobre et al. [29]** (CPU+GPU CUDA) and **Campos et al. [30]**
  (CPU+iGPU) — no source is available to re-implement faithfully, so their
  *published/measured throughputs* on the relevant devices are recorded as
  data (:mod:`repro.baselines.reported`) and used verbatim in the Table III
  harness, exactly as the paper itself does for [30].
* A **pure-Python/NumPy brute-force reference**
  (:mod:`repro.baselines.reference`) used as the correctness oracle for all
  optimised kernels.
"""

from repro.baselines.reference import BruteForceReference
from repro.baselines.mpi3snp import Mpi3snpBaseline, estimate_mpi3snp_throughput
from repro.baselines.reported import REPORTED_RESULTS, ReportedResult, reported_throughput

__all__ = [
    "BruteForceReference",
    "Mpi3snpBaseline",
    "estimate_mpi3snp_throughput",
    "ReportedResult",
    "REPORTED_RESULTS",
    "reported_throughput",
]

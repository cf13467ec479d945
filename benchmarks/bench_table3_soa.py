"""Table III — comparison with the state of the art.

The artefact is the paper-vs-reproduction comparison table (throughputs and
speedups for MPI3SNP, [29] and [30]).  The benchmark timings measure the
functional MPI3SNP-style baseline against the best approach on the same
dataset, so a *measured* speedup accompanies the modelled one.
"""

from __future__ import annotations

from conftest import write_artifact

from repro.baselines import Mpi3snpBaseline
from repro.core import EpistasisDetector
from repro.experiments.table3 import format_table3, run_table3, summary_speedups


def test_table3_regeneration(benchmark):
    rows = benchmark(run_table3)
    assert len(rows) == 15
    # Every measured MPI3SNP row must show this work ahead, with the gap
    # growing from the 10000-SNP to the 40000-SNP dataset on the GPUs.
    mpi = {
        (r["device"], r["n_snps"]): r for r in rows if r["baseline"] == "mpi3snp"
    }
    for dev in ("GN2", "GN3", "CI3", "CA2"):
        assert mpi[(dev, 10000)]["repro_speedup"] > 1.0
    assert mpi[("GN2", 40000)]["repro_speedup"] > mpi[("GN2", 10000)]["repro_speedup"]
    assert mpi[("GN3", 40000)]["repro_speedup"] > mpi[("GN3", 10000)]["repro_speedup"]
    # Against the hand-tuned CUDA tool [29] the model stays within ~±20%.
    nobre = {r["device"]: r for r in rows if r["baseline"] == "nobre2020"}
    for dev in ("GN1", "GN2", "GN3", "GN4"):
        assert 0.75 < nobre[dev]["repro_speedup"] < 1.25
    # Against [30] the gap is roughly an order of magnitude (paper: 10.5x).
    campos = {r["device"]: r for r in rows if r["baseline"] == "campos2020"}
    assert campos["GI1"]["repro_speedup"] > 5.0
    agg = summary_speedups()
    assert agg["overall_mean_speedup"] > 1.5
    write_artifact("table3_soa.txt", format_table3())


def test_table3_measured_speedup_vs_mpi3snp(benchmark, small_dataset):
    """Measured wall-clock speedup of cpu-v4 over the MPI3SNP-style baseline."""
    baseline = Mpi3snpBaseline(n_ranks=2, chunk_size=1024)
    ours = EpistasisDetector(approach="cpu-v4", n_workers=2, chunk_size=1024)

    baseline_result = baseline.detect(small_dataset)
    ours_result = benchmark(ours.detect, small_dataset)

    assert ours_result.best_snps == baseline_result.best_snps
    assert ours_result.stats.elements == baseline_result.stats.elements

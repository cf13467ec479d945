"""§V-D — CPU vs GPU comparison, heterogeneous projection, energy efficiency."""

from __future__ import annotations

from conftest import write_artifact

from repro.devices import gpu
from repro.experiments.comparison import (
    format_comparison,
    run_device_comparison,
    run_heterogeneous,
)
from repro.perfmodel import energy_efficiency


def test_comparison_regeneration(benchmark):
    rows = benchmark(run_device_comparison)
    by = {r["device"]: r for r in rows}
    # §V-D: NVIDIA/AMD discrete GPUs deliver >1000 G elements/s; the best CPU
    # (Ice Lake SP) reaches roughly half of the Titan RTX.
    assert by["GN3"]["total_gelements_per_s"] > 1000
    assert by["GA2"]["total_gelements_per_s"] > 1000
    assert 0.3 < by["CI3"]["total_gelements_per_s"] / by["GN3"]["total_gelements_per_s"] < 0.8
    # Energy efficiency: the Intel Iris Xe MAX wins despite its modest speed.
    best_efficiency = max(rows, key=lambda r: r["gelements_per_joule"])
    assert best_efficiency["device"] == "GI2"
    assert by["GI2"]["gelements_per_joule"] > by["GN3"]["gelements_per_joule"]
    write_artifact("comparison_vd.txt", format_comparison())


def test_heterogeneous_projection(benchmark):
    rows = benchmark(run_heterogeneous)
    by = {(r["cpu"], r["gpu"]): r for r in rows}
    ci3_gn1 = by[("CI3", "GN1")]
    # The paper projects ~3300 G elements/s for Ice Lake SP + Titan Xp; the
    # reproduction should land in the same band and, crucially, show the CPU
    # contributing a sizeable share only for the fast CPUs.
    assert 2000 < ci3_gn1["combined_gelements_per_s"] < 4500
    assert ci3_gn1["cpu_contribution_pct"] > 20
    assert by[("CI1", "GN3")]["cpu_contribution_pct"] < 5


def test_energy_efficiency_benchmark(benchmark):
    value = benchmark(energy_efficiency, gpu("GI2"))
    assert value > energy_efficiency(gpu("GN3"))

"""Per-approach operation and traffic characterisation.

For every approach version this module derives, per *evaluated element*
(one combination x one sample, the paper's throughput unit):

* the number of integer operations executed (the CARM y-axis is GINTOPS),
* the number of bytes moved from memory (the CARM x-axis is intops/byte),
* and which memory level predominantly serves those bytes (the blocked and
  tiled approaches hit L1/L2; the naïve ones stream from L3/DRAM).

The counts use the same per-word instruction mixes the approaches charge
(:mod:`repro.core.approaches._kernels`), so the analytical characterisation
and the run counters agree by construction; tests assert this.  Both are
the paper's *modelled* work, not a trace of the NumPy execution: the split
kernel charges ``k`` NORs and ``3^k`` AND+POPCNT cells per word (57
instructions at ``k = 3``), while it actually popcounts only the ``2^k``
stored-plane cells and derives the genotype-2 cells exactly.

All figures here are per **paper word** — the 32-bit word
(:data:`~repro.bitops.packing.WORD_BITS`) the §IV accounting is expressed
in.  The kernels may execute in a wider machine-word layout
(:class:`~repro.bitops.packing.WordLayout`, ``uint64`` by default on
NumPy >= 2); they convert machine words to paper words at the charging
boundary, so every count that reaches this model is already in paper-word
units and the CARM placement is layout-independent.

The same boundary covers the fused build+score path: fusing the table
construction into the objective changes *where* real intermediate values
live (registers instead of a materialised table array), never the §IV
modelled work — exactly as cache blocking "does not affect the amount of
memory transfers and performed computations" (§IV-A).  The approach layer
charges the identical per-paper-word mixes whether a chunk was scored
through ``build_tables`` + ``objective.score`` or through the fused
``score_combinations`` capability, so op counts, modelled traffic and the
CARM placement are bit-identical with fusion on or off; tests assert this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bitops.packing import WORD_BITS
from repro.core.approaches._kernels import (
    naive_ops_per_combo_word,
    split_ops_per_combo_word,
)

__all__ = ["ApproachCounts", "approach_counts", "CPU_SERVING_LEVEL", "GPU_SERVING_LEVEL"]

#: Memory level that predominantly serves each CPU approach's loads.
CPU_SERVING_LEVEL: Dict[int, str] = {1: "L3", 2: "L3", 3: "L2", 4: "L1"}

#: Memory level that predominantly serves each GPU approach's loads.
GPU_SERVING_LEVEL: Dict[int, str] = {1: "DRAM", 2: "DRAM", 3: "L3", 4: "SLM"}


@dataclass(frozen=True)
class ApproachCounts:
    """Operation/traffic characterisation of one approach on one dataset.

    Attributes
    ----------
    version:
        Approach version 1–4.
    ops_per_element:
        Integer operations per (combination x sample) element.
    bytes_per_element:
        Bytes loaded per element.
    serving_level:
        Cache/memory level that serves the loads (for roof selection).
    ops_per_combo_word / loads_per_combo_word:
        The underlying per-word mix (operations exclude the loads).
    """

    version: int
    ops_per_element: float
    bytes_per_element: float
    serving_level: str
    ops_per_combo_word: float
    loads_per_combo_word: float
    order: int = 3

    @property
    def arithmetic_intensity(self) -> float:
        """Integer operations per byte (CARM x-axis)."""
        return self.ops_per_element / self.bytes_per_element

    def total_ops(self, n_combinations: int, n_samples: int) -> float:
        """Total integer operations of an exhaustive run."""
        return self.ops_per_element * n_combinations * n_samples

    def total_bytes(self, n_combinations: int, n_samples: int) -> float:
        """Total bytes moved by an exhaustive run."""
        return self.bytes_per_element * n_combinations * n_samples


def _mix_totals(mix: Dict[str, float]) -> tuple[float, float]:
    """(compute ops, loads) per combination per word from a mnemonic mix."""
    loads = mix.get("LOAD", 0.0)
    # NOR is the semantic count; OR/XOR are its expansion — avoid counting
    # both (the paper counts NOR as a single instruction).
    ops = sum(v for k, v in mix.items() if k not in ("LOAD", "STORE", "OR", "XOR"))
    return ops, loads


def approach_counts(
    version: int, device: str = "cpu", order: int = 3
) -> ApproachCounts:
    """Characterise approach ``version`` (1–4) on ``device`` ("cpu" or "gpu").

    Versions 1 uses the naïve mix (3 planes + phenotype over all samples);
    versions 2–4 use the phenotype-split mix (per-class planes, genotype-2
    inferred).  Versions only differ in *where* their bytes come from — the
    key property the paper exploits: "cache blocking techniques do not affect
    the amount of memory transfers and performed computations" (§IV-A).

    ``order`` selects the interaction order ``k`` of the characterised
    search: compute grows with the ``3^k`` genotype cells while traffic
    grows only linearly in ``k``, so arithmetic intensity rises steeply
    with the order.
    """
    if version not in (1, 2, 3, 4):
        raise ValueError("approach version must be 1, 2, 3 or 4")
    if device not in ("cpu", "gpu"):
        raise ValueError("device must be 'cpu' or 'gpu'")

    if version == 1:
        ops_word, loads_word = _mix_totals(naive_ops_per_combo_word(order))
        # One word covers WORD_BITS samples of the full (unsplit) stream.
        ops_per_element = ops_word / WORD_BITS
        bytes_per_element = loads_word * 4.0 / WORD_BITS
    else:
        ops_word, loads_word = _mix_totals(split_ops_per_combo_word(order))
        # One word covers WORD_BITS samples of one phenotype class; summing
        # the two classes covers every sample exactly once, so the
        # per-element figures are identical to the single-class ones.
        ops_per_element = ops_word / WORD_BITS
        bytes_per_element = loads_word * 4.0 / WORD_BITS

    serving = (CPU_SERVING_LEVEL if device == "cpu" else GPU_SERVING_LEVEL)[version]
    return ApproachCounts(
        version=version,
        ops_per_element=ops_per_element,
        bytes_per_element=bytes_per_element,
        serving_level=serving,
        ops_per_combo_word=ops_word,
        loads_per_combo_word=loads_word,
        order=order,
    )

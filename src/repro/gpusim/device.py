"""The simulated GPU device: kernel launches, statistics, cycle estimates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.devices.specs import GpuSpec
from repro.gpusim.grid import NDRange, WorkItem
from repro.gpusim.memory import AccessLog, TRANSACTION_BYTES

__all__ = ["KernelContext", "LaunchStats", "SimulatedGpu"]


class KernelContext:
    """Per-thread execution context handed to simulated kernels.

    The context carries the work-item identity, the launch-wide access log
    and the instruction counters; kernels perform *all* their global loads
    and population counts through it so the launch statistics are complete.
    """

    def __init__(self, item: WorkItem, log: AccessLog, counters: Dict[str, int]) -> None:
        self.item = item
        self._log = log
        self._counters = counters
        self._slot = 0

    # -- memory --------------------------------------------------------------
    def load(self, buffer, *index: int) -> int:
        """Load one packed word from a device buffer (logged)."""
        value = buffer.load(self._log, self.item.subgroup_id, self._slot, *index)
        self._slot += 1
        self._counters["LOAD"] = self._counters.get("LOAD", 0) + 1
        return value

    # -- arithmetic ------------------------------------------------------------
    def op(self, mnemonic: str, count: int = 1) -> None:
        """Charge ``count`` executions of an arithmetic instruction."""
        self._counters[mnemonic] = self._counters.get(mnemonic, 0) + count

    def popcount(self, word: int, paper_words: int = 1) -> int:
        """Population count of one packed word.

        ``paper_words`` is the word's width in the paper's 32-bit units
        (2 for a ``uint64`` layout word); the charge stays per paper word
        so instruction statistics are layout-independent.
        """
        self.op("POPCNT", paper_words)
        return int(word & ((1 << (32 * paper_words)) - 1)).bit_count()


@dataclass
class LaunchStats:
    """Aggregate statistics of one kernel launch."""

    n_threads: int
    n_active_threads: int
    instructions: Dict[str, int]
    warp_load_instructions: int
    memory_transactions: int
    transactions_per_warp_load: float
    bytes_loaded: int
    estimated_cycles: Optional[float] = None
    bound: str = ""


class SimulatedGpu:
    """Executes kernels over an ND-range and derives launch statistics.

    Parameters
    ----------
    spec:
        Catalogued GPU whose throughput figures convert instruction and
        transaction counts into a cycle estimate.  ``None`` skips the cycle
        estimate (functional mode).
    """

    def __init__(self, spec: GpuSpec | None = None) -> None:
        self.spec = spec

    def launch(
        self,
        kernel: Callable[[KernelContext], object],
        ndrange: NDRange,
    ) -> tuple[List[object], LaunchStats]:
        """Run ``kernel`` for every work-item of ``ndrange``.

        The kernel receives a :class:`KernelContext` and returns either a
        per-thread result or ``None`` (idle thread, e.g. the ``i2 > i1 > i0``
        filter of Algorithm 2).  Results are collected in dispatch order.
        """
        log = AccessLog()
        counters: Dict[str, int] = {}
        results: List[object] = []
        active = 0
        for item in ndrange:
            ctx = KernelContext(item, log, counters)
            out = kernel(ctx)
            if out is not None:
                results.append(out)
                active += 1

        stats = LaunchStats(
            n_threads=ndrange.total_items,
            n_active_threads=active,
            instructions=dict(counters),
            warp_load_instructions=log.warp_load_instructions,
            memory_transactions=log.total_transactions,
            transactions_per_warp_load=log.transactions_per_warp_load,
            bytes_loaded=log.total_bytes,
        )
        if self.spec is not None:
            stats.estimated_cycles, stats.bound = self._estimate_cycles(stats)
        return results, stats

    # -- performance estimate ------------------------------------------------------
    def _estimate_cycles(self, stats: LaunchStats) -> tuple[float, str]:
        """Convert instruction/transaction counts into a device-cycle estimate.

        Three throughput limits are considered, mirroring the analytical
        model: the POPCNT issue rate per CU, the generic integer issue rate
        per CU and the DRAM transaction bandwidth.
        """
        spec = self.spec
        assert spec is not None
        popcnt = stats.instructions.get("POPCNT", 0)
        integer = sum(
            v for k, v in stats.instructions.items() if k not in ("POPCNT", "LOAD")
        )
        popcnt_cycles = popcnt / (spec.popcnt_per_cu * spec.compute_units)
        int_cycles = integer / (spec.int_ops_per_cu_per_cycle * spec.compute_units)
        dram_bytes_per_cycle = spec.dram_bandwidth_gbps / spec.boost_freq_ghz
        memory_cycles = stats.memory_transactions * TRANSACTION_BYTES / dram_bytes_per_cycle
        cycles = max(popcnt_cycles, int_cycles, memory_cycles)
        if cycles == memory_cycles and memory_cycles > popcnt_cycles:
            bound = "memory"
        elif cycles == popcnt_cycles:
            bound = "popcnt"
        else:
            bound = "integer"
        return cycles, bound

"""Shared machinery of the GPU approaches.

The GPU approaches assign one thread per SNP triplet (Algorithm 2) and keep
each thread's 27x2 frequency table in private memory (registers), so no
inter-thread synchronisation is needed.  What distinguishes the four variants
is *how the packed words are laid out in device memory* and therefore how
many memory transactions a warp's worth of loads generates:

* SNP-major layouts (V1, V2) put consecutive words of the *same* SNP next to
  each other, so the 32 threads of a warp (each working on a different SNP
  triplet) hit 32 different cache lines — fully uncoalesced, 32 transactions
  per warp load.
* The transposed layout (V3) puts the same word index of consecutive SNPs
  next to each other — one coalesced transaction per warp load.
* The tiled layout (V4) additionally keeps a block of ``BS`` SNPs adjacent
  per word index, preserving coalescing while shrinking the reuse distance
  of each loaded line.

The functional results of all variants are identical; the classes record the
coalescing factor and per-warp transaction counts that the GPU performance
model and the CARM characterisation consume.
"""

from __future__ import annotations

from typing import ClassVar


from repro.core.approaches.base import Approach

__all__ = ["GpuApproachBase", "WARP_SIZE"]

#: Threads per warp/wavefront used for the coalescing accounting.  NVIDIA
#: warps have 32 threads, Intel SIMD32 dispatches 32 work-items and AMD
#: RDNA wavefronts are 32 wide (GCN/CDNA use 64); 32 is the common
#: denominator used by the model.
WARP_SIZE: int = 32


class GpuApproachBase(Approach):
    """Base class for GPU approaches: adds coalescing accounting."""

    device = "gpu"
    #: Number of 32-byte memory transactions issued per warp-wide 4-byte
    #: load.  1.0 means perfectly coalesced (the warp's 128 bytes are served
    #: by 4 consecutive 32-byte transactions counted as one "request" unit);
    #: ``WARP_SIZE`` means one transaction per thread.
    coalescing_factor: ClassVar[float] = float(WARP_SIZE)

    def reset_counter(self) -> None:
        super().reset_counter()
        self._warp_load_requests = 0
        self._memory_transactions = 0.0

    @property
    def backend_name(self) -> str:
        # GPU approaches execute on the functional simulator whatever
        # backend is configured: gpusim is the modelled twin that owns the
        # coalescing/transaction accounting of §IV.
        return "gpusim"

    def _charge_warp_loads(self, n_combos: int, loads_per_combo_word: float,
                           n_words: int) -> None:
        """Record global-memory transactions for a batch of combinations.

        ``loads_per_combo_word`` is the number of 4-byte loads each thread
        issues per packed word of its combination (6 for the split kernels,
        10 for the naïve kernel).  Threads are grouped into warps of
        :data:`WARP_SIZE`; each warp-wide load becomes
        ``coalescing_factor`` transactions.
        """
        n_warps = (n_combos + WARP_SIZE - 1) // WARP_SIZE
        requests = n_warps * loads_per_combo_word * n_words
        self._warp_load_requests += int(requests)
        self._memory_transactions += requests * self.coalescing_factor

    def extra_stats(self) -> dict:
        return {
            "coalescing_factor": self.coalescing_factor,
            "warp_load_requests": self._warp_load_requests,
            "memory_transactions": self._memory_transactions,
            "warp_size": WARP_SIZE,
        }

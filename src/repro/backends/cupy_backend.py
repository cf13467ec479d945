"""CuPy backend: the table kernels on a real CUDA device.

One CUDA block computes one ``(combination, genotype cell)`` pair: the
block's threads stride the packed words, AND the selected planes (the
split family infers genotype 2 with ``NOR`` + padding mask on the fly),
accumulate ``__popc``/``__popcll`` results in registers and reduce through
shared memory.  The grid is ``(n_combos, 3^k)``, so a 2048-combination
chunk at ``k = 3`` launches 55k independent blocks — ample occupancy
without inter-block synchronisation, exactly the thread-per-triplet
independence of the paper's Algorithm 2.

Host planes are uploaded once per (array, device) pair through a small
keyed cache, so chunked detection re-uses the resident planes instead of
re-transferring them for every scheduler chunk.  Results come back as host
``int64`` counts, bit-exact with the NumPy reference.

:mod:`repro.gpusim` remains the *modelled* twin: it still owns the
coalescing/transaction accounting of §IV whatever backend executes, and the
``gpu-v*`` approaches keep running on it.  This backend plugs the split
kernel of the ``cpu-v2+`` approaches into a physical device instead.

Everything cupy is imported lazily; importing this module never requires a
GPU or the cupy package.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.backends.base import ExecutionBackend, cell_digits
from repro.bitops.packing import layout_of

__all__ = ["CupyBackend"]

#: Threads per block of the reduction kernels (power of two).
_BLOCK = 128

_KERNEL_SOURCE = r"""
extern "C" {{

__global__ void split_counts(
    const {word}* __restrict__ planes,
    const {word}* __restrict__ mask,
    const long long* __restrict__ combos,
    const long long* __restrict__ digits,
    long long* __restrict__ out,
    const int n_words,
    const int order,
    const int n_cells)
{{
    const int combo = blockIdx.x;
    const int cell = blockIdx.y;
    const long long* snps = combos + (long long)combo * order;
    const long long* dig = digits + (long long)cell * order;
    long long acc = 0;
    for (int w = threadIdx.x; w < n_words; w += blockDim.x) {{
        {word} value = ({word})(~({word})0);
        for (int t = 0; t < order; ++t) {{
            const {word}* snp = planes + snps[t] * 2LL * n_words;
            const {word} p0 = snp[w];
            const {word} p1 = snp[n_words + w];
            const long long d = dig[t];
            const {word} plane =
                (d == 0) ? p0 :
                (d == 1) ? p1 : ({word})(~(p0 | p1) & mask[w]);
            value &= plane;
        }}
        acc += {popc}(value);
    }}
    __shared__ long long partial[{block}];
    partial[threadIdx.x] = acc;
    __syncthreads();
    for (int stride = {block} / 2; stride > 0; stride >>= 1) {{
        if (threadIdx.x < stride)
            partial[threadIdx.x] += partial[threadIdx.x + stride];
        __syncthreads();
    }}
    if (threadIdx.x == 0)
        out[(long long)combo * n_cells + cell] = partial[0];
}}

__global__ void naive_tables(
    const {word}* __restrict__ planes,
    const {word}* __restrict__ phen,
    const long long* __restrict__ combos,
    const long long* __restrict__ digits,
    long long* __restrict__ out,
    const int n_words,
    const int order,
    const int n_cells)
{{
    const int combo = blockIdx.x;
    const int cell = blockIdx.y;
    const long long* snps = combos + (long long)combo * order;
    const long long* dig = digits + (long long)cell * order;
    long long controls = 0;
    long long cases = 0;
    for (int w = threadIdx.x; w < n_words; w += blockDim.x) {{
        {word} value = ({word})(~({word})0);
        for (int t = 0; t < order; ++t) {{
            const {word}* snp = planes + snps[t] * 3LL * n_words;
            value &= snp[dig[t] * (long long)n_words + w];
        }}
        const {word} ph = phen[w];
        cases += {popc}(({word})(value & ph));
        // Plane padding bits are zero, so ~phenotype cannot count padding.
        controls += {popc}(({word})(value & ({word})~ph));
    }}
    __shared__ long long partial[2 * {block}];
    partial[threadIdx.x] = controls;
    partial[{block} + threadIdx.x] = cases;
    __syncthreads();
    for (int stride = {block} / 2; stride > 0; stride >>= 1) {{
        if (threadIdx.x < stride) {{
            partial[threadIdx.x] += partial[threadIdx.x + stride];
            partial[{block} + threadIdx.x] += partial[{block} + threadIdx.x + stride];
        }}
        __syncthreads();
    }}
    if (threadIdx.x == 0) {{
        const long long base = ((long long)combo * n_cells + cell) * 2LL;
        out[base] = partial[0];
        out[base + 1] = partial[{block}];
    }}
}}

}}
"""


class CupyBackend(ExecutionBackend):
    """Split/naïve table kernels on a physical CUDA device via CuPy."""

    name = "cupy"
    kind = "gpu"
    description = "CUDA RawKernel execution on a real device (via cupy)"

    _availability: tuple[bool, str] | None = None

    #: Compiled RawKernel pairs keyed by layout name.
    _modules: Dict[str, Tuple[object, object]] = {}

    def __init__(self) -> None:
        # Uploaded device planes keyed by (host pointer, shape, dtype); a
        # bounded FIFO so long sweeps over one encoding never re-transfer,
        # while throw-away probe arrays cannot grow device memory unboundedly.
        self._device_cache: Dict[tuple, object] = {}
        self._device_cache_limit = 16

    @classmethod
    def availability(cls) -> tuple[bool, str]:
        if cls._availability is None:
            try:
                import cupy

                cupy.cuda.runtime.getDeviceCount()
                cls._availability = (True, cupy.__version__)
            except Exception as exc:  # pragma: no cover - host-dependent
                cls._availability = (False, f"cupy unavailable ({exc})")
        return cls._availability

    # -- device helpers --------------------------------------------------------
    def _kernels(self, layout_name: str) -> Tuple[object, object]:
        pair = self._modules.get(layout_name)
        if pair is None:
            import cupy

            from repro.telemetry import metric_inc, span_or_null

            word = "unsigned long long" if layout_name == "u64" else "unsigned int"
            popc = "__popcll" if layout_name == "u64" else "__popc"
            source = _KERNEL_SOURCE.format(word=word, popc=popc, block=_BLOCK)
            with span_or_null(
                "backend.compile", backend="cupy", layout=layout_name
            ):
                module = cupy.RawModule(code=source)
                pair = (
                    module.get_function("split_counts"),
                    module.get_function("naive_tables"),
                )
            metric_inc("backend.compiles")
            self._modules[layout_name] = pair
        return pair

    def _device_array(self, host: np.ndarray):
        """Upload ``host`` once; later calls return the resident copy."""
        import cupy

        host = np.ascontiguousarray(host)
        key = (host.__array_interface__["data"][0], host.shape, host.dtype.str)
        cached = self._device_cache.get(key)
        if cached is None:
            if len(self._device_cache) >= self._device_cache_limit:
                self._device_cache.pop(next(iter(self._device_cache)))
            cached = cupy.asarray(host)
            self._device_cache[key] = cached
        return cached

    # -- kernel contracts ------------------------------------------------------
    def naive_tables(
        self,
        planes: np.ndarray,
        phenotype_words: np.ndarray,
        combos: np.ndarray,
    ) -> np.ndarray:
        import cupy

        combos = np.ascontiguousarray(combos, dtype=np.int64)
        n_combos, order = combos.shape
        cells = 3 ** int(order)
        out = np.zeros((n_combos, cells, 2), dtype=np.int64)
        if n_combos == 0 or planes.shape[2] == 0:
            return out
        layout = layout_of(planes)
        _, kernel = self._kernels(layout.name)
        d_out = cupy.zeros((n_combos, cells, 2), dtype=cupy.int64)
        kernel(
            (n_combos, cells),
            (_BLOCK,),
            (
                self._device_array(planes),
                self._device_array(np.asarray(phenotype_words, dtype=planes.dtype)),
                cupy.asarray(combos),
                cupy.asarray(cell_digits(int(order))),
                d_out,
                np.int32(planes.shape[2]),
                np.int32(order),
                np.int32(cells),
            ),
        )
        return cupy.asnumpy(d_out)

    def split_class_counts(
        self,
        class_planes: np.ndarray,
        padding_mask: np.ndarray,
        combos: np.ndarray,
        pairs=None,
    ) -> np.ndarray:
        import cupy

        combos = np.ascontiguousarray(combos, dtype=np.int64)
        n_combos, order = combos.shape
        cells = 3 ** int(order)
        out = np.zeros((n_combos, cells), dtype=np.int64)
        if n_combos == 0 or class_planes.shape[2] == 0:
            return out
        layout = layout_of(class_planes)
        kernel, _ = self._kernels(layout.name)
        d_out = cupy.zeros((n_combos, cells), dtype=cupy.int64)
        kernel(
            (n_combos, cells),
            (_BLOCK,),
            (
                self._device_array(class_planes),
                self._device_array(
                    np.asarray(padding_mask, dtype=class_planes.dtype)
                ),
                cupy.asarray(combos),
                cupy.asarray(cell_digits(int(order))),
                d_out,
                np.int32(class_planes.shape[2]),
                np.int32(order),
                np.int32(cells),
            ),
        )
        return cupy.asnumpy(d_out)

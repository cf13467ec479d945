"""Numba-JIT backend: compiled popcount+contingency hot loops.

Both kernel families are compiled to ``nopython`` machine code with
``prange`` parallelism over the combination batch.  The inner loop streams
the packed words of one combination once, keeps the ``3^k`` partial counts
in a thread-local accumulator and resolves each genotype cell through the
precomputed radix-3 digit table of :func:`repro.backends.base.cell_digits`
— no broadcast intermediates, O(1) transient memory per thread whatever
the sample count.

The population count is a SWAR (SIMD-within-a-register) sequence over
``uint64`` with explicitly typed constants: numba follows NumPy's scalar
promotion rules, where a ``uint64``/``int64`` mix decays to ``float64``, so
every mask and shift amount is pinned to ``np.uint64``.  ``uint32`` words
are zero-extended through the same path, which lets one compiled body
serve both word layouts (bit patterns are preserved either way).

On top of the table-building kernels, the backend compiles **fused
build+score** variants of both families for the K2 and Gini objectives:
the per-combination cell counts stay in thread-local accumulators and are
folded straight into the score (K2 through the per-dataset log-factorial
table, Gini through exact rational cell arithmetic) using a verbatim
replica of NumPy's pairwise float64 summation — no table batch is ever
written, and the scores are bit-identical to materialize-then-score.

Compilation is cached in-process, keyed by ``(family, order, layout)``
(fused kernels add the objective kind to the key); the first call per key
pays the JIT cost (~1 s), later calls dispatch directly.  Everything numba is imported lazily: importing this module on a
host without numba succeeds, and :meth:`NumbaBackend.availability` reports
the reason.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.backends.base import ExecutionBackend, cell_digits
from repro.bitops.packing import layout_of

__all__ = ["NumbaBackend"]

#: Lazily built jit helpers shared by both kernel factories.
_TOOLS: Dict[str, object] = {}

#: Compiled dispatchers keyed by ``(family, order, layout_name)``.
_KERNEL_CACHE: Dict[Tuple[str, int, str], Callable] = {}

#: Compiled fused dispatchers keyed by ``(family, kind, order, layout_name)``.
_FUSED_CACHE: Dict[Tuple[str, str, int, str], Callable] = {}


def _jit_tools() -> Dict[str, object]:
    """Import numba and build the shared jitted helpers (once)."""
    if _TOOLS:
        return _TOOLS
    from numba import njit

    # SWAR popcount constants, all pinned to uint64 so the arithmetic never
    # decays to float64 under NumPy promotion (uint64 op int64 -> float64).
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    s1 = np.uint64(1)
    s2 = np.uint64(2)
    s4 = np.uint64(4)
    s56 = np.uint64(56)

    @njit(inline="always")
    def popcount(word):
        v = np.uint64(word)
        v = v - ((v >> s1) & m1)
        v = (v & m2) + ((v >> s2) & m2)
        v = (v + (v >> s4)) & m4
        return np.int64((v * h01) >> s56)

    # NumPy's pairwise float64 summation, replicated exactly so the fused
    # kernels' per-combination reductions are bit-identical to scoring a
    # materialized table batch with ``arr.sum(axis=-1)``.  The recursion of
    # the original bottoms out after one split for every cell count we sum
    # (``3^k <= 243`` cells at the maximum order 5), so the split is
    # unrolled once instead of recursing.
    @njit(inline="always")
    def pairwise_block(a, lo, n):
        # The <= 128 element body: 8-way accumulators, paired combine.
        if n < 8:
            res = 0.0
            for i in range(n):
                res += a[lo + i]
            return res
        r0 = a[lo]
        r1 = a[lo + 1]
        r2 = a[lo + 2]
        r3 = a[lo + 3]
        r4 = a[lo + 4]
        r5 = a[lo + 5]
        r6 = a[lo + 6]
        r7 = a[lo + 7]
        i = 8
        stop = n - (n % 8)
        while i < stop:
            r0 += a[lo + i]
            r1 += a[lo + i + 1]
            r2 += a[lo + i + 2]
            r3 += a[lo + i + 3]
            r4 += a[lo + i + 4]
            r5 += a[lo + i + 5]
            r6 += a[lo + i + 6]
            r7 += a[lo + i + 7]
            i += 8
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            res += a[lo + i]
            i += 1
        return res

    @njit(inline="always")
    def pairwise_sum(a, n):
        if n <= 128:
            return pairwise_block(a, 0, n)
        n2 = n // 2
        n2 -= n2 % 8
        return pairwise_block(a, 0, n2) + pairwise_block(a, n2, n - n2)

    _TOOLS["njit"] = njit
    _TOOLS["popcount"] = popcount
    _TOOLS["pairwise_sum"] = pairwise_sum
    return _TOOLS


def _compile_split(order: int):
    """Compile the phenotype-split kernel for one interaction order."""
    tools = _jit_tools()
    njit, popcount = tools["njit"], tools["popcount"]
    from numba import prange

    cells = 3**order

    @njit(parallel=True, nogil=True)
    def kernel(planes, mask, combos, digits, out):
        n_combos = combos.shape[0]
        n_words = planes.shape[2]
        for i in prange(n_combos):
            g = np.empty((order, 3), dtype=planes.dtype)
            counts = np.zeros(cells, dtype=np.int64)
            for w in range(n_words):
                for t in range(order):
                    s = combos[i, t]
                    p0 = planes[s, 0, w]
                    p1 = planes[s, 1, w]
                    g[t, 0] = p0
                    g[t, 1] = p1
                    g[t, 2] = ~(p0 | p1) & mask[w]
                for c in range(cells):
                    word = g[0, digits[c, 0]]
                    for t in range(1, order):
                        word &= g[t, digits[c, t]]
                    counts[c] += popcount(word)
            for c in range(cells):
                out[i, c] = counts[c]

    return kernel


def _compile_naive(order: int):
    """Compile the naïve three-plane kernel for one interaction order."""
    tools = _jit_tools()
    njit, popcount = tools["njit"], tools["popcount"]
    from numba import prange

    cells = 3**order

    @njit(parallel=True, nogil=True)
    def kernel(planes, phen, combos, digits, out):
        n_combos = combos.shape[0]
        n_words = planes.shape[2]
        for i in prange(n_combos):
            g = np.empty((order, 3), dtype=planes.dtype)
            counts = np.zeros((cells, 2), dtype=np.int64)
            for w in range(n_words):
                ph = phen[w]
                # Plane padding bits are zero, so AND-ing with ~phenotype is
                # safe even though the complement sets the padding bits.
                nph = ~ph
                for t in range(order):
                    s = combos[i, t]
                    g[t, 0] = planes[s, 0, w]
                    g[t, 1] = planes[s, 1, w]
                    g[t, 2] = planes[s, 2, w]
                for c in range(cells):
                    word = g[0, digits[c, 0]]
                    for t in range(1, order):
                        word &= g[t, digits[c, t]]
                    counts[c, 0] += popcount(word & nph)
                    counts[c, 1] += popcount(word & ph)
            for c in range(cells):
                out[i, c, 0] = counts[c, 0]
                out[i, c, 1] = counts[c, 1]

    return kernel


def _compile_split_fused(order: int, is_k2: bool):
    """Compile the fused split kernel (count both classes, score in place)."""
    tools = _jit_tools()
    njit, popcount = tools["njit"], tools["popcount"]
    pairwise_sum = tools["pairwise_sum"]
    from numba import prange

    cells = 3**order

    @njit(parallel=True, nogil=True)
    def kernel(cplanes, cmask, aplanes, amask, combos, digits, logfact, out):
        n_combos = combos.shape[0]
        n_cwords = cplanes.shape[2]
        n_awords = aplanes.shape[2]
        for i in prange(n_combos):
            g = np.empty((order, 3), dtype=cplanes.dtype)
            controls = np.zeros(cells, dtype=np.int64)
            cases = np.zeros(cells, dtype=np.int64)
            for w in range(n_cwords):
                for t in range(order):
                    s = combos[i, t]
                    p0 = cplanes[s, 0, w]
                    p1 = cplanes[s, 1, w]
                    g[t, 0] = p0
                    g[t, 1] = p1
                    g[t, 2] = ~(p0 | p1) & cmask[w]
                for c in range(cells):
                    word = g[0, digits[c, 0]]
                    for t in range(1, order):
                        word &= g[t, digits[c, t]]
                    controls[c] += popcount(word)
            for w in range(n_awords):
                for t in range(order):
                    s = combos[i, t]
                    p0 = aplanes[s, 0, w]
                    p1 = aplanes[s, 1, w]
                    g[t, 0] = p0
                    g[t, 1] = p1
                    g[t, 2] = ~(p0 | p1) & amask[w]
                for c in range(cells):
                    word = g[0, digits[c, 0]]
                    for t in range(1, order):
                        word &= g[t, digits[c, t]]
                    cases[c] += popcount(word)
            terms = np.empty(cells, dtype=np.float64)
            if is_k2:
                for c in range(cells):
                    c0 = controls[c]
                    c1 = cases[c]
                    terms[c] = logfact[c0 + c1 + 1] - (logfact[c0] + logfact[c1])
                out[i] = pairwise_sum(terms, cells)
            else:
                for c in range(cells):
                    terms[c] = np.float64(controls[c]) + np.float64(cases[c])
                total = pairwise_sum(terms, cells)
                if total == 0.0:
                    total = 1.0
                weighted = np.empty(cells, dtype=np.float64)
                for c in range(cells):
                    ct = terms[c]
                    safe = ct if ct != 0.0 else 1.0
                    p_case = np.float64(cases[c]) / safe
                    gini_cell = 2.0 * p_case * (1.0 - p_case)
                    weighted[c] = (ct / total) * gini_cell
                out[i] = pairwise_sum(weighted, cells)

    return kernel


def _compile_naive_fused(order: int, is_k2: bool):
    """Compile the fused naïve kernel (count under the phenotype, score)."""
    tools = _jit_tools()
    njit, popcount = tools["njit"], tools["popcount"]
    pairwise_sum = tools["pairwise_sum"]
    from numba import prange

    cells = 3**order

    @njit(parallel=True, nogil=True)
    def kernel(planes, phen, combos, digits, logfact, out):
        n_combos = combos.shape[0]
        n_words = planes.shape[2]
        for i in prange(n_combos):
            g = np.empty((order, 3), dtype=planes.dtype)
            controls = np.zeros(cells, dtype=np.int64)
            cases = np.zeros(cells, dtype=np.int64)
            for w in range(n_words):
                ph = phen[w]
                # Plane padding bits are zero, so AND-ing with ~phenotype is
                # safe even though the complement sets the padding bits.
                nph = ~ph
                for t in range(order):
                    s = combos[i, t]
                    g[t, 0] = planes[s, 0, w]
                    g[t, 1] = planes[s, 1, w]
                    g[t, 2] = planes[s, 2, w]
                for c in range(cells):
                    word = g[0, digits[c, 0]]
                    for t in range(1, order):
                        word &= g[t, digits[c, t]]
                    controls[c] += popcount(word & nph)
                    cases[c] += popcount(word & ph)
            terms = np.empty(cells, dtype=np.float64)
            if is_k2:
                for c in range(cells):
                    c0 = controls[c]
                    c1 = cases[c]
                    terms[c] = logfact[c0 + c1 + 1] - (logfact[c0] + logfact[c1])
                out[i] = pairwise_sum(terms, cells)
            else:
                for c in range(cells):
                    terms[c] = np.float64(controls[c]) + np.float64(cases[c])
                total = pairwise_sum(terms, cells)
                if total == 0.0:
                    total = 1.0
                weighted = np.empty(cells, dtype=np.float64)
                for c in range(cells):
                    ct = terms[c]
                    safe = ct if ct != 0.0 else 1.0
                    p_case = np.float64(cases[c]) / safe
                    gini_cell = 2.0 * p_case * (1.0 - p_case)
                    weighted[c] = (ct / total) * gini_cell
                out[i] = pairwise_sum(weighted, cells)

    return kernel


class NumbaBackend(ExecutionBackend):
    """JIT-compiled CPU kernels (``nopython`` + ``prange``)."""

    name = "numba"
    kind = "cpu"
    description = "Numba nopython+parallel JIT of both kernel families"

    _availability: tuple[bool, str] | None = None

    @classmethod
    def availability(cls) -> tuple[bool, str]:
        if cls._availability is None:
            try:
                import numba

                cls._availability = (True, numba.__version__)
            except Exception as exc:  # pragma: no cover - host-dependent
                cls._availability = (False, f"numba unavailable ({exc})")
        return cls._availability

    # -- compilation cache -----------------------------------------------------
    @classmethod
    def kernel_for(cls, family: str, order: int, layout_name: str) -> Callable:
        """The compiled dispatcher for ``(family, order, layout)``.

        The layout keys the cache for explicitness even though one compiled
        body serves both word widths — each entry owns its specialisation,
        and the calibration fingerprints line up one-to-one with cache keys.
        """
        key = (family, int(order), layout_name)
        kernel = _KERNEL_CACHE.get(key)
        if kernel is None:
            from repro.telemetry import metric_inc, span_or_null

            factory = _compile_split if family == "split" else _compile_naive
            with span_or_null(
                "backend.compile",
                backend="numba",
                family=family,
                order=int(order),
                layout=layout_name,
            ):
                kernel = factory(int(order))
            metric_inc("backend.compiles")
            _KERNEL_CACHE[key] = kernel
        return kernel

    @classmethod
    def fused_kernel_for(
        cls, family: str, kind: str, order: int, layout_name: str
    ) -> Callable:
        """The compiled fused build+score dispatcher for one configuration."""
        key = (family, kind, int(order), layout_name)
        kernel = _FUSED_CACHE.get(key)
        if kernel is None:
            from repro.telemetry import metric_inc, span_or_null

            factory = (
                _compile_split_fused if family == "split" else _compile_naive_fused
            )
            with span_or_null(
                "backend.compile",
                backend="numba",
                family=family,
                kind=kind,
                order=int(order),
                layout=layout_name,
            ):
                kernel = factory(int(order), kind == "k2")
            metric_inc("backend.compiles")
            _FUSED_CACHE[key] = kernel
        return kernel

    # -- kernel contracts ------------------------------------------------------
    def naive_tables(
        self,
        planes: np.ndarray,
        phenotype_words: np.ndarray,
        combos: np.ndarray,
    ) -> np.ndarray:
        combos = np.ascontiguousarray(combos, dtype=np.int64)
        order = int(combos.shape[1])
        out = np.zeros((combos.shape[0], 3**order, 2), dtype=np.int64)
        if combos.shape[0] == 0 or planes.shape[2] == 0:
            return out
        kernel = self.kernel_for("naive", order, layout_of(planes).name)
        kernel(
            np.ascontiguousarray(planes),
            np.ascontiguousarray(phenotype_words),
            combos,
            cell_digits(order),
            out,
        )
        return out

    def split_class_counts(
        self,
        class_planes: np.ndarray,
        padding_mask: np.ndarray,
        combos: np.ndarray,
        pairs=None,
    ) -> np.ndarray:
        combos = np.ascontiguousarray(combos, dtype=np.int64)
        order = int(combos.shape[1])
        out = np.zeros((combos.shape[0], 3**order), dtype=np.int64)
        if combos.shape[0] == 0 or class_planes.shape[2] == 0:
            return out
        kernel = self.kernel_for("split", order, layout_of(class_planes).name)
        kernel(
            np.ascontiguousarray(class_planes),
            np.ascontiguousarray(padding_mask),
            combos,
            cell_digits(order),
            out,
        )
        return out

    # -- fused build+score -----------------------------------------------------
    def score_combinations(
        self,
        family: str,
        combos: np.ndarray,
        objective,
        *,
        planes: np.ndarray | None = None,
        phenotype_words: np.ndarray | None = None,
        control_planes: np.ndarray | None = None,
        case_planes: np.ndarray | None = None,
        control_mask: np.ndarray | None = None,
        case_mask: np.ndarray | None = None,
        control_pairs=None,
        case_pairs=None,
    ) -> np.ndarray:
        """Fold K2/Gini scoring straight into the counting loop.

        Objectives that advertise a kernel-fusable spec (K2 via the
        per-dataset log-factorial table, Gini via exact rational cell
        arithmetic) are evaluated per combination inside the JIT kernel —
        no table batch exists even per tile.  The per-combination float64
        reduction replicates NumPy's pairwise summation, so the scores are
        bit-identical to the materialize-then-score path.  Everything else
        (mutual information, chi-squared, unprepared K2) delegates to the
        base-class per-tile materialization.
        """
        spec = objective.fused_spec() if hasattr(objective, "fused_spec") else None
        kind = spec.get("kind") if spec else None
        empty = combos.shape[0] == 0 or (
            planes.shape[2] == 0 if family == "naive" else
            control_planes.shape[2] == 0 and case_planes.shape[2] == 0
        )
        if kind not in ("k2", "gini") or empty:
            return super().score_combinations(
                family,
                combos,
                objective,
                planes=planes,
                phenotype_words=phenotype_words,
                control_planes=control_planes,
                case_planes=case_planes,
                control_mask=control_mask,
                case_mask=case_mask,
                control_pairs=control_pairs,
                case_pairs=case_pairs,
            )
        combos = np.ascontiguousarray(combos, dtype=np.int64)
        order = int(combos.shape[1])
        out = np.zeros(combos.shape[0], dtype=np.float64)
        if kind == "k2":
            logfact = np.ascontiguousarray(spec["logfact"], dtype=np.float64)
        else:
            logfact = np.zeros(1, dtype=np.float64)  # unused by the gini branch
        if family == "naive":
            kernel = self.fused_kernel_for(
                "naive", kind, order, layout_of(planes).name
            )
            kernel(
                np.ascontiguousarray(planes),
                np.ascontiguousarray(phenotype_words),
                combos,
                cell_digits(order),
                logfact,
                out,
            )
        else:
            kernel = self.fused_kernel_for(
                "split", kind, order, layout_of(control_planes).name
            )
            kernel(
                np.ascontiguousarray(control_planes),
                np.ascontiguousarray(control_mask),
                np.ascontiguousarray(case_planes),
                np.ascontiguousarray(case_mask),
                combos,
                cell_digits(order),
                logfact,
                out,
            )
        return out

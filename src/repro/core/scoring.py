"""Objective functions over genotype/phenotype frequency tables.

The paper uses the **Bayesian K2 score** (Equation 1): for a combination of
``k`` SNPs with frequency table ``r`` (``I = 3^k`` genotype combinations,
``J = 2`` phenotype classes),

.. math::

    K2 = \\sum_{i=1}^{I}\\Big(\\sum_{b=1}^{r_i + 1}\\log b
          \\;-\\; \\sum_{j=1}^{J}\\sum_{d=1}^{r_{ij}}\\log d\\Big)

where ``r_i`` is the total count of genotype combination ``i`` and ``r_ij``
the count restricted to phenotype ``j``.  The SNP combination with the
*lowest* score is reported.  Using ``sum_{b=1}^{n} log b = log(n!) =
gammaln(n + 1)`` the score is evaluated in closed form with
:func:`scipy.special.gammaln`, fully vectorised over batches of tables.

Because every table cell is an integer in ``[0, n_samples]``, the gammaln
evaluations are drawn from a tiny domain — yet the closed form recomputes
them for every ``(T, 3^k, 2)`` batch.  :meth:`K2Score.prepare` therefore
precomputes a per-dataset **log-factorial table** (``n_samples + 2``
float64 entries) once, and :meth:`K2Score.score` indexes it with the
integer counts: bit-identical results (the table *is* ``gammaln`` evaluated
at the same integer abscissae, summed in the same order) at a fraction of
the cost.  Non-integer or out-of-range input transparently falls back to
the scipy path.  The ``prepare`` hook is objective-level, so the other
criteria can precompute per-dataset state the same way.

``gammaln`` is imported on first use (:func:`_gammaln`, called by
:meth:`K2Score.prepare` and the fallback branch of :meth:`K2Score.score`),
so importing this module, or the package, loads no scipy module.

Additional objective functions (mutual information, Gini impurity,
chi-squared) are provided as drop-in alternatives; they follow the same
"lower is better" convention so the detector can minimise uniformly
(information-style criteria are negated).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Protocol, Type

import numpy as np

__all__ = [
    "ObjectiveFunction",
    "K2Score",
    "MutualInformationScore",
    "GiniScore",
    "ChiSquaredScore",
    "get_objective",
    "OBJECTIVES",
]


@lru_cache(maxsize=None)
def _gammaln():
    """``scipy.special.gammaln``, imported on the first call.

    A fresh process spends 0.2-0.4 s importing ``scipy.special``; resolving
    it here means only a process that scores K2 pays that.  Without scipy,
    CPython's own ``math.lgamma`` (not the C library's) stands in,
    vectorised so the call sites stay identical.  It does *not* match
    ``gammaln`` bit for bit: it differs on 10 998 of the integer abscissae
    1..20 001 (glibc's ``lgamma`` on 6 562), so a scipy-less install's K2
    scores differ from a scipy install's in the last bits.  Within one
    process they stay consistent: the log-factorial table and the fallback
    branch of :meth:`K2Score.score` both call the function returned here.
    """
    try:
        from scipy.special import gammaln
    except ImportError:  # pragma: no cover - scipy-less environments
        import math

        return np.vectorize(math.lgamma, otypes=[np.float64])
    return gammaln


class ObjectiveFunction(Protocol):
    """Protocol implemented by every objective function.

    Objective functions are stateless callables over batches of frequency
    tables; ``lower is better`` for all of them.
    """

    #: Registry name.
    name: str

    def prepare(self, dataset) -> None:
        """Precompute per-dataset state (optional, see ``_TableObjective``)."""
        ...

    def score(self, tables: np.ndarray) -> np.ndarray:
        """Score a batch of tables.

        Parameters
        ----------
        tables:
            ``(..., n_cells, 2)`` frequency tables.

        Returns
        -------
        numpy.ndarray
            ``(...)`` float64 scores (lower = more likely epistatic).
        """
        ...


class _TableObjective:
    """Shared input validation for the concrete objective functions."""

    name = "abstract"

    def prepare(self, dataset) -> None:
        """Hook: precompute per-dataset state before a run.

        The detector calls this once per ``detect``/stage run with the
        dataset about to be scored; objectives that can exploit the bounded
        integer count domain (``K2Score``'s log-factorial table) override
        it.  The default is a no-op, and objectives must stay correct when
        it was never called (direct ``score`` use, gpusim kernels).
        """

    def fused_spec(self) -> dict | None:
        """Kernel-fusable description of this objective, or ``None``.

        The fused execution path (``ExecutionBackend.score_combinations``)
        folds the objective into the counting kernel instead of scoring a
        materialized table batch.  Only objectives whose in-kernel
        evaluation is *bit-identical* to :meth:`score` may advertise a
        spec: K2 (pure table lookups plus a fixed-order summation) and
        Gini (exact rational cell arithmetic).  Objectives built on
        transcendental ``np.log`` evaluations (mutual information,
        chi-squared) return ``None`` — a compiled kernel's ``log`` is not
        guaranteed to match numpy's SIMD ``log`` bit for bit, so they run
        through the tiled materialize-then-score path instead.
        """
        return None

    @staticmethod
    def _check(tables: np.ndarray) -> np.ndarray:
        # C order: float reductions follow the memory layout, so a
        # Fortran-ordered or strided batch would otherwise score an ulp off.
        arr = np.ascontiguousarray(tables, dtype=np.float64)
        if arr.ndim < 2 or arr.shape[-1] != 2:
            raise ValueError(
                f"tables must have shape (..., n_cells, 2); got {arr.shape}"
            )
        if (arr < 0).any():
            raise ValueError("frequency tables contain negative counts")
        return arr

    def __call__(self, tables: np.ndarray) -> np.ndarray:
        return self.score(tables)

    def score(self, tables: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class K2Score(_TableObjective):
    """Bayesian K2 score (Equation 1 of the paper); lower is better.

    Parameters
    ----------
    precompute:
        When ``True`` (default), :meth:`prepare` builds the per-dataset
        log-factorial lookup table and :meth:`score` indexes it with the
        integer counts — bit-identical to the closed-form ``gammaln`` path.
        ``False`` pins the scipy path (used by the hot-path benchmark to
        measure the pre-table baseline).
    """

    name = "k2"

    def __init__(self, precompute: bool = True) -> None:
        self.precompute = bool(precompute)
        #: ``logfact[c] == gammaln(c + 1) == log(c!)`` for integer counts
        #: ``c`` up to ``n_samples + 1``; built by :meth:`prepare`.
        self._logfact: np.ndarray | None = None

    def prepare(self, dataset) -> None:
        """Build (or extend) the log-factorial table for ``dataset``.

        The table covers counts ``0 .. n_samples + 1`` — every row total
        ``r_i`` is at most ``n_samples`` and the score needs
        ``log((r_i + 1)!)``.  Idempotent: an already-large-enough table is
        kept, so one objective instance can serve many datasets.
        """
        if not self.precompute:
            return
        needed = int(dataset.n_samples) + 2
        if self._logfact is None or self._logfact.size < needed:
            # gammaln evaluated at the exact integer abscissae — any lookup
            # is bit-identical to computing gammaln on the count directly.
            self._logfact = _gammaln()(np.arange(needed, dtype=np.float64) + 1.0)

    def fused_spec(self) -> dict | None:
        """K2 fuses via the per-dataset log-factorial table.

        Only available after :meth:`prepare` populated the table (the
        kernel indexes it with integer counts, exactly like the table
        branch of :meth:`score`); ``precompute=False`` instances never
        fuse — they exist to measure the pre-table scipy baseline.
        """
        if self._logfact is None:
            return None
        return {"kind": "k2", "logfact": self._logfact}

    def score(self, tables: np.ndarray) -> np.ndarray:
        arr = np.asarray(tables)
        logfact = self._logfact
        if (
            logfact is not None
            and arr.dtype.kind in "iu"
            and arr.ndim >= 2
            and arr.shape[-1] == 2
            and arr.size
        ):
            # C order, so the cell sum below reduces along contiguous rows.
            arr = np.ascontiguousarray(arr)
            rows = arr.reshape(-1, arr.shape[-2], 2)
            scores = np.empty(rows.shape[0], dtype=np.float64)
            step = max(1, _K2_BLOCK_BYTES // (8 * rows.shape[1]))
            if int(arr.min()) >= 0:
                for start in range(0, rows.shape[0], step):
                    block = _k2_rows(logfact, rows[start : start + step])
                    if block is None:
                        break  # a count outside the table: the gammaln path
                    scores[start : start + step] = block
                else:
                    return scores.reshape(arr.shape[:-2])[()]
        arr = self._check(tables)
        gammaln = _gammaln()
        row_totals = arr.sum(axis=-1)  # r_i
        # sum_{b=1}^{r_i+1} log b = gammaln(r_i + 2)
        first = gammaln(row_totals + 2.0)
        # sum_j sum_{d=1}^{r_ij} log d = sum_j gammaln(r_ij + 1)
        second = gammaln(arr + 1.0).sum(axis=-1)
        return (first - second).sum(axis=-1)


#: Bytes of each of K2's float64 temporaries per block of table rows: a
#: block's temporaries stay in cache and below glibc's mmap threshold, so
#: scoring a large batch neither spills nor churns fresh pages.
_K2_BLOCK_BYTES = 2**17


def _k2_rows(logfact: np.ndarray, tables: np.ndarray) -> np.ndarray | None:
    """K2 scores of C-ordered, non-negative integer ``(n, cells, 2)``
    tables, or ``None`` when a row total is outside ``logfact``.

    The two classes are added as columns: a reduce over the length-2 class
    axis pays NumPy's per-row cost for one add.
    """
    controls, cases = tables[..., 0], tables[..., 1]
    totals = controls + cases  # r_i
    if int(totals.max()) + 1 >= logfact.size:
        return None
    totals += 1
    # sum_{b=1}^{r_i+1} log b = log((r_i + 1)!) — one table probe
    first = logfact[totals]
    del totals
    # sum_j sum_{d=1}^{r_ij} log d = log(r_i0!) + log(r_i1!), the same
    # two-term sum a reduce over the class axis makes
    second = logfact[controls]
    second += logfact[cases]
    first -= second
    return first.sum(axis=-1)


class MutualInformationScore(_TableObjective):
    """Negative mutual information between genotype combination and phenotype.

    ``I(G; P) = H(G) + H(P) - H(G, P)`` in nats; the *negative* value is
    returned so that, like K2, lower scores indicate stronger association.
    """

    name = "mutual-information"

    def score(self, tables: np.ndarray) -> np.ndarray:
        arr = self._check(tables)
        total = arr.sum(axis=(-1, -2), keepdims=True)
        total = np.where(total == 0, 1.0, total)
        p_joint = arr / total
        p_geno = p_joint.sum(axis=-1, keepdims=True)
        p_phen = p_joint.sum(axis=-2, keepdims=True)

        def _entropy(p: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(p > 0, p * np.log(p), 0.0)
            return -terms.sum(axis=axes)

        h_joint = _entropy(p_joint, (-1, -2))
        h_geno = _entropy(p_geno, (-1, -2))
        h_phen = _entropy(p_phen, (-1, -2))
        return -(h_geno + h_phen - h_joint)


class GiniScore(_TableObjective):
    """Weighted Gini impurity of the phenotype within genotype cells.

    Lower impurity means the genotype combination separates cases from
    controls more cleanly.
    """

    name = "gini"

    def fused_spec(self) -> dict | None:
        """Gini fuses statelessly: exact rational arithmetic per cell."""
        return {"kind": "gini"}

    def score(self, tables: np.ndarray) -> np.ndarray:
        arr = self._check(tables)
        cell_totals = arr.sum(axis=-1)
        total = cell_totals.sum(axis=-1, keepdims=True)
        total = np.where(total == 0, 1.0, total)
        safe_cells = np.where(cell_totals == 0, 1.0, cell_totals)
        p_case = arr[..., 1] / safe_cells
        gini_cell = 2.0 * p_case * (1.0 - p_case)
        weights = cell_totals / total
        return (weights * gini_cell).sum(axis=-1)


class ChiSquaredScore(_TableObjective):
    """Negative chi-squared statistic of the genotype/phenotype table.

    The statistic grows with association strength, so its negation follows
    the "lower is better" convention.
    """

    name = "chi2"

    def score(self, tables: np.ndarray) -> np.ndarray:
        arr = self._check(tables)
        total = arr.sum(axis=(-1, -2), keepdims=True)
        total = np.where(total == 0, 1.0, total)
        row = arr.sum(axis=-1, keepdims=True)
        col = arr.sum(axis=-2, keepdims=True)
        expected = row * col / total
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(expected > 0, (arr - expected) ** 2 / expected, 0.0)
        return -terms.sum(axis=(-1, -2))


#: Registry of objective functions by name.
OBJECTIVES: Dict[str, Type[_TableObjective]] = {
    cls.name: cls
    for cls in (K2Score, MutualInformationScore, GiniScore, ChiSquaredScore)
}


def get_objective(name: str | ObjectiveFunction) -> ObjectiveFunction:
    """Resolve an objective function by name (or pass through an instance)."""
    if not isinstance(name, str):
        return name
    key = name.lower()
    if key not in OBJECTIVES:
        raise KeyError(
            f"unknown objective {name!r}; available: {sorted(OBJECTIVES)}"
        )
    return OBJECTIVES[key]()

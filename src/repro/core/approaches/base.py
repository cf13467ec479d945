"""Common interface of all detection approaches."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Dict, Mapping

import numpy as np

from repro.bitops.ops import OpCounter
from repro.bitops.packing import WordLayout, get_layout
from repro.core.approaches._kernels import MAX_ORDER, MIN_ORDER
from repro.datasets.dataset import GenotypeDataset

__all__ = ["Approach"]


class Approach(ABC):
    """Base class of the CPU/GPU epistasis detection approaches.

    An approach encapsulates one of the paper's algorithm variants: how the
    dataset is encoded (``prepare``), how the ``3^k x 2`` frequency tables
    of a batch of SNP k-tuples are constructed (``build_tables``) and which
    dynamic instruction/traffic counts that construction charges to the
    operation counter.  Every approach is *order-generic*: the interaction
    order ``k`` is carried by the width of the combination batch
    (``combos.shape[1]``) and may be anything in
    ``[MIN_ORDER, MAX_ORDER]`` — the paper's third-order study is the
    ``k = 3`` instance.

    Subclasses must define the class attributes ``name`` (registry key),
    ``device`` (``"cpu"`` or ``"gpu"``) and ``version`` (1–4) and implement
    :meth:`prepare` and :meth:`build_tables`.

    Approaches are *stateless with respect to results*: the encoded dataset
    returned by :meth:`prepare` is an explicit argument of
    :meth:`build_tables` so that a single approach instance can serve many
    datasets (and many host threads) concurrently.  The operation counter is
    the only mutable state and is documented as not thread-safe; the
    detector keeps one approach instance per worker.
    """

    #: Registry name, e.g. ``"cpu-v3"``.
    name: ClassVar[str] = "abstract"
    #: Device family the approach targets: ``"cpu"`` or ``"gpu"``.
    device: ClassVar[str] = "cpu"
    #: Optimisation level, 1 (naïve) to 4 (best).
    version: ClassVar[int] = 0
    #: One-line description used by the CLI and reports.
    description: ClassVar[str] = ""
    #: Interaction orders the approach supports (inclusive bounds).  All
    #: built-in approaches share the kernel-wide range; specialised
    #: subclasses may narrow it.
    min_order: ClassVar[int] = MIN_ORDER
    max_order: ClassVar[int] = MAX_ORDER

    def __init__(
        self,
        word_layout: WordLayout | str | None = None,
        backend: str | None = None,
    ) -> None:
        # Deferred import: repro.backends imports the reference kernels from
        # this package, so the registry must not be touched at module level.
        from repro.backends import get_backend

        self.reset_counter()
        #: Machine-word layout the encodings are packed with (``uint32`` or
        #: ``uint64``; the default follows
        #: :func:`repro.bitops.packing.default_layout`).  Charging stays per
        #: paper word whichever layout runs.
        self.word_layout: WordLayout = get_layout(word_layout)
        #: Execution backend of the table-construction hot loop (``numpy``,
        #: ``numba`` or ``cupy``; resolved through
        #: :func:`repro.backends.get_backend`, so an unavailable optional
        #: backend degrades to the NumPy reference).  Backends are pure
        #: execution: op/traffic charging stays in the approach layer, per
        #: paper word, whichever backend runs.
        self.backend = get_backend(backend)

    # -- encoding -------------------------------------------------------------
    @abstractmethod
    def prepare(self, dataset: GenotypeDataset) -> Any:
        """Encode ``dataset`` into the representation this approach consumes.

        The returned object is opaque to callers; it is passed back to
        :meth:`build_tables`.  Encodings are pure data (NumPy arrays and
        dataclasses) and safe to share between threads.
        """

    def encoding_key(self) -> tuple:
        """Cache identity of :meth:`prepare`'s output for one dataset.

        Two approach instances whose keys are equal produce interchangeable
        encodings for the same dataset, so the detector-level encoding cache
        can reuse one prepared object across runs, stages and workers.
        Subclasses whose encoding depends on extra parameters (blocking
        geometry, GPU tile size) must extend the tuple.
        """
        return (type(self).__name__, self.word_layout.name)

    # -- kernel ----------------------------------------------------------------
    @abstractmethod
    def build_tables(self, encoded: Any, combos: np.ndarray) -> np.ndarray:
        """Construct frequency tables for a batch of SNP combinations.

        Parameters
        ----------
        encoded:
            Object returned by :meth:`prepare`.
        combos:
            ``(n_combos, k)`` array of strictly increasing SNP index
            k-tuples, ``min_order <= k <= max_order``.

        Returns
        -------
        numpy.ndarray
            ``(n_combos, 3^k, 2)`` ``int64`` frequency tables (column 0 =
            controls, column 1 = cases).
        """

    def score_combinations(
        self, encoded: Any, combos: np.ndarray, objective
    ) -> np.ndarray | None:
        """Fused build+score over a combination batch, or ``None``.

        Approaches that support the fused path fold each combination's
        frequency table straight into its objective score (through the
        execution backend's ``score_combinations`` capability, tiled over
        SNP blocks) and return the ``(n_combos,)`` float64 score vector —
        bit-identical to ``objective.score(self.build_tables(...))``, and
        charged with the *identical* §IV per-paper-word mix (fusion changes
        real traffic, never the modelled accounting).  The default returns
        ``None``: callers must fall back to build-then-score.
        """
        return None

    @property
    def backend_name(self) -> str:
        """The execution backend actually running the hot loop.

        GPU approaches override this: they execute on the
        :mod:`repro.gpusim` modelled twin regardless of the configured
        backend.
        """
        return self.backend.name

    # -- bookkeeping ------------------------------------------------------------
    def reset_counter(self) -> None:
        """Clear the run accounting.

        That is the operation counter plus any run counter
        :meth:`extra_stats` reports.  The detector calls this at the start
        of every search, so run statistics count one call.
        """
        self.counter = OpCounter()

    def op_counts(self) -> Mapping[str, int]:
        """Snapshot of the accumulated instruction counts."""
        return self.counter.as_dict()

    def extra_stats(self) -> Dict[str, object]:
        """Approach-specific metadata recorded into the run statistics."""
        return {}

    # -- helpers ----------------------------------------------------------------
    @classmethod
    def _check_combos(cls, combos: np.ndarray) -> np.ndarray:
        combos = np.asarray(combos, dtype=np.int64)
        if combos.ndim != 2 or not cls.min_order <= combos.shape[1] <= cls.max_order:
            raise ValueError(
                f"combos must have shape (n_combos, k) with "
                f"{cls.min_order} <= k <= {cls.max_order}; got {combos.shape}"
            )
        if combos.size and not (combos[:, :-1] < combos[:, 1:]).all():
            raise ValueError("every combination must be strictly increasing")
        return combos

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, device={self.device!r})"

"""Execution-backend registry.

The table-construction hot loop of every CPU approach runs on a pluggable
:class:`~repro.backends.base.ExecutionBackend`:

* ``numpy`` — the always-available vectorised reference (bit-exactness
  oracle for everything else);
* ``numba`` — JIT-compiled ``nopython`` + ``prange`` kernels
  (:mod:`repro.backends.numba_backend`);
* ``cupy`` — CUDA ``RawKernel`` execution on a physical device
  (:mod:`repro.backends.cupy_backend`; :mod:`repro.gpusim` stays the
  modelled twin for §IV counter accounting);
* ``auto`` — ``numba`` when importable, else ``numpy`` (``cupy`` is
  explicit opt-in: a real GPU changes where the data lives, never
  silently).

Selection flows through ``DetectorConfig(backend=...)`` / the CLI's
``--backend`` and reaches every approach instance a detector builds —
both lanes of a heterogeneous plan and the distributed worker processes.
The ``REPRO_BACKEND`` environment variable supplies the default when no
explicit selection is made.  Requesting an optional backend on a host
without the dependency degrades gracefully to ``numpy`` with a warning
(the §IV accounting is backend-independent, so results are unchanged).

All backends return bit-identical ``int64`` tables; op/traffic charging
stays in the approach layer, per paper (32-bit) word, whichever backend
executes.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Type

from repro.backends.base import ExecutionBackend, cell_digits
from repro.backends.calibrate import (
    CalibrationRecord,
    CalibrationStore,
    calibrate,
    calibration_fingerprint,
    run_probe,
)
from repro.backends.cupy_backend import CupyBackend
from repro.backends.numba_backend import NumbaBackend
from repro.backends.numpy_backend import NumpyBackend

__all__ = [
    "ExecutionBackend",
    "NumpyBackend",
    "NumbaBackend",
    "CupyBackend",
    "BACKENDS",
    "VALID_BACKEND_NAMES",
    "BACKEND_ENV",
    "check_backend_name",
    "default_backend_name",
    "resolve_backend_name",
    "get_backend",
    "list_backends",
    "cell_digits",
    "CalibrationRecord",
    "CalibrationStore",
    "calibrate",
    "calibration_fingerprint",
    "run_probe",
]

#: Environment variable supplying the default backend selection.
BACKEND_ENV = "REPRO_BACKEND"

#: Registry of backend classes by canonical name.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    cls.name: cls for cls in (NumpyBackend, NumbaBackend, CupyBackend)
}

#: Names accepted by every selection surface (config, CLI, environment).
VALID_BACKEND_NAMES = ("auto",) + tuple(sorted(BACKENDS))

#: Process-wide backend singletons (backends are stateless or own caches
#: that benefit from sharing — compiled kernels, resident device arrays).
_INSTANCES: Dict[str, ExecutionBackend] = {}


def check_backend_name(name: str) -> str:
    """Validate a backend name, returning the canonical lowercase form.

    Raises a friendly :class:`ValueError` naming the valid values instead
    of failing deep inside kernel dispatch.
    """
    if isinstance(name, ExecutionBackend):
        return name.name
    key = str(name).strip().lower()
    if key not in VALID_BACKEND_NAMES:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"valid values: {', '.join(VALID_BACKEND_NAMES)}"
        )
    return key


def default_backend_name() -> str:
    """The selection used when none is configured (``REPRO_BACKEND`` or auto)."""
    forced = os.environ.get(BACKEND_ENV, "").strip()
    if forced:
        try:
            return check_backend_name(forced)
        except ValueError:
            raise ValueError(
                f"{BACKEND_ENV}={forced!r} is not a known execution backend; "
                f"valid values: {', '.join(VALID_BACKEND_NAMES)}"
            ) from None
    return "auto"


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve a selection (or the default) to a concrete, available name.

    ``auto`` prefers ``numba`` and falls back to ``numpy``; an explicitly
    requested optional backend that is unavailable also resolves to
    ``numpy`` (the graceful-degradation contract — results are identical).
    """
    key = check_backend_name(name) if name is not None else default_backend_name()
    if key == "auto":
        return "numba" if NumbaBackend.is_available() else "numpy"
    if not BACKENDS[key].is_available():
        return "numpy"
    return key


def get_backend(name: "str | ExecutionBackend | None" = None) -> ExecutionBackend:
    """The backend instance for a selection (instances pass through).

    ``None`` uses the configured default (``REPRO_BACKEND``, else auto).
    Requesting an unavailable optional backend warns once per call site
    and returns the NumPy reference, so a script written for a
    numba-equipped host still runs — bit-identically — anywhere.
    """
    if isinstance(name, ExecutionBackend):
        return name
    requested = check_backend_name(name) if name is not None else default_backend_name()
    resolved = resolve_backend_name(requested)
    if requested not in ("auto", resolved):
        _, detail = BACKENDS[requested].availability()
        warnings.warn(
            f"execution backend {requested!r} is not available on this host "
            f"({detail}); falling back to 'numpy'",
            RuntimeWarning,
            stacklevel=2,
        )
    instance = _INSTANCES.get(resolved)
    if instance is None:
        instance = BACKENDS[resolved]()
        _INSTANCES[resolved] = instance
    return instance


def list_backends() -> List[dict]:
    """Availability report of every registered backend (CLI / docs)."""
    rows = []
    for name in sorted(BACKENDS):
        cls = BACKENDS[name]
        available, detail = cls.availability()
        rows.append(
            {
                "name": name,
                "kind": cls.kind,
                "available": available,
                "detail": detail,
                "description": cls.description,
            }
        )
    return rows

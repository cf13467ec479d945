"""Adaptive chunk-size autotuning for the execution engine.

The unit of dynamic scheduling — how many combinations a worker claims per
chunk — trades scheduler overhead against load balance and per-batch kernel
efficiency, and the right value differs by device lane (a simulated-GPU
launch stream amortises far more per claim than a CPU thread), by dataset
shape and by interaction order.  Rather than asking the user to guess,
``chunk_size="auto"`` lets every worker *measure* its own per-chunk
duration and steer the claim size geometrically toward a target chunk
duration between hard bounds:

* a chunk that completed much faster than the target grows the next claim
  by the growth factor (amortising claim/dispatch overhead);
* a chunk that overshot the target shrinks it (restoring load balance and
  progress/cancellation granularity at the tail);
* partially filled tail claims are ignored (their duration says nothing
  about the chosen size).

The tuner lives entirely in the work-source layer: an
:class:`AdaptiveChunkSource` is one worker's view over a
:class:`~repro.engine.scheduling.SharedCursor`, so any scheduling policy
gives it to the workers of an ``"auto"`` lane without changing workers or
the executor — the worker just reports ``feedback(n_items, seconds)`` after
each chunk (see :meth:`repro.engine.worker.DeviceWorker.run`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.scheduling import Range, SharedCursor

__all__ = [
    "AUTO_CHUNK",
    "AutotuneConfig",
    "CPU_AUTOTUNE",
    "GPU_AUTOTUNE",
    "AdaptiveChunkSource",
    "autotune_config_for",
    "is_auto_chunk",
]

#: The sentinel accepted wherever a chunk size is configured.
AUTO_CHUNK = "auto"


def is_auto_chunk(chunk_size) -> bool:
    """Whether a configured chunk size requests autotuning."""
    return isinstance(chunk_size, str) and chunk_size.strip().lower() == AUTO_CHUNK


@dataclass(frozen=True)
class AutotuneConfig:
    """Bounds and pacing of one lane's chunk autotuner.

    Attributes
    ----------
    initial_chunk:
        First claim size of every worker on the lane.
    min_chunk / max_chunk:
        Hard bounds of the geometric walk.
    growth:
        Multiplicative step (grow by ``growth``, shrink by ``1/growth``).
    target_seconds:
        Per-chunk duration the tuner steers toward.
    deadband:
        Relative half-width of the no-adjustment zone around the target: a
        chunk lasting within ``[target/ (1+deadband), target * (1+deadband)]``
        leaves the size unchanged, preventing oscillation.
    """

    initial_chunk: int = 1024
    min_chunk: int = 256
    max_chunk: int = 65536
    growth: float = 2.0
    target_seconds: float = 0.05
    deadband: float = 0.5

    def __post_init__(self) -> None:
        if self.min_chunk < 1 or self.max_chunk < self.min_chunk:
            raise ValueError("need 1 <= min_chunk <= max_chunk")
        if not self.min_chunk <= self.initial_chunk <= self.max_chunk:
            raise ValueError("initial_chunk must lie within [min_chunk, max_chunk]")
        if self.growth <= 1.0:
            raise ValueError("growth must be > 1")
        if self.target_seconds <= 0 or self.deadband < 0:
            raise ValueError("target_seconds must be positive and deadband >= 0")


#: Lane defaults: CPU threads favour balance (small floor), a simulated-GPU
#: launch stream amortises more per claim.
CPU_AUTOTUNE = AutotuneConfig(initial_chunk=1024, min_chunk=256, max_chunk=65536)
GPU_AUTOTUNE = AutotuneConfig(initial_chunk=4096, min_chunk=1024, max_chunk=262144)


def autotune_config_for(kind: str) -> AutotuneConfig:
    """The per-device-lane tuner defaults (``"cpu"`` or ``"gpu"``)."""
    return GPU_AUTOTUNE if kind == "gpu" else CPU_AUTOTUNE


class AdaptiveChunkSource:
    """One worker's autotuning view over a shared cursor (a ``WorkSource``).

    ``next_range`` claims the worker's current chunk size from the cursor;
    ``feedback`` (called by the worker after evaluating the chunk) walks the
    size geometrically toward the configured target duration.  Each worker
    owns its view, so lanes and workers converge independently — a slow
    simulated-GPU stream and a fast CPU thread settle on different sizes
    even when they drain the same cursor.
    """

    def __init__(self, cursor: SharedCursor, config: AutotuneConfig | None = None) -> None:
        self.cursor = cursor
        self.config = config or AutotuneConfig()
        self.chunk_size = self.config.initial_chunk
        self.adjustments = 0
        self.min_seen = self.chunk_size
        self.max_seen = self.chunk_size

    def next_range(self) -> Range | None:
        """Claim ``chunk_size`` items from the shared cursor."""
        return self.cursor.claim(self.chunk_size)

    def feedback(self, n_items: int, seconds: float) -> None:
        """Steer the chunk size from one completed chunk's measurement."""
        if n_items < self.chunk_size:
            return  # tail claim: duration says nothing about the chosen size
        cfg = self.config
        if seconds < 0:
            return
        new_size = self.chunk_size
        if seconds * (1.0 + cfg.deadband) < cfg.target_seconds:
            new_size = min(cfg.max_chunk, int(self.chunk_size * cfg.growth))
        elif seconds > cfg.target_seconds * (1.0 + cfg.deadband):
            new_size = max(cfg.min_chunk, int(self.chunk_size / cfg.growth))
        if new_size != self.chunk_size:
            self.chunk_size = new_size
            self.adjustments += 1
            self.min_seen = min(self.min_seen, new_size)
            self.max_seen = max(self.max_seen, new_size)

    def describe(self) -> dict:
        """Tuner state snapshot for the per-device run statistics."""
        return {
            "chunk_size": self.chunk_size,
            "initial_chunk": self.config.initial_chunk,
            "adjustments": self.adjustments,
            "min_chunk_seen": self.min_seen,
            "max_chunk_seen": self.max_seen,
        }

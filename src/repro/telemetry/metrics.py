"""Namespaced metrics registry: counters, gauges and histograms.

One registry per run absorbs every counter the stack used to scatter
across ad-hoc dicts — §IV paper-word op/traffic counters, autotuner
feedback, fleet spawn/respawn counts and the data-plane events of sharded
runs — behind a single dotted-name API.

Namespaces (see the README "Observability" section for the full table):

========================  =============================================
``ops.<MNEMONIC>``        paper-word operation counts (§IV charging)
``traffic.bytes_*``       modelled DRAM bytes loaded/stored
``engine.*``              chunks/items/lanes executed by the engine
``autotune.*``            adaptive chunk-size controller state
``dataplane.*``           a sharded run's shm and encoding-cache events
``fleet.*``               warm worker-pool spawns and respawns
``distributed.*``         shard counts and worker fan-out
``backend.*``             kernel compile counts
========================  =============================================

The registry is deliberately dependency-free and thread-safe; histogram
state is a running ``(count, sum, min, max)`` summary rather than
bucketed reservoirs — enough for the trace summary table without
per-sample storage.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional

__all__ = ["MetricsRegistry"]


class _HistogramStat:
    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def as_dict(self) -> dict:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": mean,
        }


class MetricsRegistry:
    """Thread-safe counters/gauges/histograms keyed by dotted names."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _HistogramStat] = {}

    # -- counters ------------------------------------------------------

    def inc(self, name: str, value: "int | float" = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> "int | float":
        with self._lock:
            return self._counters.get(name, 0)

    def merge_counters(
        self, mapping: Mapping[str, "int | float"], prefix: str = ""
    ) -> None:
        """Bulk-add a plain counter dict under an optional namespace prefix."""
        with self._lock:
            for key, value in mapping.items():
                name = prefix + str(key)
                self._counters[name] = self._counters.get(name, 0) + value

    # -- gauges --------------------------------------------------------

    def set_gauge(self, name: str, value: "int | float") -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    # -- histograms ----------------------------------------------------

    def observe(self, name: str, value: "int | float") -> None:
        with self._lock:
            stat = self._histograms.get(name)
            if stat is None:
                stat = _HistogramStat()
                self._histograms[name] = stat
            stat.observe(value)

    # -- views ---------------------------------------------------------

    def counters(self, prefix: str = "") -> Dict[str, "int | float"]:
        """Counters whose name starts with ``prefix`` (prefix stripped)."""
        with self._lock:
            return {
                name[len(prefix):]: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: stat.as_dict()
                    for name, stat in self._histograms.items()
                },
            }

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters)
                + len(self._gauges)
                + len(self._histograms)
            )

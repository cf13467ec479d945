"""Outside-in layer tracer: per-layer self time from calls into each layer.

The benchmark does not instrument the program.  It wraps the public
functions through which one layer of ``repro`` calls the next, opens a span
for every call, and charges each span's *self* time -- its duration minus
the spans nested in it -- to the wrapped layer.  The benchmark's own root
span around one search closes the accounting: the self times of every
layer, the root included, sum to the search's wall time.

Wrappers are installed only around traced searches and restored after each
one, so untraced searches run the unmodified program.  A call into a layer
that is already the innermost open span (a subclass method calling its
base, a shard view delegating to its base source) stays inside that span.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["LayerTracer", "install_repro_layers"]

#: Name of the benchmark's root span around one search.
ROOT_SPAN = "search"


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0


class LayerTracer:
    """Span stack per thread plus per-layer self-time accumulators.

    A span opened on a thread with no open span (a pool thread) is charged
    to the root span of the running search.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: _Frame | None = None
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span and counter."""
        self.self_s: dict = defaultdict(float)
        self.spans: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.wall = 0.0
        self.min_self = 0.0

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> _Frame | None:
        """Open a span, or return ``None`` when ``layer`` is already innermost."""
        stack = self._stack()
        if stack and stack[-1].layer == layer:
            return None
        frame = _Frame(layer, time.perf_counter())
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (the innermost span of this thread); return its duration."""
        duration = time.perf_counter() - frame.start
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.layer!r} closed out of order")
        stack.pop()
        own = duration - frame.child
        with self._lock:
            self.self_s[frame.layer] += own
            self.spans[frame.layer] += 1
            self.min_self = min(self.min_self, own)
            parent = stack[-1] if stack else self._root
            if parent is not None and parent is not frame:
                parent.child += duration
        return duration

    @contextmanager
    def search(self):
        """Root span around one search; resets the accumulators first."""
        self.reset()
        frame = self.enter(ROOT_SPAN)
        self._root = frame
        try:
            yield self
        finally:
            self._root = None
            self.wall = self.exit(frame)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    # -- wrapping ----------------------------------------------------------
    def _wrapper(self, original, layer, on_return, outermost_only, generator):
        tracer = self

        if generator:

            @functools.wraps(original)
            def traced_generator(*args, **kwargs):
                inner = original(*args, **kwargs)
                while True:
                    frame = tracer.enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if frame is not None:
                            tracer.exit(frame)
                    if on_return is not None:
                        on_return(tracer, args, kwargs, item)
                    yield item

            traced_generator._layer = layer
            return traced_generator

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer.enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                if frame is not None:
                    tracer.exit(frame)
            if on_return is not None and (frame is not None or not outermost_only):
                on_return(tracer, args, kwargs, result)
            return result

        traced._layer = layer
        return traced

    def wrap_methods(self, base, name, layer, on_return=None, outermost_only=True):
        """Wrap ``name`` on ``base`` and on every subclass that defines it."""
        classes, pending = [], [base]
        while pending:
            cls = pending.pop()
            if cls not in classes:
                classes.append(cls)
                pending.extend(cls.__subclasses__())
        found = False
        for cls in classes:
            original = cls.__dict__.get(name)
            if not inspect.isfunction(original):
                continue
            found = True
            if getattr(original, "_layer", None) is not None:
                continue  # already wrapped through another base
            wrapper = self._wrapper(original, layer, on_return, outermost_only, False)
            setattr(cls, name, wrapper)
            self._patches.append((cls, name, original))
        if not found:
            raise LookupError(f"{base.__qualname__}.{name} not found")

    def wrap_function(self, module, name, layer, on_return=None, generator=False):
        """Wrap a module-level function in every ``repro`` module bound to it."""
        original = getattr(module, name)
        wrapper = self._wrapper(original, layer, on_return, True, generator)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self, install):
        """Run the body with ``install(self)``'s wrappers in place."""
        try:
            install(self)
            yield self
        finally:
            self.restore()


def _combos_arg(function):
    """Extractor of the ``combos`` argument of a kernel-contract method."""
    index = list(inspect.signature(function).parameters).index("combos")

    def extract(args, kwargs):
        if "combos" in kwargs:
            return kwargs["combos"]
        return args[index] if len(args) > index else None

    return extract


def install_repro_layers(tracer: LayerTracer) -> None:
    """Wrap the public call of every ``repro`` layer the benchmark reports.

    Layer names follow the modules: ``backends`` (table building),
    ``scoring``, ``tiling``, ``topk`` (``engine.worker``), ``candidates``,
    ``engine`` (``engine.executor``), ``encode`` (``core.encoding_cache``
    and ``Approach.prepare``), ``pipeline``, ``distributed`` and
    ``checkpoint`` (``distributed.checkpoint``).
    """
    import repro.distributed as distributed
    import repro.distributed.shm as shm
    import repro.engine.tiling as tiling
    from repro.backends.base import ExecutionBackend
    from repro.core.approaches.base import Approach
    from repro.core.encoding_cache import EncodingCache
    from repro.core.scoring import OBJECTIVES
    from repro.distributed.checkpoint import CheckpointStore, JsonLedger
    from repro.engine.candidates import CandidateSource
    from repro.engine.executor import HeterogeneousExecutor
    from repro.engine.worker import TopKHeap
    from repro.pipeline import SearchPipeline
    from repro.pipeline.stages import PipelineStage

    for method in ("split_tables", "naive_tables", "split_class_counts", "score_combinations"):
        extract = _combos_arg(getattr(ExecutionBackend, method))

        def count_tables(tracer, args, kwargs, result, extract=extract):
            combos = extract(args, kwargs)
            if combos is not None:
                tracer.count("backends.tables", len(combos))

        tracer.wrap_methods(ExecutionBackend, method, "backends", count_tables)

    for objective in OBJECTIVES.values():
        tracer.wrap_methods(objective, "score", "scoring")

    def count_tile(tracer, args, kwargs, item):
        _, unique_snps, local = item
        tracer.count("tiling.tiles")
        tracer.count("tiling.combos", len(local))
        tracer.count("tiling.snps", len(unique_snps))

    tracer.wrap_function(tiling, "iter_snp_tiles", "tiling", count_tile, generator=True)
    tracer.wrap_methods(TopKHeap, "push_batch", "topk")

    def count_rows(tracer, args, kwargs, result):
        tracer.count("candidates.rows", len(result))

    tracer.wrap_methods(CandidateSource, "materialize", "candidates", count_rows)
    tracer.wrap_methods(HeterogeneousExecutor, "run", "engine")

    def count_build(tracer, args, kwargs, result):
        tracer.count("encode.builds")

    tracer.wrap_methods(Approach, "prepare", "encode", count_build, outermost_only=False)
    tracer.wrap_methods(EncodingCache, "get_or_build", "encode")

    tracer.wrap_methods(SearchPipeline, "run", "pipeline")
    tracer.wrap_methods(PipelineStage, "run", "pipeline")

    for name in ("run_distributed", "merge_rows"):
        tracer.wrap_function(distributed, name, "distributed")
    for name in ("publish_dataset", "publish_encoding"):
        tracer.wrap_function(shm, name, "distributed")

    def count_ledger(tracer, args, kwargs, result):
        tracer.count("checkpoint.writes")
        tracer.count("checkpoint.bytes", os.path.getsize(args[0].path))

    def count_minima(tracer, args, kwargs, result):
        store = args[0]
        shard_id = kwargs["shard_id"] if "shard_id" in kwargs else args[1]
        name = store.doc["shards"][str(int(shard_id))].get("snp_minima_file")
        if name is not None:
            tracer.count("checkpoint.writes")
            tracer.count("checkpoint.bytes", os.path.getsize(store.minima_dir / name))

    tracer.wrap_methods(JsonLedger, "write", "checkpoint", count_ledger, outermost_only=False)
    tracer.wrap_methods(CheckpointStore, "record_shard", "checkpoint", count_minima)

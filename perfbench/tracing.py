"""In-memory spans and the timing shims of the traced run.

The traced run measures each layer from outside: :meth:`Tracer.install`
replaces the program's public entry points with thin wrappers that open
a span, call the original and close the span.  Each shim patches the
name where its caller looks it up (``repro.core.engine.refine``, not
``repro.core.refinement.refine``), so no file under ``src/`` changes.
:meth:`Tracer.uninstall` puts every original back.  End-to-end runs use
:data:`NULL_TRACER`, which installs nothing.

A span's self time is its duration minus the time its child spans
cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], name: str,
                 start: float) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, **self.attrs}


def _engine_metrics_of_self(args, kwargs):
    return args[0].metrics


def _refine_metrics(args, kwargs):
    return args[3] if len(args) > 3 else kwargs["metrics"]


def _mutation_counts(span, result) -> None:
    span.attrs["applied"] = result.num_applied
    span.attrs["skipped"] = (result.skipped_additions
                             + result.skipped_deletions)


def _snapshot_bytes(span, graph) -> None:
    store = graph.store
    span.attrs["bytes"] = sum(
        os.path.getsize(os.path.join(store.root, name))
        for name in store.segment_files(graph.snapshot_id)
    )


def _file_bytes(span, path) -> None:
    span.attrs["bytes"] = os.path.getsize(path)


def _shipments(span, sent) -> None:
    span.attrs["shipments"] = sent


def _shipment_bytes(shipment) -> int:
    return (len(shipment.blob or b"")
            + sum(len(line) for line in shipment.lines))


#: (module, attribute path, span name, metrics-of(args, kwargs) whose
#: edge computations the span records, after(span, result) for
#: per-span counts).
SHIMS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]],
             ...] = (
    ("repro.graph.mutable", "StreamingGraph.apply_batch", "graph.adjust",
     None, _mutation_counts),
    ("repro.graph.storage", "MmapStore.adjust", "storage.adjust",
     None, None),
    ("repro.graph.storage", "_MmapWriter.commit", "storage.publish",
     None, _snapshot_bytes),
    ("repro.core.engine", "GraphBoltEngine.run", "core.initial_run",
     None, None),
    ("repro.core.engine", "refine", "core.refine",
     _refine_metrics, None),
    ("repro.core.engine", "hybrid_forward", "core.hybrid",
     _engine_metrics_of_self, None),
    ("repro.serving.server", "hybrid_forward", "core.hybrid",
     _engine_metrics_of_self, None),
    ("repro.ligra.delta", "DeltaEngine.step", "ligra.step",
     _engine_metrics_of_self, None),
    ("repro.recovery.manager", "save_engine", "runtime.save_engine",
     None, _file_bytes),
    ("repro.recovery.manager", "load_engine", "runtime.load_engine",
     None, None),
    ("repro.serving.replication", "verify_checkpoint_blob",
     "runtime.verify_blob", None, None),
    ("repro.recovery.manager", "RecoveryManager.log_batch",
     "recovery.log_batch", None, None),
    ("repro.recovery.manager", "RecoveryManager.checkpoint",
     "recovery.checkpoint", None, None),
    ("repro.recovery.manager", "RecoveryManager.adopt_checkpoint",
     "recovery.adopt", None, None),
    ("repro.recovery.manager", "RecoveryManager.restore_engine",
     "recovery.restore", None, None),
    ("repro.serving.resilience", "ResilientAnalyticsServer.submit",
     "serving.submit", None, None),
    ("repro.serving.server", "StreamingAnalyticsServer.ingest",
     "serving.ingest", None, None),
    ("repro.serving.server", "StreamingAnalyticsServer.query",
     "serving.query", None, None),
    ("repro.serving.replication", "ReadReplica.poll",
     "serving.replica_apply", None, None),
    ("repro.serving.replication", "ReplicationWriter.ship",
     "serving.ship", None, _shipments),
    ("repro.serving.router", "QueryRouter.query", "serving.router",
     None, None),
)

#: Counting shims: no span, one counter bumped per call.
COUNTERS: Tuple[Tuple[str, str, str, Callable], ...] = (
    ("repro.serving.replication", "InProcessTransport.send",
     "serving.shipped_bytes", _shipment_bytes),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class NullTracer:
    """The end-to-end posture: spans are no-ops and nothing is patched."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield None

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans in memory; patches the program only while installed."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[Span] = []
        self._originals: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- shims ---------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            return
        for module_name, path, name, metrics_of, after in SHIMS:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr,
                    self._span_shim(original, name, metrics_of, after))
        for module_name, path, name, size_of in COUNTERS:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._count_shim(original, name, size_of))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _span_shim(self, function, name, metrics_of, after):
        tracer = self

        @functools.wraps(function)
        def shim(*args, **kwargs):
            metrics = None if metrics_of is None else metrics_of(args,
                                                                 kwargs)
            before = None if metrics is None else metrics.edge_computations
            span = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
            if before is not None:
                span.attrs["edges"] = metrics.edge_computations - before
            if after is not None:
                after(span, result)
            return result

        return shim

    def _count_shim(self, function, name, size_of):
        counters = self.counters

        @functools.wraps(function)
        def shim(self_, item, *args, **kwargs):
            counters[name] += size_of(item)
            return function(self_, item, *args, **kwargs)

        return shim

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> self time in seconds."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return {span.id: span.duration - covered[span.id]
                for span in self.spans}

    def self_work(self, key: str) -> Dict[int, float]:
        """Span id -> ``attrs[key]`` minus the same attribute of its
        children (edge work done by the span itself)."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and key in span.attrs:
                covered[span.parent] += span.attrs[key]
        return {span.id: span.attrs[key] - covered[span.id]
                for span in self.spans if key in span.attrs}

    def root_of(self) -> Dict[int, Span]:
        """Span id -> its root span."""
        root: Dict[int, Span] = {}
        for span in self.spans:  # parents precede children
            root[span.id] = span if span.parent is None \
                else root[span.parent]
        return root

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span.as_dict()) + "\n")
            stream.write(json.dumps({"counters": dict(self.counters)})
                         + "\n")

"""Span-based tracing: the one stopwatch of the code base.

Usage at an instrumentation site::

    from repro.obs import trace

    with trace.span("refine", metrics=metrics, batch=3, horizon=7) as sp:
        ...
        sp.tag(mode="dense")
    sp.seconds  # the block's elapsed time

Every span reads the clock at entry and at exit, tracer or not; the
difference is ``.seconds``.  ``metrics`` (an
:class:`~repro.runtime.metrics.EngineMetrics`) receives it in
``phase_seconds[name]``, also when the block raises, and an installed
:class:`Tracer` records the same reading as ``start``/``duration`` --
so the span tree and ``phase_seconds`` never disagree.  The default
:data:`NULL_TRACER` records nothing: a span then costs one clock-read
pair plus the keyword dict, which the overhead test bounds at <5% of
engine runtime even for per-iteration spans.  Installing a
:class:`Tracer` (directly, via :func:`activated`, or through
``repro run --trace-out``) turns the same call sites into a recorded
span tree.

Recorded spans are emitted *post-order on exit* as plain dicts:

``{"type": "span", "id": 4, "parent": 1, "name": "refine",``
``"start": 0.01, "duration": 0.002, "tags": {...}}``

``id`` is a per-tracer sequential counter and ``parent`` links the
enclosing span (``None`` at the root), so the tree is reconstructible
from the flat stream (:func:`repro.obs.render.build_tree`).  Ids
depend only on control flow, never on timing, so two runs of the same
workload produce the same tree shape -- which is what lets the fuzz
harness attach trace dumps to shrunk failure repros.

The tracer keeps the most recent ``capacity`` spans in a ring buffer
and optionally forwards every span to a sink (anything with a
``write(record: dict)`` method, e.g. :class:`repro.obs.journal.JsonlJournal`).
Ring evictions are never silent: each one increments
``Tracer.dropped`` and the ``trace.dropped_spans`` registry counter,
and ``repro trace`` prints a warning when the buffer overflowed.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.obs.registry import get_registry

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "activated",
    "enabled",
    "get_tracer",
    "install",
    "span",
]


class NullTracer:
    """The disabled tracer: spans are timed but never recorded."""

    enabled = False
    dropped = 0
    _clock = time.perf_counter

    def span(self, name: str, metrics=None, **tags) -> "Span":
        return Span(self, name, tags, metrics)

    def events(self) -> List[Dict]:
        return []

    def mark(self) -> int:
        return 0

    def slowest_since(self, mark: int) -> Optional[Dict]:
        return None


NULL_TRACER = NullTracer()


class Span:
    """One live span: a clock-read pair, recorded on exit when its
    tracer is enabled."""

    __slots__ = ("_tracer", "_metrics", "name", "tags", "id", "parent",
                 "start", "seconds")

    def __init__(self, tracer, name: str, tags: Dict,
                 metrics=None) -> None:
        self._tracer = tracer
        self._metrics = metrics
        self.name = name
        self.tags = tags
        self.id: Optional[int] = None
        self.parent: Optional[int] = None
        self.start = 0.0
        self.seconds = 0.0

    def tag(self, **tags) -> None:
        """Attach tags discovered mid-span (e.g. the mode chosen)."""
        self.tags.update(tags)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer.enabled:
            self.id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            self.parent = stack[-1] if stack else None
            stack.append(self.id)
        self.start = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        self.seconds = tracer._clock() - self.start
        if self._metrics is not None:
            self._metrics.add_phase_time(self.name, self.seconds)
        if tracer.enabled:
            tracer._stack.pop()
            if exc_type is not None:
                self.tags["error"] = exc_type.__name__
            tracer._finish(self)
        return False


class Tracer:
    """Records a span tree into a ring buffer and an optional sink.

    ``capacity`` bounds the in-memory buffer (oldest spans fall off);
    the sink, if any, sees every span.  ``clock`` is injectable for
    tests (defaults to :func:`time.perf_counter`, rebased so the first
    span starts near zero).
    """

    enabled = True

    def __init__(self, capacity: int = 65536, sink=None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._buffer: deque = deque(maxlen=capacity)
        self._sink = sink
        self._stack: List[int] = []
        self._next_id = 0
        self._epoch = clock()
        self._raw_clock = clock
        self._clock = lambda: self._raw_clock() - self._epoch
        self.dropped = 0

    def span(self, name: str, metrics=None, **tags) -> Span:
        return Span(self, name, tags, metrics)

    def _finish(self, span: Span) -> None:
        record = {
            "type": "span",
            "id": span.id,
            "parent": span.parent,
            "name": span.name,
            "start": span.start,
            "duration": span.seconds,
            "tags": span.tags,
        }
        if (self._buffer.maxlen is not None
                and len(self._buffer) == self._buffer.maxlen):
            # The ring is about to evict its oldest span: count the
            # loss instead of dropping silently (``repro trace`` warns
            # when this is non-zero; a sink still sees every span).
            self.dropped += 1
            get_registry().counter("trace.dropped_spans").inc()
        self._buffer.append(record)
        if self._sink is not None:
            self._sink.write(record)

    def events(self) -> List[Dict]:
        """Finished spans, oldest first (bounded by ``capacity``)."""
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()

    def mark(self) -> int:
        """A position in the span-id sequence; pair with
        :meth:`slowest_since` to pick a trace exemplar for one unit of
        work (ids are assigned at span *entry*, so a mark taken before
        an apply covers the apply's root span and everything inside)."""
        return self._next_id

    def slowest_since(self, mark: int) -> Optional[Dict]:
        """The buffered span with the largest duration among spans
        opened at or after ``mark`` -- the wide-event trace exemplar.
        Returns ``None`` when no such span survives in the ring."""
        slowest: Optional[Dict] = None
        for record in self._buffer:
            if record["id"] < mark:
                continue
            if slowest is None or record["duration"] > slowest["duration"]:
                slowest = record
        return slowest


# ----------------------------------------------------------------------
# The installed tracer (process-wide dispatch point)
# ----------------------------------------------------------------------
_ACTIVE = NULL_TRACER


def span(name: str, metrics=None, **tags) -> Span:
    """Open a span on the installed tracer (timed but unrecorded when
    disabled); ``metrics`` receives its seconds as a phase."""
    return Span(_ACTIVE, name, tags, metrics)


def enabled() -> bool:
    """True when a recording tracer is installed -- guard any tag
    computation that is expensive enough to matter when disabled."""
    return _ACTIVE.enabled


def get_tracer():
    return _ACTIVE


def install(tracer) -> object:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def activated(tracer):
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = install(tracer)
    try:
        yield tracer
    finally:
        install(previous)

"""Unit tests for metrics, phase timing and memory reports."""

import time
from dataclasses import dataclass

import pytest

from repro.obs import trace
from repro.runtime.metrics import EngineMetrics, MemoryReport


class TestEngineMetrics:
    def test_counting(self):
        metrics = EngineMetrics()
        metrics.count_edges(10)
        metrics.count_edges(5)
        metrics.count_vertices(3)
        assert metrics.edge_computations == 15
        assert metrics.vertex_computations == 3

    def test_snapshot_and_delta(self):
        metrics = EngineMetrics()
        metrics.count_edges(10)
        snap = metrics.snapshot()
        metrics.count_edges(7)
        metrics.iterations += 2
        delta = metrics.delta_since(snap)
        assert delta.edge_computations == 7
        assert delta.iterations == 2
        # The snapshot is frozen.
        assert snap.edge_computations == 10

    def test_phase_time_delta(self):
        metrics = EngineMetrics()
        metrics.add_phase_time("refine", 1.0)
        snap = metrics.snapshot()
        metrics.add_phase_time("refine", 0.5)
        metrics.add_phase_time("hybrid", 0.25)
        delta = metrics.delta_since(snap)
        assert abs(delta.phase_seconds["refine"] - 0.5) < 1e-12
        assert abs(delta.phase_seconds["hybrid"] - 0.25) < 1e-12

    def test_merge(self):
        a = EngineMetrics(edge_computations=5)
        a.add_phase_time("x", 1.0)
        b = EngineMetrics(edge_computations=3, iterations=2)
        b.add_phase_time("x", 2.0)
        a.merge(b)
        assert a.edge_computations == 8
        assert a.iterations == 2
        assert a.phase_seconds["x"] == 3.0

    def test_reset(self):
        metrics = EngineMetrics(edge_computations=5)
        metrics.add_phase_time("x", 1.0)
        metrics.reset()
        assert metrics.edge_computations == 0
        assert metrics.phase_seconds == {}

    def test_reset_preserves_dict_identity(self):
        # Callers may hold a reference to phase_seconds across resets.
        metrics = EngineMetrics()
        phases = metrics.phase_seconds
        metrics.add_phase_time("x", 1.0)
        metrics.reset()
        assert metrics.phase_seconds is phases

    def test_new_field_survives_snapshot_delta_round_trip(self):
        # Regression: snapshot/delta_since once listed fields by hand,
        # so a newly added counter silently vanished from both.  They
        # now iterate dataclasses.fields -- a subclass with an extra
        # field must round-trip it with zero extra code.
        @dataclass
        class Extended(EngineMetrics):
            cache_hits: int = 0

        metrics = Extended()
        metrics.count_edges(4)
        metrics.cache_hits = 3
        snap = metrics.snapshot()
        assert isinstance(snap, Extended)
        assert snap.cache_hits == 3
        metrics.cache_hits += 7
        metrics.count_edges(1)
        delta = metrics.delta_since(snap)
        assert delta.cache_hits == 7
        assert delta.edge_computations == 1
        other = Extended(cache_hits=5)
        metrics.merge(other)
        assert metrics.cache_hits == 15
        metrics.reset()
        assert metrics.cache_hits == 0


class TestTimer:
    """``trace.span`` is the phase timer: its ``seconds`` feed
    ``phase_seconds`` under the span's name, tracer installed or not."""

    def test_records_elapsed(self):
        assert not trace.enabled()
        metrics = EngineMetrics()
        with trace.span("sleep", metrics=metrics) as span:
            time.sleep(0.01)
        assert span.seconds >= 0.01
        assert metrics.phase_seconds["sleep"] == span.seconds

    def test_accumulates(self):
        metrics = EngineMetrics()
        spans = []
        for _ in range(2):
            with trace.span("phase", metrics=metrics) as span:
                time.sleep(0.001)
            spans.append(span.seconds)
        assert metrics.phase_seconds["phase"] == spans[0] + spans[1]

    def test_none_metrics_ok(self):
        with trace.span("phase") as span:
            pass
        assert span.seconds >= 0.0

    def test_records_on_exception_and_propagates(self):
        metrics = EngineMetrics()
        with pytest.raises(ValueError):
            with trace.span("phase", metrics=metrics) as span:
                time.sleep(0.005)
                raise ValueError("boom")
        # The phase time still lands, and the exception is not eaten.
        assert span.seconds >= 0.005
        assert metrics.phase_seconds["phase"] == span.seconds


class TestMemoryReport:
    def test_overhead(self):
        report = MemoryReport(baseline_bytes=100, dependency_bytes=13)
        assert abs(report.overhead_fraction - 0.13) < 1e-12
        assert abs(report.overhead_percent - 13.0) < 1e-9

    def test_zero_baseline(self):
        assert MemoryReport(0, 0).overhead_fraction == 0.0
        assert MemoryReport(0, 5).overhead_fraction == float("inf")

    def test_zero_baseline_percent(self):
        # The percent view follows the fraction through both edges.
        assert MemoryReport(0, 0).overhead_percent == 0.0
        assert MemoryReport(0, 5).overhead_percent == float("inf")

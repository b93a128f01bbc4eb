"""The per-layer metrics of a traced run; names and units come from
``BENCHMARK.json``.

Per-layer times are self times in ms per traced batch: the span's
duration minus its children's, summed over every span of that layer in
the traced batch and query trees, divided by the number of traced
batches.  Counts and bytes are per traced batch too, except where
``SPEC.json`` says otherwise (set-up metrics are per set-up; failure
counts are run totals; ``runtime.checkpoint_bytes`` is per checkpoint).
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from typing import Dict, List

BENCHMARK_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def _units(section: str) -> Dict[str, str]:
    """Metric name -> unit of one ``BENCHMARK.json`` section."""
    with open(BENCHMARK_PATH, encoding="utf-8") as stream:
        metrics = json.load(stream)[section]
    return {metric["name"]: metric["unit"] for metric in metrics}


END_TO_END: Dict[str, str] = _units("end_to_end")
PER_LAYER: Dict[str, str] = _units("per_layer")

#: Per-layer ms metric -> the span whose self time it sums.
SELF_TIME: Dict[str, str] = {
    "graph.adjust_ms": "graph.adjust",
    "storage.adjust_ms": "storage.adjust",
    "storage.publish_ms": "storage.publish",
    "core.refine_ms": "core.refine",
    "core.hybrid_ms": "core.hybrid",
    "ligra.step_ms": "ligra.step",
    "runtime.save_engine_ms": "runtime.save_engine",
    "runtime.verify_blob_ms": "runtime.verify_blob",
    "runtime.load_engine_ms": "runtime.load_engine",
    "recovery.log_batch_ms": "recovery.log_batch",
    "recovery.checkpoint_ms": "recovery.checkpoint",
    "recovery.adopt_ms": "recovery.adopt",
    "recovery.restore_ms": "recovery.restore",
    "serving.submit_ms": "serving.submit",
    "serving.replica_apply_ms": "serving.replica_apply",
    "serving.ship_ms": "serving.ship",
    "serving.query_ms": "serving.query",
    "serving.router_ms": "serving.router",
}

_MEASURED_ROOTS = ("bench.batch", "bench.visible", "bench.query")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(run) -> Dict[str, float]:
    tracer = run.tracer
    spans = tracer.spans
    self_time = tracer.self_times()
    edges = tracer.self_work("edges")
    root = tracer.root_of()
    primary = [span for span in spans if span.parent is None
               and span.name in ("bench.batch", "bench.visible")]
    traced = len(primary)
    under_replica: Dict[int, bool] = {}
    for span in spans:
        under_replica[span.id] = span.parent is not None and (
            under_replica[span.parent]
            or spans[span.parent].name == "serving.replica_apply")

    seconds: Dict[str, float] = defaultdict(float)
    work: Dict[str, float] = defaultdict(float)
    attrs: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    setup: Dict[str, Dict[int, float]] = defaultdict(dict)
    for span in spans:
        top = root[span.id]
        if top.name == "bench.setup":
            if span.name in ("graph.build", "core.initial_run"):
                bucket = setup[span.name]
                bucket[top.id] = bucket.get(top.id, 0.0) + span.duration
            continue
        if top.name not in _MEASURED_ROOTS:
            continue
        name = span.name
        if name == "serving.ingest" and not under_replica[span.id]:
            name = "serving.writer_ingest"
        seconds[name] += self_time[span.id]
        work[name] += edges.get(span.id, 0.0)
        calls[name] += 1
        for key, value in span.attrs.items():
            attrs[f"{name}:{key}"] += value

    per_batch = 1.0 / traced if traced else 0.0
    out = {metric: 1e3 * seconds[span] * per_batch
           for metric, span in SELF_TIME.items()}
    out["serving.writer_ingest_ms"] = (
        1e3 * seconds["serving.writer_ingest"] * per_batch)
    out["graph.build_ms"] = 1e3 * _median(
        list(setup["graph.build"].values()))
    out["core.initial_run_ms"] = 1e3 * _median(
        list(setup["core.initial_run"].values()))
    out["graph.applied_mutations"] = attrs["graph.adjust:applied"] * per_batch
    out["graph.skipped_mutations"] = attrs["graph.adjust:skipped"] * per_batch
    out["storage.bytes_written"] = attrs["storage.publish:bytes"] * per_batch
    out["core.edge_computations"] = _ratio(sum(run.edges), len(run.edges))
    out["core.vertex_computations"] = _ratio(sum(run.vertices),
                                             len(run.vertices))
    out["core.refine_ns_per_edge"] = 1e9 * _ratio(seconds["core.refine"],
                                                  work["core.refine"])
    out["ligra.ns_per_edge"] = 1e9 * _ratio(seconds["ligra.step"],
                                            work["ligra.step"])
    reference = run.reference
    out["core.work_vs_ligra"] = _ratio(reference.get("graphbolt_edges", 0.0),
                                       reference.get("ligra_edges", 0.0))
    out["core.speedup_vs_ligra"] = _ratio(reference.get("ligra_ms", 0.0),
                                          reference.get("graphbolt_ms", 0.0))
    out["core.speedup_vs_reset"] = _ratio(reference.get("reset_ms", 0.0),
                                          reference.get("graphbolt_ms", 0.0))
    out["ligra.restart_batch_ms"] = reference.get("ligra_ms", 0.0)
    out["ligra.reset_batch_ms"] = reference.get("reset_ms", 0.0)
    out["runtime.checkpoint_bytes"] = _ratio(
        attrs["runtime.save_engine:bytes"], calls["runtime.save_engine"])
    out["recovery.restores"] = calls["recovery.restore"] * per_batch
    out["serving.shipped_bytes"] = (
        tracer.counters["serving.shipped_bytes"] * per_batch)
    out["serving.shipments"] = attrs["serving.ship:shipments"] * per_batch
    for name in ("serving.resyncs", "serving.nacks", "serving.dead_letters",
                 "serving.failovers", "serving.writer_fallbacks",
                 "serving.degraded_queries", "serving.quarantined"):
        out[name] = float(run.failures.get(name, 0))

    out["bench.traced_ms"] = 1e3 * _ratio(
        sum(span.duration for span in primary), traced)
    out["bench.unattributed_ms"] = 1e3 * _ratio(
        sum(self_time[span.id] for span in primary), traced)
    out["bench.lateness_p50_ms"] = 1e3 * _median(run.lateness_s)
    out["bench.lateness_max_ms"] = 1e3 * max(run.lateness_s, default=0.0)
    out["bench.backlog_max"] = float(max(run.backlog, default=0))
    timed = run.visible_s
    traced_times = [t for t, flag in zip(timed, run.traced) if flag]
    plain_times = [t for t, flag in zip(timed, run.traced) if not flag]
    out["bench.trace_overhead"] = _ratio(_median(traced_times),
                                         _median(plain_times))
    out["bench.failed_share"] = failed_share(run)
    return {name: float(out[name]) for name in PER_LAYER}


def failed_share(run) -> float:
    attempted = run.attempted + len(run.checks.results)
    return _ratio(run.failed + run.checks.failed, attempted)

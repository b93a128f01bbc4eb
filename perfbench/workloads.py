"""The four workloads: set-up, measurement loop, metrics and checks.

Engine workloads (``ingest-pr``, ``ingest-lp-bulk``, ``ingest-pr-mmap``)
run a closed loop: the client sends the next batch when the previous
batch has been applied and its exact query answered.  ``serve-replicated``
runs an open loop at a fixed offered rate: batch ``i`` is due at
``i * period`` and its exact query a quarter period later, whatever the
system is doing, and every latency is timed from the due time.

Every workload reports every end-to-end metric:

- ``batch``: the ``apply_mutations`` wall time (structure adjustment
  included); on ``serve-replicated``, the writer's ingest time
  (``StreamingAnalyticsServer.last_ingest_seconds``: apply plus the
  periodic checkpoint).
- ``visible``: due time until the batch's result can be read -- on the
  engine workloads when ``apply_mutations`` returns, on
  ``serve-replicated`` when every live replica has applied it.
- ``query``: due time until the exact query returns; the engine
  workloads serve it through ``StreamingAnalyticsServer.from_engine``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from perfbench.tracing import NULL_TRACER, Tracer

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "SPEC.json")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
#: Traced runs alternate blocks of this many untraced and traced
#: batches; a block holds exactly one checkpoint on serve-replicated.
TRACE_BLOCK = 4
#: serve-replicated: a batch's query is due this share of a period
#: after the batch.  A checkpoint batch takes most of a period, so the
#: query behind it waits far longer than its run-to-run noise.
QUERY_DELAY = 0.25
#: Batches the traced run replays through the three reference engines.
REFERENCE_BATCHES = 3
#: Batches compared bit-for-bit between the mmap and heap stores.
CRC_BATCHES = 2
#: Exact iterations of every workload; serve-replicated's writer runs
#: ``APPROX_ITERATIONS`` and answers queries with the exact count.
ITERATIONS = 10
APPROX_ITERATIONS = 3
#: serve-replicated: batches between checkpoints, and read replicas.
CHECKPOINT_EVERY = 4
REPLICAS = 2
#: The canonical arrays of a ``CSRGraph`` snapshot.
CSR_ARRAYS = ("out_offsets", "out_targets", "out_weights",
              "in_offsets", "in_sources", "in_weights")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "engine" (closed loop) or "serve" (open loop)
    inputs: str                # workloads sharing a name share their inputs
    scale: int
    algorithm: str
    batch_size: int
    store: str = "heap"
    reference: bool = False    # traced run replays Ligra and GB-Reset
    #: Sizes the closed-loop stream: a quarter of the fastest batch
    #: time seen when the benchmark was defined, so a 4x faster program
    #: still has batches left at the deadline.  Running out is a failure.
    min_batch_s: float = 0.1
    period_s: float = 0.35     # open-loop batch period (serve)

    def num_batches(self, seconds: float) -> int:
        if self.kind == "serve":
            return max(1, int(seconds / self.period_s))
        return int(seconds / self.min_batch_s) + 8


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("ingest-pr", "engine", "ingest-pr", scale=17,
                 algorithm="PR", batch_size=100, reference=True),
        Workload("ingest-lp-bulk", "engine", "ingest-lp-bulk", scale=16,
                 algorithm="LP", batch_size=10_000, reference=True,
                 min_batch_s=0.12),
        Workload("serve-replicated", "serve", "serve-replicated",
                 scale=12, algorithm="PR", batch_size=100),
        Workload("ingest-pr-mmap", "engine", "ingest-pr", scale=17,
                 algorithm="PR", batch_size=100, store="mmap"),
    )
}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as stream:
        return json.load(stream)


def algorithm_factory(name: str):
    from repro.bench.experiments import BENCH_ALGORITHMS

    return BENCH_ALGORITHMS[name]


# ----------------------------------------------------------------------
# Statistics and checks
# ----------------------------------------------------------------------
def tail(samples: List[float]) -> float:
    """The highest sample with at least ``TAIL_BEYOND`` samples beyond
    it (the median when there are too few samples for that)."""
    ordered = sorted(samples)
    index = len(ordered) - 1 - TAIL_BEYOND
    if index < len(ordered) // 2:
        return statistics.median(ordered)
    return ordered[index]


def tail_percentile(count: int) -> float:
    index = count - 1 - TAIL_BEYOND
    if count < 2 or index < count // 2:
        return 50.0
    return 100.0 * index / (count - 1)


def relative_error(values: np.ndarray, reference: np.ndarray) -> float:
    """The largest per-entry error ``|values - reference|`` relative to
    ``max(|reference|, mean|reference|)`` (inf on a shape mismatch or a
    non-finite value).  The floor keeps entries near zero from turning
    rounding into large relative errors; a hub's large value does not
    hide an ordinary entry's error."""
    values = np.asarray(values, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if values.shape != reference.shape:
        return float("inf")
    if values.size == 0:
        return 0.0
    error = np.abs(values - reference)
    if not np.all(np.isfinite(error)):
        return float("inf")
    floor = float(np.mean(np.abs(reference)))
    if floor == 0:
        return float(np.max(error))
    return float(np.max(error / np.maximum(np.abs(reference), floor)))


def values_crc32(values: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(values).tobytes()) & 0xFFFFFFFF


class Checks:
    """Named correctness checks; each failed check is a failed operation."""

    def __init__(self) -> None:
        self.results: Dict[str, bool] = {}
        self.details: Dict[str, str] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results[name] = bool(ok)
        self.details[name] = detail
        return bool(ok)

    def within(self, name: str, values, reference, tolerance: float) -> bool:
        error = relative_error(values, reference)
        return self.record(name, error <= tolerance,
                           f"relative error {error:.3g} "
                           f"(tolerance {tolerance:g})")

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.results.values() if not ok)


def graph_matches(graph, expected) -> bool:
    """``graph``'s canonical CSR/CSC arrays equal ``expected``'s bit for
    bit."""
    return graph.num_vertices == expected.num_vertices and all(
        np.array_equal(np.asarray(getattr(graph, name)),
                       np.asarray(getattr(expected, name)))
        for name in CSR_ARRAYS)


def expected_graph(data, applied: int):
    """The snapshot the generator's inputs define after ``applied``
    batches."""
    from perfbench.inputs import final_edges
    from repro.graph.csr import CSRGraph

    num_vertices, src, dst, weight, batches = data
    return CSRGraph(num_vertices, *final_edges(
        num_vertices, src, dst, weight, batches[:applied]))


def ligra_values(algorithm: str, graph, iterations: int) -> np.ndarray:
    from repro.ligra.engine import LigraEngine

    return LigraEngine(algorithm_factory(algorithm)()).run(
        graph, num_iterations=iterations)


# ----------------------------------------------------------------------
# The run record
# ----------------------------------------------------------------------
class Run:
    """Samples and counters of one workload run."""

    def __init__(self, workload: Workload, tracer) -> None:
        self.workload = workload
        self.tracer = tracer
        self.setup_s: List[float] = []
        self.batch_s: List[float] = []
        self.visible_s: List[float] = []
        self.query_s: List[float] = []
        self.traced: List[bool] = []
        self.lateness_s: List[float] = []
        self.backlog: List[int] = []
        self.mutations = 0
        self.elapsed_s = 0.0
        self.peak_rss_mb = 0.0
        self.edges: List[int] = []
        self.vertices: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.checks = Checks()
        self.reference: Dict[str, float] = {}
        self.failures: Dict[str, int] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def trace_block(self, index: int) -> None:
        """Install the shims for traced blocks, remove them otherwise."""
        traced = self.tracer.enabled and (index // TRACE_BLOCK) % 2 == 1
        if traced:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        self.traced.append(traced)

    def span(self, name: str):
        """A root span when the current block is traced."""
        if self.traced and self.traced[-1]:
            return self.tracer.span(name)
        return NULL_TRACER.span(name)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checks.failed == 0

    def end_measurement(self) -> None:
        """Record what the timed part of the run left behind, before any
        check or reference run allocates memory of its own."""
        self.peak_rss_mb = peak_rss_mb()

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "batch_p50_ms": 1e3 * statistics.median(self.batch_s),
            "batch_tail_ms": 1e3 * tail(self.batch_s),
            "mutations_per_s": self.mutations / self.elapsed_s,
            "visible_p50_ms": 1e3 * statistics.median(self.visible_s),
            "visible_tail_ms": 1e3 * tail(self.visible_s),
            "query_p50_ms": 1e3 * statistics.median(self.query_s),
            "query_tail_ms": 1e3 * tail(self.query_s),
            "peak_rss_mb": self.peak_rss_mb,
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Engine workloads (closed loop)
# ----------------------------------------------------------------------
def _engine_setup(workload: Workload, data, tracer, scratch: str, rep: int):
    from repro.core.engine import GraphBoltEngine
    from repro.graph.csr import CSRGraph
    from repro.graph.storage import MmapStore

    num_vertices, src, dst, weight, _ = data
    with tracer.span("bench.setup"):
        with tracer.span("graph.build"):
            graph = CSRGraph(num_vertices, src, dst, weight)
        if workload.store == "mmap":
            store = MmapStore(os.path.join(scratch, f"store-{rep}"))
            graph = store.publish(graph)
        engine = GraphBoltEngine(algorithm_factory(workload.algorithm)(),
                                 num_iterations=ITERATIONS)
        engine.run(graph)
    return engine


def run_engine(workload: Workload, data, seconds: float, tracer,
               scratch: str) -> Run:
    from repro.serving.server import StreamingAnalyticsServer

    run = Run(workload, tracer)
    factory = algorithm_factory(workload.algorithm)
    tracer.install()
    engine = None
    for rep in range(SETUP_REPEATS):
        engine = None  # release the previous set-up before timing the next
        _remove_stores(scratch)
        start = time.perf_counter()
        engine = _engine_setup(workload, data, tracer, scratch, rep)
        run.setup_s.append(time.perf_counter() - start)
    tracer.uninstall()
    server = StreamingAnalyticsServer.from_engine(
        engine, factory, exact_iterations=ITERATIONS)

    batches = data[4]
    crcs: List[int] = []
    start_all = due = time.perf_counter()
    deadline = start_all + seconds
    for index, batch in enumerate(batches):
        if time.perf_counter() >= deadline:
            break
        run.trace_block(index)
        metrics = engine.metrics
        edges, vertices = metrics.edge_computations, \
            metrics.vertex_computations
        run.attempted += 2
        try:
            start = time.perf_counter()
            with run.span("bench.batch"):
                engine.apply_mutations(batch)
            applied = time.perf_counter()
            with run.span("bench.query"):
                answer = server.query()
            answered = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 -- reported, run aborted
            tracer.uninstall()
            run.fail(f"batch {index}: {type(exc).__name__}: {exc}")
            break
        if answer.degraded:
            run.fail(f"query {index} degraded")
        run.batch_s.append(applied - start)
        run.visible_s.append(applied - due)
        run.query_s.append(answered - applied)
        run.mutations += len(batch)
        run.edges.append(metrics.edge_computations - edges)
        run.vertices.append(metrics.vertex_computations - vertices)
        if index < CRC_BATCHES:
            crcs.append(values_crc32(engine.values))
        due = time.perf_counter()  # closed loop: the next batch is due now
    else:
        if time.perf_counter() < deadline:
            run.fail(f"all {len(batches)} generated batches ran before the "
                     f"deadline; lower min_batch_s of {workload.name}")
    tracer.uninstall()
    run.end_measurement()
    run.elapsed_s = sum(run.batch_s)
    if not run.batch_s:
        run.fail("no batch completed")

    spec = load_spec()
    tolerance = spec["tolerances"][workload.algorithm]
    if run.failed == 0:
        run.checks.record(
            "graph_matches_inputs",
            graph_matches(engine.graph,
                          expected_graph(data, len(run.batch_s))),
            f"after {len(run.batch_s)} batches")
        run.checks.within(
            "values_match_ligra", engine.values,
            ligra_values(workload.algorithm, engine.graph, ITERATIONS),
            tolerance)
        if workload.store == "mmap":
            _check_heap_equals_mmap(run, workload, data, crcs)
    del server, engine
    if tracer.enabled and workload.reference:
        run.reference = reference_runs(workload, data)
    return run


def _check_heap_equals_mmap(run: Run, workload: Workload, data,
                            crcs: List[int]) -> None:
    """The heap store must reproduce the mmap run's values bit-for-bit
    (``values_crc32``) over the first batches."""
    from repro.core.engine import GraphBoltEngine
    from repro.graph.csr import CSRGraph

    num_vertices, src, dst, weight, batches = data
    engine = GraphBoltEngine(algorithm_factory(workload.algorithm)(),
                             num_iterations=ITERATIONS)
    engine.run(CSRGraph(num_vertices, src, dst, weight))
    heap = []
    for batch in batches[:len(crcs)]:
        engine.apply_mutations(batch)
        heap.append(values_crc32(engine.values))
    run.checks.record("mmap_crc_equals_heap", heap == crcs,
                      f"mmap {crcs} heap {heap}")


def _remove_stores(scratch: str) -> None:
    for name in os.listdir(scratch):
        if name.startswith("store-"):
            shutil.rmtree(os.path.join(scratch, name), ignore_errors=True)


def reference_runs(workload: Workload, data) -> Dict[str, float]:
    """GraphBolt, GB-Reset and Ligra over the same first batches,
    through the repository's own streaming harness."""
    from repro.bench.harness import (
        DeltaRunner,
        GraphBoltRunner,
        LigraRunner,
        run_stream,
    )
    from repro.graph.csr import CSRGraph

    num_vertices, src, dst, weight, batches = data
    factory = algorithm_factory(workload.algorithm)
    out = {}
    for key, runner_cls in (("graphbolt", GraphBoltRunner),
                            ("reset", DeltaRunner),
                            ("ligra", LigraRunner)):
        graph = CSRGraph(num_vertices, src, dst, weight)
        result = run_stream(runner_cls(factory, ITERATIONS), graph,
                            batches[:REFERENCE_BATCHES])
        out[f"{key}_ms"] = 1e3 * statistics.mean(
            batch.total_seconds for batch in result.batches)
        out[f"{key}_edges"] = float(sum(
            batch.edge_computations for batch in result.batches))
    return out


# ----------------------------------------------------------------------
# serve-replicated (open loop)
# ----------------------------------------------------------------------
class _Deployment:
    """A durable writer, its replicas and a query router."""

    def __init__(self, workload: Workload, data, tracer, root: str) -> None:
        from repro.graph.csr import CSRGraph
        from repro.recovery import RecoveryManager
        from repro.serving.replication import ReplicationCluster
        from repro.serving.resilience import ResilientAnalyticsServer
        from repro.serving.router import QueryRouter
        from repro.serving.server import StreamingAnalyticsServer

        num_vertices, src, dst, weight, _ = data
        factory = algorithm_factory(workload.algorithm)
        self.root = root
        with tracer.span("bench.setup"):
            with tracer.span("graph.build"):
                graph = CSRGraph(num_vertices, src, dst, weight)
            # One WAL record per segment: every batch seals its segment
            # and ships on its own.
            manager = RecoveryManager(
                os.path.join(root, "writer"),
                checkpoint_every=CHECKPOINT_EVERY,
                segment_records=1)
            server = StreamingAnalyticsServer(
                factory, graph,
                approx_iterations=APPROX_ITERATIONS,
                exact_iterations=ITERATIONS, recovery=manager)
            self.writer = ResilientAnalyticsServer(server)
            self.cluster = ReplicationCluster(
                self.writer, factory, os.path.join(root, "cluster"),
                replicas=REPLICAS, exact_iterations=ITERATIONS)
            self.cluster.replicate()  # replica bootstrap
        self.router = QueryRouter(self.cluster)

    def visible(self) -> bool:
        writer_next = self.cluster.writer_node.next_seq
        return all(replica.next_seq >= writer_next
                   and replica.server is not None
                   for replica in self.cluster.replicas.values()
                   if replica.alive)

    def close(self) -> None:
        self.cluster.close()
        shutil.rmtree(self.root, ignore_errors=True)


def run_serve(workload: Workload, data, seconds: float, tracer,
              scratch: str) -> Run:
    run = Run(workload, tracer)
    tracer.install()
    deployment = None
    for rep in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.close()
            deployment = None
        start = time.perf_counter()
        deployment = _Deployment(workload, data, tracer,
                                 os.path.join(scratch, f"serve-{rep}"))
        run.setup_s.append(time.perf_counter() - start)
    tracer.uninstall()
    run.checks.record("replicas_bootstrapped", deployment.visible())

    batches = data[4][:workload.num_batches(seconds)]
    period = workload.period_s
    events = []
    for index in range(len(batches)):
        events.append((index * period, "batch", index))
        events.append(((index + QUERY_DELAY) * period, "query", index))
    writer = deployment.writer
    cluster = deployment.cluster
    degraded = 0
    last_answer = None
    origin = time.perf_counter()
    for position, (offset, kind, index) in enumerate(events):
        due = origin + offset
        # Busy-wait, not sleep: on a shared VM a sleeping vCPU is handed
        # to other tenants and the next event starts cold, which made
        # per-batch times vary by 1.5x from run to run.
        while time.perf_counter() < due:
            pass
        started = time.perf_counter()
        run.lateness_s.append(started - due)
        run.backlog.append(
            sum(1 for event in events[position:]
                if origin + event[0] <= started) - 1)
        run.attempted += 1
        if kind == "batch":
            run.trace_block(index)
            engine = writer.server.engine
            edges, vertices = engine.metrics.edge_computations, \
                engine.metrics.vertex_computations
            try:
                with run.span("bench.visible"):
                    cluster.submit(batches[index])
                    cluster.replicate()
            except Exception as exc:  # noqa: BLE001 -- reported, run aborted
                run.fail(f"batch {index}: {type(exc).__name__}: {exc}")
                break
            if not deployment.visible():
                run.fail(f"batch {index} not visible on every replica")
            run.visible_s.append(time.perf_counter() - due)
            run.batch_s.append(writer.server.last_ingest_seconds)
            run.mutations += len(batches[index])
            run.edges.append(engine.metrics.edge_computations - edges)
            run.vertices.append(engine.metrics.vertex_computations
                                - vertices)
        else:
            try:
                with run.span("bench.query"):
                    last_answer = deployment.router.query()
            except Exception as exc:  # noqa: BLE001 -- reported, run aborted
                run.fail(f"query {index}: {type(exc).__name__}: {exc}")
                break
            run.query_s.append(time.perf_counter() - due)
            if last_answer.degraded:
                degraded += 1
                run.fail(f"query {index} degraded")
    run.elapsed_s = time.perf_counter() - origin
    tracer.uninstall()
    run.end_measurement()

    synced = cluster.sync()
    writer_values = writer.server.engine.values
    spec = load_spec()
    tolerance = spec["tolerances"][workload.algorithm]
    run.checks.record("sync_converged", synced)
    for name, replica in sorted(cluster.replicas.items()):
        run.checks.record(
            f"replica_{name}_bit_equal",
            replica.server is not None and np.array_equal(
                replica.server.engine.values, writer_values))
    run.checks.record("no_dead_letters", len(cluster.dead_letters) == 0,
                      f"{len(cluster.dead_letters)} dead letters")
    run.checks.record("no_quarantine",
                      writer.server.batches_quarantined == 0)
    graph = writer.server.engine.graph
    if not run.visible_s or last_answer is None:
        run.fail("no batch and query completed")
    if run.failed == 0:
        expected = expected_graph(data, len(run.visible_s))
        run.checks.record(
            "graphs_match_inputs",
            graph_matches(graph, expected) and all(
                replica.server is not None
                and graph_matches(replica.server.engine.graph, expected)
                for replica in cluster.replicas.values()),
            f"writer and every replica after {len(run.visible_s)} batches")
        run.checks.within(
            "writer_matches_ligra", writer_values,
            ligra_values(workload.algorithm, graph, APPROX_ITERATIONS),
            tolerance)
        run.checks.within(
            "query_matches_ligra", last_answer.values,
            ligra_values(workload.algorithm, graph, ITERATIONS),
            tolerance)
    quarantined = writer.server.batches_quarantined + sum(
        replica.server.batches_quarantined
        for replica in cluster.replicas.values()
        if replica.server is not None)
    run.failures = {
        "serving.resyncs": cluster.writer_node.resyncs,
        "serving.nacks": cluster.integrity_rejections,
        "serving.dead_letters": len(cluster.dead_letters),
        "serving.failovers": deployment.router.failovers,
        "serving.writer_fallbacks": deployment.router.writer_fallbacks,
        "serving.degraded_queries": degraded,
        "serving.quarantined": quarantined,
    }
    deployment.close()
    return run


RUNNERS = {"engine": run_engine, "serve": run_serve}


def run_workload(workload: Workload, data, seconds: float, trace: bool,
                 scratch: str) -> Run:
    tracer = Tracer() if trace else NULL_TRACER
    return RUNNERS[workload.kind](workload, data, seconds, tracer, scratch)

"""Streaming runners: one per engine column of the paper's tables.

Each runner exposes the same minimal protocol -- ``setup(graph)`` then
``apply(batch) -> values`` -- so experiments can time the three systems
of Table 5 (and the comparators of section 5.4) over identical mutation
streams:

- :class:`LigraRunner` -- restarts full synchronous recomputation on
  every mutation (the "Ligra" column);
- :class:`DeltaRunner` -- restarts delta/selective-scheduling execution
  on every mutation (the "GB-Reset" column);
- :class:`GraphBoltRunner` -- dependency-driven incremental processing
  (the "GraphBolt" column), optionally in retract/propagate mode
  ("GraphBolt-RP" of Figure 8).

To mirror the paper's methodology ("each algorithm version had the same
number of pending edge mutations to be processed"), every runner is fed
the identical batch sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import GraphBoltEngine
from repro.core.model import IncrementalAlgorithm
from repro.core.pruning import PruningPolicy
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import DeltaEngine
from repro.ligra.engine import LigraEngine
from repro.obs import trace
from repro.obs.registry import get_registry, ingest_engine_metrics
from repro.runtime.exec import (
    ExecutionBackend,
    load_imbalance,
    resolve_backend,
)
from repro.runtime.metrics import EngineMetrics

__all__ = [
    "StreamingRunner",
    "LigraRunner",
    "DeltaRunner",
    "GraphBoltRunner",
    "BatchResult",
    "StreamResult",
    "run_stream",
]

AlgorithmFactory = Callable[[], IncrementalAlgorithm]


class StreamingRunner:
    """Base protocol: set up on a snapshot, then apply batches."""

    name = "runner"

    def __init__(self, algorithm_factory: AlgorithmFactory,
                 num_iterations: Optional[int] = None,
                 until_convergence: bool = False,
                 backend: Optional[ExecutionBackend] = None) -> None:
        self.algorithm_factory = algorithm_factory
        self.num_iterations = num_iterations
        self.until_convergence = until_convergence
        self.backend = resolve_backend(backend)
        self.metrics = EngineMetrics()

    def setup(self, graph: CSRGraph) -> np.ndarray:
        raise NotImplementedError

    def apply(self, batch: MutationBatch) -> np.ndarray:
        raise NotImplementedError

    @property
    def graph(self) -> CSRGraph:
        raise NotImplementedError


class _RestartRunner(StreamingRunner):
    """Shared logic for engines that restart from scratch per snapshot."""

    def setup(self, graph: CSRGraph) -> np.ndarray:
        self._streaming = StreamingGraph(graph)
        return self._run_snapshot()

    def apply(self, batch: MutationBatch) -> np.ndarray:
        with trace.span("adjust_structure", metrics=self.metrics):
            self._streaming.apply_batch(batch)
        return self._run_snapshot()

    @property
    def graph(self) -> CSRGraph:
        return self._streaming.graph

    def _run_snapshot(self) -> np.ndarray:
        raise NotImplementedError


class LigraRunner(_RestartRunner):
    """Full synchronous recomputation per snapshot."""

    name = "Ligra"

    def _run_snapshot(self) -> np.ndarray:
        engine = LigraEngine(self.algorithm_factory(), self.metrics,
                             backend=self.backend)
        return engine.run(
            self._streaming.graph,
            num_iterations=self.num_iterations,
            until_convergence=self.until_convergence,
        )


class DeltaRunner(_RestartRunner):
    """Selective-scheduling recomputation per snapshot (GB-Reset)."""

    name = "GB-Reset"

    def _run_snapshot(self) -> np.ndarray:
        engine = DeltaEngine(self.algorithm_factory(), self.metrics,
                             backend=self.backend)
        return engine.run(
            self._streaming.graph,
            num_iterations=self.num_iterations,
            until_convergence=self.until_convergence,
        )


class GraphBoltRunner(StreamingRunner):
    """Dependency-driven incremental processing."""

    name = "GraphBolt"

    def __init__(self, algorithm_factory: AlgorithmFactory,
                 num_iterations: Optional[int] = None,
                 until_convergence: bool = False,
                 pruning: Optional[PruningPolicy] = None,
                 mode: str = "delta",
                 backend: Optional[ExecutionBackend] = None) -> None:
        super().__init__(algorithm_factory, num_iterations,
                         until_convergence, backend)
        self.pruning = pruning
        self.mode = mode
        if mode == "retract_propagate":
            self.name = "GraphBolt-RP"
        self.engine: Optional[GraphBoltEngine] = None

    def setup(self, graph: CSRGraph) -> np.ndarray:
        self.engine = GraphBoltEngine(
            self.algorithm_factory(),
            num_iterations=self.num_iterations,
            until_convergence=self.until_convergence,
            pruning=self.pruning,
            mode=self.mode,
            metrics=self.metrics,
            backend=self.backend,
        )
        return self.engine.run(graph)

    def apply(self, batch: MutationBatch) -> np.ndarray:
        return self.engine.apply_mutations(batch)

    @property
    def graph(self) -> CSRGraph:
        return self.engine.graph


# ----------------------------------------------------------------------
# Stream execution and measurement
# ----------------------------------------------------------------------
@dataclass
class BatchResult:
    """Measurements for one applied batch.

    ``seconds`` is compute time only: structure adjustment is excluded,
    matching the paper, which reports it separately (section 4.1) and
    charges all engines identically for it.  ``total_seconds`` includes
    it.
    """

    seconds: float
    total_seconds: float
    edge_computations: int
    vertex_computations: int


@dataclass
class StreamResult:
    """Measurements for one runner over a whole stream."""

    runner: str
    setup_seconds: float
    batches: List[BatchResult] = field(default_factory=list)
    final_values: Optional[np.ndarray] = None
    final_metrics: Optional[EngineMetrics] = None

    @property
    def total_apply_seconds(self) -> float:
        return sum(batch.seconds for batch in self.batches)

    @property
    def mean_apply_seconds(self) -> float:
        if not self.batches:
            return 0.0
        return self.total_apply_seconds / len(self.batches)

    @property
    def total_edge_computations(self) -> int:
        return sum(batch.edge_computations for batch in self.batches)

    def as_dict(self) -> Dict:
        return {
            "runner": self.runner,
            "setup_seconds": self.setup_seconds,
            "total_apply_seconds": self.total_apply_seconds,
            "mean_apply_seconds": self.mean_apply_seconds,
            "total_edge_computations": self.total_edge_computations,
            "per_batch_seconds": [batch.seconds for batch in self.batches],
            "per_batch_edges": [
                batch.edge_computations for batch in self.batches
            ],
        }


def run_stream(runner: StreamingRunner, graph: CSRGraph,
               batches: Sequence[MutationBatch]) -> StreamResult:
    """Run a full stream through one runner, timing each batch."""
    with trace.span("stream.setup", runner=runner.name) as timed:
        runner.setup(graph)
    result = StreamResult(runner=runner.name, setup_seconds=timed.seconds)
    registry = get_registry()
    values = None
    for batch in batches:
        before = runner.metrics.snapshot()
        with trace.span("stream.batch", runner=runner.name) as timed:
            values = runner.apply(batch)
        elapsed = timed.seconds
        delta = runner.metrics.delta_since(before)
        adjust = delta.phase_seconds.get("adjust_structure", 0.0)
        result.batches.append(
            BatchResult(
                seconds=max(elapsed - adjust, 0.0),
                total_seconds=elapsed,
                edge_computations=delta.edge_computations,
                vertex_computations=delta.vertex_computations,
            )
        )
        # Per-batch latency distributions: overall plus each engine
        # phase (refine/hybrid/compute/...) from the metrics delta.
        registry.histogram(f"{runner.name}.batch_seconds").observe(elapsed)
        for phase, seconds in delta.phase_seconds.items():
            if seconds > 0.0:
                registry.histogram(
                    f"{runner.name}.phase.{phase}_seconds"
                ).observe(seconds)
    result.final_values = values
    result.final_metrics = runner.metrics.snapshot()
    ingest_engine_metrics(result.final_metrics, runner.name,
                          registry=registry)
    registry.gauge(f"{runner.name}.shard_imbalance").set(
        load_imbalance(result.final_metrics.shard_loads)
    )
    return result

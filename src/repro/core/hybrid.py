"""Computation-aware hybrid execution (paper section 4.2).

Horizontal pruning means dependency information exists only up to some
iteration ``k``.  Past it, GraphBolt switches from dependency-driven
refinement to plain incremental (delta) computation: the refined rolling
state at ``k`` -- values, previous values, aggregate, and the frontier of
vertices whose value moved between iterations ``k-1`` and ``k`` -- is
exactly a :class:`~repro.ligra.delta.DeltaState`, so forward execution
is the GB-Reset stepping core continued from refined state.

The paper's bit-vector of values that changed at iteration ``k`` in the
original computation is subsumed here: the refined run's dense
``prev_values``/``values`` arrays carry both the original run's changes
and the refinement's, so the frontier computed from them seeds forward
propagation with the full set the paper requires.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.csr import CSRGraph
from repro.ligra.delta import DeltaEngine, DeltaState
from repro.obs import trace
from repro.runtime.deadline import Deadline

__all__ = ["hybrid_forward"]


def hybrid_forward(
    engine: DeltaEngine,
    graph: CSRGraph,
    state: DeltaState,
    total_iterations: Optional[int],
    until_convergence: bool,
    max_iterations: int = 1000,
    deadline: Optional[Deadline] = None,
) -> DeltaState:
    """Continue delta execution from refined state to the run's end.

    ``total_iterations`` is the target iteration count of the whole run
    (refined + forward); in convergence mode the loop instead runs until
    the frontier empties (capped at ``max_iterations``).

    ``deadline`` bounds the loop at iteration granularity: it is
    consulted *before* each step, so a started iteration always
    completes and the returned state is exactly the BSP state after
    ``state.iteration`` iterations -- a valid result truncated early,
    never a torn one.  The caller learns a deadline fired by comparing
    ``state.iteration`` against its target (see
    ``StreamingAnalyticsServer.query``).
    """
    metrics = engine.metrics
    with trace.span("hybrid", metrics=metrics,
                    start_iteration=state.iteration) as span:
        if until_convergence:
            budget = max_iterations - state.iteration
        else:
            if total_iterations is None:
                total_iterations = engine.algorithm.default_iterations
            budget = total_iterations - state.iteration
        steps = 0
        expired = False
        for _ in range(max(budget, 0)):
            if state.iteration > 0 and state.frontier.size == 0:
                break
            if deadline is not None and deadline.expired():
                expired = True
                break
            with trace.span("iteration", index=state.iteration + 1,
                            frontier=int(state.frontier.size)):
                engine.step(graph, state)
            metrics.hybrid_iterations += 1
            steps += 1
        span.tag(iterations=steps, deadline_expired=expired)
    return state

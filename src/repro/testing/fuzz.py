"""The ``repro fuzz`` campaign driver.

Generates seeded workloads, checks each with the cross-engine oracle,
and on divergence shrinks the failure and prints a ready-to-paste pytest
repro.  Two stopping conditions compose: a workload count and a
wall-clock budget (whichever hits first).

``plant_bug=True`` flips the harness into self-test mode: the known-bad
``strategy="naive"`` engine joins the roster and the campaign *passes*
only if the oracle catches it diverging and the shrinker reduces the
failure -- proof that the pipeline detects Table 1-style divergence
rather than passing vacuously.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.obs import JsonlJournal, Tracer, trace
from repro.runtime.deadline import WallClockDeadline
from repro.testing.oracle import WorkloadReport, check_workload
from repro.testing.shrinker import shrink, to_pytest
from repro.testing.workloads import Workload, generate_workload

__all__ = ["FuzzOutcome", "parse_budget", "run_fuzz"]


@dataclass
class FuzzOutcome:
    """Summary of one fuzzing campaign."""

    workloads_run: int = 0
    failures: List[WorkloadReport] = field(default_factory=list)
    shrunk: List[Workload] = field(default_factory=list)
    repros: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


def parse_budget(text: Optional[str]) -> Optional[float]:
    """Parse ``"30s"``, ``"2m"``, ``"45"`` into seconds (None passes)."""
    if text is None:
        return None
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([smh]?)\s*", text)
    if not match:
        raise ValueError(
            f"bad budget {text!r}; use e.g. '45', '30s', '2m', '1h'"
        )
    value = float(match.group(1))
    unit = {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0}[match.group(2)]
    return value * unit


def _journal_failure(journal: JsonlJournal, workload: Workload,
                     seed: int, report: WorkloadReport,
                     engines, include_naive: bool) -> None:
    """Append a ``repro`` marker and a traced replay of ``workload``."""
    journal.write({
        "type": "repro",
        "seed": seed,
        "workload": workload.describe(),
        "divergences": [str(d) for d in report.divergences],
    })
    with trace.activated(Tracer(sink=journal)):
        check_workload(workload, engines=engines,
                       include_naive=include_naive)


def run_fuzz(
    seed: int = 0,
    workloads: int = 25,
    budget_seconds: Optional[float] = None,
    algorithms: Optional[Sequence[str]] = None,
    engines: Optional[Sequence[str]] = None,
    max_vertices: int = 64,
    max_batches: int = 6,
    do_shrink: bool = True,
    shrink_checks: int = 300,
    plant_bug: bool = False,
    trace_path: Optional[str] = None,
    emit: Callable[[str], None] = print,
) -> FuzzOutcome:
    """Run a fuzzing campaign; see module docstring.

    ``trace_path`` journals a span dump of every failure: after
    shrinking, the minimised workload is replayed under a recording
    tracer and its span tree is appended (preceded by a ``repro``
    marker record) -- span ids depend only on control flow, so the
    dump is reproducible alongside the emitted pytest repro.
    """
    outcome = FuzzOutcome()
    deadline = (WallClockDeadline(budget_seconds)
                if budget_seconds is not None else None)
    journal = (JsonlJournal.open(trace_path) if trace_path is not None
               else None)
    with trace.span("fuzz.campaign") as campaign:
        for index in range(workloads):
            if deadline is not None and deadline.expired():
                outcome.budget_exhausted = True
                emit(f"budget exhausted after {outcome.workloads_run} "
                     f"workload(s)")
                break
            workload = generate_workload(
                seed + index,
                algorithms=algorithms,
                max_vertices=max_vertices,
                max_batches=max_batches,
            )
            with trace.span("fuzz.workload") as timed:
                report = check_workload(workload, engines=engines,
                                        include_naive=plant_bug)
            outcome.workloads_run += 1
            status = "OK" if report.ok else "DIVERGED"
            emit(f"[{index + 1}/{workloads}] {report.summary()} "
                 f"({timed.seconds:.2f}s) {status}")
            if report.ok:
                continue

            outcome.failures.append(report)
            for divergence in report.divergences:
                emit(f"    {divergence}")
            if not do_shrink:
                if journal is not None:
                    _journal_failure(journal, workload, seed + index,
                                     report, engines, plant_bug)
                    emit(f"    trace dump -> {trace_path}")
                continue

            def is_failing(candidate: Workload) -> bool:
                return not check_workload(
                    candidate, engines=engines, include_naive=plant_bug,
                    stop_at_first=True,
                ).ok

            result = shrink(workload, is_failing, max_checks=shrink_checks)
            outcome.shrunk.append(result.workload)
            if journal is not None:
                _journal_failure(journal, result.workload, seed + index,
                                 report, engines, plant_bug)
                emit(f"    trace dump -> {trace_path}")
            emit(
                f"    shrunk to V={result.workload.num_vertices}, "
                f"E={len(result.workload.edges)}, "
                f"batches={len(result.workload.schedule)}, "
                f"mutations={result.workload.total_mutations()} "
                f"({result.checks} oracle checks"
                + (", budget exhausted)" if result.exhausted else ")")
            )
            repro = to_pytest(result.workload, engines=engines,
                              include_naive=plant_bug,
                              expect_divergence=plant_bug)
            outcome.repros.append(repro)
            emit("    --- pytest repro " + "-" * 44)
            for line in repro.splitlines():
                emit("    " + line)
            emit("    " + "-" * 61)

        if journal is not None:
            journal.close()
    outcome.elapsed_seconds = campaign.seconds
    if plant_bug:
        caught = any(
            divergence.engine == "naive"
            for report in outcome.failures
            for divergence in report.divergences
        )
        if caught:
            emit(
                f"plant-a-bug: oracle caught the naive strategy in "
                f"{outcome.elapsed_seconds:.1f}s -- harness is live"
            )
        else:
            emit("plant-a-bug: naive strategy was NOT detected -- the "
                 "oracle is passing vacuously")
    else:
        emit(
            f"fuzz: {outcome.workloads_run} workload(s), "
            f"{len(outcome.failures)} failure(s), "
            f"{outcome.elapsed_seconds:.1f}s"
        )
    return outcome

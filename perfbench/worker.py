"""Run one workload on generated inputs and print its result line.

Started by ``perfbench/run.py`` in a process of its own, so the peak RSS
it reports covers the workload and not the input generator::

    python3 -m perfbench.worker --workload ingest-pr --inputs FILE \\
        --scratch DIR --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, Optional

from perfbench import inputs, report
from perfbench.workloads import WORKLOADS, Run, run_workload, tail_percentile


def result_line(run: Run, trace: bool) -> Dict:
    """The benchmark's final JSON object."""
    if trace:
        values = report.per_layer(run)
        units = report.PER_LAYER
    else:
        complete = all((run.setup_s, run.batch_s, run.visible_s,
                        run.query_s)) and run.elapsed_s > 0
        values = run.end_to_end() if complete else {}
        units = report.END_TO_END
    return {
        "correct": run.correct,
        "attempted": run.attempted + len(run.checks.results),
        "failed": run.failed + run.checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def describe(run: Run) -> None:
    """Human-readable lines ahead of the result line."""
    for label, samples in (("batch", run.batch_s),
                           ("visible", run.visible_s),
                           ("query", run.query_s)):
        if samples:
            print(f"# {label}: n={len(samples)} "
                  f"tail=p{tail_percentile(len(samples)):.1f} "
                  f"median={1e3 * statistics.median(samples):.3f} ms")
    for name, ok in run.checks.results.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'} "
              f"{run.checks.details[name]}")
    for error in run.errors:
        print(f"# failure: {error}")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's spans here (JSONL)")
    args = parser.parse_args(argv)

    data = inputs.load(args.inputs)
    run = run_workload(WORKLOADS[args.workload], data, args.seconds,
                       bool(args.trace), args.scratch)
    result = result_line(run, bool(args.trace))
    if args.trace and args.trace_out:
        run.tracer.write(args.trace_out)
    describe(run)
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

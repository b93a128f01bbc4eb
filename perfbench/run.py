#!/usr/bin/env python3
"""The repository benchmark: one workload, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload ingest-pr --seed 1 \\
        --seconds 20 --trace 0

Generates the workload's inputs from ``--seed`` (untimed), then runs the
workload in a separate process for ``--seconds`` seconds, checks its
outputs and prints, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Exits non-zero if any operation or check failed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Inputs, stores, WAL directories and span files live under here.
WORK_DIR = os.path.join(ROOT, ".perfbench")
WORKER_TIMEOUT_S = 170

sys.path[:0] = [ROOT, SRC]

from perfbench import inputs  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources ({SRC}/repro) are missing",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    source = WORKLOADS[workload.inputs]  # workloads may share inputs
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        path = os.path.join(scratch, "inputs.npz")
        inputs.save(path, inputs.generate(
            source.scale, source.num_batches(args.seconds),
            source.batch_size, args.seed))
        command = [
            sys.executable, "-m", "perfbench.worker",
            "--workload", workload.name, "--inputs", path,
            "--scratch", scratch, "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace:
            command += ["--trace-out", os.path.join(
                WORK_DIR, "traces", f"{workload.name}-seed{args.seed}.jsonl")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ROOT, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                           else []))
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            env[name] = "1"
        completed = subprocess.run(command, cwd=ROOT, env=env,
                                   timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())

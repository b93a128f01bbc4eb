"""The repository benchmark: streaming ingest, replicated serving and
per-layer self times, driven by ``python3 perfbench/run.py``.

Modules:

- :mod:`perfbench.inputs` -- the seeded input generator (an RMAT edge
  list plus a list of uniform mutation batches), run before any timing;
- :mod:`perfbench.workloads` -- the four workloads, their measurement
  loops, metrics and correctness checks;
- :mod:`perfbench.tracing` -- in-memory spans and the timing shims the
  traced run installs around the program's public entry points;
- :mod:`perfbench.worker` -- the process that runs one workload (so its
  peak RSS excludes input generation);
- ``SPEC.json`` -- seeds, tolerances, the tail rule and the map from
  each per-layer metric to the end-to-end metric it should move.
"""

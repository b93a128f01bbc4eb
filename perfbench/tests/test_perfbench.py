"""Tests of the benchmark itself (run with ``python -m pytest perfbench/tests``).

They cover the seeded generator, the untraced posture of the end-to-end
runs, the correctness checks, and that ``BENCHMARK.json`` and
``SPEC.json`` name the workloads and metrics the code runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import inputs, report, tracing, workloads  # noqa: E402
from perfbench.worker import result_line  # noqa: E402

TINY_ENGINE = workloads.Workload(
    "tiny-engine", "engine", "tiny-engine", scale=8, algorithm="PR",
    batch_size=20, min_batch_s=0.001)
TINY_SERVE = workloads.Workload(
    "tiny-serve", "serve", "tiny-serve", scale=8, algorithm="PR",
    batch_size=20, period_s=0.05)


def tiny_data(seed: int = 3, batches: int = 6):
    return inputs.unpack(inputs.generate(8, batches, 20, seed))


def run_tiny(workload, seconds, trace, tmp_path):
    """Run ``workload`` on as many batches as ``run.py`` would generate."""
    data = tiny_data(batches=workload.num_batches(seconds))
    return workloads.run_workload(workload, data, seconds, trace,
                                  str(tmp_path))


def shim_targets():
    """Every attribute a shim would replace, with its current value."""
    found = {}
    for module, path, *_ in tracing.SHIMS + tracing.COUNTERS:
        owner, attr = tracing._resolve(module, path)
        found[(module, path)] = getattr(owner, attr)
    return found


# ----------------------------------------------------------------------
# Seeded generator
# ----------------------------------------------------------------------
def test_same_seed_gives_identical_inputs():
    first = inputs.generate(8, 5, 20, seed=3)
    second = inputs.generate(8, 5, 20, seed=3)
    assert first.keys() == second.keys()
    for name in first:
        assert np.array_equal(first[name], second[name]), name


def test_different_seed_gives_different_inputs():
    first = inputs.generate(8, 5, 20, seed=3)
    other = inputs.generate(8, 5, 20, seed=4)
    assert not np.array_equal(first["src"], other["src"])
    assert not np.array_equal(first["add_src"], other["add_src"])


def test_batches_delete_live_edges_and_add_absent_ones(tmp_path):
    path = str(tmp_path / "inputs.npz")
    inputs.save(path, inputs.generate(8, 5, 20, seed=3))
    num_vertices, src, dst, weight, batches = inputs.load(path)
    live = set(zip(src.tolist(), dst.tolist()))
    for batch in batches:
        assert len(batch) == 20
        deletions = set(zip(batch.del_src.tolist(), batch.del_dst.tolist()))
        additions = set(zip(batch.add_src.tolist(), batch.add_dst.tolist()))
        assert deletions <= live
        assert not additions & live
        assert all(u != v for u, v in additions)
        live = (live - deletions) | additions
    assert max(max(edge) for edge in live) < num_vertices
    final_src, final_dst, _ = inputs.final_edges(num_vertices, src, dst,
                                                 weight, batches)
    assert set(zip(final_src.tolist(), final_dst.tolist())) == live
    assert final_src.size == len(live)


def test_fewer_batches_give_a_prefix():
    short = inputs.generate(8, 3, 20, seed=3)
    longer = inputs.generate(8, 7, 20, seed=3)
    for name in ("add_src", "add_dst", "add_weight", "del_src", "del_dst"):
        assert np.array_equal(longer[name][:short[name].size], short[name])


# ----------------------------------------------------------------------
# End-to-end runs install no shims; traced runs restore every original
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", [TINY_ENGINE, TINY_SERVE],
                         ids=lambda workload: workload.name)
def test_end_to_end_mode_installs_no_shims(workload, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("an end-to-end run installed a shim")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    before = shim_targets()
    run = run_tiny(workload, 0.3, False, tmp_path)
    assert run.tracer is tracing.NULL_TRACER
    assert run.correct, (run.errors, run.checks.details)
    assert shim_targets() == before
    metrics = result_line(run, False)["metrics"]
    assert set(metrics) == set(report.END_TO_END)


@pytest.mark.parametrize("workload", [TINY_ENGINE, TINY_SERVE],
                         ids=lambda workload: workload.name)
def test_traced_run_records_spans_and_restores_originals(workload,
                                                        tmp_path):
    before = shim_targets()
    run = run_tiny(workload, 0.6, True, tmp_path)
    assert shim_targets() == before
    assert run.correct, (run.errors, run.checks.details)
    names = {span.name for span in run.tracer.spans}
    assert {"graph.adjust", "core.refine", "ligra.step"} <= names
    metrics = result_line(run, True)["metrics"]
    assert set(metrics) == set(report.PER_LAYER)
    assert metrics["bench.traced_ms"]["value"] > 0
    assert metrics["graph.adjust_ms"]["value"] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("root") as root:
        with tracer.span("child") as child:
            pass
    self_time = tracer.self_times()
    assert self_time[root.id] == pytest.approx(
        root.duration - child.duration)
    assert self_time[child.id] == pytest.approx(child.duration)


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def test_checks_fail_on_a_planted_wrong_value_vector():
    reference = np.linspace(0.5, 1.5, 64)
    planted = reference.copy()
    planted[17] *= 1.01
    checks = workloads.Checks()
    assert checks.within("exact", reference.copy(), reference, 1e-3)
    assert not checks.within("planted", planted, reference, 1e-3)
    assert not checks.within("nan", np.full(64, np.nan), reference, 1e-3)
    assert not checks.within("shape", reference[:-1], reference, 1e-3)
    assert checks.failed == 3


@pytest.mark.parametrize("workload", [TINY_ENGINE, TINY_SERVE],
                         ids=lambda workload: workload.name)
def test_planted_wrong_reference_fails_the_run(workload, tmp_path,
                                               monkeypatch):
    original = workloads.ligra_values

    def planted(algorithm, graph, iterations):
        values = original(algorithm, graph, iterations).copy()
        values[0] += 0.5
        return values

    monkeypatch.setattr(workloads, "ligra_values", planted)
    run = run_tiny(workload, 0.3, False, tmp_path)
    line = result_line(run, False)
    assert line["correct"] is False
    assert line["failed"] >= 1
    assert report.failed_share(run) > 0


def test_relative_error_is_per_vertex():
    """A hub's large value must not hide an ordinary vertex's error."""
    reference = np.ones(10_000)
    reference[0] = 1000.0
    values = reference.copy()
    values[1] += 0.05
    assert workloads.relative_error(values, reference) == pytest.approx(
        0.05 / np.mean(reference))
    assert workloads.relative_error(values, reference) > 1e-2


def test_graph_check_fails_on_a_planted_wrong_edge():
    from repro.graph.csr import CSRGraph

    num_vertices, src, dst, weight, batches = tiny_data()
    expected = workloads.expected_graph(tiny_data(), 3)
    final = inputs.final_edges(num_vertices, src, dst, weight, batches[:3])
    assert workloads.graph_matches(CSRGraph(num_vertices, *final), expected)
    wrong_weight = final[2].copy()
    wrong_weight[5] = np.nextafter(wrong_weight[5], 2.0)
    assert not workloads.graph_matches(
        CSRGraph(num_vertices, final[0], final[1], wrong_weight), expected)
    assert not workloads.graph_matches(
        CSRGraph(num_vertices, final[0][1:], final[1][1:], final[2][1:]),
        expected)


@pytest.mark.parametrize("workload", [TINY_ENGINE, TINY_SERVE],
                         ids=lambda workload: workload.name)
def test_graph_check_fails_on_a_planted_wrong_batch(workload, tmp_path,
                                                    monkeypatch):
    original = inputs.final_edges

    def planted(num_vertices, src, dst, weight, batches):
        final = original(num_vertices, src, dst, weight, batches)
        return final[0][1:], final[1][1:], final[2][1:]

    monkeypatch.setattr(inputs, "final_edges", planted)
    run = run_tiny(workload, 0.3, False, tmp_path)
    assert not run.correct
    failed = [name for name, ok in run.checks.results.items() if not ok]
    assert failed and all(name.startswith("graph") for name in failed)


def test_running_out_of_batches_is_a_failure(tmp_path):
    run = workloads.run_workload(TINY_ENGINE, tiny_data(batches=3), 5.0,
                                 False, str(tmp_path))
    assert not run.correct
    assert any("ran before the deadline" in error for error in run.errors)


# ----------------------------------------------------------------------
# BENCHMARK.json and SPEC.json agree with the code
# ----------------------------------------------------------------------
def test_benchmark_json_names_every_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    assert {w["name"] for w in benchmark["workloads"]} == set(
        workloads.WORKLOADS)


def test_spec_maps_every_per_layer_metric_once():
    spec = workloads.load_spec()
    mapped = [metric for entry in spec["interaction_map"]
              for metric in entry["metrics"]]
    assert sorted(mapped) == sorted(report.PER_LAYER)
    for entry in spec["interaction_map"]:
        for metric, workload in entry["moves"] + entry.get("stays", []):
            assert metric in report.END_TO_END
            assert workload == "all" or workload in workloads.WORKLOADS


def test_workloads_are_distinct():
    assert len({dataclasses.astuple(w) for w in
                workloads.WORKLOADS.values()}) == len(workloads.WORKLOADS)

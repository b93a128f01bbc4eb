"""Smoke tests for the experiment drivers (tiny configurations).

The full-scale runs live in ``benchmarks/``; here each driver is
exercised end-to-end with minimal parameters so that payload schema,
table rendering, and the CLI wrapper stay correct.
"""

import json

import pytest

from repro.bench import experiments as exp
from repro.bench.__main__ import EXPERIMENTS
from repro.bench.__main__ import main as bench_main


class TestDrivers:
    def test_table1_payload(self):
        payload = exp.experiment_table1(num_batches=2, batch_size=20)
        assert payload["experiment"] == "table1"
        assert len(payload["over_1_percent"]) == 2
        json.dumps(payload)

    def test_figure4_payload(self):
        payload = exp.experiment_figure4(num_iterations=5)
        assert len(payload["density_per_iteration"]) == 5

    def test_table5_payload(self):
        payload = exp.experiment_table5(
            algorithms=["PR"], graphs=("WK",), batch_sizes=(10,),
            num_batches=1,
        )
        assert "PR|WK|10" in payload["cells"]
        cell = payload["cells"]["PR|WK|10"]
        assert set(cell) == {"Ligra", "GB-Reset", "GraphBolt"}

    def test_table5_triangle_cell(self):
        payload = exp.experiment_table5(
            algorithms=["TC"], graphs=("WK",), batch_sizes=(10,),
            num_batches=1,
        )
        cell = payload["cells"]["TC|WK|10"]
        assert cell["Ligra"]["edges"] == cell["GB-Reset"]["edges"]
        assert cell["GraphBolt"]["edges"] < cell["Ligra"]["edges"]

    def test_figure7_payload(self):
        payload = exp.experiment_figure7(
            algorithms=["LP"], graph_name="WK", batch_sizes=(1, 10),
        )
        assert payload["series"]["LP"]["GraphBolt-edges"][0] > 0

    def test_table8_payload(self):
        payload = exp.experiment_table8(
            algorithms=["LP"], graphs=("WK",), batch_size=20,
        )
        cell = payload["detail"]["WK|LP"]
        assert {"lo", "hi", "lo_edges", "hi_edges"} <= set(cell)

    def test_table9_payload(self):
        payload = exp.experiment_table9(algorithms=["PR"], graphs=("WK",))
        assert payload["detail"]["PR|WK"]["overhead_percent"] > 0
        assert "TC|WK" in payload["detail"]

    def test_motivation_payload(self):
        payload = exp.experiment_motivation_tagging(
            graphs=("WK",), batch_sizes=(1,),
        )
        assert 0.0 < payload["detail"]["WK|1"] <= 1.0

    def test_ablation_structure_payload(self):
        payload = exp.experiment_ablation_structure(
            graph_name="WK", batch_sizes=(10,), num_batches=3,
        )
        cell = payload["detail"]["10"]
        assert cell["identical"]
        assert cell["speedup"] > 0

    def test_render_table(self):
        payload = exp.experiment_figure4(num_iterations=3)
        text = exp.render_table(payload)
        assert "Figure 4" in text
        assert "changed" in text


class TestBenchMain:
    def test_runs_named_experiment(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "repro.bench.reporting.results_dir", lambda: str(tmp_path)
        )
        monkeypatch.setitem(
            EXPERIMENTS, "figure4",
            lambda: exp.experiment_figure4(num_iterations=3),
        )
        code = bench_main(["repro.bench", "figure4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert (tmp_path / "figure4.json").exists()

    def test_rejects_unknown_experiment(self, capsys):
        assert bench_main(["repro.bench", "nonexistent"]) == 2
        assert "unknown" in capsys.readouterr().out

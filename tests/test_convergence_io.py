"""Tests for convergence curves and benchmark CSV interchange."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import RandomSearchTuner
from repro.bench.io import export_benchmark_csv, import_benchmark_csv
from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.experiments.convergence import (
    ConvergenceCurve,
    convergence_curve,
    format_convergence_table,
)


class TestConvergenceCurve:
    @pytest.fixture(scope="class")
    def curve(self, request):
        tiny = request.getfixturevalue("tiny_benchmark")
        names = ("power", "delay")
        oracle = PoolOracle(tiny.objectives(names))
        result = RandomSearchTuner(budget=30, seed=0).tune(
            tiny.X, oracle
        )
        return convergence_curve("Random", result, tiny, names), tiny

    def test_monotone_nonincreasing(self, curve):
        c, _ = curve
        assert np.all(np.diff(c.hv_error) <= 1e-12)

    def test_length_matches_runs(self, curve):
        c, _ = curve
        assert len(c.runs) == len(c.hv_error) == 30
        assert c.runs[0] == 1

    def test_errors_bounded(self, curve):
        c, _ = curve
        assert np.all(c.hv_error <= 1.0 + 1e-9)
        assert np.all(c.hv_error >= -1e-9)

    def test_runs_to_reach(self, curve):
        c, _ = curve
        hit = c.runs_to_reach(0.5)
        if hit is not None:
            assert c.hv_error[hit - 1] <= 0.5
        assert c.runs_to_reach(-1.0) is None

    def test_every_tuner_reports_evaluation_order(self, tiny_benchmark):
        """The curve replays ``evaluated_indices`` as they stand, so
        every tuner lists its initial design as given (not sorted) and
        then its picks in the order it evaluated them."""
        names = ("power", "delay")
        init = [50, 3, 57, 12, 40]
        tuners = {
            "PPATuner": PPATuner(
                PPATunerConfig(max_iterations=10, seed=0)
            ),
            "Random": RandomSearchTuner(budget=15, seed=0),
        }
        for name, tuner in tuners.items():
            oracle = PoolOracle(tiny_benchmark.objectives(names))
            result = tuner.tune(
                tiny_benchmark.X, oracle, init_indices=np.array(init)
            )
            order = [int(i) for i in result.evaluated_indices]
            assert order[:len(init)] == init, name
            assert len(order) == len(set(order)), name
            if name == "PPATuner":
                picks = [i for rec in result.history for i in rec.selected]
                assert order[len(init):] == picks

    def test_format_table(self, curve):
        c, _ = curve
        text = format_convergence_table([c])
        assert "Random" in text
        assert "final" in text

    def test_direct_construction(self):
        c = ConvergenceCurve(
            "m", np.array([1, 2, 3]), np.array([0.5, 0.3, 0.1])
        )
        assert c.runs_to_reach(0.3) == 2


class TestBenchmarkCsv:
    def test_roundtrip(self, tiny_benchmark, tmp_path):
        path = tmp_path / "bench.csv"
        export_benchmark_csv(tiny_benchmark, path)
        back = import_benchmark_csv(
            path, tiny_benchmark.space, name="rt"
        )
        assert back.n == tiny_benchmark.n
        assert np.allclose(back.Y, tiny_benchmark.Y)
        assert back.configs == tiny_benchmark.configs
        assert np.allclose(back.X, tiny_benchmark.X)

    def test_wrong_columns_rejected(self, tiny_benchmark, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            import_benchmark_csv(path, tiny_benchmark.space)

    def test_empty_rejected(self, tiny_benchmark, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            import_benchmark_csv(path, tiny_benchmark.space)

    def test_header_only_rejected(self, tiny_benchmark, tmp_path):
        path = tmp_path / "header.csv"
        export_benchmark_csv(
            tiny_benchmark.subsample(1, seed=0), path
        )
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n")
        with pytest.raises(ValueError, match="no data"):
            import_benchmark_csv(path, tiny_benchmark.space)

    def test_out_of_domain_rejected(self, tiny_benchmark, tmp_path):
        path = tmp_path / "ood.csv"
        export_benchmark_csv(tiny_benchmark.subsample(2, seed=0), path)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[0] = "99.0"  # place_rcfactor far outside [1.0, 1.3]
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="outside"):
            import_benchmark_csv(path, tiny_benchmark.space)

    def test_malformed_row_rejected(self, tiny_benchmark, tmp_path):
        path = tmp_path / "short.csv"
        export_benchmark_csv(tiny_benchmark.subsample(2, seed=0), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="column count"):
            import_benchmark_csv(path, tiny_benchmark.space)

    def test_lowercase_booleans_accepted(self, tiny_benchmark, tmp_path):
        # external tools write "true"/"false"; import must not turn them
        # into strings that then fail space.validate
        path = tmp_path / "lower.csv"
        export_benchmark_csv(tiny_benchmark.subsample(3, seed=0), path)
        text = path.read_text()
        assert "True" in text or "False" in text  # space has a bool knob
        path.write_text(
            text.replace("True", "true").replace("False", "FALSE")
        )
        back = import_benchmark_csv(path, tiny_benchmark.space)
        assert back.n == 3
        for config in back.configs:
            assert isinstance(config["clock_power_driven"], bool)

    def test_bad_row_error_names_line(self, tiny_benchmark, tmp_path):
        path = tmp_path / "badline.csv"
        export_benchmark_csv(tiny_benchmark.subsample(3, seed=0), path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[0] = "not-a-number"  # out-of-domain on data row 3 (line 4)
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 4"):
            import_benchmark_csv(path, tiny_benchmark.space)

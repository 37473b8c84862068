"""Tests for the command-line interface."""

from __future__ import annotations

import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "target2", "--points", "10"]
        )
        assert args.benchmark == "target2"
        assert args.points == 10

    def test_tune_args(self):
        args = build_parser().parse_args([
            "tune", "target2", "--source", "source2",
            "--objectives", "area-delay", "--scale", "100",
        ])
        assert args.target == "target2"
        assert args.objectives == "area-delay"

    def test_invalid_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "bogus"])

    def test_scenario_args(self):
        args = build_parser().parse_args(
            ["scenario", "two", "--scale", "50"]
        )
        assert args.which == "two"
        assert args.workers is None
        assert args.resume is True
        assert args.force is False

    def test_scenario_runner_flags(self):
        args = build_parser().parse_args([
            "scenario", "one", "--workers", "4", "--repeats", "3",
            "--no-resume", "--force", "--points", "60",
            "--methods", "Random,PPATuner",
        ])
        assert args.workers == 4
        assert args.repeats == 3
        assert args.resume is False
        assert args.force is True
        assert args.points == 60
        assert args.methods == "Random,PPATuner"

    def test_experiments_args(self):
        args = build_parser().parse_args(
            ["experiments", "all", "--workers", "2"]
        )
        assert args.suite == "all"
        assert args.workers == 2

    def test_sensitivity_args(self):
        args = build_parser().parse_args(["sensitivity", "source2"])
        assert args.benchmark == "source2"

    def test_tune_trace_flag(self):
        args = build_parser().parse_args(
            ["tune", "target2", "--trace", "run.jsonl"]
        )
        assert args.trace == "run.jsonl"

    def test_scenario_trace_dir_flag(self):
        args = build_parser().parse_args(
            ["scenario", "two", "--trace-dir", "traces"]
        )
        assert args.trace_dir == "traces"

    def test_trace_args(self):
        args = build_parser().parse_args([
            "trace", "show", "run.jsonl",
            "--type", "selection_made", "--limit", "3",
        ])
        assert args.action == "show"
        assert args.trace == "run.jsonl"
        assert args.type == "selection_made"
        assert args.limit == 3

    def test_trace_diff_args(self):
        args = build_parser().parse_args(
            ["trace", "diff", "a.jsonl", "b.jsonl"]
        )
        assert args.action == "diff"
        assert args.other == "b.jsonl"

    def test_trace_rejects_bad_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "bogus", "run.jsonl"])

    def test_parser_does_not_import_experiments(self):
        """Names come from the bench and design tables; the scenario
        table (and every tuner behind it) loads only when a command
        runs."""
        code = (
            "import sys; from repro.cli import build_parser; "
            "build_parser(); print('repro.experiments' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


class TestCommands:
    def test_export_writes_verilog(self, tmp_path, capsys):
        out = tmp_path / "design.v"
        rc = main(["export", "mac_small", str(out)])
        assert rc == 0
        assert out.exists()
        assert "module mac_small" in out.read_text()
        assert "wrote" in capsys.readouterr().out

    def test_tune_reduced(self, capsys):
        rc = main([
            "tune", "target2", "--scale", "80",
            "--max-iterations", "6", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "runs=" in out
        assert "hv_error=" in out

    def test_tune_scores_like_the_scenario_tables(self, capsys):
        """``repro tune`` prints the HV error a scenario cell would
        report for the same run: both use the pool's reference
        point."""
        from repro import env
        from repro.bench import generate_benchmark
        from repro.core import PoolOracle, PPATuner, PPATunerConfig
        from repro.experiments import evaluate_outcome

        assert main([
            "tune", "target2", "--scale", "80",
            "--max-iterations", "6", "--seed", "1",
        ]) == 0
        printed = re.search(
            r"hv_error=(\S+)", capsys.readouterr().out
        ).group(1)
        names = ("power", "delay")
        target = generate_benchmark("target2").subsample(80, seed=1)
        with env.blas_thread_limit(1):
            result = PPATuner(
                PPATunerConfig(max_iterations=6, seed=1)
            ).tune(target.X, PoolOracle(target.objectives(names)))
        outcome = evaluate_outcome(
            "PPATuner", "power-delay", result, target, names
        )
        assert printed == f"{outcome.hv_error:.4f}"

    def test_unknown_scenario_names_every_scenario(self):
        from repro.experiments import SCENARIOS

        with pytest.raises(SystemExit) as exc:
            main(["scenario", "bogus"])
        assert exc.value.code != 0
        assert "bogus" in str(exc.value)
        for name in SCENARIOS:
            assert name in str(exc.value)

    def test_generate_with_points(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PPATUNER_CACHE", str(tmp_path))
        rc = main(["generate", "target2", "--points", "8"])
        assert rc == 0
        assert "target2" in capsys.readouterr().out


class TestScenarioCommand:
    """Reduced-scale smoke of the runner-backed scenario command."""

    ARGS = [
        "scenario", "two", "--points", "30", "--scale", "20",
        "--methods", "Random", "--seed", "1",
    ]

    @pytest.fixture(autouse=True)
    def _isolated_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PPATUNER_CACHE", str(tmp_path / "bench"))
        monkeypatch.setenv("PPATUNER_RUN_CACHE", str(tmp_path / "runs"))

    def test_parallel_smoke(self, capsys):
        rc = main(self.ARGS + ["--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Random" in out
        assert "[1/3]" in out  # one method over three objective spaces
        assert "(memo)" not in out

    def test_resume_serves_from_memo(self, capsys):
        assert main(self.ARGS) == 0
        capsys.readouterr()
        assert main(self.ARGS) == 0
        assert "(memo)" in capsys.readouterr().out

    def test_force_reruns(self, capsys):
        assert main(self.ARGS) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--force"]) == 0
        assert "(memo)" not in capsys.readouterr().out

    def test_no_resume_skips_memo(self, tmp_path, capsys):
        assert main(self.ARGS + ["--no-resume"]) == 0
        assert not list((tmp_path / "runs").glob("*.json"))


class TestTraceCommand:
    def test_tune_trace_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        rc = main([
            "tune", "target2", "--scale", "80",
            "--max-iterations", "6", "--seed", "1",
            "--trace", str(trace),
        ])
        assert rc == 0
        assert trace.exists()
        assert "trace:" in capsys.readouterr().out

        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "finished:" in out
        assert "calibration:" in out

        assert main([
            "trace", "show", str(trace),
            "--type", "selection_made", "--limit", "2",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("selection_made") for line in lines)

        assert main(["trace", "diff", str(trace), str(trace)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_trace_diff_requires_other(self, tmp_path):
        trace = tmp_path / "a.jsonl"
        trace.write_text("")
        with pytest.raises(SystemExit):
            main(["trace", "diff", str(trace)])


class TestCacheCommand:
    def test_info_empty(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PPATUNER_CACHE", str(tmp_path))
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "tables: 0" in out

    def test_verify_heals_corrupt_file(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("PPATUNER_CACHE", str(tmp_path))
        main(["generate", "target2", "--points", "8"])
        cached = next(
            p for p in tmp_path.glob("*.npz")
            if not p.name.startswith(".")
        )
        cached.write_bytes(b"torn write")
        assert main(["cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert not cached.exists()

    def test_verify_then_info_reports_ok(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("PPATUNER_CACHE", str(tmp_path))
        main(["generate", "target2", "--points", "8"])
        assert main(["cache", "verify"]) == 0
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "manifested" in out

    def test_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PPATUNER_CACHE", str(tmp_path))
        main(["generate", "target2", "--points", "8"])
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.npz"))

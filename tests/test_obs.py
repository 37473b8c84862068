"""Tests for the observability subsystem (``repro.obs``).

Covers the event schema round-trip (property-tested), the sinks and
recorders, metrics aggregation, trace replay fidelity against a live
run, and the human-readable reports.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.obs import (
    NULL_RECORDER,
    CalibrationDone,
    DecisionSummary,
    IterationEnd,
    IterationStart,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NullRecorder,
    RunEnd,
    RunStart,
    SelectionMade,
    Sink,
    ToolEvaluation,
    TraceRecorder,
    convergence_from_trace,
    diff_traces,
    event_from_json,
    format_events,
    read_trace,
    records_equal,
    replay_trace,
    summarize_trace,
    trace_path_for,
)

# --- event strategies --------------------------------------------------

_ints = st.integers(min_value=0, max_value=10**9)
_floats = st.floats(allow_nan=False, width=64)
_int_lists = st.lists(_ints, max_size=8)
_float_lists = st.lists(_floats, max_size=8)
_words = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=20,
)

_events = st.one_of(
    st.builds(
        RunStart, n_candidates=_ints, n_objectives=_ints, seed=_ints,
        n_init=_ints, n_sources=_ints, delta=_float_lists,
    ),
    st.builds(
        IterationStart, iteration=_ints, n_undecided=_ints,
        n_pareto=_ints, n_dropped=_ints,
    ),
    st.builds(
        CalibrationDone, iteration=_ints,
        path=st.sampled_from(["full", "incremental", "noop"]),
        n_models=_ints, n_new=_ints, n_fallbacks=_ints,
        reopt=st.booleans(), seconds=_floats,
    ),
    st.builds(
        DecisionSummary, iteration=_ints, n_live=_ints,
        n_undecided=_ints, n_pareto=_ints, n_dropped=_ints,
        newly_dropped=_ints, newly_pareto=_ints, seconds=_floats,
    ),
    st.builds(
        SelectionMade, iteration=_ints, selected=_int_lists,
        diameters=_float_lists,
    ),
    st.builds(
        ToolEvaluation, index=_ints, seconds=_floats,
        cached=st.booleans(), oracle=_words, values=_float_lists,
    ),
    st.builds(
        IterationEnd, iteration=_ints, n_undecided=_ints,
        n_pareto=_ints, n_dropped=_ints, n_evaluations=_ints,
        max_diameter=_floats, selected=_int_lists,
    ),
    st.builds(
        RunEnd, stop_reason=_words, n_iterations=_ints,
        n_evaluations=_ints, seconds=_floats,
        pareto_indices=_int_lists, evaluated_indices=_int_lists,
    ),
)


class TestEventSchema:
    @settings(max_examples=200, deadline=None)
    @given(_events)
    def test_round_trips_through_json_line(self, event):
        # The exact serialization path JsonlSink/read_trace use.
        line = json.dumps(event.to_json(), sort_keys=True)
        back = event_from_json(json.loads(line))
        assert type(back) is type(event)
        assert back == event

    def test_nan_and_inf_round_trip(self):
        ev = IterationEnd(
            iteration=0, n_undecided=3, n_pareto=0, n_dropped=0,
            n_evaluations=5, max_diameter=math.nan, selected=[],
        )
        back = event_from_json(json.loads(json.dumps(ev.to_json())))
        assert math.isnan(back.max_diameter)
        ev2 = SelectionMade(iteration=1, selected=[3],
                            diameters=[math.inf])
        back2 = event_from_json(json.loads(json.dumps(ev2.to_json())))
        assert back2.diameters == [math.inf]

    def test_unknown_keys_ignored(self):
        payload = IterationStart(
            iteration=2, n_undecided=5, n_pareto=1, n_dropped=0,
        ).to_json()
        payload["added_in_a_future_version"] = 42
        back = event_from_json(payload)
        assert back.iteration == 2

    def test_decision_summary_without_seconds_loads(self):
        """Traces written before decision passes were timed."""
        payload = {
            "type": "decision_summary", "iteration": 4, "n_live": 9,
            "n_undecided": 5, "n_pareto": 2, "n_dropped": 3,
            "newly_dropped": 1, "newly_pareto": 0,
        }
        back = event_from_json(json.loads(json.dumps(payload)))
        assert isinstance(back, DecisionSummary)
        assert back.seconds == 0.0 and back.n_live == 9

    def test_calibration_done_without_pool_rows_loads(self):
        """Traces written before calibrations counted cached rows."""
        payload = {
            "type": "calibration_done", "iteration": 2,
            "path": "incremental", "n_models": 2, "n_new": 1,
            "n_fallbacks": 0, "reopt": False, "seconds": 0.01,
        }
        back = event_from_json(json.loads(json.dumps(payload)))
        assert isinstance(back, CalibrationDone)
        assert back.pool_rows == 0 and back.n_new == 1

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown trace event"):
            event_from_json({"type": "bogus"})
        with pytest.raises(ValueError):
            event_from_json({})


class TestSinks:
    def test_memory_sink_ring_buffer(self):
        sink = MemorySink(capacity=3)
        for i in range(5):
            sink.write(IterationStart(
                iteration=i, n_undecided=0, n_pareto=0, n_dropped=0,
            ))
        assert sink.n_written == 5
        assert [e.iteration for e in sink.events] == [2, 3, 4]

    def test_memory_sink_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MemorySink(capacity=0)

    def test_jsonl_sink_lazy_open(self, tmp_path):
        path = tmp_path / "sub" / "t.jsonl"
        sink = JsonlSink(path)
        assert not path.exists()  # wired up but never emitted to
        sink.write(RunEnd(stop_reason="x", n_iterations=0,
                          n_evaluations=0, seconds=0.0))
        sink.close()
        assert path.exists()
        assert len(read_trace(path)) == 1

    def test_sinks_satisfy_protocol(self, tmp_path):
        assert isinstance(MemorySink(), Sink)
        assert isinstance(JsonlSink(tmp_path / "t.jsonl"), Sink)

    def test_read_trace_skips_torn_trailing_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps(IterationStart(
            iteration=0, n_undecided=1, n_pareto=0, n_dropped=0,
        ).to_json())
        path.write_text(good + "\n" + good[: len(good) // 2])
        assert len(read_trace(path)) == 1

    def test_read_trace_rejects_corrupt_middle_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps(IterationStart(
            iteration=0, n_undecided=1, n_pareto=0, n_dropped=0,
        ).to_json())
        path.write_text(good + "\n{torn\n" + good + "\n")
        with pytest.raises(ValueError, match="corrupt trace line 2"):
            read_trace(path)

    def test_trace_path_convention(self, tmp_path, monkeypatch):
        p = trace_path_for("abc123", tmp_path)
        assert p == tmp_path / "trace-abc123.jsonl"
        monkeypatch.setenv("PPATUNER_TRACE_DIR", str(tmp_path / "env"))
        assert trace_path_for("h").parent == tmp_path / "env"


class TestRecorders:
    def test_null_recorder_is_falsy(self):
        assert not NULL_RECORDER
        assert not NullRecorder()
        assert bool(TraceRecorder())

    def test_null_recorder_drops_everything(self):
        NULL_RECORDER.emit(RunEnd(stop_reason="x", n_iterations=0,
                                  n_evaluations=0, seconds=0.0))
        NULL_RECORDER.flush()
        NULL_RECORDER.close()

    def test_events_property_requires_memory_sink(self, tmp_path):
        rec = TraceRecorder(sinks=[JsonlSink(tmp_path / "t.jsonl")])
        with pytest.raises(RuntimeError):
            rec.events

    def test_metrics_aggregation(self):
        rec = TraceRecorder()
        rec.emit(ToolEvaluation(index=0, seconds=0.01, cached=False,
                                oracle="pool", values=[1.0]))
        rec.emit(ToolEvaluation(index=0, seconds=0.0, cached=True,
                                oracle="pool", values=[1.0]))
        rec.emit(CalibrationDone(iteration=1, path="incremental",
                                 n_models=2, n_new=1, n_fallbacks=1,
                                 reopt=True, seconds=0.2))
        snap = rec.metrics.snapshot()
        assert snap["counters"]["events.tool_evaluation"] == 2
        assert snap["counters"]["oracle.tool_runs"] == 1
        assert snap["counters"]["oracle.cached_hits"] == 1
        assert snap["counters"]["calibration.fallbacks"] == 1
        assert snap["counters"]["calibration.reopts"] == 1
        assert snap["histograms"]["oracle_seconds"]["count"] == 2
        assert rec.n_emitted == 3
        assert rec.metrics.format()  # renders without error

    def test_metrics_histogram_moments(self):
        m = MetricsRegistry()
        for v in (0.001, 0.004, 0.002):
            m.histogram("lat").observe(v)
        h = m.histogram("lat")
        assert h.count == 3
        assert h.min == 0.001 and h.max == 0.004
        assert h.mean == pytest.approx(0.007 / 3)


def _traced_run(synthetic_pool, path, seed=3, iters=8):
    X, Y, Xs, Ys = synthetic_pool
    rec = TraceRecorder(sinks=[MemorySink(), JsonlSink(path)])
    tuner = PPATuner(
        PPATunerConfig(max_iterations=iters, seed=seed), recorder=rec,
    )
    result = tuner.tune(X, PoolOracle(Y), sources=[(Xs, Ys)])
    rec.close()
    return result, rec


class TestReplay:
    def test_replay_reproduces_live_run_exactly(
        self, synthetic_pool, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        result, _ = _traced_run(synthetic_pool, path)
        replay = replay_trace(path)
        assert records_equal(replay.history, result.history)
        rebuilt = replay.to_result()
        np.testing.assert_array_equal(
            rebuilt.pareto_indices, result.pareto_indices
        )
        np.testing.assert_allclose(
            rebuilt.pareto_points, result.pareto_points
        )
        np.testing.assert_array_equal(
            rebuilt.evaluated_indices, result.evaluated_indices
        )
        assert rebuilt.n_evaluations == result.n_evaluations
        assert rebuilt.n_iterations == result.n_iterations
        assert rebuilt.stop_reason == result.stop_reason

    def test_last_run_wins_on_shared_file(
        self, synthetic_pool, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        _traced_run(synthetic_pool, path, seed=3)
        second, _ = _traced_run(synthetic_pool, path, seed=11)
        replay = replay_trace(path)
        assert records_equal(replay.history, second.history)
        np.testing.assert_array_equal(
            replay.pareto_indices, second.pareto_indices
        )

    def test_truncated_trace_keeps_history(
        self, synthetic_pool, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        result, _ = _traced_run(synthetic_pool, path)
        events = [e for e in read_trace(path)
                  if not isinstance(e, RunEnd)]
        replay = replay_trace(events)
        assert replay.run_end is None
        assert records_equal(replay.history, result.history)
        assert len(replay.pareto_indices) == 0
        with pytest.raises(ValueError, match="truncated"):
            replay.to_result()

    def test_oracle_adoption_and_restore(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        rec = TraceRecorder()
        oracle = PoolOracle(Y)
        PPATuner(
            PPATunerConfig(max_iterations=4, seed=0), recorder=rec,
        ).tune(X, oracle, sources=[(Xs, Ys)])
        # The tuner lends its recorder to the oracle for the run only.
        assert not oracle.recorder
        census = rec.metrics.snapshot()["counters"]
        assert census["events.tool_evaluation"] >= oracle.n_evaluations
        assert census["events.run_start"] == 1
        assert census["events.run_end"] == 1

    def test_disabled_recorder_emits_nothing(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        oracle = PoolOracle(Y)
        result = PPATuner(
            PPATunerConfig(max_iterations=4, seed=0),
        ).tune(X, oracle, sources=[(Xs, Ys)])
        assert result.n_iterations >= 1
        assert not oracle.recorder

    def test_convergence_from_trace_matches_live(
        self, tiny_benchmark, tmp_path
    ):
        from repro.experiments.convergence import convergence_curve

        names = ("power", "delay")
        path = tmp_path / "run.jsonl"
        rec = TraceRecorder(sinks=[JsonlSink(path)])
        result = PPATuner(
            PPATunerConfig(max_iterations=6, seed=5), recorder=rec,
        ).tune(tiny_benchmark.X,
               PoolOracle(tiny_benchmark.objectives(names)))
        rec.close()
        live = convergence_curve("m", result, tiny_benchmark, names)
        replayed = convergence_from_trace(
            path, tiny_benchmark, names, method="m"
        )
        np.testing.assert_array_equal(replayed.runs, live.runs)
        np.testing.assert_allclose(replayed.hv_error, live.hv_error)


class TestReports:
    def test_summary_renders_key_lines(self, synthetic_pool, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(synthetic_pool, path)
        text = summarize_trace(path)
        assert "run: 150 candidates x 2 objectives" in text
        assert "finished:" in text
        assert "calibration:" in text
        assert "oracle:" in text
        assert "rectangles:" in text

    def test_summary_totals_decision_time(self, synthetic_pool, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(synthetic_pool, path)
        passes = [e for e in read_trace(path)
                  if isinstance(e, DecisionSummary)]
        assert passes and all(e.seconds > 0.0 for e in passes)
        total = sum(e.seconds for e in passes)
        assert (
            f"decisions: {len(passes)} pass(es), {total:.2f}s total"
            in summarize_trace(path).splitlines()
        )

    def test_summary_reports_pool_rows(self, synthetic_pool, tmp_path):
        """Refits drop the pool caches (0 rows); border updates extend
        only live rows, so the count never exceeds the live set."""
        path = tmp_path / "run.jsonl"
        _traced_run(synthetic_pool, path)
        events = read_trace(path)
        calib = [e for e in events if isinstance(e, CalibrationDone)]
        assert all(e.pool_rows == 0 for e in calib if e.path != "incremental")
        rows = [e.pool_rows for e in calib if e.pool_rows]
        assert rows and all(0 < r <= 150 for r in rows)
        starts = {
            e.iteration: e for e in events if isinstance(e, IterationStart)
        }
        for e in calib:
            if e.pool_rows:
                assert e.pool_rows <= 150 - starts[e.iteration].n_dropped
        line = next(
            ln for ln in summarize_trace(path).splitlines()
            if ln.startswith("calibration:")
        )
        assert line.endswith(
            f"; pool rows extended {rows[0]} -> {rows[-1]}"
        )

    def test_summary_flags_truncation(self, synthetic_pool, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(synthetic_pool, path)
        events = [e for e in read_trace(path)
                  if not isinstance(e, RunEnd)]
        assert "TRUNCATED" in summarize_trace(replay_trace(events))

    def test_format_events_filters(self, synthetic_pool, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(synthetic_pool, path)
        only_sel = format_events(path, event_type="selection_made")
        lines = only_sel.splitlines()
        assert lines and all(
            line.startswith("selection_made") for line in lines
        )
        assert len(format_events(path, limit=3).splitlines()) == 3

    def test_diff_identical_and_divergent(
        self, synthetic_pool, tmp_path
    ):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _traced_run(synthetic_pool, a, seed=3)
        _traced_run(synthetic_pool, b, seed=11)
        same = diff_traces(a, a)
        assert "selections identical" in same
        assert "final Pareto sets identical" in same
        differing = diff_traces(a, b)
        assert ("diverges at iteration" in differing
                or "selections identical" in differing)

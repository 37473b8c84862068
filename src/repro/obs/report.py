"""Human-readable trace inspection (the ``repro trace`` commands).

``summarize_trace`` condenses one run's event stream into a screenful:
run header, event census, calibration/selection behavior, oracle
latency, and how the uncertainty rectangles shrank.  ``diff_traces``
aligns two runs iteration-by-iteration and reports where — if anywhere —
they diverge, which is how "why did the re-run converge differently?"
gets answered without reading raw JSONL.
"""

from __future__ import annotations

import math
from collections import Counter as TallyCounter
from pathlib import Path
from typing import Iterable

from .events import (
    CalibrationDone,
    CircuitStateChange,
    DecisionSummary,
    EvaluationRetry,
    PointQuarantined,
    SelectionMade,
    ToolEvaluation,
    TraceEvent,
)
from .replay import TraceReplay, replay_trace
from .sinks import read_trace

__all__ = ["diff_traces", "format_events", "summarize_trace"]


def _load(source: str | Path | Iterable[TraceEvent]) -> list[TraceEvent]:
    if isinstance(source, (str, Path)):
        return read_trace(source)
    return list(source)


def format_events(
    source: str | Path | Iterable[TraceEvent],
    event_type: str | None = None,
    iteration: int | None = None,
    limit: int | None = None,
) -> str:
    """Render events one per line (``repro trace show``).

    Args:
        source: Trace path or events.
        event_type: Keep only this ``type`` tag.
        iteration: Keep only events of this iteration (events without
            an iteration field are kept unless ``event_type`` filters
            them).
        limit: Keep only the last ``limit`` surviving events.
    """
    events = _load(source)
    if event_type is not None:
        events = [e for e in events if e.type == event_type]
    if iteration is not None:
        events = [
            e for e in events
            if getattr(e, "iteration", iteration) == iteration
        ]
    if limit is not None and limit >= 0:
        events = events[len(events) - limit:]
    lines = []
    for e in events:
        payload = e.to_json()
        payload.pop("type")
        body = " ".join(f"{k}={_compact(v)}" for k, v in payload.items())
        lines.append(f"{e.type:<18} {body}")
    return "\n".join(lines)


def _compact(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        if len(value) > 8:
            head = ",".join(_compact(v) for v in value[:8])
            return f"[{head},…+{len(value) - 8}]"
        return "[" + ",".join(_compact(v) for v in value) + "]"
    return str(value)


def _fmt_diam(value: float) -> str:
    if math.isnan(value):
        return "-"
    if math.isinf(value):
        return "inf"
    return f"{value:.4g}"


def summarize_trace(source: str | Path | TraceReplay) -> str:
    """One-screen summary of a recorded run (``repro trace summary``)."""
    replay = (
        source if isinstance(source, TraceReplay) else replay_trace(source)
    )
    events = replay.events
    lines: list[str] = []

    start, end = replay.run_start, replay.run_end
    if start is not None:
        lines.append(
            f"run: {start.n_candidates} candidates x "
            f"{start.n_objectives} objectives, seed={start.seed}, "
            f"{start.n_init} init evals, {start.n_sources} source "
            f"archive(s)"
        )
    if end is not None:
        lines.append(
            f"finished: {end.stop_reason} after {end.n_iterations} "
            f"iterations, {end.n_evaluations} loop tool runs, "
            f"{len(end.pareto_indices)} Pareto configurations, "
            f"{end.seconds:.2f}s"
        )
    else:
        lines.append(
            f"TRUNCATED: no run_end — {len(replay.history)} "
            f"iteration(s) recovered"
        )

    census = TallyCounter(e.type for e in events)
    lines.append("events: " + "  ".join(
        f"{t}={n}" for t, n in sorted(census.items())
    ))

    calib = [e for e in events if isinstance(e, CalibrationDone)]
    if calib:
        full = sum(1 for e in calib if e.path == "full")
        incr = sum(1 for e in calib if e.path == "incremental")
        fallbacks = sum(e.n_fallbacks for e in calib)
        reopts = sum(1 for e in calib if e.reopt)
        total_s = sum(e.seconds for e in calib)
        line = (
            f"calibration: {full} full, {incr} incremental, "
            f"{fallbacks} fallback(s), {reopts} re-optimization(s), "
            f"{total_s:.2f}s total"
        )
        pool_rows = [e.pool_rows for e in calib if e.pool_rows]
        if pool_rows:
            line += f"; pool rows extended {pool_rows[0]} -> {pool_rows[-1]}"
        lines.append(line)
    decisions = [e for e in events if isinstance(e, DecisionSummary)]
    if decisions:
        lines.append(
            f"decisions: {len(decisions)} pass(es), "
            f"{sum(e.seconds for e in decisions):.2f}s total"
        )

    evals = [e for e in events if isinstance(e, ToolEvaluation)]
    if evals:
        fresh = [e for e in evals if not e.cached]
        lat = sorted(e.seconds for e in fresh) or [0.0]
        lines.append(
            f"oracle: {len(fresh)} tool runs ({len(evals) - len(fresh)} "
            f"cached), latency p50={lat[len(lat) // 2]:.6f}s "
            f"max={lat[-1]:.6f}s"
        )

    if replay.history:
        first = replay.history[0]
        last = replay.history[-1]
        lines.append(
            f"rectangles: max diameter "
            f"{_fmt_diam(first.max_diameter)} -> "
            f"{_fmt_diam(last.max_diameter)}; undecided "
            f"{first.n_undecided} -> {last.n_undecided}; pareto "
            f"{first.n_pareto} -> {last.n_pareto}; dropped "
            f"{first.n_dropped} -> {last.n_dropped}"
        )
        sel = [e for e in events if isinstance(e, SelectionMade)]
        n_sel = sum(len(e.selected) for e in sel)
        lines.append(
            f"selection: {n_sel} candidate(s) sent to the tool over "
            f"{len(sel)} decision round(s)"
        )
        if replay.batch_selections:
            sizes = [len(e.selected) for e in replay.batch_selections]
            lines.append(
                f"batching: {len(sizes)} q-point round(s), batch size "
                f"max={max(sizes)} mean={sum(sizes) / len(sizes):.1f}"
            )
        if replay.pool_refinements:
            final = replay.pool_refinements[-1]
            lines.append(
                f"pool refinement: {len(replay.pool_refinements)} "
                f"round(s), +{replay.n_pool_grown} candidate(s) "
                f"(pool -> {final.n_pool}, zoom={final.zoom:g})"
            )

    retries = [e for e in events if isinstance(e, EvaluationRetry)]
    breaker = [e for e in events if isinstance(e, CircuitStateChange)]
    quarantined = [e for e in events if isinstance(e, PointQuarantined)]
    if retries or breaker or quarantined:
        wait = sum(e.wait_s for e in retries)
        trips = sum(1 for e in breaker if e.new_state == "open")
        lines.append(
            f"reliability: {len(retries)} retry(ies) "
            f"({wait:.3f}s backoff), {trips} breaker trip(s), "
            f"{len(quarantined)} point(s) quarantined"
            + (
                " [" + ",".join(str(e.index) for e in quarantined) + "]"
                if quarantined else ""
            )
        )
    return "\n".join(lines)


def diff_traces(
    a: str | Path | TraceReplay, b: str | Path | TraceReplay
) -> str:
    """Iteration-aligned comparison of two runs (``repro trace diff``).

    Reports the first iteration where the two selection sequences
    diverge and tabulates per-iteration counters side by side
    (``A|B`` columns; ``*`` marks rows that differ).
    """
    ra = a if isinstance(a, TraceReplay) else replay_trace(a)
    rb = b if isinstance(b, TraceReplay) else replay_trace(b)
    lines: list[str] = []

    div = None
    for i, (ha, hb) in enumerate(zip(ra.history, rb.history)):
        if list(ha.selected) != list(hb.selected):
            div = i
            break
    if div is not None:
        lines.append(
            f"selection diverges at iteration {div}: "
            f"A={list(ra.history[div].selected)} "
            f"B={list(rb.history[div].selected)}"
        )
    elif len(ra.history) != len(rb.history):
        lines.append(
            f"selections identical over the common prefix; iteration "
            f"counts differ ({len(ra.history)} vs {len(rb.history)})"
        )
    else:
        lines.append("selections identical")

    pa = set(int(i) for i in ra.pareto_indices)
    pb = set(int(i) for i in rb.pareto_indices)
    if pa == pb:
        lines.append(f"final Pareto sets identical ({len(pa)} indices)")
    else:
        lines.append(
            f"final Pareto sets differ: only-A={sorted(pa - pb)} "
            f"only-B={sorted(pb - pa)} shared={len(pa & pb)}"
        )

    header = (
        f"{'iter':>4} {'und A|B':>11} {'par A|B':>11} "
        f"{'drop A|B':>11} {'runs A|B':>11} {'maxdiam A|B':>19}"
    )
    lines.append(header)
    n = max(len(ra.history), len(rb.history))
    for i in range(n):
        ha = ra.history[i] if i < len(ra.history) else None
        hb = rb.history[i] if i < len(rb.history) else None

        def pair(fa, fb, fmt=str) -> str:
            left = fmt(fa) if fa is not None else "-"
            right = fmt(fb) if fb is not None else "-"
            return f"{left}|{right}"

        row = (
            f"{i:>4} "
            f"{pair(ha and ha.n_undecided, hb and hb.n_undecided):>11} "
            f"{pair(ha and ha.n_pareto, hb and hb.n_pareto):>11} "
            f"{pair(ha and ha.n_dropped, hb and hb.n_dropped):>11} "
            f"{pair(ha and ha.n_evaluations, hb and hb.n_evaluations):>11} "
            f"{pair(ha and ha.max_diameter, hb and hb.max_diameter, _fmt_diam):>19}"
        )
        differ = (
            ha is None or hb is None
            or (ha.n_undecided, ha.n_pareto, ha.n_dropped,
                ha.n_evaluations, list(ha.selected))
            != (hb.n_undecided, hb.n_pareto, hb.n_dropped,
                hb.n_evaluations, list(hb.selected))
        )
        lines.append(row + (" *" if differ else ""))
    return "\n".join(lines)

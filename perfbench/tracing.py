"""In-memory span tracer and per-layer instrumentation for the benchmark.

A traced pass patches the public entry point of each layer for its
duration and records one span per call: name, start, end, the span that
caused it and a few counts.  Untraced passes run the unpatched library
code, so the end-to-end numbers carry no tracing cost.

Only entry points expected to survive the planned simplifications are
wrapped (see README.md): ``CalibrationEngine.calibrate``/``predict``, the
``fit``/``update``/``predict_pool`` of whatever model classes the engine
receives, ``predict_pool_multi``, ``UncertaintyRegions.intersect``,
``apply_decision_rules``, ``select_next``/``select_batch``,
``TuningSession.ask``/``tell``/``snapshot``, ``SessionStore.save`` and
the ``TuningService`` handlers.  Module-level functions are patched
wherever a ``repro`` module binds them, whatever the import style.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

_MISSING = object()

#: TuningService methods the HTTP handler dispatches to.
SERVICE_HANDLERS = (
    "create_session", "ask", "tell", "tell_batch", "pool", "stop",
    "status", "result", "delete",
)


class Tracer:
    """Records spans in memory; :meth:`install` patches the layers.

    Spans opened on a thread other than the creating one (the HTTP
    server's handler threads) take the creating thread's innermost open
    span as parent: with one closed-loop client that is the request the
    handler is serving.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self.engines: list = []
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._model_classes: set = set()

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its counts dict for the caller."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = -1
        counts: dict = {}
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, counts])
        stack.append(idx)
        try:
            yield counts
        finally:
            stack.pop()
            self.spans[idx][2] = time.perf_counter()

    # -- patching ------------------------------------------------------

    def _wrap(self, func, name, pre=None, post=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as counts:
                before = pre(args) if pre else None
                out = func(*args, **kwargs)
                if post:
                    counts.update(post(args, out, before))
                return out

        wrapper._perfbench_wrapped = True
        return wrapper

    def patch_method(self, owner, attr, name, pre=None, post=None) -> None:
        """Wrap ``owner.attr`` (a class attribute) in a span."""
        func = getattr(owner, attr, None)
        if func is None or getattr(func, "_perfbench_wrapped", False):
            return
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, self._wrap(func, name, pre, post))

    def patch_function(self, func, name, post=None) -> None:
        """Wrap a module-level function in every ``repro`` module binding it."""
        wrapper = self._wrap(func, name, post=post)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, func))
                    setattr(module, attr, wrapper)

    def instrument_models(self, models) -> None:
        """Wrap the GP entry points of every model class seen."""
        for cls in {type(m) for m in models} - self._model_classes:
            self._model_classes.add(cls)
            self.patch_method(cls, "fit", "gp.fit")
            self.patch_method(cls, "update", "gp.update")
            self.patch_method(
                cls, "predict_pool", "gp.predict_pool",
                post=lambda a, out, b: {"rows": _n_rows(a[1])},
            )

    def install(self) -> None:
        """Patch every layer entry point (undone by :meth:`uninstall`)."""
        from repro.core import calibration, decision, selection
        from repro.core.calibration import CalibrationEngine
        from repro.core.session import TuningSession
        from repro.core.uncertainty import UncertaintyRegions
        from repro.service.server import TuningService
        from repro.service.store import SessionStore

        tracer = self
        init = CalibrationEngine.__init__

        @functools.wraps(init)
        def engine_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            tracer.engines.append(engine)
            tracer.instrument_models(engine.models)

        self._patches.append(
            (CalibrationEngine, "__init__",
             CalibrationEngine.__dict__.get("__init__", _MISSING))
        )
        CalibrationEngine.__init__ = engine_init

        self.patch_method(
            CalibrationEngine, "calibrate", "calibration.calibrate",
            pre=lambda a: _stat_counts(a[0]),
            post=lambda a, out, before: _calibrate_kind(a[0], before),
        )
        self.patch_method(CalibrationEngine, "predict", "calibration.predict")
        multi = getattr(calibration, "predict_pool_multi", None)
        if multi is not None:
            self.patch_function(multi, "gp.predict_pool_multi")
        self.patch_method(
            UncertaintyRegions, "intersect", "uncertainty.intersect",
            post=lambda a, out, b: {"rows": _n_rows(a[1])},
        )
        self.patch_function(
            decision.apply_decision_rules, "decision.decide",
            post=lambda a, out, b: {"rows": _n_rows(a[1])},
        )
        for fn in (selection.select_next, selection.select_batch):
            self.patch_function(
                fn, "selection.select",
                post=lambda a, out, b: {"picks": len(out)},
            )
        self.patch_method(TuningSession, "ask", "session.ask")
        self.patch_method(TuningSession, "tell", "session.tell")
        self.patch_method(TuningSession, "snapshot", "session.snapshot")
        self.patch_method(
            SessionStore, "save", "service.persist",
            post=lambda a, out, b: {"bytes": _file_size(out)},
        )
        for handler in SERVICE_HANDLERS:
            self.patch_method(TuningService, handler, "service.handler")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self._model_classes.clear()

    # -- aggregation ---------------------------------------------------

    def summarize(self) -> dict:
        """Per-name totals: self/inclusive seconds, calls, summed counts.

        A span's self time is its duration minus its children's; the
        ``"_top"`` entry holds the total duration of parentless spans,
        i.e. the time some layer covers.
        """
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]
        out: dict = {"_top": 0.0}
        for i, (name, _, _, parent, counts) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"self": 0.0, "incl": 0.0, "n": 0, "counts": {}}
            )
            entry["self"] += dur[i] - child[i]
            entry["incl"] += dur[i]
            entry["n"] += 1
            for key, value in counts.items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
            if parent < 0:
                out["_top"] += dur[i]
        return out


def _n_rows(indices) -> int:
    idx = np.asarray(indices)
    return int(idx.sum()) if idx.dtype == bool else int(idx.size)


def _file_size(path) -> int:
    try:
        return int(path.stat().st_size)
    except (AttributeError, OSError):
        return 0


def _stat_counts(engine) -> tuple[int, int]:
    stats = engine.stats
    return (getattr(stats, "n_reopts", 0), getattr(stats, "n_incremental", 0))


def _calibrate_kind(engine, before) -> dict:
    reopts, incremental = _stat_counts(engine)
    return {
        "reopt": int(reopts > before[0]),
        "incremental": int(incremental > before[1]),
    }


def reopt_and_incremental_seconds(tracer: Tracer) -> tuple[float, int, float]:
    """Inclusive seconds of re-optimizing calibrations, their count, and
    inclusive seconds of incremental calibrations."""
    reopt_s = incremental_s = 0.0
    reopt_n = 0
    for name, start, end, _, counts in tracer.spans:
        if name != "calibration.calibrate":
            continue
        if counts.get("reopt"):
            reopt_s += end - start
            reopt_n += 1
        elif counts.get("incremental"):
            incremental_s += end - start
    return reopt_s, reopt_n, incremental_s

"""In-memory span tracer that wraps the toolkit's public functions from outside.

Nothing under ``src/`` changes.  The package's modules import names directly
(``from .spectra import eval_analytic``), so a function is patched under
every module attribute that refers to it, which is where each caller looks it
up at call time.  Spans are kept in memory; the caller writes them out when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict

# Layer module -> public functions to wrap.  Internal helpers (fmt,
# csv_table, component_terms) stay inside their caller's self time.
TRACED = {
    "mzqkd.core": ("derive",),
    "mzqkd.spectra": ("eval_analytic", "eval_oracle", "max_normalized_deviation",
                      "middle_window_masses"),
    "mzqkd.design": ("build_design_report", "sweep_lengths"),
    "mzqkd.bb84": ("detection_table", "g_term_analysis"),
    "mzqkd.compensation": ("plan", "precompensate_input"),
    "mzqkd.io": ("design_report_text", "design_report_json", "sweep_csv", "curve_csv",
                 "curve_json", "detection_table_csv", "detection_table_json", "gterm_csv",
                 "plan_text", "plan_json", "svg_line_chart", "emit"),
    "mzqkd.cli": ("main",),
}


def _observe_oracle(counters, args, kwargs, curve) -> None:
    # Dense-equivalent figures computed from the shapes, not counted in the
    # kernel: a dense kernel evaluates exp(i*x*u) once per (grid point,
    # wavenumber sample) and holds complex128 entries.  eval_oracle builds it
    # in blocks, so these bytes are never resident at once.  A kernel of
    # another kind must redefine or drop these counters, not compare with them.
    evals = curve.x.size * curve.checks["n_k"]
    counters["spectra.eval_oracle.kernel_exp_evals"] += evals
    counters["spectra.eval_oracle.kernel_bytes"] += 16 * evals
    counters["spectra.eval_oracle.n_k_max"] = max(
        counters["spectra.eval_oracle.n_k_max"], curve.checks["n_k"])


def _observe_analytic(counters, args, kwargs, curve) -> None:
    counters["spectra.eval_analytic.points"] += curve.x.size


def _observe_deviation(counters, args, kwargs, deviation) -> None:
    counters["spectra.max_deviation"] = max(counters["spectra.max_deviation"], deviation)


def _observe_emit(counters, args, kwargs, result) -> None:
    counters["io.bytes_out"] += len(args[0].encode())


OBSERVERS = {
    "spectra.eval_oracle": _observe_oracle,
    "spectra.eval_analytic": _observe_analytic,
    "spectra.max_normalized_deviation": _observe_deviation,
    "io.emit": _observe_emit,
}


def wrapper_cost_s(calls: int = 20000, repeats: int = 3) -> float:
    """Seconds one traced call adds to a call that does nothing (best of ``repeats``).

    Span count times this cost estimates a traced pass's overhead without the
    host noise of differencing two timed passes.
    """
    def noop() -> None:
        return None
    probe = Tracer()
    wrapped = probe._wrap("noop", noop)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (time.perf_counter() - start - bare) / calls)
        probe.spans.clear()
    return max(best, 0.0)


class Tracer:
    """Spans (id, parent id, name, start, end) and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every module attribute that names a traced function; undo on exit."""
        wrappers = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            layer = module_name.split(".")[-1]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{name}", original))
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "mzqkd" and not module_name.startswith("mzqkd."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def summary(self) -> dict[str, float]:
        """Calls, total and self milliseconds per span name, plus the counters.

        Self time is a span's duration minus its direct children's durations;
        the code is single-threaded, so children never overlap.
        """
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.total_ms"] += (end - start) * 1e3
            out[f"{name}.self_ms"] += (end - start - child_time[span_id]) * 1e3
        out.update(self.counters)
        return dict(out)

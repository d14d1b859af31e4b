"""Layer spans recorded from outside the library.

Every wrapper is installed where the caller looks the name up (a module
global such as ``seqdml.engine.fit_ridge`` or a method on a class such as
``Stream.peek``) and removed again when the ``Patches`` context exits, so
``src/`` is never edited and an untraced run executes the original code.

A span's self time is its duration minus the time covered by the spans it
opened. Spans of hot per-row calls (``Observation`` construction,
``Stream.push``) are only summed; the others are also kept in memory as
``(id, parent_id, name, start, end)`` tuples and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from seqdml import cli, engine, nuisance, scores, sim
from seqdml.errors import NotReadyError


class Patches:
    """Attribute replacements that are undone, in reverse order, on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _rows_arg(index: int):
    def rows(args, kwargs):
        return len(args[index])
    return rows


# (owner, attribute, span name, per-call row count or None, hot).
# The owner is where the caller looks the name up: the engine imported the
# learners and kernels by name, fit_g1_gamma and fit_nu call fit_gbt and
# fit_logistic through the nuisance module, and the CLI picks its score
# functions from its own namespace.
LAYER_TABLE = (
    (cli, "main", "cli.main", None, False),
    (sim, "gen_late", "sim.generate", None, False),
    (sim, "gen_partial_id", "sim.generate", None, False),
    (scores.Observation, "__init__", "scores.observation", None, True),
    (engine, "aipw_pseudo_outcome", "scores.kernel", _rows_arg(0), False),
    (engine, "late_terms", "scores.kernel", _rows_arg(0), False),
    (engine, "partial_id_pseudo_outcome", "scores.kernel", _rows_arg(0), False),
    (engine, "plr_terms", "scores.kernel", _rows_arg(0), False),
    (cli, "gateaux_orthogonality_check", "scores.gateaux", None, False),
    (engine.Stream, "push", "engine.push", None, True),
    (engine.Stream, "peek", "engine.peek", None, False),
    (engine.Stream, "nuisance_evals", "engine.nuisance_evals", None, False),
    (engine, "fit_gbt", "nuisance.fit_gbt", _rows_arg(0), False),
    (nuisance, "fit_gbt", "nuisance.fit_gbt", _rows_arg(0), False),
    (nuisance.GbtModel, "predict", "nuisance.predict_gbt", _rows_arg(1), False),
    (engine, "fit_logistic", "nuisance.fit_logistic", None, False),
    (nuisance, "fit_logistic", "nuisance.fit_logistic", None, False),
    (engine, "fit_ridge", "nuisance.fit_ridge", None, False),
    (nuisance.RidgeModel, "predict", "nuisance.predict_linear", None, False),
    (nuisance.LogisticModel, "predict", "nuisance.predict_linear", None, False),
    (nuisance.NuModel, "predict", "nuisance.predict_linear", None, False),
    (engine, "solve_arrays", "crossfit.solve", _rows_arg(0), False),
    (engine, "scalar_radius", "boundary", None, False),
    (engine, "tune_rho", "boundary", None, False),
)

# Per-observation score functions the diagnose command hands to the
# Gateaux check; they are counted, and their time stays in scores.gateaux.
COUNTED_TABLE = (
    (cli, "aipw_score", "scores.score_calls"),
    (cli, "plr_score", "scores.score_calls"),
    (cli, "late_score", "scores.score_calls"),
    (cli, "partial_id_score", "scores.score_calls"),
)


class Tracer:
    """Self time, call counts and row counts per span name."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.rows: Counter = Counter()
        self.spans: list[list] = []
        # One frame per open span: [child time, span id or None].
        self._stack: list[list] = []

    def wrap(self, name: str, fn, rows_of=None, hot: bool = False):
        stack = self._stack
        self_s, calls, rows, spans = self.self_s, self.calls, self.rows, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None if hot else len(spans)
            frame = [0.0, span_id]
            if not hot:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                spans.append([span_id, parent, name, 0.0, 0.0])
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    spans[span_id][3] = start
                    spans[span_id][4] = end
                if rows_of is not None:
                    rows[name] += rows_of(args, kwargs)

        return traced

    def count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, patches: Patches) -> None:
        for owner, attr, name, rows_of, hot in LAYER_TABLE:
            patches.replace(owner, attr, lambda fn, n=name, r=rows_of, h=hot: self.wrap(n, fn, r, h))
        for owner, attr, name in COUNTED_TABLE:
            patches.replace(owner, attr, lambda fn, n=name: self.count(n, fn))

    def write(self, path) -> None:
        """Write every kept span as one NDJSON line, then the per-name totals."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"totals": {
                name: {"self_s": self.self_s[name], "calls": self.calls[name],
                       "rows": self.rows[name]}
                for name in sorted(set(self.self_s) | set(self.calls))
            }}) + "\n")


class PeekProbe:
    """Times every ``Stream.peek`` and tells refits from light peeks.

    A refit is seen from outside as growth of the public ``holdout_rmse``
    trajectories, which the engine extends once per refit. The probe also
    notes when ``sim`` starts generating a stream's rows. It is installed in
    traced and untraced runs alike; it adds two clock reads and a sum over a
    small dict per peek.
    """

    def __init__(self, after_peek=None):
        # (end time, duration) of every light and every refitting peek.
        self.light: list[tuple[float, float]] = []
        self.refit: list[tuple[float, float]] = []
        self.refits = 0
        self.attempted = 0
        self.deferred = 0
        self.failed = 0
        # (estimand, CsPoint, end time) per successful peek.
        self.points: list[tuple[str, object, float]] = []
        # Start time of every sim.gen_late / sim.gen_partial_id call.
        self.generated: list[float] = []
        # Called after each successful peek, outside its timing.
        self.after_peek = after_peek

    def install(self, patches: Patches) -> None:
        patches.replace(engine.Stream, "peek", self._wrap)
        for name in ("gen_late", "gen_partial_id"):
            patches.replace(sim, name, self._stamp)

    def _stamp(self, generate):
        @functools.wraps(generate)
        def stamped(*args, **kwargs):
            self.generated.append(time.perf_counter())
            return generate(*args, **kwargs)

        return stamped

    def _wrap(self, peek):
        clock = time.perf_counter

        @functools.wraps(peek)
        def probed(stream):
            before = sum(len(v) for v in stream.holdout_rmse.values())
            self.attempted += 1
            start = clock()
            try:
                point = peek(stream)
            except NotReadyError:
                self.deferred += 1
                raise
            except Exception:
                self.failed += 1
                raise
            end = clock()
            if sum(len(v) for v in stream.holdout_rmse.values()) > before:
                self.refits += 1
                self.refit.append((end, end - start))
            else:
                self.light.append((end, end - start))
            self.points.append((stream.config.estimand, point, end))
            if self.after_peek is not None:
                self.after_peek()
            return point

        return probed

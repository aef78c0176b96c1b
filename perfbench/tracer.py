"""Timing wrappers installed around tacempc's layer boundaries from outside.

Nothing in the library is edited: module attributes are swapped for
wrapped versions while a pass runs (``instrument``), and the model and
certificate callbacks are rebuilt with ``dataclasses.replace``.  Spans are
aggregated in memory per name as (calls, total seconds, self seconds),
where self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager

from tacempc import cli, closedloop, diagnostics, ocp
from tacempc.errors import TacempcError

MODEL_CALLBACKS = ("f", "ell", "h", "f_jac", "ell_grad", "h_jac")
CERT_CALLBACKS = ("lam", "lam_grad")


class Recorder:
    """End-to-end boundaries, timed in every run: solves and operations."""

    def __init__(self):
        self.solve_ms = []
        self.op_ms = []
        self.solutions = []
        self.solve_errors = []

    def wrap_solve(self, solve):
        def timed_solve(spec):
            start = time.perf_counter()
            try:
                sol = solve(spec)
            except TacempcError as exc:
                self.solve_errors.append(f"{type(exc).__name__}: {exc}")
                raise
            self.solve_ms.append(1e3 * (time.perf_counter() - start))
            self.solutions.append(sol)
            return sol

        return timed_solve

    def wrap_step(self, step):
        def timed_step(*args, **kwargs):
            start = time.perf_counter()
            result = step(*args, **kwargs)
            self.op_ms.append(1e3 * (time.perf_counter() - start))
            return result

        return timed_step


class Tracer:
    """Per-layer spans and counters for one traced pass."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters = defaultdict(int)
        self._child_time = [0.0]  # per open span; entry 0 collects top-level spans

    @property
    def top_level_s(self) -> float:
        return self._child_time[0]

    def wrap(self, name, fn):
        clock = time.perf_counter
        child_time = self._child_time
        stats = self.spans[name]

        def traced(*args, **kwargs):
            start = clock()
            child_time.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                child_time[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner

        return traced

    def traced_model(self, model):
        return dataclasses.replace(model, **{
            name: self.wrap(f"model.cb.{name}", getattr(model, name))
            for name in MODEL_CALLBACKS
            if getattr(model, name) is not None
        })

    def traced_cert(self, cert):
        return dataclasses.replace(cert, **{
            name: self.wrap(f"model.cb.{name}", getattr(cert, name))
            for name in CERT_CALLBACKS
            if getattr(cert, name) is not None
        })

    def traced_solve(self, solve):
        by_objective = {
            ocp.ORIGINAL: self.wrap("ocp.solve.original", solve),
            ocp.ROTATED: self.wrap("ocp.solve.rotated", solve),
        }
        return lambda spec: by_objective[spec.objective](spec)


class _TracedOptimize:
    """Stands in for ``scipy.optimize`` inside ``tacempc.ocp``."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer
        self._minimize = tracer.wrap("nlp.minimize", real.minimize)

    def __getattr__(self, name):
        return getattr(self._real, name)

    def minimize(self, fun, *args, **kwargs):
        res = self._minimize(self._tracer.wrap("ocp.eval", fun), *args, **kwargs)
        self._tracer.counters["nlp.nit"] += int(res.nit)
        self._tracer.counters["nlp.nfev"] += int(res.nfev)
        return res


@contextmanager
def instrument(recorder: Recorder, tracer: Tracer | None = None):
    """Swap the library's boundary functions for timed ones, then restore.

    Each ``closedloop.step`` is recorded as one operation; the open-loop
    workload records its operations itself.
    """
    solve = recorder.wrap_solve(ocp.solve)
    step = recorder.wrap_step(closedloop.step)
    patches = {}
    if tracer is not None:
        solve = tracer.traced_solve(solve)
        step = tracer.wrap("closedloop.step", step)
        spans = {
            (closedloop, "simulate"): "closedloop.simulate",
            (diagnostics, "turnpike_report"): "diagnostics.turnpike_report",
            (diagnostics, "lyapunov_trace"): "diagnostics.lyapunov_trace",
            (cli, "write_trace_csv"): "cli.write",
            (cli, "write_trace_svg"): "cli.write",
        }
        patches = {key: tracer.wrap(name, getattr(*key)) for key, name in spans.items()}
        patches[(ocp, "optimize")] = _TracedOptimize(ocp.optimize, tracer)
    patches.update({
        (ocp, "solve"): solve,
        (closedloop, "solve"): solve,
        (closedloop, "step"): step,
    })
    saved = {key: getattr(*key) for key in patches}
    for (module, name), value in patches.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for (module, name), value in saved.items():
            setattr(module, name, value)

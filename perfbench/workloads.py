"""Benchmark workloads: seeded inputs, one timed pass, and correctness gates.

mk-closed-loop    the paper's experiment: scalar Mueller-Koehler model,
                  N=12, T=6, K=30 receding-horizon steps (two solves each,
                  warm-started), Lyapunov diagnostics and CSV/SVG output.
                  Seed 0 is ``validation.reference_trace``.
mk-open-loop      cold-start solves on the same model: the 9-case
                  (T, N) sweep of the validation suite plus the N=30 solve
                  of check 9, each followed by a turnpike report.
pair-closed-loop  two decoupled copies of the model loaded from
                  ``pair_model.json`` (n=m=p=2), K=6 closed-loop steps.

Every pass draws its inputs from ``numpy.random.default_rng([seed, pass])``;
only pass 0 of seed 0 on the scalar workloads is pinned to the validation
suite's inputs, which is where the stored references apply.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tacempc import cli, closedloop, config, diagnostics, ocp, validation
from tacempc import model as model_mod
from tacempc.errors import TacempcError
from tacempc.history import HistoryState, steady_history

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
EPSILON = 0.1  # turnpike proximity radius
WINDOW_TOL = 1e-6
TRACE_TOL = 1e-6  # absolute, on x, u and Jtildestar of the reference trace
J_RTOL = 1e-8  # relative, on open-loop objectives
SWEEP = [(T, N) for T in (2, 3, 6) for N in (6, 10, 12)]
LONG_CASE = (3, 30)  # check 9: x0 = 1, history constant at h(1, 1)


@dataclass
class Context:
    cfg: config.RunConfig
    model: model_mod.SystemModel
    cert: model_mod.DissipativityCertificate

    def traced(self, tracer) -> "Context":
        return Context(self.cfg, tracer.traced_model(self.model), tracer.traced_cert(self.cert))


@dataclass
class Gate:
    """Correctness outcome of a run: operations attempted and failed."""

    attempted: int = 0
    failed: int = 0
    not_converged: int = 0
    problems: list = field(default_factory=list)
    statuses: dict = field(default_factory=dict)

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# set-up: everything before the first solve


def _setup(load, grid_density):
    start = time.perf_counter()
    cfg = load()
    loaded = time.perf_counter()
    found = model_mod.solve_steady_state(cfg.model, grid_density=grid_density)
    done = time.perf_counter()
    return cfg, found, {"config.load_s": loaded - start, "model.steady_state_s": done - loaded}


def setup_mk():
    return _setup(lambda: config.load_config(model_name="mueller-koehler"), 201)


def setup_pair():
    # the pinned steady state is confirmed by a coarse search: 21^4 grid
    # points instead of the 201^4 a default search would need
    return _setup(lambda: config.load_config(str(HERE / "pair_model.json")), 21)


def check_setup(cfg, found, gate: Gate):
    err = max(
        float(np.max(np.abs(found.x_s - cfg.ss.x_s))),
        float(np.max(np.abs(found.u_s - cfg.ss.u_s))),
    )
    if err > 1e-6:
        gate.fail(f"steady-state search found {found.x_s}/{found.u_s}, "
                  f"configured {cfg.ss.x_s}/{cfg.ss.u_s}")


# ---------------------------------------------------------------------------
# inputs


def _rng(seed, index):
    return np.random.default_rng([seed, index])


def _output(model, u_hat):
    return np.atleast_1d(model.h(np.ones(model.n), np.asarray(u_hat, dtype=float)))


def closed_loop_inputs(ctx: Context, seed: int, index: int, pinned: bool):
    """x0 in [1.75, 2.25]^n and a history of T-1 outputs h(1, u), u in [1, 2]^m.

    Pinned (seed 0, pass 0 of mk-closed-loop): x0 = 2 and the reference
    trace's mixed history h(1,1) x4, h(1,2).
    """
    model, T = ctx.model, ctx.cfg.T
    if pinned and seed == DEFAULT_SEED and index == 0:
        x0 = np.full(model.n, 2.0)
        u_hats = [np.ones(model.m)] * (T - 2) + [np.full(model.m, 2.0)]
    else:
        rng = _rng(seed, index)
        x0 = rng.uniform(1.75, 2.25, size=model.n)
        u_hats = [rng.uniform(1.0, 2.0, size=model.m) for _ in range(T - 1)]
    columns = np.column_stack([_output(model, u) for u in u_hats])
    return x0, HistoryState(columns=columns, T=T)


def open_loop_inputs(ctx: Context, seed: int, index: int):
    """(T, N, x0, H0) for the sweep and the long N=30 case.

    The sweep starts from x0 in [0.8, 1.2] with the history held at
    h(1, u), u in [0.8, 1.2]; pass 0 of seed 0 uses the validation
    suite's x0 = 1, u = 1.  The N=30 case is always check 9's problem.
    """
    model = ctx.model
    if seed == DEFAULT_SEED and index == 0:
        x0, u_hat = np.ones(model.n), np.ones(model.m)
    else:
        rng = _rng(seed, index)
        x0 = rng.uniform(0.8, 1.2, size=model.n)
        u_hat = rng.uniform(0.8, 1.2, size=model.m)
    cases = [(T, N, x0, steady_history(_output(model, u_hat), T)) for T, N in SWEEP]
    T, N = LONG_CASE
    cases.append((T, N, np.ones(model.n), steady_history(_output(model, np.ones(model.m)), T)))
    return cases


# ---------------------------------------------------------------------------
# passes


def run_closed_loop(ctx: Context, inputs, out_dir: Path, gate: Gate):
    cfg = ctx.cfg
    x0, H0 = inputs
    try:
        trace = closedloop.simulate(
            ctx.model, ctx.cert, cfg.ss, cfg.N, x0, H0, cfg.K, options=cfg.options
        )
    except TacempcError as exc:
        gate.problems.append(f"simulate: {type(exc).__name__}: {exc}")
        return None  # the run is failed by check_closed_loop
    try:
        lt = diagnostics.lyapunov_trace(trace, ctx.cert, cfg.ss)
        cli.write_trace_csv(trace, lt, str(out_dir / "trace.csv"))
        cli.write_trace_svg(trace, lt, str(out_dir / "chart.svg"))
    except TacempcError as exc:
        gate.fail(f"diagnostics: {type(exc).__name__}: {exc}")
    return trace


def run_open_loop(ctx: Context, inputs, gate: Gate, op_ms: list):
    cfg = ctx.cfg
    for T, N, x0, H0 in inputs:
        spec = ocp.OcpSpec(
            model=ctx.model, cert=ctx.cert, ss=cfg.ss, N=N, T=T, x0=x0,
            H0=H0, objective=ocp.ORIGINAL, options=cfg.options,
        )
        start = time.perf_counter()
        try:
            sol = ocp.solve(spec)
        except TacempcError:
            continue  # counted by the solve boundary
        try:
            diagnostics.turnpike_report(sol, cfg.ss, ctx.cert, EPSILON)
        except TacempcError as exc:
            gate.fail(f"turnpike report T={T} N={N}: {type(exc).__name__}: {exc}")
            continue
        op_ms.append(1e3 * (time.perf_counter() - start))


# ---------------------------------------------------------------------------
# correctness gates


def _check_solves(rec, gate: Gate):
    gate.attempted += len(rec.solutions) + len(rec.solve_errors)
    for message in rec.solve_errors:
        gate.fail(message)
    for sol in rec.solutions:
        gate.not_converged += not sol.converged
        if sol.max_violation > sol.spec.options.feas_tol:
            gate.fail(f"solve N={sol.spec.N} T={sol.spec.T} violation "
                      f"{sol.max_violation:.2e} > feas_tol")
    if rec.solutions:
        eq6 = validation.check_eq6_bound(rec.solutions)
        if not eq6.passed:
            gate.fail(f"eq6 bound: {eq6.detail}")


def check_closed_loop(trace, rec, gate: Gate, reference):
    _check_solves(rec, gate)
    gate.attempted += 1  # the run itself
    run_ok = True
    if trace is None or not trace.completed:
        gate.fail(f"closed loop halted: {getattr(trace, 'failure', 'no trace')}")
        return
    worst = float(np.max(closedloop.window_sums(trace)))
    if worst > WINDOW_TOL:
        run_ok = False
        gate.problems.append(f"closed-loop window sum {worst:.2e} > {WINDOW_TOL}")
    if reference is not None:
        for key in ("x", "u", "Jtildestar"):
            err = float(np.max(np.abs(getattr(trace, key) - np.asarray(reference[key]))))
            if err > TRACE_TOL:
                run_ok = False
                gate.problems.append(f"reference {key} differs by {err:.2e}")
        results = validation.check_closed_loop(trace) + [
            validation.check_window_constraints(trace),
            validation.check_practical_convergence(trace),
        ]
        for r in results:
            expected = reference["statuses"][r.ident]
            gate.statuses[r.ident] = f"{r.status} (expected {expected}): {r.detail}"
            if r.status != expected:
                run_ok = False
                gate.problems.append(f"check {r.ident} is {r.status}, expected {expected}")
    if not run_ok:
        gate.failed += 1


def check_open_loop(rec, gate: Gate, reference):
    _check_solves(rec, gate)
    if reference is None:
        return
    got = [sol.J for sol in rec.solutions]
    want = reference["J"]
    if len(got) != len(want):
        gate.fail(f"{len(got)} open-loop solves, reference has {len(want)}")
        return
    for (T, N), g, w in zip(SWEEP + [LONG_CASE], got, want):
        rel = abs(g - w) / max(abs(w), 1e-300)
        if rel > J_RTOL:
            gate.fail(f"open loop T={T} N={N}: J={g!r}, reference {w!r} (rel {rel:.1e})")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    closed_loop: bool
    pinned: bool  # seed 0 / pass 0 reproduces a stored reference
    nominal_pass_s: float  # one untraced pass on a 2-core Xeon

    def inputs(self, ctx, seed, index):
        if self.closed_loop:
            return closed_loop_inputs(ctx, seed, index, self.pinned)
        return open_loop_inputs(ctx, seed, index)

    def reference(self, seed, index):
        if self.pinned and seed == DEFAULT_SEED and index == 0:
            return load_reference()[self.name]
        return None

    def run_pass(self, ctx, inputs, out_dir, gate, rec):
        if self.closed_loop:
            return run_closed_loop(ctx, inputs, out_dir, gate)
        return run_open_loop(ctx, inputs, gate, rec.op_ms)

    def check(self, result, rec, gate, reference):
        if self.closed_loop:
            check_closed_loop(result, rec, gate, reference)
        else:
            check_open_loop(rec, gate, reference)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mk-closed-loop", setup_mk, closed_loop=True, pinned=True, nominal_pass_s=20),
        Workload("mk-open-loop", setup_mk, closed_loop=False, pinned=True, nominal_pass_s=10),
        Workload("pair-closed-loop", setup_pair, closed_loop=True, pinned=False,
                 nominal_pass_s=12),
    )
}


def make_context(cfg) -> Context:
    return Context(cfg, cfg.model, cfg.cert)


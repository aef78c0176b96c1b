"""Built-in validation suite over the bundled example model.

Each check returns a CheckResult so the CLI can print a pass/fail table
and the test suite can assert on individual criteria.  The checks cover
the steady-state computation, the dissipativity certificate, the
rotated-cost identity, the history measures, open-loop constraint
bounds, turnpike statistics, the closed-loop run with its Lyapunov
diagnostics, and the expression-language gradients.  Every row comes
from one runner, ``_check``; a raise, or a halted closed-loop run, is a
FAIL row naming it.  ``run_all`` solves each problem once: the open-loop
sweep serves checks 6-8 and the reference run checks 10a-12.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from . import exprlang
from .closedloop import ClosedLoopTrace, simulate, window_sums
from .config import load_config
from .diagnostics import decrease_check, lyapunov_trace, turnpike_report
from .errors import InfeasibleError
from .history import (
    HistoryState, eq6_rhs, iss_function, norm_replacement, shift_update, steady_history,
)
from .model import _fd_jacobian, check_dissipativity_grid, solve_steady_state
from .ocp import ORIGINAL, OcpSpec, rotated_identity_check, solve

FIG_W0 = 0.866310666607585
FIG_JTILDE1 = 0.0166221538547582


@dataclass
class CheckResult:
    ident: str
    name: str
    passed: bool
    detail: str
    runtime: float
    skipped: bool = False

    @property
    def status(self) -> str:
        return "SKIP" if self.skipped else "PASS" if self.passed else "FAIL"


def _value(item):
    """A shared input, or a raise of the exception its computation raised."""
    if isinstance(item, Exception):
        raise item
    return item


def _shared(fn, *inputs):
    """fn(*inputs), or else the exception it raised; the checks take it in
    place of the input and fail on it."""
    try:
        return fn(*map(_value, inputs))
    except Exception as exc:
        return exc


def _check(ident, name):
    """Make fn(*inputs) -> (passed, detail) a check returning a CheckResult:
    passed None marks a vacuous check (SKIP), and a raise, in fn or in a
    shared input it reads, is a FAIL naming the exception."""
    def decorate(fn):
        @functools.wraps(fn)
        def check(*inputs):
            start = time.perf_counter()
            try:
                passed, detail = fn(*map(_value, inputs))
            except Exception as exc:  # a crash is a failure, not a suite abort
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            runtime, skipped = time.perf_counter() - start, passed is None
            return CheckResult(ident, name, bool(skipped or passed), detail, runtime, skipped)
        return check
    return decorate


@functools.cache
def _context():
    """(model, cert, ss) of the bundled example, loaded once."""
    cfg = load_config(model_name="mueller-koehler")
    return cfg.model, cfg.cert, cfg.ss


def _open_loop_problem(N, T):
    """Horizon N from x0 = 1 with the history held at h(1, 1)."""
    model, cert, ss = _context()
    H0 = steady_history(model.h(np.array([1.0]), np.array([1.0])), T)
    return OcpSpec(model=model, cert=cert, ss=ss, N=N, T=T, x0=np.array([1.0]), H0=H0,
                   objective=ORIGINAL)


def _sweep_solutions():
    """The converged solves over T in (2, 3, 6) and N in (6, 10, 12), and
    the number of unconverged ones dropped."""
    sols = [solve(_open_loop_problem(N, T)) for T in (2, 3, 6) for N in (6, 10, 12)]
    converged = [sol for sol in sols if sol.converged]
    return converged, len(sols) - len(converged)


def _sweep_note(read, sols, dropped):
    """What a row read of the sweep: `read` of its solves, whose converged
    ones are sols, with `dropped` unconverged ones left out."""
    return f"read {read} of {len(sols) + dropped} solves, dropped {dropped} unconverged"


@_check("1", "steady state (2, 1) with cost 2")
def check_steady_state():
    ss = solve_steady_state(_context()[0])
    err = max(abs(float(ss.x_s[0]) - 2.0), abs(float(ss.u_s[0]) - 1.0), abs(ss.ell_s - 2.0))
    return err <= 1e-6, f"(x_s, u_s, ell_s) = ({ss.x_s[0]:.8f}, {ss.u_s[0]:.8f}, {ss.ell_s:.8f}), max error {err:.2e}"


@_check("2", "dissipativity certificate on 101x101 grid")
def check_dissipativity():
    residual = check_dissipativity_grid(*_context())
    return residual >= -1e-9, f"min grid residual {residual:.3e}"


@_check("3", "rotated-cost telescoping identity")
def check_rotated_identity():
    model, cert, ss = _context()
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=8, T=2, x0=np.array([2.0]),
                   H0=steady_history(ss.h_s, 2), objective=ORIGINAL)
    rng = np.random.default_rng(7)
    worst = max(rotated_identity_check(spec, rng.uniform(0.9, 1.0, size=(8, 1))) for _ in range(20))
    return worst <= 1e-10, f"max identity mismatch {worst:.2e} over 20 sequences"


@_check("4", "weighted history deviation inequalities")
def check_iss_function():
    rng = np.random.default_rng(11)
    worst = -np.inf
    for T in (2, 3, 6):
        for p in (1, 2):
            for kappa in (1, 2):
                for _ in range(1000 // 12 + 1):
                    cols = rng.uniform(-3, 3, size=(p, T - 1))
                    h_new = rng.uniform(-3, 3, size=p)
                    h_s = rng.uniform(-1, 1, size=p)
                    H = HistoryState(columns=cols, T=T)
                    V = iss_function(H, h_s, kappa)
                    dev = float(np.linalg.norm(cols - h_s.reshape(-1, 1), 1))
                    lo, hi = dev**kappa, (T - 1) ** 2 * dev**kappa
                    worst = max(worst, lo - V, V - hi)
                    V_next = iss_function(shift_update(H, h_new), h_s, kappa)
                    bound = -(dev**kappa) + (T - 1) * float(np.sum(np.abs(h_new - h_s))) ** kappa
                    worst = max(worst, (V_next - V) - bound)
    return worst <= 1e-9, f"max inequality slack violation {worst:.2e}"


@_check("5", "norm-replacement axioms")
def check_norm_replacement():
    rng = np.random.default_rng(13)
    for i in range(1000):
        p = int(rng.integers(1, 4))
        T = int(rng.integers(2, 7))
        cols = rng.uniform(-2, 2, size=(p, T - 1))
        H = HistoryState(columns=cols, T=T)
        val = norm_replacement(H, 0.0)
        if val < 0:
            return False, f"negative value {val} at sample {i}"
        if (val == 0.0) != bool(np.all(cols <= 0)):
            return False, f"zero characterization failed at sample {i}"
        bigger = HistoryState(columns=cols + rng.uniform(0, 1, size=cols.shape), T=T)
        if norm_replacement(bigger, 0.0) < val - 1e-12:
            return False, f"monotonicity failed at sample {i}"
    return True, "1000 samples: nonnegativity, zero iff nonpositive, monotone"


@_check("6", "history-implied bound on predicted output sums")
def check_eq6_bound(sols, dropped=0):
    worst = -np.inf
    for sol in sols:
        lhs = np.sum(sol.h_pred, axis=0)
        worst = max(worst, float(np.max(lhs - eq6_rhs(sol.spec.H0, sol.spec.N))))
    return worst <= 1e-6, (f"max (sum h_pred - bound) = {worst:.2e} over {len(sols)} solves "
                           f"({_sweep_note(len(sols), sols, dropped)})")


@_check("7", "turnpike count lower bound (realized excess)")
def check_lemma1(sols, dropped=0):
    radii = (0.05, 0.1, 0.5, 1.0)
    checked = 0
    for sol in sols:
        for eps in radii:
            rep = turnpike_report(sol, sol.spec.ss, sol.spec.cert, eps)
            if rep.lemma1_rhs > 0:
                checked += 1
                if rep.Q < rep.lemma1_rhs:
                    return False, (
                        f"Q={rep.Q} < bound {rep.lemma1_rhs:.2f} at "
                        f"N={sol.spec.N}, T={sol.spec.T}, eps={eps}"
                    )
    note = _sweep_note(len(sols), sols, dropped)
    if checked == 0:
        return None, (
            f"SKIP (vacuous): the lower bound N - C'/rho(eps) is nonpositive in "
            f"all {len(sols) * len(radii)} cases ({len(sols)} solves x "
            f"{len(radii)} radii; {note})"
        )
    return True, f"bound held in all {checked} informative cases ({note})"


@_check("8", "turnpike count grows with the horizon")
def check_turnpike_growth(sols, dropped=0):
    Q = {sol.spec.N: turnpike_report(sol, sol.spec.ss, sol.spec.cert, 0.1).Q
         for sol in sols if sol.spec.T == 3 and sol.spec.N in (10, 12)}
    note = _sweep_note(len(Q), sols, dropped)
    missing = sorted({10, 12} - Q.keys())
    if missing:
        return False, f"no converged solve at N={','.join(map(str, missing))}, T=3 ({note})"
    return Q[12] >= Q[10], f"Q(N=12)={Q[12]}, Q(N=10)={Q[10]} ({note})"


@_check("9", "consecutive steady-state window exists (N=30)")
def check_consecutive_turnpike():
    sol = solve(_open_loop_problem(30, 3))
    rep = turnpike_report(sol, sol.spec.ss, sol.spec.cert, 0.05)
    ends = list(rep.consecutive_set)
    return len(ends) > 0, f"consecutive proximate windows end at {ends[:6]}... (Q={rep.Q})"


def reference_trace() -> ClosedLoopTrace:
    """The bundled closed-loop experiment: N=12, T=6, x0=2, mixed history."""
    model, cert, ss = _context()
    h11 = np.atleast_1d(model.h(np.array([1.0]), np.array([1.0])))
    h12 = np.atleast_1d(model.h(np.array([1.0]), np.array([2.0])))
    H0 = HistoryState(columns=np.column_stack([h11, h11, h11, h11, h12]), T=6)
    return simulate(model, cert, ss, N=12, x0=[2.0], H0=H0, K=30)


def _completed(trace: ClosedLoopTrace) -> ClosedLoopTrace:
    """The given run; a halted run raises."""
    if trace.failure is not None:
        raise InfeasibleError(f"closed loop halted ({trace.failure})")
    return trace


@_check("10a", "first closed-loop Lyapunov value")
def _first_lyapunov_value(lt, tr):
    # W(0) = sum Jtilde*(0..T-1) + c * sum V(0..T-1), each part printed
    rel = abs(lt.W[0] - FIG_W0) / FIG_W0
    last = tr.T - 1
    parts = (f"sum Jtilde*(0..{last}) {np.sum(tr.Jtildestar[: tr.T]):.4f} + "
             f"c 1/{1 / lt.c:.6g} * sum V(0..{last}) {np.sum(lt.V[: tr.T]):.2f}")
    return rel <= 0.05, (f"W(0) = {lt.W[0]:.6f} = {parts}, reference {FIG_W0:.6f}, "
                         f"relative error {rel:.3f}")


@_check("10b", "rotated value after one step")
def _rotated_value_after_one_step(tr):
    rel = abs(tr.Jtildestar[1] - FIG_JTILDE1) / FIG_JTILDE1
    return rel <= 0.25, f"Jtilde*(1) = {tr.Jtildestar[1]:.8f}, reference {FIG_JTILDE1:.8f}, relative error {rel:.2e}"


@_check("10c", "Lyapunov function practically decreasing")
def _lyapunov_decreasing(lt):
    max_inc, ok = decrease_check(lt.W)
    return ok, f"max W increase {max_inc:.2e} (tol 1e-3)"


@_check("10d", "rotated value function not monotone")
def _rotated_value_not_monotone(tr):
    max_inc, mono = decrease_check(tr.Jtildestar[: tr.K])
    return not mono, f"max Jtilde* increase {max_inc:.4f} (> 1e-3 expected)"


def check_closed_loop(trace: ClosedLoopTrace) -> List[CheckResult]:
    """Criteria 10a-10d on the reference closed-loop run."""
    tr = _shared(_completed, trace)
    lt = _shared(lambda run: lyapunov_trace(run, run.cert, run.ss), tr)
    return [_first_lyapunov_value(lt, tr), _rotated_value_after_one_step(tr),
            _lyapunov_decreasing(lt), _rotated_value_not_monotone(tr)]


@_check("11", "closed-loop window constraints")
def check_window_constraints(trace: ClosedLoopTrace):
    worst = float(np.max(window_sums(_completed(trace))))
    return worst <= 1e-6, f"max closed-loop window sum {worst:.2e}"


@_check("12", "closed loop settles near the steady state")
def check_practical_convergence(trace: ClosedLoopTrace):
    dev = float(np.max(np.abs(_completed(trace).x[20:, 0] - 2.0)))
    return dev <= 0.05, f"max |x(k) - 2| for k >= 20 is {dev:.2e}"


def _random_expr(rng, n, m, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            # [-1, 1]: a larger constant raised to a power chain can swamp
            # the finite-difference step of a variable added to it
            return exprlang.Num(float(np.round(rng.uniform(-1, 1), 3)))
        if rng.random() < 0.5 and n > 0:
            return exprlang.Var("x", int(rng.integers(n)))
        return exprlang.Var("u", int(rng.integers(m)))
    choice = rng.random()
    if choice < 0.25:
        return exprlang.Neg(_random_expr(rng, n, m, depth - 1))
    if choice < 0.45:
        return exprlang.Pow(_random_expr(rng, n, m, depth - 1), int(rng.integers(0, 4)))
    op = ("+", "-", "*", "/")[int(rng.integers(4))]
    left, right = _random_expr(rng, n, m, depth - 1), _random_expr(rng, n, m, depth - 1)
    if op == "/":  # a divisor 1 + s^2 >= 1: the quotient rule away from poles
        right = exprlang.BinOp("+", exprlang.Num(1.0), exprlang.Pow(right, 2))
    return exprlang.BinOp(op, left, right)


@_check("13", "compiled gradients match finite differences")
def check_gradients():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        expr = _random_expr(rng, n, m, 4)
        x = rng.uniform(-2, 2, size=n)
        u = rng.uniform(-2, 2, size=m)
        value = exprlang.kernel([expr], n, m)
        grad = exprlang.kernel(expr, n, m, gradient=True)(x, u)
        fd = _fd_jacobian(value, x, u, 1)[0]
        scale = 1.0 + np.max(np.abs(fd))
        worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    return worst <= 1e-5, f"max relative gradient mismatch {worst:.2e}"


def run_all() -> List[CheckResult]:
    """Run the full suite, solving each problem once: the sweep and the
    reference run are shared, and a raise while computing one fails only
    the rows that read it."""
    sweep = _shared(_sweep_solutions)
    # a raise in the sweep reaches rows 6-8 through both of their inputs
    sols, dropped = (sweep, sweep) if isinstance(sweep, Exception) else sweep
    trace = _shared(reference_trace)
    return [
        check_steady_state(), check_dissipativity(), check_rotated_identity(),
        check_iss_function(), check_norm_replacement(),
        check_eq6_bound(sols, dropped), check_lemma1(sols, dropped),
        check_turnpike_growth(sols, dropped),
        check_consecutive_turnpike(), *check_closed_loop(trace),
        check_window_constraints(trace), check_practical_convergence(trace),
        check_gradients(),
    ]

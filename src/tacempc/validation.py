"""Built-in validation suite over the bundled example model.

Each check returns a CheckResult so the CLI can print a pass/fail table
and the test suite can assert on individual criteria.  The checks cover
the steady-state computation, the dissipativity certificate, the
rotated-cost identity, the history measures, open-loop constraint
bounds, turnpike statistics, the closed-loop run with its Lyapunov
diagnostics, and the expression-language gradients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import exprlang
from .closedloop import ClosedLoopTrace, simulate, window_sums
from .config import load_config
from .diagnostics import decrease_check, lyapunov_trace, turnpike_report
from .history import (
    HistoryState,
    iss_function,
    matrix_one_norm,
    norm_replacement,
    shift_update,
    steady_history,
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
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


def _timed(ident, name, fn) -> CheckResult:
    """Run fn() -> (passed, detail); passed None marks a vacuous check."""
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not a suite abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    skipped = passed is None
    return CheckResult(
        ident, name, skipped or passed, detail, time.perf_counter() - start,
        skipped=skipped,
    )


def _context():
    cfg = load_config(model_name="mueller-koehler")
    return cfg.model, cfg.cert, cfg.ss


def check_steady_state() -> CheckResult:
    def run():
        model, _, _ = _context()
        ss = solve_steady_state(model)
        err = max(
            abs(float(ss.x_s[0]) - 2.0),
            abs(float(ss.u_s[0]) - 1.0),
            abs(ss.ell_s - 2.0),
        )
        return err <= 1e-6, f"(x_s, u_s, ell_s) = ({ss.x_s[0]:.8f}, {ss.u_s[0]:.8f}, {ss.ell_s:.8f}), max error {err:.2e}"

    return _timed("1", "steady state (2, 1) with cost 2", run)


def check_dissipativity() -> CheckResult:
    def run():
        model, cert, ss = _context()
        residual = check_dissipativity_grid(model, cert, ss, grid_density=101)
        return residual >= -1e-9, f"min grid residual {residual:.3e}"

    return _timed("2", "dissipativity certificate on 101x101 grid", run)


def check_rotated_identity() -> CheckResult:
    def run():
        model, cert, ss = _context()
        rng = np.random.default_rng(7)
        H0 = steady_history(ss.h_s, 2)
        worst = 0.0
        for _ in range(20):
            u = rng.uniform(0.9, 1.0, size=(8, 1))
            spec = OcpSpec(
                model=model, cert=cert, ss=ss, N=8, T=2,
                x0=np.array([2.0]), H0=H0, objective=ORIGINAL,
            )
            worst = max(worst, rotated_identity_check(spec, u))
        return worst <= 1e-10, f"max identity mismatch {worst:.2e} over 20 sequences"

    return _timed("3", "rotated-cost telescoping identity", run)


def check_iss_function() -> CheckResult:
    def run():
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
                        dev = matrix_one_norm(cols - h_s.reshape(-1, 1))
                        lo, hi = dev**kappa, (T - 1) ** 2 * dev**kappa
                        worst = max(worst, lo - V, V - hi)
                        V_next = iss_function(shift_update(H, h_new), h_s, kappa)
                        bound = -(dev**kappa) + (T - 1) * float(
                            np.sum(np.abs(h_new - h_s))
                        ) ** kappa
                        worst = max(worst, (V_next - V) - bound)
        return worst <= 1e-9, f"max inequality slack violation {worst:.2e}"

    return _timed("4", "weighted history deviation inequalities", run)


def check_norm_replacement() -> CheckResult:
    def run():
        rng = np.random.default_rng(13)
        for i in range(1000):
            p = int(rng.integers(1, 4))
            T = int(rng.integers(2, 7))
            cols = rng.uniform(-2, 2, size=(p, T - 1))
            H = HistoryState(columns=cols, T=T)
            val = norm_replacement(H)
            if val < 0:
                return False, f"negative value {val} at sample {i}"
            if (val == 0.0) != bool(np.all(cols <= 0)):
                return False, f"zero characterization failed at sample {i}"
            bigger = HistoryState(columns=cols + rng.uniform(0, 1, size=cols.shape), T=T)
            if norm_replacement(bigger) < val - 1e-12:
                return False, f"monotonicity failed at sample {i}"
        return True, "1000 samples: nonnegativity, zero iff nonpositive, monotone"

    return _timed("5", "norm-replacement axioms", run)


def _sweep_solutions(model, cert, ss):
    sols = []
    for T in (2, 3, 6):
        H0 = steady_history(model.h(np.array([1.0]), np.array([1.0])), T)
        for N in (6, 10, 12):
            spec = OcpSpec(
                model=model, cert=cert, ss=ss, N=N, T=T,
                x0=np.array([1.0]), H0=H0, objective=ORIGINAL,
            )
            sol = solve(spec)
            if sol.converged:
                sols.append(sol)
    return sols


def check_eq6_bound(solutions=None) -> CheckResult:
    def run():
        model, cert, ss = _context()
        sols = solutions if solutions is not None else _sweep_solutions(model, cert, ss)
        from .history import eq6_rhs

        worst = -np.inf
        for sol in sols:
            lhs = np.sum(sol.h_pred, axis=0)
            rhs = eq6_rhs(sol.spec.H0, sol.spec.N)
            worst = max(worst, float(np.max(lhs - rhs)))
        return worst <= 1e-6, f"max (sum h_pred - bound) = {worst:.2e} over {len(sols)} solves"

    return _timed("6", "history-implied bound on predicted output sums", run)


def check_lemma1(solutions=None) -> CheckResult:
    def run():
        model, cert, ss = _context()
        sols = solutions if solutions is not None else _sweep_solutions(model, cert, ss)
        radii = (0.05, 0.1, 0.5, 1.0)
        checked = 0
        for sol in sols:
            for eps in radii:
                rep = turnpike_report(sol, ss, cert, eps)
                if rep.lemma1_rhs > 0:
                    checked += 1
                    if rep.Q < rep.lemma1_rhs:
                        return False, (
                            f"Q={rep.Q} < bound {rep.lemma1_rhs:.2f} at "
                            f"N={sol.spec.N}, T={sol.spec.T}, eps={eps}"
                        )
        if checked == 0:
            return None, (
                f"SKIP (vacuous): the lower bound N - C'/rho(eps) is nonpositive in "
                f"all {len(sols) * len(radii)} cases ({len(sols)} solves x "
                f"{len(radii)} radii)"
            )
        return True, f"bound held in all {checked} informative cases"

    return _timed("7", "turnpike count lower bound (realized excess)", run)


def check_turnpike_growth() -> CheckResult:
    def run():
        model, cert, ss = _context()
        H0 = steady_history(model.h(np.array([1.0]), np.array([1.0])), 3)
        Q = {}
        for N in (10, 12):
            spec = OcpSpec(
                model=model, cert=cert, ss=ss, N=N, T=3,
                x0=np.array([1.0]), H0=H0, objective=ORIGINAL,
            )
            Q[N] = turnpike_report(solve(spec), ss, cert, 0.1).Q
        return Q[12] >= Q[10], f"Q(N=12)={Q[12]}, Q(N=10)={Q[10]}"

    return _timed("8", "turnpike count grows with the horizon", run)


def check_consecutive_turnpike() -> CheckResult:
    def run():
        model, cert, ss = _context()
        H0 = steady_history(model.h(np.array([1.0]), np.array([1.0])), 3)
        spec = OcpSpec(
            model=model, cert=cert, ss=ss, N=30, T=3,
            x0=np.array([1.0]), H0=H0, objective=ORIGINAL,
        )
        rep = turnpike_report(solve(spec), ss, cert, 0.05)
        return (
            len(rep.consecutive_set) > 0,
            f"consecutive proximate windows end at {list(rep.consecutive_set)[:6]}... (Q={rep.Q})",
        )

    return _timed("9", "consecutive steady-state window exists (N=30)", run)


def reference_trace() -> ClosedLoopTrace:
    """The bundled closed-loop experiment: N=12, T=6, x0=2, mixed history."""
    model, cert, ss = _context()
    h11 = np.atleast_1d(model.h(np.array([1.0]), np.array([1.0])))
    h12 = np.atleast_1d(model.h(np.array([1.0]), np.array([2.0])))
    H0 = HistoryState(
        columns=np.column_stack([h11, h11, h11, h11, h12]), T=6
    )
    return simulate(model, cert, ss, N=12, x0=[2.0], H0=H0, K=30)


def check_closed_loop(trace: Optional[ClosedLoopTrace] = None) -> List[CheckResult]:
    """Criteria 10a-10d on the reference closed-loop run."""
    start = time.perf_counter()
    model, cert, ss = _context()
    tr = trace if trace is not None else reference_trace()
    results = []
    if tr.T < 2:
        elapsed = time.perf_counter() - start
        for sub in ("a", "b", "c", "d"):
            results.append(
                CheckResult(
                    f"10{sub}", "closed-loop Lyapunov diagnostics",
                    True, "skipped: requires T >= 2", elapsed, skipped=True,
                )
            )
        return results
    lt = lyapunov_trace(tr, cert, ss)
    elapsed = time.perf_counter() - start

    rel_w0 = abs(lt.W[0] - FIG_W0) / FIG_W0
    results.append(
        CheckResult(
            "10a", "first closed-loop Lyapunov value",
            rel_w0 <= 0.05,
            f"W(0) = {lt.W[0]:.6f}, reference {FIG_W0:.6f}, relative error {rel_w0:.3f}",
            elapsed,
        )
    )
    rel_j1 = abs(tr.Jtildestar[1] - FIG_JTILDE1) / FIG_JTILDE1
    results.append(
        CheckResult(
            "10b", "rotated value after one step",
            rel_j1 <= 0.25,
            f"Jtilde*(1) = {tr.Jtildestar[1]:.8f}, reference {FIG_JTILDE1:.8f}, relative error {rel_j1:.2e}",
            elapsed,
        )
    )
    max_inc, ok = decrease_check(lt.W, tol=1e-3)
    results.append(
        CheckResult(
            "10c", "Lyapunov function practically decreasing",
            ok, f"max W increase {max_inc:.2e} (tol 1e-3)", elapsed,
        )
    )
    max_inc_j, mono = decrease_check(tr.Jtildestar[: tr.K], tol=1e-3)
    results.append(
        CheckResult(
            "10d", "rotated value function not monotone",
            not mono, f"max Jtilde* increase {max_inc_j:.4f} (> 1e-3 expected)", elapsed,
        )
    )
    return results


def check_window_constraints(trace: Optional[ClosedLoopTrace] = None) -> CheckResult:
    def run():
        tr = trace if trace is not None else reference_trace()
        worst = float(np.max(window_sums(tr)))
        return worst <= 1e-6, f"max closed-loop window sum {worst:.2e}"

    return _timed("11", "closed-loop window constraints", run)


def check_practical_convergence(trace: Optional[ClosedLoopTrace] = None) -> CheckResult:
    def run():
        tr = trace if trace is not None else reference_trace()
        dev = float(np.max(np.abs(tr.x[20:, 0] - 2.0)))
        return dev <= 0.05, f"max |x(k) - 2| for k >= 20 is {dev:.2e}"

    return _timed("12", "closed loop settles near the steady state", run)


def _random_expr(rng, n, m, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return exprlang.Num(float(np.round(rng.uniform(-3, 3), 3)))
        if rng.random() < 0.5 and n > 0:
            return exprlang.Var("x", int(rng.integers(n)))
        return exprlang.Var("u", int(rng.integers(m)))
    choice = rng.random()
    if choice < 0.25:
        return exprlang.Neg(_random_expr(rng, n, m, depth - 1))
    if choice < 0.45:
        return exprlang.Pow(_random_expr(rng, n, m, depth - 1), int(rng.integers(0, 4)))
    op = ("+", "-", "*")[int(rng.integers(3))]
    return exprlang.BinOp(
        op, _random_expr(rng, n, m, depth - 1), _random_expr(rng, n, m, depth - 1)
    )


def check_gradients() -> CheckResult:
    def run():
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            expr = _random_expr(rng, n, m, 4)
            x = rng.uniform(-2, 2, size=n)
            u = rng.uniform(-2, 2, size=m)
            _, grad = exprlang.eval_grad(expr, x, u)
            fd = _fd_jacobian(lambda xs, us: [exprlang.eval(expr, xs, us)], x, u, 1)[0]
            scale = 1.0 + np.max(np.abs(fd))
            worst = max(worst, float(np.max(np.abs(np.array(grad) - fd))) / scale)
        return worst <= 1e-5, f"max relative gradient mismatch {worst:.2e}"

    return _timed("13", "forward-mode gradients match finite differences", run)


def run_all() -> List[CheckResult]:
    """Run the full suite; shares the expensive closed-loop trace."""
    model, cert, ss = _context()
    results = [
        check_steady_state(),
        check_dissipativity(),
        check_rotated_identity(),
        check_iss_function(),
        check_norm_replacement(),
    ]
    sweep = _sweep_solutions(model, cert, ss)
    results.append(check_eq6_bound(sweep))
    results.append(check_lemma1(sweep))
    results.append(check_turnpike_growth())
    results.append(check_consecutive_turnpike())
    trace = reference_trace()
    results.extend(check_closed_loop(trace))
    results.append(check_window_constraints(trace))
    results.append(check_practical_convergence(trace))
    results.append(check_gradients())
    return results

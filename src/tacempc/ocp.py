"""Finite-horizon optimal control problem with sliding-window constraints.

Direct single shooting: the decision variables are the N inputs, states
are recovered by forward simulation.  The admissible set combines three
constraint families (pointwise box, partial windows anchored in the
stored history, full windows inside the horizon).  The solver is an
augmented Lagrangian over the inequality residuals with a projected
quasi-Newton inner loop (L-BFGS-B on the input box).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import optimize

from .errors import ConfigError, InfeasibleError
from .history import HistoryState
from .model import DissipativityCertificate, SteadyState, SystemModel

ORIGINAL = "original"
ROTATED = "rotated"


@dataclass(frozen=True)
class SolverOptions:
    """Augmented Lagrangian tuning knobs.

    stat_tol bounds the scale-relative KKT residual
    ||u - P(u - grad L)||_inf / (1 + |J| + ||grad J||_inf) with P the
    input-box projection and L the Lagrangian at the updated multiplier
    estimate.
    """

    feas_tol: float = 1e-8
    stat_tol: float = 1e-6
    penalty_init: float = 10.0
    penalty_growth: float = 10.0
    penalty_max: float = 1e8
    max_outer: int = 20
    max_inner: int = 500
    seed: int = 0


@dataclass(frozen=True)
class OcpSpec:
    model: SystemModel
    cert: DissipativityCertificate
    ss: SteadyState
    N: int
    T: int
    x0: np.ndarray
    H0: HistoryState
    objective: str = ORIGINAL
    warm_start: Optional[np.ndarray] = None  # (N, m)
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.T < 1:
            raise ConfigError("period T must be >= 1")
        if self.N < self.T:
            raise ConfigError(
                f"horizon N = {self.N} shorter than period T = {self.T}: "
                "full-window constraints would be vacuous"
            )
        if self.objective not in (ORIGINAL, ROTATED):
            raise ConfigError(f"unknown objective {self.objective!r}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.shape != (self.model.n,):
            raise ConfigError("x0 has wrong dimension")
        if np.any(x0 < self.model.x_lower - 1e-9) or np.any(
            x0 > self.model.x_upper + 1e-9
        ):
            raise ConfigError("initial state outside the state box")
        if self.H0.T != self.T:
            raise ConfigError("history period does not match T")
        object.__setattr__(self, "x0", x0)
        if self.warm_start is not None:
            ws = np.asarray(self.warm_start, dtype=float).reshape(self.N, self.model.m)
            object.__setattr__(self, "warm_start", ws)


@dataclass(frozen=True)
class OcpSolution:
    spec: OcpSpec
    u: np.ndarray  # (N, m)
    x_pred: np.ndarray  # (N + 1, n), x_pred[0] = x0
    h_pred: np.ndarray  # (N, p)
    J: float
    max_violation: float
    stationarity: float
    iterations: int
    converged: bool
    violation_history: tuple = ()  # accepted outer-iterate violations


class _Forward:
    """Single-shooting rollout with input-to-state sensitivities."""

    __slots__ = ("u", "x", "h", "ell", "Sx", "Dh", "Dell")

    def __init__(self, spec: OcpSpec, u: np.ndarray, with_jac: bool = True):
        model = spec.model
        n, m, p, N = model.n, model.m, model.p, spec.N
        nu = N * m
        self.u = u
        self.x = np.empty((N + 1, n))
        self.h = np.empty((N, p))
        self.ell = np.empty(N)
        self.x[0] = spec.x0
        if with_jac:
            self.Sx = np.zeros((N + 1, n, nu))  # d x_k / d u
            self.Dh = np.empty((N, p, nu))
            self.Dell = np.empty((N, nu))
        else:
            self.Sx = self.Dh = self.Dell = None
        for k in range(N):
            xk, uk = self.x[k], u[k]
            self.h[k] = model.h(xk, uk)
            self.ell[k] = model.ell(xk, uk)
            self.x[k + 1] = model.f(xk, uk)
            if not with_jac:
                continue
            S = self.Sx[k]
            cols = slice(k * m, (k + 1) * m)
            fj = model.jac_f(xk, uk)
            lg = model.grad_ell(xk, uk)
            hj = model.jac_h(xk, uk)
            self.Dell[k] = lg[:n] @ S
            self.Dell[k, cols] += lg[n:]
            self.Dh[k] = hj[:, :n] @ S
            self.Dh[k][:, cols] += hj[:, n:]
            self.Sx[k + 1] = fj[:, :n] @ S
            self.Sx[k + 1][:, cols] += fj[:, n:]


def _objective(spec: OcpSpec, fwd: _Forward):
    """Objective value (and gradient when sensitivities are present)."""
    J = float(np.sum(fwd.ell))
    DJ = None if fwd.Dell is None else np.sum(fwd.Dell, axis=0)
    if spec.objective == ROTATED:
        cert, ss = spec.cert, spec.ss
        J = (
            J
            - spec.N * ss.ell_s
            + float(cert.lam(spec.x0))
            - float(cert.lam(fwd.x[-1]))
            + float(cert.lambda_bar @ np.sum(fwd.h, axis=0))
        )
        if DJ is not None:
            DJ = (
                DJ
                - cert.grad_lam(fwd.x[-1]) @ fwd.Sx[-1]
                + np.einsum("i,kij->j", cert.lambda_bar, fwd.Dh)
            )
    return J, DJ


def _windows(cum, T, head=None, out=None):
    """Window rows from the cumulative outputs cum (N, p[, nu]).

    Rows 0..T-2 are the partial windows anchored at j = 1..T-1 (plus the
    history tail sums ``head`` when given), rows T-1..N-1 the full windows
    starting at i = 0..N-T; the first full window keeps its ``- 0.0``.
    """
    N = cum.shape[0]
    out = np.empty_like(cum) if out is None else out
    if head is None:
        out[: T - 1] = cum[: T - 1]
    else:
        np.add(head, cum[: T - 1], out=out[: T - 1])
    np.subtract(cum[T - 1], 0.0, out=out[T - 1])
    np.subtract(cum[T:], cum[: N - T], out=out[T:])
    return out


def _solver_constraints(spec: OcpSpec, fwd: _Forward, with_jac: bool):
    """Inequality residuals g(u) <= 0 the solver penalizes, with Jacobian.

    Families: shot-state box for x_1..x_{N-1} (x0 is fixed, inputs live in
    their box by projection; lower then upper rows per step),
    history-anchored partial windows, and full windows inside the horizon.
    """
    model, N, T = spec.model, spec.N, spec.T
    n, p = model.n, model.p
    n_box = 2 * n * (N - 1)
    g = np.empty(n_box + N * p)
    box = g[:n_box].reshape(N - 1, 2, n)
    np.subtract(model.x_lower, fwd.x[1:N], out=box[:, 0])
    np.subtract(fwd.x[1:N], model.x_upper, out=box[:, 1])
    _windows(np.cumsum(fwd.h, axis=0), T, spec.H0.tail_sums, g[n_box:].reshape(N, p))
    if not with_jac:
        return g, None
    nu = N * model.m
    Dg = np.empty((g.size, nu))
    box = Dg[:n_box].reshape(N - 1, 2, n, nu)
    np.negative(fwd.Sx[1:N], out=box[:, 0])
    box[:, 1] = fwd.Sx[1:N]
    _windows(np.cumsum(fwd.Dh, axis=0), T, out=Dg[n_box:].reshape(N, p, nu))
    return g, Dg


def constraint_residuals(spec: OcpSpec, u) -> np.ndarray:
    """Admissibility residuals of an input sequence (each <= 0 if feasible).

    Fixed ordering: pointwise lower bounds, pointwise upper bounds (both
    over (x_k, u_k), k = 0..N-1), partial windows by anchor j ascending,
    full windows by start index i ascending.
    """
    u = np.asarray(u, dtype=float).reshape(spec.N, spec.model.m)
    fwd = _Forward(spec, u, with_jac=False)
    model = spec.model
    z = np.hstack([fwd.x[: spec.N], u])  # (N, n + m)
    lower = (model.z_lower - z).ravel()
    upper = (z - model.z_upper).ravel()
    windows = _windows(np.cumsum(fwd.h, axis=0), spec.T, spec.H0.tail_sums)
    return np.concatenate([lower, upper, windows.ravel()])


def open_loop_cost(spec: OcpSpec, u) -> float:
    """Objective value of an input sequence under the configured cost."""
    u = np.asarray(u, dtype=float).reshape(spec.N, spec.model.m)
    fwd = _Forward(spec, u, with_jac=False)
    return _objective(spec, fwd)[0]


def rotated_identity_check(spec: OcpSpec, u) -> float:
    """|rotated cost - telescoped decomposition| from raw sums.

    The rotated cost summed stage by stage must agree with
    J_N - N*ell_s + lam(x0) - lam(x_N) + sum lambda_bar.h.
    """
    model, cert, ss = spec.model, spec.cert, spec.ss
    u = np.asarray(u, dtype=float).reshape(spec.N, model.m)
    fwd = _Forward(spec, u, with_jac=False)
    stagewise = 0.0
    for k in range(spec.N):
        stagewise += (
            fwd.ell[k]
            - ss.ell_s
            + float(cert.lam(fwd.x[k]))
            - float(cert.lam(fwd.x[k + 1]))
            + float(cert.lambda_bar @ fwd.h[k])
        )
    decomposition = (
        float(np.sum(fwd.ell))
        - spec.N * ss.ell_s
        + float(cert.lam(fwd.x[0]))
        - float(cert.lam(fwd.x[-1]))
        + float(cert.lambda_bar @ np.sum(fwd.h, axis=0))
    )
    return abs(stagewise - decomposition)


# ---------------------------------------------------------------------------
# Augmented Lagrangian solver


class _RunResult:
    __slots__ = ("u", "fwd", "J", "viol", "stat", "iters", "converged", "accepted")

    def __init__(self, u, fwd, J, viol, stat, iters, converged, accepted):
        self.u = u
        self.fwd = fwd
        self.J = J
        self.viol = viol
        self.stat = stat
        self.iters = iters
        self.converged = converged
        self.accepted = accepted


def _al_run(spec: OcpSpec, u0: np.ndarray) -> _RunResult:
    opts = spec.options
    model = spec.model
    N, m = spec.N, model.m
    lb = np.tile(model.u_lower, N)
    ub = np.tile(model.u_upper, N)
    u_flat = np.clip(u0.ravel(), lb, ub)

    n_con = _solver_constraints(
        spec, _Forward(spec, u_flat.reshape(N, m), with_jac=False), with_jac=False
    )[0].size
    mult = np.zeros(n_con)
    mu = opts.penalty_init
    total_iters = 0
    accepted = []  # non-increasing violations of accepted iterates
    best = None  # (viol, u_flat, fwd, J, stat)

    def al_fun(uf, mult_, mu_):
        fwd = _Forward(spec, uf.reshape(N, m))
        J, DJ = _objective(spec, fwd)
        g, Dg = _solver_constraints(spec, fwd, with_jac=True)
        if g.size:
            active = np.maximum(0.0, mult_ + mu_ * g)
            value = J + float(active @ active - mult_ @ mult_) / (2.0 * mu_)
            grad = DJ + active @ Dg
        else:
            value, grad = J, DJ
        return value, grad

    for _ in range(opts.max_outer):
        res = optimize.minimize(
            al_fun,
            u_flat,
            args=(mult, mu),
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lb, ub)),
            options={
                "maxiter": opts.max_inner,
                "ftol": 1e-15,
                "gtol": 1e-10,
                "maxcor": 30,
            },
        )
        total_iters += int(res.nit)
        u_flat = np.clip(res.x, lb, ub)
        fwd = _Forward(spec, u_flat.reshape(N, m))
        J, DJ = _objective(spec, fwd)
        g, Dg = _solver_constraints(spec, fwd, with_jac=True)
        viol = max(float(np.max(g, initial=0.0)), 0.0)
        if g.size:
            mult = np.maximum(0.0, mult + mu * g)
        grad_lag = DJ + (mult @ Dg if g.size else 0.0)
        proj_res = np.max(np.abs(u_flat - np.clip(u_flat - grad_lag, lb, ub)))
        stat = float(proj_res / (1.0 + abs(J) + np.max(np.abs(DJ))))

        if best is None or viol <= best[0] + 1e-15:
            accepted.append(viol)
            best = (viol, u_flat.copy(), fwd, J, stat)
        if viol <= opts.feas_tol and stat <= opts.stat_tol:
            return _RunResult(
                u_flat.reshape(N, m), fwd, J, viol, stat, total_iters, True, accepted
            )
        if viol > opts.feas_tol:
            if mu < opts.penalty_max:
                mu *= opts.penalty_growth
        else:
            # feasible but not yet stationary: a large penalty limits the
            # attainable gradient accuracy, so back it off for a polish pass
            mu = max(mu / opts.penalty_growth, opts.penalty_init)

    viol, uf, fwd, J, stat = best
    return _RunResult(
        uf.reshape(N, m), fwd, J, viol, stat, total_iters, False, accepted
    )


def solve(spec: OcpSpec) -> OcpSolution:
    """Solve the horizon problem; deterministic given the warm start.

    The default warm start holds the input at the steady-state value.  If
    that run stalls, two restarts are tried (input-box midpoint, one
    randomized with a fixed seed); the best feasible objective wins, ties
    by restart order.
    """
    model, opts = spec.model, spec.options
    N, m = spec.N, model.m
    starts = []
    if spec.warm_start is not None:
        starts.append(np.asarray(spec.warm_start, dtype=float))
    starts.append(np.tile(spec.ss.u_s, (N, 1)))
    mid = 0.5 * (model.u_lower + model.u_upper)
    starts.append(np.tile(mid, (N, 1)))
    rng = np.random.default_rng(opts.seed)
    starts.append(
        model.u_lower + (model.u_upper - model.u_lower) * rng.random((N, m))
    )

    runs = []
    for k, u0 in enumerate(starts):
        run = _al_run(spec, u0)
        runs.append(run)
        if run.converged:
            break
        if k == 0 and spec.warm_start is not None and run.viol <= opts.feas_tol:
            break  # feasible warm-started iterate on iteration-limit exit

    feasible = [r for r in runs if r.viol <= opts.feas_tol]
    if feasible:
        chosen = min(feasible, key=lambda r: r.J)  # ties keep earlier run
    else:
        best_viol = min(r.viol for r in runs)
        raise InfeasibleError(
            f"no feasible point found after restarts (best residual {best_viol:g})",
            best_residual=best_viol,
        )
    return OcpSolution(
        spec=spec,
        u=chosen.u,
        x_pred=chosen.fwd.x,
        h_pred=chosen.fwd.h,
        J=chosen.J,
        max_violation=chosen.viol,
        stationarity=chosen.stat,
        iterations=sum(r.iters for r in runs),
        converged=chosen.converged,
        violation_history=tuple(chosen.accepted),
    )

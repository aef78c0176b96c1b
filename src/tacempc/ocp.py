"""Finite-horizon optimal control problem with sliding-window constraints.

Direct single shooting: the decision variables are the N inputs, states
are recovered by forward simulation.  The admissible set combines three
constraint families (pointwise box, partial windows anchored in the
stored history, full windows inside the horizon).  The solver is an
augmented Lagrangian over the inequality residuals with a projected
quasi-Newton inner loop (L-BFGS-B on the input box).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import optimize

from .errors import ConfigError, InfeasibleError
from .history import HistoryState, window_rows
from .model import (
    DissipativityCertificate,
    SteadyState,
    SystemModel,
    eval_rotated_stage_cost,
)

ORIGINAL = "original"
ROTATED = "rotated"


@dataclass(frozen=True)
class SolverOptions:
    """Acceptance tolerances of the augmented-Lagrangian solve.

    feas_tol bounds the largest solver constraint residual.  stat_tol
    bounds the scale-relative KKT residual
    ||u - P(u - grad L)||_inf / (1 + |J| + ||grad J||_inf) with P the
    input-box projection and L the Lagrangian at the updated multiplier
    estimate.
    """

    feas_tol: float = 1e-8
    stat_tol: float = 1e-6


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


class _Forward:
    """Single-shooting rollout with input-to-state sensitivities.

    Only the state recursion steps through f; ell, h and the Jacobians
    are evaluated once over the whole (n, N) trajectory.
    """

    __slots__ = ("u", "x", "h", "ell", "Sx", "Dh", "Dell")

    def __init__(self, spec: OcpSpec, u: np.ndarray, with_jac: bool = True):
        model = spec.model
        n, m, p, N = model.n, model.m, model.p, spec.N
        nu = N * m
        self.u = u
        self.x = np.empty((N + 1, n))
        self.x[0] = spec.x0
        for k in range(N):
            self.x[k + 1] = model.f(self.x[k], u[k])
        xs, us = self.x[:N].T, u.T  # (n, N), (m, N)
        self.h = np.empty((N, p))
        self.h[:] = np.atleast_2d(model.h(xs, us)).T
        self.ell = np.empty(N)
        self.ell[:] = model.ell(xs, us)
        if not with_jac:
            self.Sx = self.Dh = self.Dell = None
            return
        # step-major (N, rows, n + m) copies: each step's block has the layout of
        # a pointwise Jacobian, so the products below round as they did per step
        fj = model.jac_f(xs, us).transpose(2, 0, 1).copy()
        lg = model.grad_ell(xs, us).T.copy()
        hj = model.jac_h(xs, us).transpose(2, 0, 1).copy()
        self.Sx = np.zeros((N + 1, n, nu))  # d x_k / d u
        for k in range(N):
            np.matmul(fj[k, :, :n], self.Sx[k], out=self.Sx[k + 1])
            self.Sx[k + 1, :, k * m : (k + 1) * m] += fj[k, :, n:]
        S, steps = self.Sx[:N], np.arange(N)
        self.Dell = np.empty((N, nu))
        np.matmul(lg[:, None, :n], S, out=self.Dell[:, None])
        self.Dell.reshape(N, N, m)[steps, steps] += lg[:, n:]
        self.Dh = np.empty((N, p, nu))
        np.matmul(hj[:, :, :n], S, out=self.Dh)
        self.Dh.reshape(N, p, N, m)[steps, :, steps] += hj[:, :, n:]


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
    cum_h = np.cumsum(fwd.h, axis=0)
    window_rows(cum_h, T, spec.H0.tail_sums, out=g[n_box:].reshape(N, p))
    if not with_jac:
        return g, None
    nu = N * model.m
    Dg = np.empty((g.size, nu))
    box = Dg[:n_box].reshape(N - 1, 2, n, nu)
    np.negative(fwd.Sx[1:N], out=box[:, 0])
    box[:, 1] = fwd.Sx[1:N]
    window_rows(np.cumsum(fwd.Dh, axis=0), T, out=Dg[n_box:].reshape(N, p, nu))
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
    windows = window_rows(np.cumsum(fwd.h, axis=0), spec.T, spec.H0.tail_sums)
    return np.concatenate([lower, upper, windows.ravel()])


def open_loop_cost(spec: OcpSpec, u) -> float:
    """Objective value of an input sequence under the configured cost."""
    u = np.asarray(u, dtype=float).reshape(spec.N, spec.model.m)
    fwd = _Forward(spec, u, with_jac=False)
    return _objective(spec, fwd)[0]


def rotated_identity_check(spec: OcpSpec, u) -> float:
    """|rotated objective - sum of rotated stage costs| of an input sequence.

    The solver's rotated objective telescopes the storage terms into
    J_N - N*ell_s + lam(x0) - lam(x_N) + sum lambda_bar.h; summing
    ``eval_rotated_stage_cost`` along the same rollout must agree with it.
    """
    u = np.asarray(u, dtype=float).reshape(spec.N, spec.model.m)
    fwd = _Forward(spec, u, with_jac=False)
    telescoped = _objective(replace(spec, objective=ROTATED), fwd)[0]
    stagewise = sum(
        eval_rotated_stage_cost(spec.model, spec.cert, spec.ss, fwd.x[k], u[k])
        for k in range(spec.N)
    )
    return abs(stagewise - telescoped)


# ---------------------------------------------------------------------------
# Augmented Lagrangian solver

_PENALTY_INIT = 10.0
_PENALTY_GROWTH = 10.0
_PENALTY_MAX = 1e8
_MAX_OUTER = 20  # multiplier updates
_MAX_INNER = 500  # L-BFGS-B iterations per multiplier update


def solve(spec: OcpSpec) -> OcpSolution:
    """Solve the horizon problem by one augmented-Lagrangian run.

    The run starts from ``spec.warm_start``, or else from the steady-state
    input held constant, so it is deterministic given the spec.  It
    returns the converged iterate, or else the least-violating accepted
    iterate with ``converged=False``; InfeasibleError is raised when that
    iterate violates ``feas_tol``.
    """
    opts = spec.options
    model = spec.model
    N, m = spec.N, model.m
    lb = np.tile(model.u_lower, N)
    ub = np.tile(model.u_upper, N)
    u0 = spec.warm_start if spec.warm_start is not None else np.tile(spec.ss.u_s, (N, 1))
    u_flat = np.clip(u0.ravel(), lb, ub)

    # state-box rows for x_1..x_{N-1}, then one window row per step
    mult = np.zeros(2 * model.n * (N - 1) + model.p * N)
    mu = _PENALTY_INIT
    total_iters = 0
    best = None  # (viol, u_flat, fwd, J, stat) of the least-violating iterate

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

    converged = False
    for _ in range(_MAX_OUTER):
        res = optimize.minimize(
            al_fun,
            u_flat,
            args=(mult, mu),
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lb, ub)),
            options={
                "maxiter": _MAX_INNER,
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
            best = (viol, u_flat, fwd, J, stat)
        if viol <= opts.feas_tol and stat <= opts.stat_tol:
            # the current iterate, which may violate slightly less than best
            converged = True
            break
        if viol > opts.feas_tol:
            if mu < _PENALTY_MAX:
                mu *= _PENALTY_GROWTH
        else:
            # feasible but not yet stationary: a large penalty limits the
            # attainable gradient accuracy, so back it off for a polish pass
            mu = max(mu / _PENALTY_GROWTH, _PENALTY_INIT)

    if not converged:
        viol, u_flat, fwd, J, stat = best
    if viol > opts.feas_tol:
        raise InfeasibleError(
            f"no feasible point found (best residual {viol:g})",
            best_residual=viol,
        )
    return OcpSolution(
        spec=spec,
        u=u_flat.reshape(N, m),
        x_pred=fwd.x,
        h_pred=fwd.h,
        J=J,
        max_violation=viol,
        stationarity=stat,
        iterations=total_iters,
        converged=converged,
    )

"""Finite-horizon optimal control problem with sliding-window constraints.

Direct single shooting: the decision variables are the N inputs, states
are recovered by forward simulation.  The admissible set combines three
constraint families (pointwise box, partial windows anchored in the
stored history, full windows inside the horizon).  The solver is an
augmented Lagrangian over the inequality residuals with a projected
quasi-Newton inner loop: L-BFGS-B on the input box, run by the driver
``lbfgsb.lbfgsb`` as the ``method`` of ``scipy.optimize.minimize``, so
the objective is one Python frame below scipy's kernel.  One rollout with
sensitivities (``_Forward``) serves the solver and the evaluation helpers
``constraint_residuals``, ``open_loop_cost`` and ``rotated_identity_check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import optimize

from .errors import ConfigError, InfeasibleError
from .history import HistoryState, window_rows
from .lbfgsb import lbfgsb
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
    """Acceptance tolerances of the augmented-Lagrangian solve, each in (0, inf).

    feas_tol bounds the largest solver constraint residual.  stat_tol
    bounds the scale-relative KKT residual
    ||u - P(u - grad L)||_inf / (1 + |J| + ||grad J||_inf) with P the
    input-box projection and L the Lagrangian at the updated multiplier
    estimate.
    """

    feas_tol: float = 1e-8
    stat_tol: float = 1e-6

    def __post_init__(self):
        for name in ("feas_tol", "stat_tol"):
            tol = getattr(self, name)
            if not 0 < tol < np.inf:  # also rejects NaN
                raise ConfigError(f"solver {name} must be positive and finite, got {tol!r}")


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
        # solves stop within feas_tol of the state box, so a predicted state
        # passed on as the next x0 may lie outside it by as much
        tol = self.options.feas_tol
        if np.any(x0 < self.model.x_lower - tol) or np.any(x0 > self.model.x_upper + tol):
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
    iterations: int  # L-BFGS-B iterations, summed over the AL runs
    nfev: int  # L-BFGS-B objective evaluations, summed over the AL runs
    converged: bool


class _Forward:
    """Single-shooting rollout workspace with input-to-stage-argument sensitivities.

    Its buffers depend only on the spec, so a solve builds one and each
    call ``fwd(u)`` overwrites x, h, ell, Sx, Dh and Dell in place; a
    result kept past the next call must be copied.  ``_Forward(spec, u)``
    is a one-off workspace rolled out once.  Only the state recursion
    steps through f; ell, h and the Jacobians are evaluated once over the
    whole (n, N) trajectory and copied into step-major (N, rows, n + m)
    C-contiguous buffers.  Dz (N + 1, n + m, N * m) holds d z_k / d u for
    z_k = (x_k, u_k): selector rows for u_k, set once, and one product
    f_z(z_k) @ Dz[k] per step for x_{k+1}; Sx is Dz[:, :n].  The selector
    adds only exact zeros, but a non-finite Jacobian entry (|x| > 1e308)
    spreads to the other columns as NaN (inf * 0).
    """

    __slots__ = ("model", "x", "h", "ell", "Sx", "Dh", "Dell", "_x0", "_next", "_xs",
                 "_fz", "_lz", "_hz", "_steps", "_Dz", "_lz_rows", "_Dell_rows")

    def __init__(self, spec: OcpSpec, u: Optional[np.ndarray] = None):
        model = spec.model
        n, m, p, N = model.n, model.m, model.p, spec.N
        nu = N * m
        self.model = model
        self._x0 = spec.x0
        self.x = np.empty((N + 1, n))
        self.x[0] = spec.x0
        self._next = list(self.x[1:])  # row views x_1..x_N
        self._xs = self.x[:N].T
        self.h = np.empty((N, p))
        self.ell = np.empty(N)
        self._fz = np.empty((N, n, n + m))
        self._lz = np.empty((N, n + m))
        self._hz = np.empty((N, p, n + m))
        Dz = np.zeros((N + 1, n + m, nu))
        Dz[:N, n:] = np.eye(nu).reshape(N, m, nu)
        self._steps = [(self._fz[k], Dz[k], Dz[k + 1, :n]) for k in range(N)]
        self._Dz = Dz[:N]
        self.Sx = Dz[:, :n]
        self._lz_rows = self._lz[:, None]
        self._Dell_rows = np.empty((N, 1, nu))
        self.Dell = self._Dell_rows[:, 0]
        self.Dh = np.empty((N, p, nu))
        if u is not None:
            self(u)

    def __call__(self, u: np.ndarray) -> "_Forward":
        """Roll out the inputs u (N, m) into this workspace."""
        model = self.model
        f, x = model.f, self._x0
        for row, uk in zip(self._next, u):
            x = row[...] = f(x, uk)
        xs, us = self._xs, u.T  # (n, N), (m, N)
        self.h[:] = np.atleast_2d(model.h(xs, us)).T
        self.ell[:] = model.ell(xs, us)
        np.copyto(self._fz, model.jac_f(xs, us).transpose(2, 0, 1))
        np.copyto(self._lz, model.grad_ell(xs, us).T)
        np.copyto(self._hz, model.jac_h(xs, us).transpose(2, 0, 1))
        for fz, Dz, out in self._steps:
            np.matmul(fz, Dz, out)
        np.matmul(self._lz_rows, self._Dz, self._Dell_rows)
        np.matmul(self._hz, self._Dz, self.Dh)
        return self


def _objective(spec: OcpSpec, fwd: _Forward, lam_x0: Optional[float] = None):
    """Objective value and gradient.

    The rotated cost reads the storage lam(x0), which is computed here
    unless the caller passes it as ``lam_x0``.
    """
    J = float(fwd.ell.sum())
    DJ = fwd.Dell.sum(axis=0)
    if spec.objective == ROTATED:
        cert, ss = spec.cert, spec.ss
        if lam_x0 is None:
            lam_x0 = float(cert.lam(spec.x0))
        J = (
            J
            - spec.N * ss.ell_s
            + lam_x0
            - float(cert.lam(fwd.x[-1]))
            + float(cert.lambda_bar @ fwd.h.sum(axis=0))
        )
        DJ = (
            DJ
            - cert.grad_lam(fwd.x[-1]) @ fwd.Sx[-1]
            + np.einsum("i,kij->j", cert.lambda_bar, fwd.Dh)
        )
    return J, DJ


class _ConstraintRows:
    """Buffers of the solver constraints of one spec: g, Dg and their views."""

    def __init__(self, spec: OcpSpec):
        model, N = spec.model, spec.N
        n, p, nu = model.n, model.p, N * model.m
        n_box = 2 * n * (N - 1)
        self.g = np.empty(n_box + N * p)
        self.Dg = np.empty((self.g.size, nu))
        box = self.g[:n_box].reshape(N - 1, 2, n)
        self.g_lower, self.g_upper = box[:, 0], box[:, 1]
        self.g_windows = self.g[n_box:].reshape(N, p)
        box = self.Dg[:n_box].reshape(N - 1, 2, n, nu)
        self.Dg_lower, self.Dg_upper = box[:, 0], box[:, 1]
        self.Dg_windows = self.Dg[n_box:].reshape(N, p, nu)
        self.cum_h = np.empty((N, p))
        self.cum_Dh = np.empty((N, p, nu))


def _solver_constraints(spec: OcpSpec, fwd: _Forward, rows: Optional[_ConstraintRows] = None):
    """Inequality residuals g(u) <= 0 the solver penalizes, with Jacobian.

    Families: shot-state box for x_1..x_{N-1} (x0 is fixed, inputs live in
    their box by projection; lower then upper rows per step),
    history-anchored partial windows, and full windows inside the horizon.
    They are written into ``rows`` (fresh buffers when not given), whose
    g and Dg are returned.
    """
    model, N, T = spec.model, spec.N, spec.T
    rows = _ConstraintRows(spec) if rows is None else rows
    x_shot = fwd.x[1:N]
    np.subtract(model.x_lower, x_shot, out=rows.g_lower)
    np.subtract(x_shot, model.x_upper, out=rows.g_upper)
    fwd.h.cumsum(axis=0, out=rows.cum_h)
    window_rows(rows.cum_h, T, spec.H0.tail_sums, out=rows.g_windows)
    S_shot = fwd.Sx[1:N]
    np.negative(S_shot, out=rows.Dg_lower)
    rows.Dg_upper[...] = S_shot
    fwd.Dh.cumsum(axis=0, out=rows.cum_Dh)
    window_rows(rows.cum_Dh, T, out=rows.Dg_windows)
    return rows.g, rows.Dg


def constraint_residuals(spec: OcpSpec, u) -> np.ndarray:
    """Admissibility residuals of an input sequence (each <= 0 if feasible).

    Fixed ordering: pointwise lower bounds, pointwise upper bounds (both
    over (x_k, u_k), k = 0..N-1), partial windows by anchor j ascending,
    full windows by start index i ascending.
    """
    u = np.asarray(u, dtype=float).reshape(spec.N, spec.model.m)
    fwd = _Forward(spec, u)
    model = spec.model
    z = np.hstack([fwd.x[: spec.N], u])  # (N, n + m)
    lower = (model.z_lower - z).ravel()
    upper = (z - model.z_upper).ravel()
    windows = window_rows(np.cumsum(fwd.h, axis=0), spec.T, spec.H0.tail_sums)
    return np.concatenate([lower, upper, windows.ravel()])


def open_loop_cost(spec: OcpSpec, u) -> float:
    """Objective value of an input sequence under the configured cost."""
    u = np.asarray(u, dtype=float).reshape(spec.N, spec.model.m)
    return _objective(spec, _Forward(spec, u))[0]


def rotated_identity_check(spec: OcpSpec, u) -> float:
    """|rotated objective - sum of rotated stage costs| of an input sequence.

    The solver's rotated objective telescopes the storage terms into
    J_N - N*ell_s + lam(x0) - lam(x_N) + sum lambda_bar.h; summing
    ``eval_rotated_stage_cost`` along the same rollout must agree with it.
    """
    u = np.asarray(u, dtype=float).reshape(spec.N, spec.model.m)
    fwd = _Forward(spec, u)
    telescoped = _objective(replace(spec, objective=ROTATED), fwd)[0]
    # a converged solve may leave the state box by up to feas_tol
    stagewise = eval_rotated_stage_cost(
        spec.model, spec.cert, spec.ss, fwd.x[: spec.N].T, u.T, tol=spec.options.feas_tol
    )
    return abs(float(np.sum(stagewise)) - telescoped)


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
    iterate violates ``feas_tol``.  An iterate whose objective, violation
    or stationarity is not finite is never accepted, and InfeasibleError
    is raised when no iterate is left.
    """
    opts = spec.options
    model = spec.model
    N, m = spec.N, model.m
    lb = np.tile(model.u_lower, N)
    ub = np.tile(model.u_upper, N)
    bounds = list(zip(lb, ub))
    u0 = spec.warm_start if spec.warm_start is not None else np.tile(spec.ss.u_s, (N, 1))
    u_flat = np.clip(u0.ravel(), lb, ub)

    # one workspace per solve; each evaluation overwrites its buffers
    fwd = _Forward(spec)
    rows = _ConstraintRows(spec)
    lam_x0 = float(spec.cert.lam(spec.x0)) if spec.objective == ROTATED else None
    last_key = last = None

    def evaluate(uf):
        # a repeat of the last point (after each run and at the start of
        # the next) reuses its values, which the workspace still holds
        nonlocal last_key, last
        key = uf.tobytes()
        if key != last_key:
            fwd(uf.reshape(N, m))
            last_key = key
            last = _objective(spec, fwd, lam_x0) + _solver_constraints(spec, fwd, rows)
        return last

    # state-box rows for x_1..x_{N-1}, then one window row per step
    mult = np.zeros(rows.g.size)
    mu = _PENALTY_INIT
    total_iters = total_nfev = 0
    # (viol, u_flat, x, h, J, stat): the converged iterate, or else the
    # least-violating finite one
    best = None

    def al_fun(uf, mult_, mu_, mult_sq):
        J, DJ, g, Dg = evaluate(uf)
        active = np.maximum(0.0, mult_ + mu_ * g)
        value = J + float(active @ active - mult_sq) / (2.0 * mu_)
        return value, DJ + active @ Dg

    converged = False
    for _ in range(_MAX_OUTER):
        res = optimize.minimize(
            al_fun,
            u_flat,
            args=(mult, mu, mult @ mult),
            jac=True,
            method=lbfgsb,
            bounds=bounds,
            options={
                "maxiter": _MAX_INNER,
                "ftol": 1e-15,
                "gtol": 1e-10,
                "maxcor": 30,
            },
        )
        total_iters += res.nit
        total_nfev += res.nfev
        u_flat = np.clip(res.x, lb, ub)
        J, DJ, g, Dg = evaluate(u_flat)
        viol = max(float(np.max(g)), 0.0)
        mult = np.maximum(0.0, mult + mu * g)
        grad_lag = DJ + mult @ Dg
        proj_res = np.max(np.abs(u_flat - np.clip(u_flat - grad_lag, lb, ub)))
        stat = float(proj_res / (1.0 + abs(J) + np.max(np.abs(DJ))))

        finite = np.isfinite(J) and np.isfinite(viol) and np.isfinite(stat)
        # a converged iterate is returned even when an earlier one violated less
        converged = bool(finite and viol <= opts.feas_tol and stat <= opts.stat_tol)
        if converged or (finite and (best is None or viol <= best[0] + 1e-15)):
            best = (viol, u_flat, fwd.x.copy(), fwd.h.copy(), J, stat)
        if converged:
            break
        if viol > opts.feas_tol:
            if mu < _PENALTY_MAX:
                mu *= _PENALTY_GROWTH
        else:
            # feasible but not yet stationary: a large penalty limits the
            # attainable gradient accuracy, so back it off for a polish pass
            mu = max(mu / _PENALTY_GROWTH, _PENALTY_INIT)

    if best is None:
        raise InfeasibleError("no iterate with a finite objective, violation and stationarity")
    viol, u_flat, x_pred, h_pred, J, stat = best
    if viol > opts.feas_tol:
        raise InfeasibleError(
            f"no feasible point found (best residual {viol:g})",
            best_residual=viol,
        )
    return OcpSolution(
        spec=spec,
        u=u_flat.reshape(N, m),
        x_pred=x_pred,
        h_pred=h_pred,
        J=J,
        max_violation=viol,
        stationarity=stat,
        iterations=total_iters,
        nfev=total_nfev,
        converged=converged,
    )

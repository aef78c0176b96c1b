"""Finite-horizon optimal control problem with sliding-window constraints.

Direct single shooting: the decision variables are the N inputs, states
are recovered by forward simulation.  The admissible set combines three
constraint families (pointwise box, partial windows anchored in the
stored history, full windows inside the horizon).  The objective picks
the solver.  A rotated spec is one SLSQP run (``scipy.optimize.minimize``
with the input box as bounds and g <= 0 as one inequality).  An original
spec is an augmented Lagrangian over the inequality residuals with a
projected quasi-Newton inner loop: L-BFGS-B on the input box, run by
``lbfgsb.lbfgsb`` as the ``method`` of ``scipy.optimize.minimize``, so
the objective is one Python frame below scipy's kernel; it stays
because the stored benchmark reference pins where it stops.  Both accept
a point by one test, ``_assess``, which also builds the ``OcpSolution``
they return; ``solve`` adds only the run's counters.  One problem object
per spec (``_Problem``) evaluates the objective, the constraints and their
derivatives from one rollout with sensitivities (``_Forward``); it
serves both solvers and the evaluation helper ``rotated_identity_check``.
The rollout calls no model callback: one call of the model's
``stage_pass`` writes the states, stage values and stage Jacobians of
every step into one step record (one row per step, of which x, ell, h
and the stage Jacobians are views), and each sensitivity step calls BLAS
through ``ndarray.dot``.
The window rows of g and Dg are two operations each: a cumulative sum
into a padded buffer whose head rows hold the negated history tail sums,
and one subtraction of two of its row blocks (``history.Windows``).
A solution keeps copies of its iterate's rollout, its states, outputs
and stage costs (``x_pred``, ``h_pred``, ``ell_pred``); the closed loop
and the turnpike report read them instead of calling the model again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import optimize

from .errors import ConfigError, InfeasibleError
from .history import HistoryState, Windows
from .lbfgsb import lbfgsb
from .model import (
    DissipativityCertificate,
    SteadyState,
    SystemModel,
    eval_rotated_stage_cost,
    step_record_widths,
)

ORIGINAL = "original"
ROTATED = "rotated"


@dataclass(frozen=True)
class SolverOptions:
    """Acceptance tolerances of a solve, either solver, each in (0, inf).

    feas_tol bounds the largest solver constraint residual.  stat_tol
    bounds the scale-relative KKT residual
    ||u - P(u - grad L)||_inf / (1 + |J| + ||grad J||_inf) with P the
    input-box projection and L the Lagrangian at the solver's multipliers
    of the g rows: the augmented Lagrangian's updated estimate, or
    SLSQP's ``multipliers``.
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
        if not np.all(np.isfinite(x0)):  # NaN would pass the box check below
            raise ConfigError(f"initial state must be finite, got {x0.tolist()}")
        # solves stop within feas_tol of the state box, so a predicted state
        # passed on as the next x0 may lie outside it by as much
        tol = self.options.feas_tol
        if np.any(x0 < self.model.x_lower - tol) or np.any(x0 > self.model.x_upper + tol):
            raise ConfigError("initial state outside the state box")
        if self.H0.T != self.T:
            raise ConfigError("history period does not match T")
        if self.H0.p != self.model.p:
            raise ConfigError(
                f"history has {self.H0.p} output rows, the model has p = {self.model.p}"
            )
        object.__setattr__(self, "x0", x0)
        if self.warm_start is not None:
            ws = np.asarray(self.warm_start, dtype=float)
            if ws.size != self.N * self.model.m:
                raise ConfigError(
                    f"warm start has {ws.size} entries, expected N * m = {self.N * self.model.m}"
                )
            if not np.all(np.isfinite(ws)):
                raise ConfigError("warm start must be finite")
            object.__setattr__(self, "warm_start", ws.reshape(self.N, self.model.m))


@dataclass(frozen=True)
class OcpSolution:
    spec: OcpSpec
    u: np.ndarray  # (N, m)
    x_pred: np.ndarray  # (N + 1, n), x_pred[0] = x0
    h_pred: np.ndarray  # (N, p)
    ell_pred: np.ndarray  # (N,)
    J: float
    max_violation: float
    stationarity: float
    iterations: int  # SLSQP's nit, or L-BFGS-B iterations summed over the AL runs
    nfev: int  # SLSQP's nfev, or L-BFGS-B objective evaluations summed over the AL runs
    converged: bool


class _Forward:
    """Single-shooting rollout workspace with input-to-stage-argument sensitivities.

    Its buffers depend only on the spec, so a solve builds one and each
    call ``fwd(u)`` overwrites x, h, ell, Sx, Dh and Dell in place; a
    result kept past the next call must be copied.  The states, ell, h and
    the stage Jacobians f_z, ell_z and h_z live in one step record, a
    C-contiguous (N + 1, R) buffer with one row per step: row k holds x_k,
    ell_k, h_k, f_z, ell_z and h_z at z_k = (x_k, u_k), each flattened, and
    row N holds x_N (see ``exprlang.stage_pass``); row 0's x0 is written
    once.  x (N + 1, n), ell (N,), h (N, p) and the (N, rows, n + m) stage
    Jacobians are strided views of it, and one call of ``model.stage_pass``
    fills it.  Dz (N + 1, n + m, N * m) holds d z_k / d u for z_k = (x_k,
    u_k): selector rows for u_k, set once, and one product f_z(z_k) @ Dz[k]
    per step for x_{k+1}, written by ``fz.dot(Dz[k], out)``: BLAS called
    directly, about half the cost of the ``np.matmul`` ufunc on these small
    C-contiguous blocks and the same bits; Sx is Dz[:, :n].  The selector
    adds only exact zeros, but a non-finite Jacobian entry (|x| > 1e308)
    spreads to the other columns as NaN (inf * 0).
    """

    __slots__ = ("record", "x", "h", "ell", "Sx", "Dh", "Dell", "_x0", "_pass", "_fz",
                 "_lz", "_hz", "_steps", "_Dz", "_lz_rows", "_Dell_rows")

    def __init__(self, spec: OcpSpec):
        model = spec.model
        n, m, p, N = model.n, model.m, model.p, spec.N
        nz, nu = n + m, N * m
        self._x0 = spec.x0
        widths = step_record_widths(n, m, p)
        self.record = np.zeros((N + 1, sum(widths)))
        x, ell, h, fz, lz, hz = np.split(self.record, np.cumsum(widths)[:-1], axis=1)
        x[0] = spec.x0
        self.x = x
        self.ell = ell[:N, 0]
        self.h = h[:N]
        self._fz = fz[:N].reshape(N, n, nz)
        self._lz = lz[:N]
        self._hz = hz[:N].reshape(N, p, nz)
        Dz = np.zeros((N + 1, nz, nu))
        Dz[:N, n:] = np.eye(nu).reshape(N, m, nu)
        self._steps = [(self._fz[k], Dz[k], Dz[k + 1, :n]) for k in range(N)]
        self._Dz = Dz[:N]
        self.Sx = Dz[:, :n]
        self._lz_rows = self._lz[:, None]
        self._Dell_rows = np.empty((N, 1, nu))
        self.Dell = self._Dell_rows[:, 0]
        self.Dh = np.empty((N, p, nu))
        self._pass = model.stage_pass

    def __call__(self, u: np.ndarray) -> "_Forward":
        """Roll out the inputs u (N, m) into this workspace."""
        self._pass(self._x0, u, self.record)
        for fz, Dz, out in self._steps:
            fz.dot(Dz, out)
        np.matmul(self._lz_rows, self._Dz, self._Dell_rows)
        np.matmul(self._hz, self._Dz, self.Dh)
        return self


class _Problem:
    """The OCP of one spec: ``problem(uf)`` gives (J, DJ, g, Dg) at the inputs uf.

    It owns what every evaluation reuses: a ``_Forward`` workspace ``fwd``,
    the buffers of g and Dg with their views, the padded window operators
    of h and Dh (``history.Windows``, whose head rows hold the history's
    negated tail sums), N * ell_s and lam(x0) for the rotated cost, and a
    memo on the last point's bytes, so a repeat of that point (after each
    AL run and at the start of the next, or SLSQP's calls of g and Dg
    after its objective) costs no rollout.  Each new
    point overwrites fwd, g and Dg.  ``objective`` and ``constraints`` read
    any rollout with the attributes of ``_Forward``.
    """

    def __init__(self, spec: OcpSpec):
        model, N = spec.model, spec.N
        n, p, nu = model.n, model.p, N * model.m
        self.spec = spec
        self.fwd = _Forward(spec)
        n_box = 2 * n * (N - 1)
        self.g = np.empty(n_box + N * p)
        self.Dg = np.empty((self.g.size, nu))
        box = self.g[:n_box].reshape(N - 1, 2, n)
        self.g_lower, self.g_upper = box[:, 0], box[:, 1]
        self.g_windows = self.g[n_box:].reshape(N, p)
        box = self.Dg[:n_box].reshape(N - 1, 2, n, nu)
        self.Dg_lower, self.Dg_upper = box[:, 0], box[:, 1]
        self.Dg_windows = self.Dg[n_box:].reshape(N, p, nu)
        self.x_lower, self.x_upper = model.x_lower, model.x_upper
        self.windows_h = Windows(N, spec.T, spec.H0.tail_sums, (p,))
        self.windows_Dh = Windows(N, spec.T, None, (p, nu))
        if spec.objective == ROTATED:  # the rotated cost's terms fixed by the spec
            self.N_ell_s = N * spec.ss.ell_s
            self.lam_x0 = float(spec.cert.lam(spec.x0))
        self._key = self._last = None

    def __call__(self, uf: np.ndarray):
        key = uf.tobytes()
        if key != self._key:
            fwd = self.fwd(uf.reshape(self.spec.N, self.spec.model.m))
            self._key = key
            self._last = self.objective(fwd) + self.constraints(fwd)
        return self._last

    def objective(self, fwd):
        """Objective value and gradient."""
        spec, cert = self.spec, self.spec.cert
        J = float(np.add.reduce(fwd.ell))
        DJ = np.add.reduce(fwd.Dell, axis=0)
        if spec.objective == ROTATED:
            J = (
                J
                - self.N_ell_s
                + self.lam_x0
                - float(cert.lam(fwd.x[-1]))
                + float(cert.lambda_bar @ np.add.reduce(fwd.h, axis=0))
            )
            DJ = (
                DJ
                - cert.lam_grad(fwd.x[-1]) @ fwd.Sx[-1]
                + np.einsum("i,kij->j", cert.lambda_bar, fwd.Dh)
            )
        return J, DJ

    def constraints(self, fwd):
        """Inequality residuals g(u) <= 0 the solver penalizes, with Jacobian.

        Families: shot-state box for x_1..x_{N-1} (x0 is fixed, inputs live in
        their box by projection; lower then upper rows per step),
        history-anchored partial windows, and full windows inside the horizon.
        They are written into g and Dg, which are returned.
        """
        N = self.spec.N
        x_shot = fwd.x[1:N]
        np.subtract(self.x_lower, x_shot, out=self.g_lower)
        np.subtract(x_shot, self.x_upper, out=self.g_upper)
        self.windows_h(fwd.h, out=self.g_windows)
        S_shot = fwd.Sx[1:N]
        np.negative(S_shot, out=self.Dg_lower)
        self.Dg_upper[...] = S_shot
        self.windows_Dh(fwd.Dh, out=self.Dg_windows)
        return self.g, self.Dg


def rotated_identity_check(spec: OcpSpec, u) -> float:
    """|rotated objective - sum of rotated stage costs| of an input sequence.

    The solver's rotated objective telescopes the storage terms into
    J_N - N*ell_s + lam(x0) - lam(x_N) + sum lambda_bar.h; summing
    ``eval_rotated_stage_cost`` along the same rollout must agree with it.
    """
    u = np.asarray(u, dtype=float).reshape(spec.N, spec.model.m)
    problem = _Problem(replace(spec, objective=ROTATED))
    telescoped = problem(u)[0]
    # a converged solve may leave the state box by up to feas_tol
    stagewise = eval_rotated_stage_cost(
        spec.model, spec.cert, spec.ss, problem.fwd.x[: spec.N].T, u.T, tol=spec.options.feas_tol
    )
    return abs(float(np.sum(stagewise)) - telescoped)


# ---------------------------------------------------------------------------
# Solvers: SLSQP for rotated specs, an augmented Lagrangian for original ones

_PENALTY_INIT = 10.0
_PENALTY_GROWTH = 10.0
_PENALTY_MAX = 1e8
_MAX_OUTER = 20  # multiplier updates
_MAX_INNER = 500  # L-BFGS-B iterations per multiplier update


def _assess(problem, uf, mult, lb, ub):
    """(solution, violation) at the inputs uf, mult the multipliers of the g rows.

    The solution is the ``OcpSolution`` at uf with copies of its rollout,
    which the next point overwrites, and zero counters; it is None when
    J, the violation or the stationarity (the projected-KKT residual of
    ``SolverOptions``) is not finite.  It is converged when its violation
    is within feas_tol and its stationarity within stat_tol.  Both
    solvers accept a point by this test alone.  The violation is returned
    beside it because the AL's penalty update reads it at any point.
    """
    spec, fwd = problem.spec, problem.fwd
    opts = spec.options
    J, DJ, g, Dg = problem(uf)
    viol = max(float(np.max(g)), 0.0)
    grad_lag = DJ + mult @ Dg
    proj_res = np.max(np.abs(uf - np.clip(uf - grad_lag, lb, ub)))
    stat = float(proj_res / (1.0 + abs(J) + np.max(np.abs(DJ))))
    if not (np.isfinite(J) and np.isfinite(viol) and np.isfinite(stat)):
        return None, viol
    solution = OcpSolution(
        spec=spec, u=uf.reshape(spec.N, spec.model.m),
        x_pred=fwd.x.copy(), h_pred=fwd.h.copy(), ell_pred=fwd.ell.copy(),
        J=J, max_violation=viol, stationarity=stat, iterations=0, nfev=0,
        converged=bool(viol <= opts.feas_tol and stat <= opts.stat_tol),
    )
    return solution, viol


def _sqp(problem, u_flat, lb, ub):
    """One SLSQP run from u_flat: (solution or None, nit, nfev).

    The input box goes in as bounds and g <= 0 as one inequality, and one
    rollout per point serves the objective, g and their Jacobians (the
    memo of ``_Problem``).  SLSQP's exit status is not read: status 8
    comes back on points that are feasible and stationary.
    """
    res = optimize.minimize(
        lambda uf: problem(uf)[:2],
        u_flat,
        jac=True,
        method="SLSQP",
        bounds=list(zip(lb, ub)),
        constraints={
            "type": "ineq",
            "fun": lambda uf: -problem(uf)[2],
            "jac": lambda uf: -problem(uf)[3],
        },
        options={"ftol": 1e-16, "maxiter": 1000},
    )
    solution, _ = _assess(problem, np.clip(res.x, lb, ub), res.multipliers, lb, ub)
    return solution, res.nit, res.nfev


def _augmented_lagrangian(problem, u_flat, lb, ub):
    """Up to _MAX_OUTER L-BFGS-B runs from u_flat: (solution or None, nit, nfev).

    The solution is the first converged iterate, or else the
    least-violating finite one (None if there is none); nit and nfev are
    summed over the runs.
    """
    opts = problem.spec.options
    bounds = list(zip(lb, ub))
    # state-box rows for x_1..x_{N-1}, then one window row per step
    mult = np.zeros(problem.g.size)
    mu = _PENALTY_INIT
    total_iters = total_nfev = 0
    best = None

    active = np.empty(problem.g.size)

    def al_fun(uf, mult_, mu_, mult_sq):
        J, DJ, g, Dg = problem(uf)
        # max(0, mult + mu * g), in that operand order, into one buffer
        np.multiply(mu_, g, out=active)
        np.add(mult_, active, out=active)
        np.maximum(0.0, active, out=active)
        value = J + float(active.dot(active) - mult_sq) / (2.0 * mu_)
        return value, DJ + active @ Dg

    for _ in range(_MAX_OUTER):
        res = optimize.minimize(
            al_fun,
            u_flat,
            args=(mult, mu, mult @ mult),
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
        mult = np.maximum(0.0, mult + mu * problem(u_flat)[2])
        sol, viol = _assess(problem, u_flat, mult, lb, ub)
        # a converged iterate is kept even when an earlier one violated less
        if sol is not None and (sol.converged or best is None
                                or viol <= best.max_violation + 1e-15):
            best = sol
            if sol.converged:
                break
        if viol > opts.feas_tol:
            if mu < _PENALTY_MAX:
                mu *= _PENALTY_GROWTH
        else:
            # feasible but not yet stationary: a large penalty limits the
            # attainable gradient accuracy, so back it off for a polish pass
            mu = max(mu / _PENALTY_GROWTH, _PENALTY_INIT)
    return best, total_iters, total_nfev


def solve(spec: OcpSpec) -> OcpSolution:
    """Solve the horizon problem: SLSQP for a rotated spec, else the AL.

    A rotated spec gets one SLSQP run (``_sqp``), an original one one
    augmented-Lagrangian run (``_augmented_lagrangian``).  Either starts
    from ``spec.warm_start``, or else from the steady-state input held
    constant, so it is deterministic given the spec.  It returns the
    run's solution (built by ``_assess``: the converged iterate, or else
    the best finite one with ``converged=False``) with the run's total
    iterations and evaluations; InfeasibleError is raised when that
    solution violates ``feas_tol``, or when the run kept none because no
    iterate had a finite objective, violation and stationarity.
    """
    model = spec.model
    N = spec.N
    lb = np.tile(model.u_lower, N)
    ub = np.tile(model.u_upper, N)
    u0 = spec.warm_start if spec.warm_start is not None else np.tile(spec.ss.u_s, (N, 1))
    run = _sqp if spec.objective == ROTATED else _augmented_lagrangian
    solution, iterations, nfev = run(_Problem(spec), np.clip(u0.ravel(), lb, ub), lb, ub)

    if solution is None:
        raise InfeasibleError("no iterate with a finite objective, violation and stationarity")
    viol = solution.max_violation
    if viol > spec.options.feas_tol:
        raise InfeasibleError(
            f"no feasible point found (best residual {viol:g})",
            best_residual=viol,
        )
    return replace(solution, iterations=iterations, nfev=nfev)

"""System description, dissipativity certificate and steady-state analysis.

The controlled plant is a discrete-time system x+ = f(x, u) with stage
cost ell, auxiliary output h (constrained in sliding-window averages) and
a compact box constraint set Z for (x, u).  A user-supplied dissipativity
certificate (storage function, multiplier, polynomial margin) is checked
on a grid, never synthesized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import optimize

from . import exprlang
from .errors import ConfigError, DomainError, InfeasibleError

_FD_STEP = 1e-7
_STEADY_FEAS_TOL = 1e-8  # steady-state equality and output residual bound
_STEADY_CANDIDATES = 10  # cheapest grid points refined by SLSQP
_EXTREMES_GRID = 101  # points per axis of the output_extremes grid


def _fd_jacobian(fn, x, u, out_dim):
    """Central-difference Jacobian of fn(x, u) w.r.t. (x, u).

    The step is _FD_STEP * max(1, |z_j|), so it is not lost to rounding
    at large coordinates.  x (n[, K]) and u (m[, K]) may carry a trailing
    batch axis, which fn must broadcast over; the result is
    (out_dim, n + m[, K]).
    """
    z = np.concatenate([x, u])
    n = len(x)
    jac = np.empty((out_dim,) + z.shape)
    for j in range(len(z)):
        step = _FD_STEP * np.maximum(1.0, np.abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        fp = np.asarray(fn(zp[:n], zp[n:]), dtype=float)
        fm = np.asarray(fn(zm[:n], zm[n:]), dtype=float)
        jac[:, j] = (fp - fm) / (2 * step)
    return jac


def _batch_shape(x, u):
    return np.shape(x[0]) if len(x) else np.shape(u[0])


def _component_eval(fns, x, u):
    """Stack compiled componentwise values; broadcasts over a batch axis."""
    result = np.empty((len(fns),) + _batch_shape(x, u))
    for i, fn in enumerate(fns):
        result[i] = fn(x, u)
    return result


def _component_grad(duals, x, u, dim):
    """Stack compiled gradients into (rows, dim[, K]); broadcasts like
    ``_component_eval`` (entries constant over the batch are scalars)."""
    result = np.empty((len(duals), dim) + _batch_shape(x, u))
    for i, dual in enumerate(duals):
        for j, entry in enumerate(dual(x, u)[1]):
            result[i, j] = entry
    return result


@dataclass(frozen=True)
class SystemModel:
    """Dynamics, stage cost, auxiliary output and box constraints.

    Every callable takes a 1-D state x (n,) and input u (m,), and must
    also broadcast over a trailing batch axis: with x (n, K) and u (m, K),
    f returns (n, K), ell (K,), h (p, K), f_jac (n, n+m, K), ell_grad
    (n+m, K) and h_jac (p, n+m, K).  The grid routines and the rollout
    call them once per batch.  Jacobian callables are optional; central
    finite differences of f, ell and h, also batched, are used when absent.
    """

    n: int
    m: int
    p: int
    f: Callable
    ell: Callable
    h: Callable
    z_lower: np.ndarray  # (n + m,)
    z_upper: np.ndarray
    f_jac: Optional[Callable] = None  # (x, u) -> (n, n+m[, K])
    ell_grad: Optional[Callable] = None  # (x, u) -> (n+m[, K])
    h_jac: Optional[Callable] = None  # (x, u) -> (p, n+m[, K])

    def __post_init__(self):
        if min(self.n, self.m, self.p) < 1:
            raise ConfigError("dimensions n, m, p must be positive")
        lower = np.asarray(self.z_lower, dtype=float)
        upper = np.asarray(self.z_upper, dtype=float)
        if lower.shape != (self.n + self.m,) or upper.shape != (self.n + self.m,):
            raise ConfigError("box bounds must have length n + m")
        if np.any(lower > upper):
            raise ConfigError("box lower bounds exceed upper bounds")
        object.__setattr__(self, "z_lower", lower)
        object.__setattr__(self, "z_upper", upper)

    @property
    def x_lower(self):
        return self.z_lower[: self.n]

    @property
    def x_upper(self):
        return self.z_upper[: self.n]

    @property
    def u_lower(self):
        return self.z_lower[self.n :]

    @property
    def u_upper(self):
        return self.z_upper[self.n :]

    def in_box(self, x, u, tol=1e-9):
        z = np.concatenate([np.atleast_1d(x), np.atleast_1d(u)])
        return bool(
            np.all(z >= self.z_lower - tol) and np.all(z <= self.z_upper + tol)
        )

    def jac_f(self, x, u):
        if self.f_jac is not None:
            return np.asarray(self.f_jac(x, u), dtype=float)
        return _fd_jacobian(self.f, x, u, self.n)

    def grad_ell(self, x, u):
        if self.ell_grad is not None:
            return np.asarray(self.ell_grad(x, u), dtype=float)
        return _fd_jacobian(lambda a, b: [self.ell(a, b)], x, u, 1)[0]

    def jac_h(self, x, u):
        if self.h_jac is not None:
            return np.asarray(self.h_jac(x, u), dtype=float)
        return _fd_jacobian(self.h, x, u, self.p)

    @classmethod
    def from_expressions(
        cls,
        n: int,
        m: int,
        f_sources: Sequence[str],
        ell_source: str,
        h_sources: Sequence[str],
        z_lower,
        z_upper,
    ) -> "SystemModel":
        """Build a model from expression strings over x1..xn, u1..um.

        Every expression is compiled here, once, into its value and
        value-plus-gradient functions (see ``exprlang``); the callables
        broadcast over a batch axis bit for bit like pointwise calls.
        """
        if len(f_sources) != n:
            raise ConfigError(f"expected {n} dynamics expressions, got {len(f_sources)}")
        f_exprs = [exprlang.parse(s, n, m) for s in f_sources]
        ell_expr = exprlang.parse(ell_source, n, m)
        h_exprs = [exprlang.parse(s, n, m) for s in h_sources]
        p = len(h_exprs)
        f_values = [exprlang.value_function(e) for e in f_exprs]
        f_grads = [exprlang.gradient_function(e, n, m) for e in f_exprs]
        ell_value = exprlang.value_function(ell_expr)
        ell_dual = exprlang.gradient_function(ell_expr, n, m)
        h_values = [exprlang.value_function(e) for e in h_exprs]
        h_grads = [exprlang.gradient_function(e, n, m) for e in h_exprs]

        def f(x, u):
            return _component_eval(f_values, x, u)

        def ell(x, u):
            value = ell_value(x, u)
            return value if np.ndim(value) else float(value)

        def h(x, u):
            return _component_eval(h_values, x, u)

        def f_jac(x, u):
            return _component_grad(f_grads, x, u, n + m)

        def ell_grad(x, u):
            return _component_grad([ell_dual], x, u, n + m)[0]

        def h_jac(x, u):
            return _component_grad(h_grads, x, u, n + m)

        return cls(
            n=n,
            m=m,
            p=p,
            f=f,
            ell=ell,
            h=h,
            z_lower=np.asarray(z_lower, dtype=float),
            z_upper=np.asarray(z_upper, dtype=float),
            f_jac=f_jac,
            ell_grad=ell_grad,
            h_jac=h_jac,
        )


@dataclass(frozen=True)
class DissipativityCertificate:
    """Storage function, multiplier and polynomial dissipation margin.

    The margin rho(r) >= a * r^omega lower-bounds the dissipation rate;
    L_h is a Lipschitz constant of the auxiliary output on Z.
    """

    lam: Callable  # x -> scalar, lam(x_s) = 0; broadcasts over batch axis
    lambda_bar: np.ndarray  # (p,), >= 0
    a: float
    omega: float
    L_h: float
    lam_grad: Optional[Callable] = None  # x -> (n,)

    def __post_init__(self):
        lb = np.atleast_1d(np.asarray(self.lambda_bar, dtype=float))
        if np.any(lb < 0):
            raise ConfigError("multiplier lambda_bar must be nonnegative")
        if self.a <= 0 or self.omega <= 0 or self.L_h <= 0:
            raise ConfigError("a, omega and L_h must be positive")
        object.__setattr__(self, "lambda_bar", lb)

    def rho(self, r):
        return self.a * np.asarray(r) ** self.omega

    def grad_lam(self, x):
        if self.lam_grad is not None:
            return np.asarray(self.lam_grad(x), dtype=float)
        return _fd_jacobian(lambda xs, _: [self.lam(xs)], x, np.zeros(0), 1)[0]

    @classmethod
    def from_expression(cls, n, lam_source, lambda_bar, a, omega, L_h):
        lam_expr = exprlang.parse(lam_source, n, 0)
        lam_value = exprlang.value_function(lam_expr)
        lam_dual = exprlang.gradient_function(lam_expr, n, 0)

        def lam(x):
            value = lam_value(x, ())
            return value if np.ndim(value) else float(value)

        def lam_grad(x):
            return _component_grad([lam_dual], x, (), n)[0]

        return cls(
            lam=lam,
            lambda_bar=np.atleast_1d(np.asarray(lambda_bar, dtype=float)),
            a=float(a),
            omega=float(omega),
            L_h=float(L_h),
            lam_grad=lam_grad,
        )


@dataclass(frozen=True)
class SteadyState:
    """Optimal admissible steady-state and derived quantities."""

    x_s: np.ndarray
    u_s: np.ndarray
    ell_s: float
    h_s: np.ndarray


def validate_certificate(cert: DissipativityCertificate, ss: SteadyState, tol=1e-8):
    """Reject certificates whose normalization does not match the steady-state.

    Requires lam(x_s) = 0 and complementarity lambda_bar . h_s = 0.
    """
    lam_s = float(cert.lam(ss.x_s))
    if abs(lam_s) > tol:
        raise ConfigError(f"storage function not normalized: lam(x_s) = {lam_s:g}")
    slack = float(cert.lambda_bar @ ss.h_s)
    if abs(slack) > tol:
        raise ConfigError(
            f"multiplier/output complementarity violated: lambda_bar . h_s = {slack:g}"
        )


def eval_rotated_stage_cost(model, cert, ss, x, u) -> float:
    """Stage cost shifted by steady-state cost, storage telescoping and
    the multiplier-weighted output; nonnegative under a valid certificate."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not model.in_box(x, u):
        raise DomainError(f"point (x, u) = ({x}, {u}) outside the constraint box")
    x_next = np.asarray(model.f(x, u), dtype=float)
    return float(
        model.ell(x, u)
        - ss.ell_s
        + cert.lam(x)
        - cert.lam(x_next)
        + cert.lambda_bar @ np.atleast_1d(model.h(x, u))
    )


def _grid_points(lower, upper, density):
    axes = [np.linspace(lo, hi, density) for lo, hi in zip(lower, upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh])  # (dim, density**dim)


def solve_steady_state(model: SystemModel, grid_density: int = 201) -> SteadyState:
    """Global steady-state search: dense grid over Z plus local refinement.

    Deterministic: grid candidates are ranked by cost with ties broken by
    lexicographic flat grid index, each refined with SLSQP.
    """
    pts = _grid_points(model.z_lower, model.z_upper, grid_density)
    x_pts, u_pts = pts[: model.n], pts[model.n :]
    spacing = np.max((model.z_upper - model.z_lower) / max(grid_density - 1, 1))
    grid_tol = max(spacing, _STEADY_FEAS_TOL)

    f_vals = np.asarray(model.f(x_pts, u_pts))
    h_vals = np.atleast_2d(np.asarray(model.h(x_pts, u_pts)))
    ell_vals = np.asarray(model.ell(x_pts, u_pts))
    eq_res = np.max(np.abs(f_vals - x_pts), axis=0)
    ineq_res = np.max(h_vals, axis=0)
    mask = (eq_res <= grid_tol) & (ineq_res <= grid_tol)
    if not np.any(mask):
        raise InfeasibleError("no steady-state candidate on the grid")

    candidates = np.flatnonzero(mask)
    order = np.argsort(ell_vals[candidates], kind="stable")
    candidates = candidates[order][:_STEADY_CANDIDATES]

    bounds = list(zip(model.z_lower, model.z_upper))
    n = model.n

    def objective(z):
        return float(model.ell(z[:n], z[n:]))

    def eq_con(z):
        return np.asarray(model.f(z[:n], z[n:]), dtype=float) - z[:n]

    def ineq_con(z):  # SLSQP convention: >= 0 feasible
        return -np.atleast_1d(np.asarray(model.h(z[:n], z[n:]), dtype=float))

    best = None
    for idx in candidates:
        z0 = pts[:, idx]
        res = optimize.minimize(
            objective,
            z0,
            method="SLSQP",
            bounds=bounds,
            constraints=[
                {"type": "eq", "fun": eq_con},
                {"type": "ineq", "fun": ineq_con},
            ],
            options={"maxiter": 200, "ftol": 1e-14},
        )
        for z in (res.x, z0):  # fall back to the raw grid point
            x, u = z[:n], z[n:]
            if not model.in_box(x, u, tol=_STEADY_FEAS_TOL):
                continue
            if np.max(np.abs(eq_con(z))) > _STEADY_FEAS_TOL:
                continue
            if np.max(np.atleast_1d(model.h(x, u))) > _STEADY_FEAS_TOL:
                continue
            cost = objective(z)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, np.clip(z, model.z_lower, model.z_upper))
            break

    if best is None:
        raise InfeasibleError(
            "no steady-state satisfied the feasibility tolerance after refinement"
        )
    cost, z = best
    x_s, u_s = z[:n].copy(), z[n:].copy()
    return SteadyState(
        x_s=x_s,
        u_s=u_s,
        ell_s=float(model.ell(x_s, u_s)),
        h_s=np.atleast_1d(np.asarray(model.h(x_s, u_s), dtype=float)),
    )


def check_dissipativity_grid(
    model: SystemModel,
    cert: DissipativityCertificate,
    ss: SteadyState,
    grid_density: int = 101,
) -> float:
    """Worst-case dissipation residual on a grid over Z.

    Returns min over the grid of
        ell - ell_s + lambda_bar.h - a*||(x - x_s, u - u_s)||^omega
        - lam(f(x, u)) + lam(x);
    the certificate is accepted iff the result is >= -1e-9.
    """
    if grid_density < 2:
        raise ConfigError("grid_density must be at least 2")
    pts = _grid_points(model.z_lower, model.z_upper, grid_density)
    x_pts, u_pts = pts[: model.n], pts[model.n :]
    dev = pts - np.concatenate([ss.x_s, ss.u_s])[:, None]
    r = np.linalg.norm(dev, axis=0)
    h_vals = np.atleast_2d(np.asarray(model.h(x_pts, u_pts)))
    residual = (
        np.asarray(model.ell(x_pts, u_pts))
        - ss.ell_s
        + cert.lambda_bar @ h_vals
        - cert.rho(r)
        - np.asarray(cert.lam(np.asarray(model.f(x_pts, u_pts))))
        + np.asarray(cert.lam(x_pts))
    )
    return float(np.min(residual))


def _refine_extremum(fun_jac, z0, lower, upper):
    res = optimize.minimize(
        fun_jac,
        z0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lower, upper)),
        options={"maxiter": 200},
    )
    return res.x


def output_extremes(model: SystemModel, cert: DissipativityCertificate):
    """Extremes of lambda_bar.h and componentwise h over Z.

    Grid search followed by local refinement; exact for outputs affine in
    (x, u) since the grid contains the box vertices.
    """
    pts = _grid_points(model.z_lower, model.z_upper, _EXTREMES_GRID)
    x_pts, u_pts = pts[: model.n], pts[model.n :]
    h_vals = np.atleast_2d(np.asarray(model.h(x_pts, u_pts)))
    theta_vals = cert.lambda_bar @ h_vals
    n = model.n

    def scalar_fun(weights, sign):
        def fun(z):
            value = sign * float(weights @ np.atleast_1d(model.h(z[:n], z[n:])))
            grad = sign * (weights @ model.jac_h(z[:n], z[n:]))
            return value, grad

        return fun

    def refine(values, weights, sign):
        # sign=+1 refines the minimum of weights.h, sign=-1 the maximum
        z0 = pts[:, int(np.argmin(sign * values))]
        z = _refine_extremum(scalar_fun(weights, sign), z0, model.z_lower, model.z_upper)
        candidate = float(weights @ np.atleast_1d(model.h(z[:n], z[n:])))
        grid_best = float(np.min(sign * values)) * sign
        return min(candidate, grid_best) if sign > 0 else max(candidate, grid_best)

    theta_low = refine(theta_vals, cert.lambda_bar, +1)
    theta_high = refine(theta_vals, cert.lambda_bar, -1)
    h_low = np.empty(model.p)
    h_high = np.empty(model.p)
    for i in range(model.p):
        unit = np.zeros(model.p)
        unit[i] = 1.0
        h_low[i] = refine(h_vals[i], unit, +1)
        h_high[i] = refine(h_vals[i], unit, -1)
    return theta_low, theta_high, h_low, h_high

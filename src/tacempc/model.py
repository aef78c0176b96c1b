"""System description, dissipativity certificate and steady-state analysis.

The controlled plant is a discrete-time system x+ = f(x, u) with stage
cost ell, auxiliary output h (constrained in sliding-window averages) and
a compact box constraint set Z for (x, u).  A user-supplied dissipativity
certificate (storage function, multiplier, polynomial margin) is checked
on a grid, never synthesized.  The rotated stage cost has one evaluation,
``eval_rotated_stage_cost``, pointwise or over a batch of columns; the grid
check and the rotated-cost identity both use it.  Grids over Z hold at most
``_GRID_MAX_POINTS`` points, and every grid user evaluates them in blocks
of ``_GRID_BLOCK`` columns from ``_grid_blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from . import exprlang
from .errors import ConfigError, DomainError, InfeasibleError, quoted
from .lbfgsb import lbfgsb

_STEADY_FEAS_TOL = 1e-8  # steady-state equality and output residual bound
_CERT_TOL = 1e-8  # bound on |lam(x_s)| and |lambda_bar . h_s| of a certificate
_STEADY_CANDIDATES = 10  # cheapest grid points refined by SLSQP
_CERT_GRID = 101  # points per axis of the certificate grids: residual, theta_low, sup |lam|
_GRID_MAX_POINTS = 10**7  # grids coarsen per axis to stay within this many points
_GRID_BLOCK = 2**12  # grid columns evaluated at once


def _require_callables(obj, names):
    """ConfigError naming the first of obj's fields ``names`` that is not
    callable, such as a Jacobian replaced by None."""
    for name in names:
        if not callable(getattr(obj, name)):
            raise ConfigError(f"{type(obj).__name__}.{name} must be callable")


def _parse(source, n, m, key):
    """The model expression under ``key``; a syntax error in it is a
    configuration error that names the key."""
    if not isinstance(source, str):
        raise ConfigError(f"model {key} must be an expression string, got {quoted(source)}")
    try:
        return exprlang.parse(source, n, m)
    except exprlang.ExprSyntaxError as exc:
        raise ConfigError(f"model {key}: {exc}") from None


def step_record_widths(n: int, m: int, p: int):
    """Column widths of the step record: x, ell, h, f_z, ell_z and h_z."""
    return (n, 1, p, n * (n + m), n + m, p * (n + m))


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Dynamics, stage cost, auxiliary output and box constraints.

    Every callable takes a 1-D state x (n,) and input u (m,), and must
    also broadcast over a trailing batch axis: with x (n, K) and u (m, K),
    f returns (n, K), ell (K,), h (p, K), f_jac (n, n+m, K), ell_grad
    (n+m, K) and h_jac (p, n+m, K).  The grid routines and the rollout
    call them once per batch.  All six are required: every derivative the
    solver, the steady-state search and the box searches read is the
    model's own exact one.
    The box Z must be finite (it is compact).  ``stage_pass(x0, us, record)``
    is the model's one rollout into the step record (``exprlang.stage_pass``):
    compiled by ``from_expressions``, else (``dataclasses.replace`` too) the
    callbacks' pass, which steps f and batches the other five callbacks.
    The rollout is the one evaluation of a predicted trajectory: a solution
    keeps its states, outputs and stage costs, and the closed loop and the
    turnpike report read them from it.
    """

    n: int
    m: int
    p: int
    f: Callable
    ell: Callable
    h: Callable
    z_lower: np.ndarray  # (n + m,)
    z_upper: np.ndarray
    f_jac: Callable  # (x, u) -> (n, n+m[, K])
    ell_grad: Callable  # (x, u) -> (n+m[, K])
    h_jac: Callable  # (x, u) -> (p, n+m[, K])
    stage_pass: Callable = field(init=False, repr=False)  # (x0, us, record) -> None

    def __post_init__(self):
        _require_callables(self, ("f", "ell", "h", "f_jac", "ell_grad", "h_jac"))
        if min(self.n, self.m, self.p) < 1:
            raise ConfigError("dimensions n, m, p must be positive")
        lower = np.asarray(self.z_lower, dtype=float)
        upper = np.asarray(self.z_upper, dtype=float)
        if lower.shape != (self.n + self.m,) or upper.shape != (self.n + self.m,):
            raise ConfigError("box bounds must have length n + m")
        if not np.all(np.isfinite(lower) & np.isfinite(upper)):
            raise ConfigError("box bounds must be finite")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(upper - lower)):  # the grid searches would fill with NaN
                raise ConfigError("box widths must be finite")
        if np.any(lower > upper):
            raise ConfigError("box lower bounds exceed upper bounds")
        object.__setattr__(self, "z_lower", lower)
        object.__setattr__(self, "z_upper", upper)
        object.__setattr__(self, "stage_pass", self._callback_pass())

    def _callback_pass(self):
        """The stage pass of this model's callbacks.  Unlike the compiled
        one it writes x0 too; it keeps no state between calls, so
        workspaces in several threads may share it."""
        n = self.n

        def stage_pass(x0, us, record):
            N, us_T = len(us), us.T
            xs, stages = record[:N, :n].T, record[:N, n:].T  # (n, N), (R - n, N)
            x = record[0, :n] = x0
            for k, uk in enumerate(us, 1):
                x = record[k, :n] = self.f(x, uk)
            # the stage columns are the batch results stacked, each flattened
            # to (rows, N); np.reshape takes a Jacobian given as nested lists
            np.concatenate((self.ell(xs, us_T)[None], np.atleast_2d(self.h(xs, us_T)),
                            np.reshape(self.f_jac(xs, us_T), (-1, N)), self.ell_grad(xs, us_T),
                            np.reshape(self.h_jac(xs, us_T), (-1, N))), out=stages)

        return stage_pass

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
        """Whether (x, u), or every column of a batch, lies in the box."""
        z = np.concatenate([np.atleast_1d(x), np.atleast_1d(u)]).T
        return bool(
            np.all(z >= self.z_lower - tol) and np.all(z <= self.z_upper + tol)
        )

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

        Every callback is compiled here, once, into one kernel (see
        ``exprlang.kernel``), and the kernel is the callback: ``ell`` gives
        a float at a point.  The callables broadcast over a batch axis bit
        for bit like pointwise calls, and a batch result has one column per
        point even for a constant expression.  So is the ``stage_pass``, one
        Python-float loop (``exprlang.stage_pass``) bit for bit the
        callbacks' pass.  Where a power overflows, that loop raises
        OverflowError and numpy gives inf, so the model's ``stage_pass``
        then runs the callbacks' pass, which writes the inf.
        """
        if len(f_sources) != n:
            raise ConfigError(f"expected {n} dynamics expressions, got {len(f_sources)}")
        f_exprs = [_parse(s, n, m, f"f[{i}]") for i, s in enumerate(f_sources)]
        ell_expr = _parse(ell_source, n, m, "ell")
        h_exprs = [_parse(s, n, m, f"h[{i}]") for i, s in enumerate(h_sources)]
        model = cls(
            n=n,
            m=m,
            p=len(h_exprs),
            f=exprlang.kernel(f_exprs, n, m),
            ell=exprlang.kernel(ell_expr, n, m),
            h=exprlang.kernel(h_exprs, n, m),
            z_lower=np.asarray(z_lower, dtype=float),
            z_upper=np.asarray(z_upper, dtype=float),
            f_jac=exprlang.kernel(f_exprs, n, m, gradient=True),
            ell_grad=exprlang.kernel(ell_expr, n, m, gradient=True),
            h_jac=exprlang.kernel(h_exprs, n, m, gradient=True),
        )
        compiled = exprlang.stage_pass(f_exprs, ell_expr, h_exprs, n, m)
        callbacks = model.stage_pass

        def stage_pass(x0, us, record):
            try:
                compiled(x0, us, record)
            except OverflowError:  # a power numpy takes to inf; the record is untouched
                callbacks(x0, us, record)

        object.__setattr__(model, "stage_pass", stage_pass)
        return model


@dataclass(frozen=True, eq=False)
class DissipativityCertificate:
    """Storage function, multiplier and polynomial dissipation margin.

    The margin rho(r) >= a * r^omega lower-bounds the dissipation rate;
    L_h is a Lipschitz constant of the auxiliary output on Z.  The storage
    gradient lam_grad is required, like the model's Jacobians.
    """

    lam: Callable  # x -> scalar, lam(x_s) = 0; broadcasts over batch axis
    lambda_bar: np.ndarray  # (p,), >= 0
    a: float
    omega: float
    L_h: float
    lam_grad: Callable  # x -> (n,)

    def __post_init__(self):
        _require_callables(self, ("lam", "lam_grad"))
        lb = np.atleast_1d(np.asarray(self.lambda_bar, dtype=float))
        if not np.all(np.isfinite(lb)):
            raise ConfigError("multiplier lambda_bar must be finite")
        if np.any(lb < 0):
            raise ConfigError("multiplier lambda_bar must be nonnegative")
        if not all(0 < value < np.inf for value in (self.a, self.omega, self.L_h)):
            raise ConfigError("a, omega and L_h must be positive and finite")  # NaN too
        object.__setattr__(self, "lambda_bar", lb)

    def rho(self, r):
        return self.a * np.asarray(r) ** self.omega

    def margin(self, epsilon) -> float:
        """rho(epsilon) if it and epsilon are positive and finite, else DomainError."""
        if not 0 < epsilon < np.inf:  # also rejects NaN
            raise DomainError(f"eps must be positive and finite, got {epsilon!r}")
        with np.errstate(over="ignore", under="ignore"):  # a * eps^omega may under- or overflow
            rho = float(self.rho(epsilon))
        if not 0 < rho < np.inf:
            raise DomainError(f"eps {epsilon!r} gives rho(eps) = {rho:g}; "
                              "the turnpike bound divides by it")
        return rho

    @classmethod
    def from_expression(cls, n, lam_source, lambda_bar, a, omega, L_h):
        """The certificate whose storage lam and its gradient lam_grad are
        the kernels (``exprlang.kernel``, m = 0) of an expression over x1..xn."""
        lam_expr = _parse(lam_source, n, 0, "lam")
        return cls(
            lam=exprlang.kernel(lam_expr, n, 0),
            lambda_bar=np.atleast_1d(np.asarray(lambda_bar, dtype=float)),
            a=float(a),
            omega=float(omega),
            L_h=float(L_h),
            lam_grad=exprlang.kernel(lam_expr, n, 0, gradient=True),
        )


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Optimal admissible steady-state and derived quantities."""

    x_s: np.ndarray
    u_s: np.ndarray
    ell_s: float
    h_s: np.ndarray

    @classmethod
    def at(cls, model: SystemModel, x_s, u_s) -> "SteadyState":
        """The steady state (x_s, u_s) of ``model`` with its ell_s and h_s."""
        x_s = np.atleast_1d(np.asarray(x_s, dtype=float))
        u_s = np.atleast_1d(np.asarray(u_s, dtype=float))
        h_s = np.atleast_1d(np.asarray(model.h(x_s, u_s), dtype=float))
        return cls(x_s=x_s, u_s=u_s, ell_s=float(model.ell(x_s, u_s)), h_s=h_s)


def is_steady_state(model: SystemModel, x, u) -> bool:
    """Whether (x, u) is an admissible steady state of model: in the box,
    f(x, u) = x and h(x, u) <= 0, each to ``_STEADY_FEAS_TOL``.  The test
    every candidate of ``solve_steady_state`` passes, and a pinned one too."""
    return bool(
        model.in_box(x, u, tol=_STEADY_FEAS_TOL)
        and np.max(np.abs(np.asarray(model.f(x, u), dtype=float) - x)) <= _STEADY_FEAS_TOL
        and np.max(np.atleast_1d(model.h(x, u))) <= _STEADY_FEAS_TOL
    )


def validate_certificate(cert: DissipativityCertificate, ss: SteadyState):
    """Reject certificates whose normalization does not match the steady-state.

    Requires lam(x_s) = 0 and complementarity lambda_bar . h_s = 0, each to
    ``_CERT_TOL``.
    """
    lam_s = float(cert.lam(ss.x_s))
    if abs(lam_s) > _CERT_TOL:
        raise ConfigError(f"storage function not normalized: lam(x_s) = {lam_s:g}")
    slack = float(cert.lambda_bar @ ss.h_s)
    if abs(slack) > _CERT_TOL:
        raise ConfigError(
            f"multiplier/output complementarity violated: lambda_bar . h_s = {slack:g}"
        )


def eval_rotated_stage_cost(model, cert, ss, x, u, tol=1e-9):
    """Rotated stage cost ell - ell_s + lam(x) - lam(f(x, u)) + lambda_bar.h.

    Nonnegative under a valid certificate.  x (n[, K]) and u (m[, K]) may
    carry a trailing batch axis: a point gives a float, a batch one value
    per column (K,), bit for bit like pointwise calls.  Raises DomainError
    when any column lies outside the box by more than ``tol``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not model.in_box(x, u, tol):
        raise DomainError(f"point (x, u) = ({x}, {u}) outside the constraint box")
    h = np.atleast_1d(np.asarray(model.h(x, u), dtype=float))
    value = (
        model.ell(x, u)
        - ss.ell_s
        + cert.lam(x)
        - cert.lam(np.asarray(model.f(x, u), dtype=float))
        # elementwise, not lambda_bar @ h: a BLAS matrix-vector product
        # rounds differently from the per-point dot product
        + np.sum(cert.lambda_bar * h.T, axis=-1)
    )
    return value if np.ndim(value) else float(value)


def _grid_density(density, dim):
    """Largest per-axis count <= density whose dim-cube fits _GRID_MAX_POINTS."""
    k = min(density, int(_GRID_MAX_POINTS ** (1.0 / dim)) + 1)
    while k**dim > _GRID_MAX_POINTS:
        k -= 1
    return k


def _grid_blocks(lower, upper, density):
    """The k**dim points of the grid over the box, k = _grid_density(density,
    dim) per axis, as (dim, <= _GRID_BLOCK) blocks of columns in flat
    index order (the last axis varies fastest)."""
    k = _grid_density(density, len(lower))
    axes = [np.linspace(lo, hi, k) for lo, hi in zip(lower, upper)]
    shape = tuple(len(axis) for axis in axes)
    size = int(np.prod(shape))
    for start in range(0, size, _GRID_BLOCK):
        index = np.unravel_index(np.arange(start, min(start + _GRID_BLOCK, size)), shape)
        yield np.array([axis[i] for axis, i in zip(axes, index)])


def solve_steady_state(model: SystemModel, grid_density: int = 201) -> SteadyState:
    """Global steady-state search: dense grid over Z plus local refinement.

    Deterministic: grid candidates are ranked by cost with ties broken by
    lexicographic flat grid index, each refined with SLSQP on the model's
    exact derivatives (ell_grad, f_jac and h_jac), so no finite differences.
    """
    n = model.n
    density = _grid_density(grid_density, n + model.m)
    spacing = np.max((model.z_upper - model.z_lower) / max(density - 1, 1))
    grid_tol = max(spacing, _STEADY_FEAS_TOL)

    # the cheapest candidates so far, ranked; a stable sort of them followed
    # by a block's candidates (in grid order) keeps ties in flat index order
    candidates, costs = np.empty((n + model.m, 0)), np.empty(0)
    for pts in _grid_blocks(model.z_lower, model.z_upper, density):
        x_pts, u_pts = pts[:n], pts[n:]
        f_vals = np.asarray(model.f(x_pts, u_pts))
        h_vals = np.atleast_2d(np.asarray(model.h(x_pts, u_pts)))
        ell_vals = np.asarray(model.ell(x_pts, u_pts))
        eq_res = np.max(np.abs(f_vals - x_pts), axis=0)
        ineq_res = np.max(h_vals, axis=0)
        mask = (eq_res <= grid_tol) & (ineq_res <= grid_tol)
        candidates = np.hstack([candidates, pts[:, mask]])
        costs = np.concatenate([costs, ell_vals[mask]])
        order = np.argsort(costs, kind="stable")[:_STEADY_CANDIDATES]
        candidates, costs = candidates[:, order], costs[order]
    if not costs.size:
        raise InfeasibleError("no steady-state candidate on the grid")

    bounds = list(zip(model.z_lower, model.z_upper))

    def at(fn):  # fn(x, u) as a function of z = (x, u)
        return lambda z: np.asarray(fn(z[:n], z[n:]), dtype=float)

    ell, f, f_jac, h, h_jac = map(at, (model.ell, model.f, model.f_jac, model.h, model.h_jac))
    shift = np.eye(n, len(bounds))  # the z-Jacobian [I 0] of x
    constraints = [  # SLSQP convention: an inequality is feasible when >= 0
        {"type": "eq", "fun": lambda z: f(z) - z[:n], "jac": lambda z: f_jac(z) - shift},
        {"type": "ineq", "fun": lambda z: -np.atleast_1d(h(z)), "jac": lambda z: -h_jac(z)},
    ]

    def objective(z):
        return float(ell(z))

    best = None
    for z0 in candidates.T:
        res = optimize.minimize(
            objective,
            z0,
            jac=at(model.ell_grad),
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-14},
        )
        for z in (res.x, z0):  # fall back to the raw grid point
            if not is_steady_state(model, z[:n], z[n:]):
                continue
            cost = objective(z)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, np.clip(z, model.z_lower, model.z_upper))
            break

    if best is None:
        raise InfeasibleError(
            "no steady-state satisfied the feasibility tolerance after refinement"
        )
    z = best[1]
    return SteadyState.at(model, z[:n], z[n:])


def check_dissipativity_grid(
    model: SystemModel,
    cert: DissipativityCertificate,
    ss: SteadyState,
) -> float:
    """Worst-case dissipation residual on the ``_CERT_GRID`` grid over Z.

    Returns min over the grid of the rotated stage cost minus the margin
    rho(||(x - x_s, u - u_s)||); the certificate is accepted iff the result
    is >= -1e-9.
    """
    center = np.concatenate([ss.x_s, ss.u_s])[:, None]
    worst = []
    for pts in _grid_blocks(model.z_lower, model.z_upper, _CERT_GRID):
        r = np.linalg.norm(pts - center, axis=0)
        rotated = eval_rotated_stage_cost(model, cert, ss, pts[: model.n], pts[model.n :])
        worst.append(np.min(rotated - cert.rho(r)))
    return float(np.min(worst))


def _box_min(values, fun, lower, upper) -> float:
    """Minimum over the box [lower, upper]: grid search followed by one
    L-BFGS-B refinement from the first best grid point.

    ``values`` maps a (dim, K) block of grid columns to their K values and
    ``fun`` a point z to its value and gradient.  Exact when the minimum
    lies on a grid point, such as a box vertex.
    """
    grid_min, z0 = np.inf, None
    for pts in _grid_blocks(lower, upper, _CERT_GRID):
        block = values(pts)
        i = int(np.argmin(block))
        if z0 is None or block[i] < grid_min:
            grid_min, z0 = float(block[i]), pts[:, i]
    res = lbfgsb(fun, z0, bounds=list(zip(lower, upper)), maxiter=200)
    return min(fun(res.x)[0], grid_min)


def min_weighted_output(model: SystemModel, cert: DissipativityCertificate) -> float:
    """theta_low = min over Z of lambda_bar.h, by ``_box_min``; exact for
    outputs affine in (x, u) since the grid contains the box vertices."""
    n = model.n

    def values(pts):
        h = np.atleast_2d(np.asarray(model.h(pts[:n], pts[n:])))
        # elementwise, not lambda_bar @ h: a BLAS product's rounding of a
        # column depends on the block it sits in
        return np.sum(cert.lambda_bar * h.T, axis=-1)

    def fun(z):
        weighted = float(cert.lambda_bar @ np.atleast_1d(model.h(z[:n], z[n:])))
        return weighted, cert.lambda_bar @ model.h_jac(z[:n], z[n:])

    return _box_min(values, fun, model.z_lower, model.z_upper)


def storage_sup(model: SystemModel, cert: DissipativityCertificate) -> float:
    """sup over the state box of |lam|: minus the ``_box_min`` of -|lam|,
    refined like theta_low, so a supremum between grid points is found."""

    def fun(x):
        lam = float(cert.lam(x))
        return -abs(lam), -np.sign(lam) * np.asarray(cert.lam_grad(x))  # lam_grad may give a list

    return -_box_min(lambda pts: -np.abs(np.asarray(cert.lam(pts))), fun,
                     model.x_lower, model.x_upper)

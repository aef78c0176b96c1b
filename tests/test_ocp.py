import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tacempc.errors import ConfigError, InfeasibleError
from tacempc.history import HistoryState, eq6_rhs, steady_history
from tacempc.model import DissipativityCertificate, SteadyState, SystemModel
from tacempc.ocp import (
    ORIGINAL,
    ROTATED,
    OcpSpec,
    _Forward,
    _solver_constraints,
    constraint_residuals,
    open_loop_cost,
    rotated_identity_check,
    solve,
)


def _spec(builtin, N, T, x0, H0=None, **kw):
    model, cert, ss = builtin
    if H0 is None:
        h0 = np.atleast_1d(model.h(np.atleast_1d(x0), np.array([1.0])))
        H0 = steady_history(h0, T)
    return OcpSpec(model=model, cert=cert, ss=ss, N=N, T=T,
                   x0=np.atleast_1d(float(x0)), H0=H0, **kw)


def test_spec_validation(builtin):
    model, cert, ss = builtin
    H = steady_history([-2.0], 3)
    with pytest.raises(ConfigError):
        _spec(builtin, N=2, T=3, x0=1.0, H0=H)  # N < T
    with pytest.raises(ConfigError):
        OcpSpec(model=model, cert=cert, ss=ss, N=6, T=3,
                x0=np.array([1.0, 2.0]), H0=H)  # wrong dimension
    with pytest.raises(ConfigError):
        _spec(builtin, N=6, T=3, x0=12.0, H0=H)  # outside the box
    with pytest.raises(ConfigError):
        _spec(builtin, N=6, T=2, x0=1.0, H0=H)  # history period mismatch
    with pytest.raises(ConfigError):
        _spec(builtin, N=6, T=3, x0=1.0, H0=H, objective="economic")


def test_constraint_residual_layout(builtin):
    spec = _spec(builtin, N=6, T=3, x0=1.0)
    u = np.ones((6, 1))
    res = spec.model.n + spec.model.m  # rows per pointwise block
    g = constraint_residuals(spec, u)
    # 2 * N * (n + m) pointwise rows, T - 1 partial windows, N - T + 1 full
    assert g.shape == (2 * 6 * res + 2 + 4,)


def test_solution_feasible_and_stationary(builtin):
    sol = solve(_spec(builtin, N=10, T=3, x0=1.0))
    assert sol.converged
    assert sol.max_violation <= 1e-8
    assert sol.stationarity <= 1e-6
    g = constraint_residuals(sol.spec, sol.u)
    assert np.max(g) <= 1e-8


def test_benchmark_objectives(builtin, fig_history):
    assert solve(_spec(builtin, N=10, T=3, x0=1.0)).J == pytest.approx(
        24.76934015, rel=1e-6
    )
    assert solve(_spec(builtin, N=12, T=3, x0=1.0)).J == pytest.approx(
        28.85645866, rel=1e-6
    )
    assert solve(_spec(builtin, N=12, T=6, x0=2.0, H0=fig_history)).J == pytest.approx(
        22.69666243, rel=1e-6
    )


def test_rotated_objective_nonnegative_and_zero_at_steady(builtin):
    model, cert, ss = builtin
    H = steady_history(ss.h_s, 6)
    sol = solve(OcpSpec(model=model, cert=cert, ss=ss, N=12, T=6,
                        x0=ss.x_s, H0=H, objective=ROTATED))
    assert sol.J == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(sol.u, np.tile(ss.u_s, (12, 1)), atol=1e-6)

    sol2 = solve(_spec(builtin, N=10, T=3, x0=1.0, objective=ROTATED))
    assert sol2.J >= -1e-9


def test_rotated_identity_on_random_inputs(builtin):
    spec = _spec(builtin, N=8, T=2, x0=2.0,
                 H0=steady_history([0.0], 2))
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.uniform(0.9, 1.0, (8, 1))
        assert rotated_identity_check(spec, u) <= 1e-10


def test_eq6_bound_on_solutions(builtin, fig_history):
    for N, T, H0 in [(10, 3, None), (12, 6, fig_history)]:
        sol = solve(_spec(builtin, N=N, T=T, x0=1.0 if H0 is None else 2.0, H0=H0))
        total = np.sum(sol.h_pred, axis=0)
        assert np.all(total <= eq6_rhs(sol.spec.H0, N) + 1e-6)


def test_open_loop_cost_matches_solution(builtin):
    sol = solve(_spec(builtin, N=10, T=3, x0=1.0))
    assert open_loop_cost(sol.spec, sol.u) == pytest.approx(sol.J, rel=1e-12)


def test_solver_deterministic(builtin):
    a = solve(_spec(builtin, N=10, T=3, x0=1.0))
    b = solve(_spec(builtin, N=10, T=3, x0=1.0))
    np.testing.assert_array_equal(a.u, b.u)
    assert a.J == b.J


def test_warm_start_respected(builtin):
    cold = solve(_spec(builtin, N=10, T=3, x0=1.0))
    warm = solve(_spec(builtin, N=10, T=3, x0=1.0, warm_start=cold.u))
    assert warm.J == pytest.approx(cold.J, rel=1e-8)
    assert warm.iterations <= cold.iterations


def test_solution_within_reported_tolerances(builtin):
    spec = _spec(builtin, N=12, T=6, x0=2.0,
                 H0=HistoryState(np.full((1, 5), -2.0), T=6))
    sol = solve(spec)
    opts = spec.options
    assert sol.converged
    assert sol.max_violation <= opts.feas_tol
    assert sol.stationarity <= opts.stat_tol
    assert np.max(constraint_residuals(sol.spec, sol.u)) <= opts.feas_tol


def test_infeasible_history_raises(builtin):
    # the partial-window constraint demands h(0) <= -40, below the
    # attainable minimum of the constraint output on the box
    model, cert, ss = builtin
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=2, T=2,
                   x0=np.array([2.0]), H0=HistoryState(np.array([[40.0]]), T=2))
    with pytest.raises(InfeasibleError) as err:
        solve(spec)
    assert err.value.best_residual > 1.0


# ---------------------------------------------------------------------------
# Whole-array constraint assembly against the former per-row loops


def _loop_constraints(spec, fwd):
    """The former loop assembly of (g, Dg), kept as the oracle."""
    model, N, T = spec.model, spec.N, spec.T
    values, jacs = [], []
    for k in range(1, N):
        values.append(model.x_lower - fwd.x[k])
        values.append(fwd.x[k] - model.x_upper)
        jacs.append(-fwd.Sx[k])
        jacs.append(fwd.Sx[k])
    H0 = spec.H0.columns
    cum_h = np.cumsum(fwd.h, axis=0)
    cum_Dh = np.cumsum(fwd.Dh, axis=0)
    for j in range(1, T):
        values.append(np.sum(H0[:, j - 1 :], axis=1) + cum_h[j - 1])
        jacs.append(cum_Dh[j - 1])
    for i in range(0, N - T + 1):
        prev = cum_h[i - 1] if i > 0 else 0.0
        values.append(cum_h[i + T - 1] - prev)
        prev_D = cum_Dh[i - 1] if i > 0 else 0.0
        jacs.append(cum_Dh[i + T - 1] - prev_D)
    return np.concatenate(values), np.concatenate(jacs)


def _loop_window_residuals(spec, h):
    """The former window block of constraint_residuals, kept as the oracle."""
    T, N = spec.T, spec.N
    H0 = spec.H0.columns
    cum_h = np.cumsum(h, axis=0)
    values = []
    for j in range(1, T):
        values.append(np.sum(H0[:, j - 1 :], axis=1) + cum_h[j - 1])
    for i in range(0, N - T + 1):
        prev = cum_h[i - 1] if i > 0 else 0.0
        values.append(cum_h[i + T - 1] - prev)
    return np.concatenate(values)


def _same_bits(a, b):
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _assembly_cases(draw):
    T = draw(st.integers(1, 4))
    N = draw(st.integers(T, 7))
    n, m, p = (draw(st.sampled_from([1, 2])) for _ in range(3))
    nu = N * m

    def arr(*shape):
        return draw(hnp.arrays(float, shape, elements=_FLOATS))

    model = SimpleNamespace(n=n, m=m, p=p, x_lower=arr(n), x_upper=arr(n))
    spec = SimpleNamespace(model=model, N=N, T=T, H0=HistoryState(arr(p, T - 1), T=T))
    fwd = SimpleNamespace(x=arr(N + 1, n), h=arr(N, p), Sx=arr(N + 1, n, nu),
                          Dh=arr(N, p, nu))
    return spec, fwd


@given(_assembly_cases())
def test_constraint_assembly_matches_loops(case):
    spec, fwd = case
    want_g, want_Dg = _loop_constraints(spec, fwd)
    with np.errstate(invalid="ignore", over="ignore"):
        g, Dg = _solver_constraints(spec, fwd, with_jac=True)
        g_only, none = _solver_constraints(spec, fwd, with_jac=False)
    assert _same_bits(g, want_g)
    assert _same_bits(Dg, want_Dg)
    assert _same_bits(g_only, want_g) and none is None


@given(
    st.integers(1, 4).flatmap(lambda T: st.tuples(st.just(T), st.integers(T, 8))),
    st.sampled_from([1, 2]),
    st.data(),
)
def test_constraint_residual_windows_match_loops(TN, p, data):
    T, N = TN
    model = SystemModel.from_expressions(
        1, 1, ["0.5 * x1 + u1"], "x1^2 + u1^2",
        ["x1 - 2 * u1", "u1 * x1 - 1"][:p], [-10.0, -10.0], [10.0, 10.0],
    )
    ss = SteadyState(np.zeros(1), np.zeros(1), 0.0, np.zeros(p))
    cert = DissipativityCertificate.from_expression(1, "x1", [0.0] * p, 1.0, 2.0, 1.0)
    box = st.floats(-1.0, 1.0)
    columns = data.draw(hnp.arrays(float, (p, T - 1), elements=box))
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=N, T=T,
                   x0=np.array([data.draw(box)]), H0=HistoryState(columns, T=T))
    u = data.draw(hnp.arrays(float, (N, 1), elements=box))
    res = constraint_residuals(spec, u)
    windows = res[2 * N * (model.n + model.m) :]
    h = _Forward(spec, u, with_jac=False).h
    assert windows.tobytes() == _loop_window_residuals(spec, h).tobytes()


# ---------------------------------------------------------------------------
# Batched rollout against the former per-step loop


def _loop_forward(spec, u, with_jac):
    """The former per-step rollout, kept as the oracle: (x, h, ell, Sx, Dh, Dell)."""
    model = spec.model
    n, m, p, N = model.n, model.m, model.p, spec.N
    nu = N * m
    x = np.empty((N + 1, n))
    h = np.empty((N, p))
    ell = np.empty(N)
    x[0] = spec.x0
    Sx = np.zeros((N + 1, n, nu))
    Dh = np.empty((N, p, nu))
    Dell = np.empty((N, nu))
    for k in range(N):
        xk, uk = x[k], u[k]
        h[k] = model.h(xk, uk)
        ell[k] = model.ell(xk, uk)
        x[k + 1] = model.f(xk, uk)
        if not with_jac:
            continue
        S = Sx[k]
        cols = slice(k * m, (k + 1) * m)
        fj = model.jac_f(xk, uk)
        lg = model.grad_ell(xk, uk)
        hj = model.jac_h(xk, uk)
        Dell[k] = lg[:n] @ S
        Dell[k, cols] += lg[n:]
        Dh[k] = hj[:, :n] @ S
        Dh[k][:, cols] += hj[:, n:]
        Sx[k + 1] = fj[:, :n] @ S
        Sx[k + 1][:, cols] += fj[:, n:]
    return x, h, ell, Sx, Dh, Dell


_DYNAMICS = ("0.5 * x{a} * u{b} + 0.1 * x{c}^2", "x{a} / (1.5 + u{b}^2) - 0.2 * x{c}^3",
             "0.9 * x{c} - 0.3 * u{b} * u{b}")
_OUTPUTS = ("2 * x{a} + u{b} - 5", "x{a} * u{b}^2 - x{c}", "x{c}^3 / (1 + x{a}^2)")


@st.composite
def _rollout_cases(draw):
    n, m, p = (draw(st.sampled_from([1, 2])) for _ in range(3))
    T = draw(st.integers(1, 4))
    N = draw(st.integers(T, 2 * T + 2))

    def source(templates):
        return draw(st.sampled_from(templates)).format(
            a=draw(st.integers(1, n)), b=draw(st.integers(1, m)), c=draw(st.integers(1, n))
        )

    model = SystemModel.from_expressions(
        n, m, [source(_DYNAMICS) for _ in range(n)],
        f"(x1 - 3)^2 + u{m}^2 + 0.5 * x{n} * u1",
        [source(_OUTPUTS) for _ in range(p)], [-10.0] * (n + m), [10.0] * (n + m),
    )
    if draw(st.booleans()):  # central differences instead of compiled Jacobians
        model = dataclasses.replace(model, f_jac=None, ell_grad=None, h_jac=None)
    ss = SteadyState(np.zeros(n), np.zeros(m), 0.0, np.zeros(p))
    cert = DissipativityCertificate.from_expression(n, "x1", [0.0] * p, 1.0, 2.0, 1.0)
    box = st.floats(-1.2, 1.2)
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=N, T=T,
                   x0=draw(hnp.arrays(float, n, elements=box)),
                   H0=steady_history(np.zeros(p), T))
    return spec, draw(hnp.arrays(float, (N, m), elements=box)), draw(st.booleans())


@settings(max_examples=200)
@given(_rollout_cases())
def test_batched_rollout_matches_step_loop(case):
    spec, u, with_jac = case
    fwd = _Forward(spec, u, with_jac=with_jac)
    want = _loop_forward(spec, u, with_jac)
    names = ("x", "h", "ell", "Sx", "Dh", "Dell") if with_jac else ("x", "h", "ell")
    for name, expected in zip(names, want):
        got = getattr(fwd, name)
        assert got.shape == expected.shape
        if spec.model.n == 1:  # one product per entry: nothing to reassociate
            assert _same_bits(got, expected), name
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0, err_msg=name)
    if not with_jac:
        assert fwd.Sx is None and fwd.Dh is None and fwd.Dell is None


def test_finite_difference_model_solves_like_exact(builtin, fig_history):
    # the same problem without Jacobian callables runs on central differences
    model, cert, ss = builtin
    fd_model = dataclasses.replace(model, f_jac=None, ell_grad=None, h_jac=None)
    exact = solve(_spec(builtin, N=12, T=6, x0=2.0, H0=fig_history))
    fd = solve(_spec((fd_model, cert, ss), N=12, T=6, x0=2.0, H0=fig_history))
    assert fd.converged and fd.max_violation <= fd.spec.options.feas_tol
    assert fd.J == pytest.approx(exact.J, rel=1e-8)
    np.testing.assert_allclose(fd.u, exact.u, atol=1e-4)

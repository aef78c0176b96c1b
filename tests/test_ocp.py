import dataclasses
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tacempc import ocp
from tacempc.errors import ConfigError, DomainError, InfeasibleError
from tacempc.exprlang import EvalError
from tacempc.history import HistoryState, eq6_rhs, steady_history
from tacempc.lbfgsb import lbfgsb
from tacempc.model import (
    DissipativityCertificate,
    SteadyState,
    SystemModel,
    eval_rotated_stage_cost,
    solve_steady_state,
)
from tacempc.ocp import (
    ORIGINAL,
    ROTATED,
    OcpSpec,
    SolverOptions,
    _Forward,
    _Problem,
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
    for x0 in (np.nan, np.inf, -np.inf):  # NaN compares false with both bounds
        with pytest.raises(ConfigError, match="initial state must be finite"):
            _spec(builtin, N=6, T=3, x0=x0, H0=H)
    with pytest.raises(ConfigError):
        _spec(builtin, N=6, T=2, x0=1.0, H0=H)  # history period mismatch
    with pytest.raises(ConfigError):
        _spec(builtin, N=6, T=0, x0=1.0, H0=H)  # T < 1: no history has that period
    for value in (np.nan, np.inf, -np.inf):  # -inf tail sums void the window rows
        with pytest.raises(ConfigError, match="history must be finite"):
            _spec(builtin, N=6, T=3, x0=1.0, H0=HistoryState(np.array([[-2.0, value]]), 3))
    with pytest.raises(ConfigError):
        _spec(builtin, N=6, T=3, x0=1.0, H0=H, objective="economic")


def test_spec_rejects_history_of_other_output_dimension(builtin, pair):
    # a mismatched history would be broadcast into the window rows: a 1-row
    # history on a p = 2 model fills both outputs' windows from one row
    with pytest.raises(ConfigError, match="history has 2 output rows, the model has p = 1"):
        _spec(builtin, N=6, T=3, x0=1.0, H0=steady_history([-1.0, -2.0], 3))
    model, cert, ss = pair
    with pytest.raises(ConfigError, match="history has 1 output rows, the model has p = 2"):
        OcpSpec(model=model, cert=cert, ss=ss, N=6, T=3, x0=np.full(2, 2.0),
                H0=steady_history([-1.0], 3))


@pytest.mark.parametrize("warm_start, message", [
    (np.ones(5), r"warm start has 5 entries, expected N \* m = 6"),
    (np.ones((3, 3)), r"warm start has 9 entries, expected N \* m = 6"),
    (np.full((6, 1), np.nan), "warm start must be finite"),
    ([1.0, 1.0, np.inf, 1.0, 1.0, 1.0], "warm start must be finite"),
])
def test_spec_rejects_malformed_warm_start(builtin, warm_start, message):
    with pytest.raises(ConfigError, match=message):
        _spec(builtin, N=6, T=3, x0=1.0, H0=steady_history([-2.0], 3), warm_start=warm_start)
    # any shape with N * m finite entries is taken, row by row
    spec = _spec(builtin, N=6, T=3, x0=1.0, H0=steady_history([-2.0], 3),
                 warm_start=np.arange(6.0))
    assert spec.warm_start.tobytes() == np.arange(6.0).reshape(6, 1).tobytes()


@pytest.mark.parametrize("name", ["feas_tol", "stat_tol"])
@pytest.mark.parametrize("value", [float("nan"), -1.0, 0.0, float("inf")])
def test_solver_tolerances_positive_finite(name, value):
    with pytest.raises(ConfigError, match=f"solver {name} must be positive and finite"):
        SolverOptions(**{name: value})
    assert getattr(SolverOptions(**{name: 1e-3}), name) == 1e-3


def _admissible(sol, tol):
    """Whether (x_k, u_k), k < N, lie in the box and the rows of g (state box
    and windows) are at most tol at the solution's inputs."""
    spec = sol.spec
    in_box = spec.model.in_box(sol.x_pred[: spec.N].T, sol.u.T, tol)
    return in_box and np.max(_Problem(spec)(sol.u)[2]) <= tol


def test_solution_feasible_and_stationary(builtin):
    sol = solve(_spec(builtin, N=10, T=3, x0=1.0))
    assert sol.converged
    assert sol.max_violation <= 1e-8
    assert sol.stationarity <= 1e-6
    assert _admissible(sol, 1e-8)


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


def test_solver_counter_guard(builtin, fig_history):
    """Pins the fig-history N = 12 original solve bit for bit.

    Changes to the evaluation path (model callbacks, the rollout, the
    objective and constraint assembly) must not move one rounding, and
    this solve shows it in a fraction of a second: any moved bit changes
    its L-BFGS-B path.  A deliberate solver change updates both numbers
    here and says so in CHANGES.md.
    """
    sol = solve(_spec(builtin, N=12, T=6, x0=2.0, H0=fig_history))
    assert sol.converged
    assert sol.iterations == 243
    assert sol.J.hex() == "0x1.6b25878215442p+4"


def test_long_horizon_counter_guard(builtin):
    """Pins check 9's N = 30, T = 3 solve from x0 = 1 bit for bit.

    The per-step parts of the rollout (the state recursion and the
    sensitivity products) weigh most at long horizons; like
    ``test_solver_counter_guard``, any moved rounding changes this
    solve's L-BFGS-B path.
    """
    sol = solve(_spec(builtin, N=30, T=3, x0=1.0))
    assert sol.converged
    assert (sol.iterations, sol.nfev) == (2409, 2964)
    assert sol.J.hex() == "0x1.036d76ca586bcp+6"


def test_rotated_counter_guard(builtin, fig_history):
    """Pins the fig-history N = 12, T = 6 rotated solve bit for bit.

    From x0 = 2 that solve starts at its optimum (J = 0 after one
    evaluation), so x0 = 2.5 is used: the rotated objective's storage
    and multiplier terms then enter every evaluation, and any moved
    rounding in them changes the SLSQP path.  The value agrees with the
    augmented Lagrangian's, which rotated solves used before SLSQP.
    """
    sol = solve(_spec(builtin, N=12, T=6, x0=2.5, H0=fig_history, objective=ROTATED))
    assert sol.converged
    assert (sol.iterations, sol.nfev) == (27, 42)
    assert sol.J.hex() == "0x1.f1a63b91ec3f8p-2"
    assert sol.J == pytest.approx(float.fromhex("0x1.f1a63b8e2752ap-2"), rel=1e-9)


@pytest.mark.parametrize("objective, counters, J_hex", [
    (ORIGINAL, (270, 340), "0x1.e09f7b0da563ap+4"),
    (ROTATED, (28, 69), "0x1.36c8e1c2c2cb0p-4"),
])
def test_vector_model_counter_guard(pair, objective, counters, J_hex):
    """Pins an N = 8, T = 4 solve of two decoupled copies of the builtin
    model (n = m = p = 2) bit for bit.

    With more than one state, output and input per step, the rollout's
    per-step blocks and the sums over outputs are strided views of
    several entries, which the scalar guards do not exercise.
    """
    model, cert, ss = pair
    H0 = HistoryState(np.array([[-2.0, -2.0, -1.0], [-1.0, -2.0, -2.0]]), T=4)
    sol = solve(OcpSpec(model=model, cert=cert, ss=ss, N=8, T=4, x0=np.array([2.0, 1.8]),
                        H0=H0, objective=objective))
    assert sol.converged
    assert (sol.iterations, sol.nfev) == counters
    assert sol.J.hex() == J_hex
    if objective == ROTATED:  # the augmented Lagrangian's value before SLSQP
        assert sol.J == pytest.approx(float.fromhex("0x1.36c8e1c2c2e98p-4"), rel=1e-9)


@pytest.mark.parametrize("objective", [ORIGINAL, ROTATED])
def test_objective_chooses_the_solver(builtin, fig_history, monkeypatch, objective):
    # a rotated spec is one SLSQP call, an original one L-BFGS-B runs
    methods = []
    minimize = ocp.optimize.minimize

    def recording(fun, x0, **kw):
        methods.append(kw["method"])
        return minimize(fun, x0, **kw)

    monkeypatch.setattr(ocp.optimize, "minimize", recording)
    sol = solve(_spec(builtin, N=12, T=6, x0=2.5, H0=fig_history, objective=objective))
    assert sol.converged
    if objective == ROTATED:
        assert methods == ["SLSQP"]
    else:
        assert len(methods) > 1 and all(method is lbfgsb for method in methods)


_HEX = np.vectorize(float.fromhex)


def test_rotated_solve_converges_where_the_al_stalled(builtin):
    """A rotated spec of the closed loop from perfbench's mk-closed-loop
    inputs of seed 1, pass 0, warm-started from the rotated solution at
    the previous state.  The augmented Lagrangian stopped there feasible but at
    stationarity 2.6e-6 > stat_tol and returned converged=False."""
    model, cert, ss = builtin
    H0 = HistoryState(_HEX([[
        "0x1.076d3bfc88540p-3", "-0x1.f44880001fe00p-7", "-0x1.1481e49a5e200p-4",
        "-0x1.02e72a359abc0p-4", "-0x1.37cfc5bb83080p-5"]]), T=6)
    warm = _HEX([
        "0x1.00cb02c2b8889p+0", "0x1.003dbdbe835e5p+0", "0x1.0012be3abde6ep+0",
        "0x1.0005afd890b88p+0", "0x1.0001b9aeb5268p+0", "0x1.000085f3c7593p+0",
        "0x1.0000289bdcf5ap+0", "0x1.00000c3942736p+0", "0x1.00000370fb0fep+0",
        "0x1.0000002d5c328p+0", "0x1.fffffa330aa8ap-1", "0x1.0000000000000p+0"])
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=12, T=6,
                   x0=_HEX(["0x1.0141085452d63p+1"]), H0=H0, objective=ROTATED,
                   warm_start=warm)
    sol = solve(spec)
    assert sol.converged
    assert sol.max_violation <= spec.options.feas_tol
    assert sol.stationarity <= spec.options.stat_tol
    assert sol.J == pytest.approx(2.0406666e-4, rel=1e-7)


def test_repeated_point_is_not_rolled_out_again(builtin, fig_history, monkeypatch):
    # the point a run returns is evaluated for the multiplier update and
    # again as the next run's start; neither repeat may cost a rollout
    rolled, calls = [], []
    rollout, minimize = _Forward.__call__, ocp.optimize.minimize

    def counting_rollout(self, u):
        rolled.append(u.tobytes())
        return rollout(self, u)

    def counting_minimize(fun, *args, **kwargs):
        res = minimize(fun, *args, **kwargs)
        calls.append(res.nfev)
        return res

    monkeypatch.setattr(_Forward, "__call__", counting_rollout)
    monkeypatch.setattr(ocp.optimize, "minimize", counting_minimize)
    sol = solve(_spec(builtin, N=12, T=6, x0=2.0, H0=fig_history))
    assert sol.converged and len(calls) > 1
    assert all(a != b for a, b in zip(rolled, rolled[1:]))
    # one rollout per objective call plus one per run, less the repeats
    assert len(rolled) < sum(calls) + len(calls)


def test_rotated_solve_rolls_out_once_per_evaluation(builtin, fig_history, monkeypatch):
    # SLSQP's g and Dg calls at a point its objective saw hit the memo
    rolled = []
    rollout = _Forward.__call__

    def counting_rollout(self, u):
        rolled.append(u.tobytes())
        return rollout(self, u)

    monkeypatch.setattr(_Forward, "__call__", counting_rollout)
    sol = solve(_spec(builtin, N=12, T=6, x0=2.5, H0=fig_history, objective=ROTATED))
    assert len(rolled) == len(set(rolled)) == sol.nfev


def _active_bound_spec(**kw):
    """x+ = u with x in [-1, 1]: the steady state (1, 1) sits on the state
    bound, and the solve from x0 = 0 stops at x = 1 + 8.75e-9, within
    feas_tol but outside the box by more than 1e-9."""
    model = SystemModel.from_expressions(
        1, 1, ["u1"], "(x1 - 3)^2 + u1^2", ["x1 - 5"], [-1.0, -10.0], [1.0, 10.0]
    )
    ss = solve_steady_state(model)
    cert = DissipativityCertificate.from_expression(1, "0", [0.0], 1.0, 2.0, 1.0)
    return OcpSpec(model=model, cert=cert, ss=ss, N=6, T=2, x0=np.zeros(1),
                   H0=steady_history(ss.h_s, 2), **kw)


def test_rotated_identity_check_on_active_state_bound():
    # x+ = u, so these inputs put x_1..x_6 outside the state box by more than
    # 1e-9 but within feas_tol, where a converged solve may stop
    spec = _active_bound_spec()
    u = np.full((6, 1), 1.0 + 5e-9)
    x = _Forward(spec)(u).x
    assert 1.0 + 1e-9 < np.max(x) <= 1.0 + spec.options.feas_tol
    assert rotated_identity_check(spec, u) <= 1e-10
    # the stage cost's own default tolerance (check 2's grid) stays 1e-9
    with pytest.raises(DomainError):
        eval_rotated_stage_cost(spec.model, spec.cert, spec.ss, x[:6].T, u.T)


@pytest.mark.parametrize("objective", [ORIGINAL, ROTATED])
def test_solution_prediction_is_rollout_of_its_inputs(builtin, fig_history, objective):
    # the solver's workspace is overwritten by every evaluation, so what a
    # solution keeps must be its own copy
    converged = solve(_spec(builtin, N=12, T=6, x0=2.0, H0=fig_history, objective=objective))
    # stat_tol out of reach: the best of 20 multiplier updates, or SLSQP's point
    best = solve(_active_bound_spec(objective=objective,
                                    options=SolverOptions(stat_tol=1e-300)))
    assert converged.converged and not best.converged
    for sol in (converged, best):
        opts = sol.spec.options
        assert sol.converged == (sol.max_violation <= opts.feas_tol
                                 and sol.stationarity <= opts.stat_tol)
        fresh = _Forward(sol.spec)(sol.u.copy())
        assert sol.x_pred.tobytes() == fresh.x.tobytes()
        assert sol.h_pred.tobytes() == fresh.h.tobytes()


def test_solution_cost_is_objective_at_its_inputs(builtin):
    sol = solve(_spec(builtin, N=10, T=3, x0=1.0))
    assert _Problem(sol.spec)(sol.u)[0] == pytest.approx(sol.J, rel=1e-12)


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
    assert _admissible(sol, opts.feas_tol)


def test_infeasible_history_raises(builtin):
    # the partial-window constraint demands h(0) <= -40, below the
    # attainable minimum of the constraint output on the box; both solvers
    model, cert, ss = builtin
    for objective in (ORIGINAL, ROTATED):
        spec = OcpSpec(model=model, cert=cert, ss=ss, N=2, T=2, x0=np.array([2.0]),
                       H0=HistoryState(np.array([[40.0]]), T=2), objective=objective)
        with pytest.raises(InfeasibleError) as err:
            solve(spec)
        assert err.value.best_residual > 1.0


@pytest.mark.parametrize("name, factor", [
    ("h", np.nan),  # violation NaN: NaN > feas_tol is False
    ("ell", np.nan),  # J NaN
    ("ell", np.inf),  # J inf, so the scale-relative stationarity reads 0
    ("ell_grad", np.nan),  # J and violation finite, stationarity NaN
    ("f", np.nan),  # states NaN: the replacement is stepped, not compiled
])
def test_non_finite_solve_raises(builtin, name, factor):
    # no iterate with a non-finite value may come back as a solution, from
    # either solver
    model, cert, ss = builtin
    H0 = steady_history(np.atleast_1d(model.h(np.ones(1), np.ones(1))), 3)
    callback = getattr(model, name)
    broken = dataclasses.replace(model, **{name: lambda x, u: callback(x, u) * factor})
    for objective in (ORIGINAL, ROTATED):
        with pytest.raises(InfeasibleError, match="finite"):
            solve(_spec((broken, cert, ss), N=6, T=3, x0=1.0, H0=H0, objective=objective))


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
    """The window rows of g summed in loops, kept as the oracle."""
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

    # the spec and model attributes a _Problem reads; its workspace reads
    # x0 and stage_pass, and the test does not roll it out
    model = SimpleNamespace(n=n, m=m, p=p, x_lower=arr(n), x_upper=arr(n), stage_pass=None)
    spec = SimpleNamespace(model=model, N=N, T=T, H0=HistoryState(arr(p, T - 1), T=T),
                           x0=np.zeros(n), objective=ORIGINAL)
    fwd = SimpleNamespace(x=arr(N + 1, n), h=arr(N, p), Sx=arr(N + 1, n, nu),
                          Dh=arr(N, p, nu))
    return spec, fwd


def _scalar_assembly_case(x_lower, tail, x, h, Sx, Dh):
    """(spec, fwd) of n = m = p = 1, N = 3, T = 2 and x_upper = 1."""
    model = SimpleNamespace(n=1, m=1, p=1, x_lower=np.array([x_lower]), x_upper=np.ones(1),
                            stage_pass=None)
    spec = SimpleNamespace(model=model, N=3, T=2, H0=HistoryState(np.array([[tail]]), T=2),
                           x0=np.zeros(1), objective=ORIGINAL)
    fwd = SimpleNamespace(x=np.array(x, dtype=float).reshape(4, 1),
                          h=np.array(h, dtype=float).reshape(3, 1),
                          Sx=np.array(Sx, dtype=float).reshape(4, 1, 3),
                          Dh=np.array(Dh, dtype=float).reshape(3, 1, 3))
    return spec, fwd


# h = (inf, 1, 1) with T = 2: the full window starting at step 1 is inf - inf
_INF_WINDOW_CASE = _scalar_assembly_case(0.0, 0.0, [0.0] * 4, [np.inf, 1.0, 1.0],
                                         [0.0] * 12, [0.0] * 9)
# NaN in a bound, the history, a state, an output and both sensitivities
_NAN_INPUT_CASE = _scalar_assembly_case(
    np.nan, np.nan, [0.0, np.nan, 1.0, 0.0], [1.0, np.nan, -0.0],
    [0.0, 0.0, 0.0, np.nan, 1.0, 0.0, 0.0, -0.0, 1.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, np.nan, 1.0, 0.0, 0.0, 0.0, 1.0])


@given(_assembly_cases())
@example(_INF_WINDOW_CASE)
@example(_NAN_INPUT_CASE)
def test_constraint_assembly_matches_loops(case):
    spec, fwd = case
    with np.errstate(invalid="ignore", over="ignore"):
        want_g, want_Dg = _loop_constraints(spec, fwd)
        g, Dg = _Problem(spec).constraints(fwd)
    if spec is _INF_WINDOW_CASE[0]:
        assert np.isnan(g[-1])
    assert _same_bits(g, want_g)
    assert _same_bits(Dg, want_Dg)


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
    windows = _Problem(spec)(u)[2][2 * model.n * (N - 1) :]
    h = _Forward(spec)(u).h
    assert windows.tobytes() == _loop_window_residuals(spec, h).tobytes()


# ---------------------------------------------------------------------------
# Batched rollout against the former per-step loop


def _loop_forward(spec, u):
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
        S = Sx[k]
        cols = slice(k * m, (k + 1) * m)
        fj = model.f_jac(xk, uk)
        lg = model.ell_grad(xk, uk)
        hj = model.h_jac(xk, uk)
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
    ss = SteadyState(np.zeros(n), np.zeros(m), 0.0, np.zeros(p))
    cert = DissipativityCertificate.from_expression(
        n, f"x1^2 - 0.5 * x{n}", [0.5, 1.5][:p], 1.0, 2.0, 1.0)
    box = st.floats(-1.2, 1.2)
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=N, T=T,
                   x0=draw(hnp.arrays(float, n, elements=box)),
                   H0=steady_history(np.zeros(p), T))
    return spec, draw(hnp.arrays(float, (N, m), elements=box))


def _corner_case():
    """The builtin model at the input-box corner L-BFGS-B tries first from
    u_s: x0 = 2 and u = 10 for N = 12 steps, so x_N = 2e12."""
    model = SystemModel.from_expressions(
        1, 1, ["x1 * u1"], "(x1 - 3)^2 + u1^2", ["2*x1 + u1 - 5"], [-10.0, -10.0],
        [10.0, 10.0],
    )
    ss = SteadyState(np.array([2.0]), np.array([1.0]), 2.0, np.zeros(1))
    cert = DissipativityCertificate.from_expression(1, "1.5 * (x1 - 2)", [1.0], 0.25, 2.0, 3.0)
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=12, T=6, x0=np.array([2.0]),
                   H0=HistoryState(np.array([[-2.0, -2.0, -2.0, -2.0, -1.0]]), T=6))
    return spec, np.full((12, 1), 10.0)


def _scalar_case(f_source, x0, u, box, ell="3 * x1 + u1", h="2*x1 + u1 - 5"):
    """(spec, u) for the one-state, one-input model x+ = f_source on the box
    [-box, box]^2, with a linear storage, and a linear cost and output
    unless ell and h are given."""
    model = SystemModel.from_expressions(1, 1, [f_source], ell, [h], [-box, -box], [box, box])
    ss = SteadyState(np.zeros(1), np.zeros(1), 0.0, np.zeros(1))
    cert = DissipativityCertificate.from_expression(1, "1.5 * (x1 - 2)", [1.0], 0.25, 2.0, 3.0)
    u = np.array(u, dtype=float).reshape(-1, 1)
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=len(u), T=1, x0=np.array([x0]),
                   H0=steady_history(np.zeros(1), 1))
    return spec, u


# x_1 = 1e100 and x_2 = (1e100)^4 overflows to inf in numpy's scalar power,
# where a Python float power would raise OverflowError
_OVERFLOW_CASE = _scalar_case("x1^4 + u1", 1e25, [0.0, 0.0], 1e30)
# the second step divides by u = 0
_DIVISION_CASE = _scalar_case("x1 / u1", 1.0, [2.0, 0.0, 2.0], 10.0)
# signed zeros in x0 and u give signed-zero states, costs and Jacobian entries
_SIGNED_ZERO_CASE = _scalar_case("x1 * u1", -0.0, [-0.0, 0.0, -0.0], 10.0)
# x1^4 overflows at x1 = 1e100 in the cost and the output, while their
# derivative 4 * x1^3 stays finite
_POWER_CASE = _scalar_case("x1", 1e100, [0.0], 1e101, ell="x1^4", h="x1^4")


def _matmul_sensitivities(spec, x, u):
    """The former sensitivity products of ``_Forward``, one ``np.matmul``
    per step, kept as the reference: (Sx, Dh, Dell) at the states x."""
    model, N = spec.model, spec.N
    n, nu = model.n, N * model.m
    xs, us = x[:N].T, u.T
    fz = np.ascontiguousarray(model.f_jac(xs, us).transpose(2, 0, 1))
    lz = np.ascontiguousarray(model.ell_grad(xs, us).T)
    hz = np.ascontiguousarray(model.h_jac(xs, us).transpose(2, 0, 1))
    Dz = np.zeros((N + 1, n + model.m, nu))
    Dz[:N, n:] = np.eye(nu).reshape(N, model.m, nu)
    for k in range(N):
        np.matmul(fz[k], Dz[k], Dz[k + 1, :n])
    return Dz[:, :n], np.matmul(hz, Dz[:N]), np.matmul(lz[:, None], Dz[:N])[:, 0]


def _assert_matches(got, expected, n, name):
    if n == 1:  # one nonzero product per entry: nothing to reassociate
        assert _same_bits(np.asarray(got), np.asarray(expected)), name
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0, err_msg=name)


@settings(max_examples=200)
@given(_rollout_cases())
@example(_corner_case())
@example(_OVERFLOW_CASE)
@example(_DIVISION_CASE)
@example(_SIGNED_ZERO_CASE)
def test_batched_rollout_matches_step_loop(case):
    spec, u = case
    n = spec.model.n
    # the overflow example makes inf and NaN on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = _loop_forward(spec, u)
        except EvalError:
            assert case is _DIVISION_CASE
            with pytest.raises(EvalError, match="division by zero"):
                _Forward(spec)(u)
            return
        fwd = _Forward(spec)(u)
        reference = _matmul_sensitivities(spec, fwd.x, u)
        names = ("x", "h", "ell", "Sx", "Dh", "Dell")
        oracle = SimpleNamespace(**dict(zip(names, want)))
        problems = [_Problem(dataclasses.replace(spec, objective=objective))
                    for objective in (ORIGINAL, ROTATED)]
        costs = [problem.objective(state) for problem in problems for state in (fwd, oracle)]
        # one problem per rollout: each keeps its own g and Dg buffers
        rows = [_Problem(spec).constraints(state) for state in (fwd, oracle)]
    assert case is not _OVERFLOW_CASE or np.isposinf(fwd.x[-1, 0])
    # the states are the pointwise f's bit for bit, at every n
    assert _same_bits(fwd.x, oracle.x)
    for name, expected in zip(names[1:], want[1:]):
        got = getattr(fwd, name)
        assert got.shape == expected.shape
        _assert_matches(got, expected, n, name)
    # the sensitivity steps are the former np.matmul products bit for bit
    for name, expected in zip(("Sx", "Dh", "Dell"), reference):
        assert _same_bits(getattr(fwd, name), expected), name
    # what the solver reads: both objectives and the constraint rows, fed
    # once from the rollout (Sx is a strided view) and once from the oracle
    for objective, (got, expected) in zip((ORIGINAL, ROTATED), (costs[:2], costs[2:])):
        for name, a, b in zip(("J", "DJ"), got, expected):
            _assert_matches(a, b, n, f"{objective} {name}")
    for name, a, b in zip(("g", "Dg"), *rows):
        _assert_matches(a, b, n, name)


def _runs_callback_pass(model):
    """Whether the model's stage pass is the one built from its callbacks."""
    return model.stage_pass.__qualname__ == "SystemModel._callback_pass.<locals>.stage_pass"


@settings(max_examples=100)
@given(_rollout_cases())
@example(_OVERFLOW_CASE)
@example(_DIVISION_CASE)
@example(_SIGNED_ZERO_CASE)
@example(_POWER_CASE)
def test_compiled_and_callback_passes_write_the_same_record(case):
    # the compiled pass of an expression model and the pass its callbacks
    # give a replaced copy fill every record entry with the same bits
    spec, u = case
    compiled = spec.model
    replaced = dataclasses.replace(compiled)
    assert not _runs_callback_pass(compiled) and _runs_callback_pass(replaced)
    records = [np.full_like(_Forward(spec).record, 7.0) for _ in range(2)]
    for record in records:
        record[0, : compiled.n] = spec.x0  # where a rollout workspace keeps it
    # the overflow example makes inf and NaN on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        if case is _DIVISION_CASE:
            for model, record in zip((compiled, replaced), records):
                with pytest.raises(EvalError, match="division by zero"):
                    model.stage_pass(spec.x0, u, record)
            return
        for model, record in zip((compiled, replaced), records):
            model.stage_pass(spec.x0, u, record)
    assert case is not _OVERFLOW_CASE or np.isposinf(records[0][-1, 0])
    assert case is not _POWER_CASE or np.isposinf(records[0][0, 1:3]).all()
    assert records[0].tobytes() == records[1].tobytes()


@pytest.mark.parametrize("name", ["f", "ell", "h", "f_jac", "ell_grad", "h_jac"])
def test_swapped_callbacks_take_the_generic_path(builtin, fig_history, name):
    # dataclasses.replace does not copy the stage pass, so the rollout runs
    # the replacement's callback pass: f once per stage, the other five once
    # per rollout over the whole trajectory
    model = builtin[0]
    spec = _spec(builtin, N=12, T=6, x0=2.0, H0=fig_history)
    original, calls = getattr(model, name), []

    def counting(x, u):
        calls.append(1)
        return original(x, u)

    swapped = dataclasses.replace(model, **{name: counting})
    assert not _runs_callback_pass(model) and _runs_callback_pass(swapped)
    compiled, generic = _Forward(spec), _Forward(dataclasses.replace(spec, model=swapped))
    per_rollout = spec.N if name == "f" else 1
    u = np.random.default_rng(5).uniform(0.5, 1.5, (2, 12, 1))
    for k, uk in enumerate(u):
        compiled(uk)
        generic(uk)
        assert len(calls) == per_rollout * (k + 1)
        for attr in ("x", "h", "ell", "Sx", "Dh", "Dell"):
            assert getattr(generic, attr).tobytes() == getattr(compiled, attr).tobytes(), attr


def test_replaced_model_drops_its_stage_pass(builtin, fig_history):
    # a replace that swaps nothing still runs the callback pass, to the same bits
    model = builtin[0]
    plain = dataclasses.replace(model)
    assert _runs_callback_pass(plain)
    spec = _spec(builtin, N=12, T=6, x0=2.0, H0=fig_history)
    u = np.random.default_rng(6).uniform(0.5, 1.5, (12, 1))
    compiled = _Forward(spec)(u)
    generic = _Forward(dataclasses.replace(spec, model=plain))(u)
    for attr in ("x", "h", "ell", "Sx", "Dh", "Dell"):
        assert getattr(generic, attr).tobytes() == getattr(compiled, attr).tobytes(), attr


def test_callback_pass_serves_every_workspace_across_threads(builtin, fig_history):
    # the callback pass builds its record views on each call: workspaces of
    # one model, used in turn or from two threads at once, each get their own
    # rollout
    spec = _spec(builtin, N=12, T=6, x0=2.0, H0=fig_history)
    plain = dataclasses.replace(spec, model=dataclasses.replace(builtin[0]))
    inputs = np.random.default_rng(7).uniform(0.5, 1.5, (2, 12, 1))
    want = [_Forward(spec)(u).record.tobytes() for u in inputs]
    workspaces = [_Forward(plain) for _ in inputs]
    for k in (0, 1, 0, 1):
        assert workspaces[k](inputs[k]).record.tobytes() == want[k]
    mismatches = []

    def roll(k):
        for _ in range(200):
            if workspaces[k](inputs[k]).record.tobytes() != want[k]:
                mismatches.append(k)

    threads = [threading.Thread(target=roll, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches


@settings(max_examples=100)
@given(_rollout_cases(), st.data())
def test_workspace_reuse_matches_fresh_rollout(case, data):
    spec, u1 = case
    u2 = data.draw(hnp.arrays(float, u1.shape, elements=st.floats(-1.2, 1.2)))
    problem = _Problem(spec)
    for u in (u1, u2):
        J, DJ, g, Dg = problem(u.ravel())
    fresh = _Forward(spec)(u2.copy())
    for name in ("x", "h", "ell", "Sx", "Dh", "Dell"):
        assert getattr(problem.fwd, name).tobytes() == getattr(fresh, name).tobytes(), name
    oracle = _Problem(spec)
    expected = oracle.objective(fresh) + oracle.constraints(fresh)
    for name, got, want in zip(("J", "DJ", "g", "Dg"), (J, DJ, g, Dg), expected):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_solution_counts_solver_evaluations(builtin, fig_history, monkeypatch):
    # nfev and iterations sum L-BFGS-B's objective calls and iterations
    # over the augmented-Lagrangian runs, not only the kept run's: the
    # unconverged solve (stat_tol out of reach) makes all _MAX_OUTER runs
    cases = [
        (_spec(builtin, N=12, T=6, x0=2.0, H0=fig_history), True),
        (_active_bound_spec(options=SolverOptions(stat_tol=1e-300)), False),
    ]  # built first: the steady-state search calls scipy's minimize too
    minimize = ocp.optimize.minimize

    def counting(fun, x0, **kw):
        def counted(*args):
            evaluations[0] += 1
            return fun(*args)

        res = minimize(counted, x0, **kw)
        runs[0] += 1
        nit[0] += res.nit
        return res

    monkeypatch.setattr(ocp.optimize, "minimize", counting)
    for spec, converged in cases:
        evaluations, nit, runs = [0], [0], [0]
        sol = solve(spec)
        assert sol.converged == converged
        assert sol.nfev == evaluations[0] > sol.iterations == nit[0] > 0
    assert runs[0] == ocp._MAX_OUTER

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tacempc import closedloop
from tacempc.closedloop import performance_residual, simulate, step, window_sums
from tacempc.errors import DomainError, InfeasibleError
from tacempc.history import HistoryState, deviation_norm_replacement, steady_history
from tacempc.model import (
    DissipativityCertificate,
    SystemModel,
    eval_rotated_stage_cost,
    solve_steady_state,
)
from tacempc.ocp import SolverOptions


def test_reference_trace_completes(closed_loop_trace):
    trace = closed_loop_trace
    assert trace.completed
    assert trace.K == 30
    assert trace.x.shape == (31, 1)
    assert trace.u.shape == (30, 1)
    assert len(trace.Jstar) == 31  # includes the terminal evaluation
    assert len(trace.histories) == 31


def test_reference_value_function_entry(closed_loop_trace):
    # second value-function sample of the rotated problem along the loop
    assert closed_loop_trace.Jtildestar[1] == pytest.approx(
        0.0166221538547582, rel=1e-3
    )


def test_window_sums_nonpositive(closed_loop_trace):
    sums = window_sums(closed_loop_trace)
    assert sums.shape == (30, 1)
    assert np.max(sums) <= 1e-6


def _loop_window_sums(trace):
    """Reference: each window summed over the history-extended outputs."""
    H0 = trace.histories[0].columns  # (p, T - 1)
    extended = np.vstack([H0.T, trace.h]) if H0.size else trace.h
    T = trace.T
    out = np.empty((trace.K, trace.model.p))
    for k in range(trace.K):
        # step k sits at extended row k + (T - 1); its window covers the
        # T rows ending there
        out[k] = np.sum(extended[k : k + T, :], axis=0)
    return out


@st.composite
def _window_traces(draw):
    T = draw(st.integers(1, 6))
    p = draw(st.sampled_from([1, 2]))
    K = draw(st.integers(0, 2 * T + 2))  # K < T - 1 and K = 0: halted runs
    values = st.floats(-10.0, 10.0)
    h = draw(hnp.arrays(float, (K, p), elements=values))
    H0 = HistoryState(draw(hnp.arrays(float, (p, T - 1), elements=values)), T=T)
    return SimpleNamespace(T=T, K=K, h=h, histories=(H0,), model=SimpleNamespace(p=p))


@given(_window_traces())
def test_window_sums_match_loop(trace):
    sums = window_sums(trace)
    assert sums.shape == (trace.K, trace.model.p)
    np.testing.assert_allclose(sums, _loop_window_sums(trace), rtol=0, atol=1e-12)


def test_window_sums_match_histories(closed_loop_trace):
    trace = closed_loop_trace
    # each post-step history holds the T-1 most recent outputs; appending
    # the next output reproduces the corresponding window sum
    sums = window_sums(trace)
    for k in range(trace.K):
        H = trace.histories[k]
        expect = np.sum(H.columns, axis=1) + trace.h[k]
        np.testing.assert_allclose(sums[k], expect, atol=1e-12)


def test_rotated_closed_loop_identity(closed_loop_trace):
    trace = closed_loop_trace
    cert, ss = trace.cert, trace.ss
    K = trace.K
    stages = eval_rotated_stage_cost(trace.model, cert, ss, trace.x[:K].T, trace.u.T)
    lhs = float(np.sum(stages))
    rhs = (
        np.cumsum(trace.ell)[-1]
        - K * ss.ell_s
        + float(cert.lam(trace.x[0]))
        - float(cert.lam(trace.x[K]))
        + float(cert.lambda_bar @ np.sum(trace.h, axis=0))
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_history_norm_series(closed_loop_trace):
    trace = closed_loop_trace
    expect = [
        deviation_norm_replacement(H, trace.ss.h_s)
        for H in trace.histories[: trace.K]
    ]
    np.testing.assert_allclose(trace.Hnorm, expect, atol=1e-12)
    assert trace.Hnorm[0] == pytest.approx(0.0)  # initial history nonpositive


def test_practical_convergence(closed_loop_trace):
    trace = closed_loop_trace
    assert np.max(np.abs(trace.x[20:, 0] - 2.0)) <= 0.05


def test_replay_is_deterministic(builtin, fig_history):
    model, cert, ss = builtin
    a = simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    b = simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    np.testing.assert_array_equal(a.u, b.u)
    np.testing.assert_array_equal(a.Jstar, b.Jstar)


def test_step_matches_simulate(builtin, fig_history):
    model, cert, ss = builtin
    u, (x1, H1), pair = step(model, cert, ss, 12, ([2.0], fig_history))
    trace = simulate(model, cert, ss, 12, [2.0], fig_history, 1)
    np.testing.assert_array_equal(trace.u[0], u)
    np.testing.assert_array_equal(trace.x[1], x1)
    assert trace.Jstar[0] == pair[0].J


def _raising(*args):
    raise AssertionError("a model callback was called")


def test_step_reads_the_rollout(builtin, fig_history):
    # with f, h and ell swapped for raising stubs, the solves still run the
    # compiled stage pass, and the step returns the same bytes: the applied
    # state, output and cost are the rollout's x_pred[1], h_pred[0] and
    # ell_pred[0]
    model, cert, ss = builtin
    stubbed = copy.copy(model)  # a copy keeps the compiled stage pass
    for name in ("f", "h", "ell"):
        object.__setattr__(stubbed, name, _raising)
    results = [step(m, cert, ss, 12, ([2.0], fig_history)) for m in (model, stubbed)]
    (u, (x1, H1), pair), (u_s, (x1_s, H1_s), pair_s) = results
    assert u.tobytes() == u_s.tobytes() and x1.tobytes() == x1_s.tobytes()
    assert H1.columns.tobytes() == H1_s.columns.tobytes()
    assert x1.tobytes() == pair[0].x_pred[1].tobytes()
    assert H1.columns[:, -1].tobytes() == pair[0].h_pred[0].tobytes()
    for sol, sol_s in zip(pair, pair_s):
        for name in ("u", "x_pred", "h_pred", "ell_pred", "J"):
            assert np.asarray(getattr(sol, name)).tobytes() == np.asarray(
                getattr(sol_s, name)).tobytes(), name
    # ell_pred is the accepted iterate's: the original objective sums it
    assert pair[0].J == float(np.add.reduce(pair[0].ell_pred))


def test_steady_state_is_invariant(builtin):
    model, cert, ss = builtin
    H = steady_history(ss.h_s, 6)
    trace = simulate(model, cert, ss, 12, ss.x_s, H, 5)
    assert trace.completed
    # the cost landscape is flat at the optimum, so the stationarity
    # tolerance translates into O(1e-3) input accuracy
    np.testing.assert_allclose(trace.u, np.tile(ss.u_s, (5, 1)), atol=5e-3)
    assert np.cumsum(trace.ell)[-1] == pytest.approx(5 * ss.ell_s, abs=1e-2)
    resid = performance_residual(trace)
    assert np.max(np.abs(resid)) <= 1e-2


def test_performance_residual_shape(closed_loop_trace):
    resid = performance_residual(closed_loop_trace)
    assert len(resid) == 30


def test_performance_residual_of_a_run_halted_at_step_0(builtin):
    # no value function was evaluated, so the residual series is empty
    model, cert, ss = builtin
    trace = simulate(model, cert, ss, 12, [2.0], HistoryState(np.full((1, 5), 5.0), T=6), 3)
    _assert_halted(trace, 0, "step 0: ")
    resid = performance_residual(trace)
    assert (resid.shape, resid.dtype) == ((0,), np.float64)


def _assert_halted(trace, K, prefix):
    """A trace halted after K steps: every series has K rows (x and the
    histories one more), is float64, and the failure names the halt."""
    n, m, p = trace.model.n, trace.model.m, trace.model.p
    assert not trace.completed and trace.failure.startswith(prefix)
    assert trace.K == K and len(trace.histories) == K + 1
    shapes = {"x": (K + 1, n), "u": (K, m), "h": (K, p), "ell": (K,),
              "Jstar": (K,), "Jtildestar": (K,), "Hnorm": (K,)}
    for name, shape in shapes.items():
        series = getattr(trace, name)
        assert (series.shape, series.dtype) == (shape, np.float64), name


def test_infeasible_start_returns_partial_trace(builtin):
    model, cert, ss = builtin
    bad = HistoryState(np.array([[40.0]]), T=2)
    trace = simulate(model, cert, ss, 4, [2.0], bad, 5)
    _assert_halted(trace, 0, "step 0: ")


def test_terminal_evaluation_failure_keeps_the_steps(builtin, fig_history, monkeypatch):
    # K = 3 steps make 2K solves; the terminal pair's first one, call 2K + 1, raises
    model, cert, ss = builtin
    full = simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    calls = []

    def failing(spec):
        calls.append(spec)
        if len(calls) == 7:
            raise InfeasibleError("forced")
        return solve(spec)

    solve = closedloop.solve
    monkeypatch.setattr(closedloop, "solve", failing)
    trace = simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    assert len(calls) == 7
    _assert_halted(trace, 3, "terminal evaluation: forced")
    for name in ("x", "u", "h", "ell", "Hnorm"):
        assert getattr(trace, name).tobytes() == getattr(full, name).tobytes(), name
    assert trace.Jstar.tobytes() == full.Jstar[:3].tobytes()
    assert trace.Jtildestar.tobytes() == full.Jtildestar[:3].tobytes()


def test_simulate_rejects_bad_k(builtin, fig_history):
    model, cert, ss = builtin
    with pytest.raises(DomainError):
        simulate(model, cert, ss, 12, [2.0], fig_history, 0)


@pytest.mark.parametrize("x0", [0.0, 0.5, -0.5, 0.9])
def test_active_state_bound_closed_loop_completes(x0):
    # x+ = u with x in [-1, 1]: the steady state (1, 1) sits on the state
    # bound, and the solves stop within feas_tol outside it (x = 1 + 8.75e-9),
    # so the next step starts there
    model = SystemModel.from_expressions(
        1, 1, ["u1"], "(x1 - 3)^2 + u1^2", ["x1 - 5"], [-1.0, -10.0], [1.0, 10.0]
    )
    ss = solve_steady_state(model)
    cert = DissipativityCertificate.from_expression(1, "0", [0.0], 1.0, 2.0, 1.0)
    trace = simulate(model, cert, ss, 6, [x0], steady_history(ss.h_s, 2), 4)
    assert trace.completed and trace.K == 4
    feas_tol = SolverOptions().feas_tol
    assert np.all(np.abs(trace.x[1:, 0] - 1.0) <= feas_tol)

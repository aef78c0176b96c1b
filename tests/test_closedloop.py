import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tacempc import closedloop, ocp
from tacempc.closedloop import performance_residual, simulate, step, window_sums
from tacempc.errors import DomainError, InfeasibleError
from tacempc.history import (
    HistoryState,
    norm_replacement,
    shift_update,
    steady_history,
)
from tacempc.model import (
    DissipativityCertificate,
    SystemModel,
    eval_rotated_stage_cost,
    solve_steady_state,
)
from tacempc.ocp import ORIGINAL, ROTATED, OcpSpec, SolverOptions


def test_reference_trace_completes(closed_loop_trace):
    trace = closed_loop_trace
    assert trace.completed
    assert trace.K == 30
    assert trace.x.shape == (31, 1)
    assert trace.u.shape == (30, 1)
    assert len(trace.Jstar) == 31  # includes the terminal evaluation
    assert len(trace.specs) == 31


def test_reference_value_function_entry(closed_loop_trace):
    # second value-function sample of the rotated problem along the loop
    assert closed_loop_trace.Jtildestar[1] == pytest.approx(
        0.0166221538547582, rel=1e-3
    )


def test_recorded_specs_replay_bit_for_bit(closed_loop_trace):
    # specs[k] is the spec solved at state k, warm start included: solving
    # it again gives the recorded bits, and so does its rotated problem
    trace = closed_loop_trace
    assert len(trace.specs) == trace.K + 1
    for k, spec in enumerate(trace.specs):
        sol = ocp.solve(spec)
        assert sol.J.hex() == trace.Jstar[k].hex(), k
        if k < trace.K:
            assert sol.u[0].tobytes() == trace.u[k].tobytes(), k
        rotated = ocp.solve(dataclasses.replace(spec, objective=ROTATED, warm_start=None))
        assert rotated.J.hex() == trace.Jtildestar[k].hex(), k


def test_window_sums_nonpositive(closed_loop_trace):
    sums = window_sums(closed_loop_trace)
    assert sums.shape == (30, 1)
    assert np.max(sums) <= 1e-6


def _loop_window_sums(trace):
    """Reference: each window summed over the history-extended outputs."""
    H0 = trace.specs[0].H0.columns  # (p, T - 1)
    extended = np.vstack([H0.T, trace.h]) if H0.size else trace.h
    T = trace.specs[0].T
    out = np.empty((trace.K, trace.h.shape[1]))
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
    return SimpleNamespace(K=K, h=h, specs=(SimpleNamespace(T=T, H0=H0),))


@given(_window_traces())
def test_window_sums_match_loop(trace):
    sums = window_sums(trace)
    assert sums.shape == trace.h.shape
    np.testing.assert_allclose(sums, _loop_window_sums(trace), rtol=0, atol=1e-12)


def test_window_sums_match_histories(closed_loop_trace):
    trace = closed_loop_trace
    # each post-step history holds the T-1 most recent outputs; appending
    # the next output reproduces the corresponding window sum
    sums = window_sums(trace)
    for k in range(trace.K):
        H = trace.specs[k].H0
        expect = np.sum(H.columns, axis=1) + trace.h[k]
        np.testing.assert_allclose(sums[k], expect, atol=1e-12)


def test_rotated_closed_loop_identity(closed_loop_trace):
    trace = closed_loop_trace
    spec, K = trace.specs[0], trace.K
    cert, ss = spec.cert, spec.ss
    stages = eval_rotated_stage_cost(spec.model, cert, ss, trace.x[:K].T, trace.u.T)
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
        norm_replacement(spec.H0, spec.ss.h_s)
        for spec in trace.specs[: trace.K]
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


def _first_spec(builtin, fig_history):
    """The spec of the first solve of simulate(..., 12, [2.0], fig_history, K)."""
    model, cert, ss = builtin
    return OcpSpec(model=model, cert=cert, ss=ss, N=12, T=fig_history.T, x0=[2.0], H0=fig_history)


def test_step_matches_simulate(builtin, fig_history):
    model, cert, ss = builtin
    sol, spec = step(_first_spec(builtin, fig_history))
    trace = simulate(model, cert, ss, 12, [2.0], fig_history, 1)
    np.testing.assert_array_equal(trace.u[0], sol.u[0])
    np.testing.assert_array_equal(trace.x[1], spec.x0)
    assert trace.Jstar[0] == sol.J


def _raising(*args):
    raise AssertionError("a model callback was called")


def test_step_reads_the_rollout(builtin, fig_history):
    # with f, h and ell swapped for raising stubs, the solves still run the
    # compiled stage pass, and the step returns the same bytes: the applied
    # state, output and cost are the rollout's x_pred[1], h_pred[0] and
    # ell_pred[0]
    model = builtin[0]
    stubbed = copy.copy(model)  # a copy keeps the compiled stage pass
    for name in ("f", "h", "ell"):
        object.__setattr__(stubbed, name, _raising)
    first = _first_spec(builtin, fig_history)
    results = [step(dataclasses.replace(first, model=m)) for m in (model, stubbed)]
    (sol, spec), (sol_s, spec_s) = results
    assert sol.u[0].tobytes() == sol_s.u[0].tobytes() and spec.x0.tobytes() == spec_s.x0.tobytes()
    assert spec.H0.columns.tobytes() == spec_s.H0.columns.tobytes()
    assert spec.x0.tobytes() == sol.x_pred[1].tobytes()
    assert spec.H0.columns[:, -1].tobytes() == sol.h_pred[0].tobytes()
    for name in ("u", "x_pred", "h_pred", "ell_pred", "J"):
        assert np.asarray(getattr(sol, name)).tobytes() == np.asarray(
            getattr(sol_s, name)).tobytes(), name
    # ell_pred is the accepted iterate's: the original objective sums it
    assert sol.J == float(np.add.reduce(sol.ell_pred))


@pytest.fixture(scope="module")
def three_steps(builtin, fig_history):
    """An unpatched K = 3 run, the reference for the patched ones."""
    model, cert, ss = builtin
    return simulate(model, cert, ss, 12, [2.0], fig_history, 3)


def _recording(monkeypatch, replace=lambda spec, count, sol: sol):
    """Route closedloop.solve through a recorder of the specs it is given.

    ``replace(spec, count, sol)`` returns what the solve returns, or raises;
    count is the number of specs with spec's objective so far, this one
    included."""
    solve, specs = closedloop.solve, []

    def recording(spec):
        specs.append(spec)
        count = sum(s.objective == spec.objective for s in specs)
        return replace(spec, count, solve(spec))

    monkeypatch.setattr(closedloop, "solve", recording)
    return specs


def test_step_solves_the_original_problem_once(builtin, fig_history, monkeypatch):
    first = _first_spec(builtin, fig_history)
    specs = _recording(monkeypatch)
    step(first)
    assert [spec.objective for spec in specs] == [ORIGINAL]
    assert specs[0] is first


def test_a_hand_loop_of_steps_reproduces_simulate(builtin, fig_history, three_steps):
    # the controller's state is the next spec: K = 3 steps from the run's
    # first spec, then the terminal solve, give simulate's bytes
    full = three_steps
    specs, sols = [_first_spec(builtin, fig_history)], []
    for _ in range(3):
        sol, spec = step(specs[-1])
        sols.append(sol)
        specs.append(spec)
    sols.append(ocp.solve(specs[-1]))
    assert np.array([spec.x0 for spec in specs]).tobytes() == full.x.tobytes()
    assert np.array([sol.u[0] for sol in sols[:3]]).tobytes() == full.u.tobytes()
    assert np.array([sol.J for sol in sols]).tobytes() == full.Jstar.tobytes()
    assert len(full.specs) == len(specs)
    for spec, recorded in zip(specs, full.specs):
        assert spec.H0.columns.tobytes() == recorded.H0.columns.tobytes()


def test_every_solve_of_a_run_shares_the_first_specs_data(builtin, fig_history, monkeypatch):
    # only the extended state, the objective and the warm start change
    model, cert, ss = builtin
    specs = _recording(monkeypatch)
    simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    first = specs[0]
    assert len(specs) == 8 and first.model is model and first.cert is cert and first.ss is ss
    for spec in specs:
        assert spec.model is first.model and spec.cert is first.cert and spec.ss is first.ss
        assert spec.options is first.options and spec.N == first.N == 12


def test_simulate_solves_rotated_after_the_loop(builtin, fig_history, monkeypatch):
    # K original steps and the terminal original solve, then one rotated
    # solve at each of the same K + 1 states: 2K + 2 solves
    model, cert, ss = builtin
    specs = _recording(monkeypatch)
    trace = simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    assert trace.completed
    assert [spec.objective for spec in specs] == [ORIGINAL] * 4 + [ROTATED] * 4
    for k in range(4):
        assert specs[k].x0.tobytes() == specs[4 + k].x0.tobytes() == trace.x[k].tobytes()
        assert specs[k] is trace.specs[k]
        assert specs[k].H0 is specs[4 + k].H0 is trace.specs[k].H0
    assert trace.converged.shape == (4, 2) and trace.converged.dtype == bool


def test_rotated_values_match_the_interleaved_loop(builtin, fig_history):
    # the oracle: both solves at each state, original first; the original
    # chain is warm-started from its previous solution shifted by one, and
    # each rotated solve is a cold solve of its state alone
    model, cert, ss = builtin
    K = 4
    trace = simulate(model, cert, ss, 12, [2.0], fig_history, K)
    x, H, warm = np.array([2.0]), fig_history, None
    Jstar, Jtildestar = [], []
    for k in range(K + 1):
        spec = OcpSpec(model=model, cert=cert, ss=ss, N=12, T=H.T, x0=x, H0=H)
        orig = ocp.solve(dataclasses.replace(spec, warm_start=warm))
        Jstar.append(orig.J)
        Jtildestar.append(ocp.solve(dataclasses.replace(spec, objective=ROTATED)).J)
        warm = np.vstack([orig.u[1:], ss.u_s[None]])
        x, H = orig.x_pred[1].copy(), shift_update(H, orig.h_pred[0])
    assert trace.Jstar.tobytes() == np.array(Jstar).tobytes()
    assert trace.Jtildestar.tobytes() == np.array(Jtildestar).tobytes()


def test_each_rotated_value_is_a_lone_solve_of_its_spec(builtin, fig_history, monkeypatch):
    # no rotated solve reads another solve: each starts from u_s, and its
    # value is that of the spec's rotated problem solved on its own
    model, cert, ss = builtin
    specs = _recording(monkeypatch)
    trace = simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    originals, rotated = specs[:4], specs[4:]
    assert [spec.objective for spec in rotated] == [ROTATED] * 4
    assert all(spec.warm_start is None for spec in rotated)
    assert any(spec.warm_start is not None for spec in originals)
    for j, spec in enumerate(originals):
        lone = ocp.solve(dataclasses.replace(spec, objective=ROTATED, warm_start=None))
        assert trace.Jtildestar[j : j + 1].tobytes() == np.array([lone.J]).tobytes(), j


def test_rotated_values_carry_no_local_optimum_forward(builtin):
    # from x0 = 3 with the history held at h(1, 1), a rotated solve
    # warm-started from the previous state's rotated solution converged to
    # 24.85 and 11.45 at states 4 and 5; the cold solves there reach 4.33
    # and 0.12
    model, cert, ss = builtin
    H0 = steady_history(model.h(np.array([1.0]), np.array([1.0])), 6)
    trace = simulate(model, cert, ss, 12, [3.0], H0, 5)
    assert trace.completed and trace.converged.all()
    assert trace.Jtildestar[4] < 5 and trace.Jtildestar[5] < 1


def _forced(objective, at):
    """Raise InfeasibleError("forced") on the at-th solve of objective."""
    def replace(spec, count, sol):
        if spec.objective == objective and count == at:
            raise InfeasibleError("forced")
        return sol
    return replace


def test_rotated_failure_does_not_halt_the_controller(builtin, fig_history, three_steps, monkeypatch):
    # the rotated solve at state 1 raises: only its value is lost, and
    # every other state is still solved
    model, cert, ss = builtin
    full = three_steps
    specs = _recording(monkeypatch, _forced(ROTATED, 2))
    trace = simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    assert [spec.objective for spec in specs] == [ORIGINAL] * 4 + [ROTATED] * 4
    assert not trace.completed and trace.failure == "rotated value at step 1: forced"
    assert trace.K == 3 and len(trace.specs) == 4
    for name in ("x", "u", "h", "ell", "Jstar", "Hnorm"):
        assert getattr(trace, name).tobytes() == getattr(full, name).tobytes(), name
    kept = [0, 2, 3]
    assert trace.Jtildestar.shape == (4,) and np.isnan(trace.Jtildestar[1])
    assert trace.Jtildestar[kept].tobytes() == full.Jtildestar[kept].tobytes()
    assert trace.converged.tolist() == [[True, True], [True, False], [True, True], [True, True]]


def test_a_rotated_failure_names_the_first_failed_state(builtin, fig_history, monkeypatch):
    def forced_after_state_0(spec, count, sol):
        if spec.objective == ROTATED and count > 1:
            raise InfeasibleError(f"forced {count - 1}")
        return sol

    model, cert, ss = builtin
    _recording(monkeypatch, forced_after_state_0)
    trace = simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    assert trace.failure == "rotated value at step 1: forced 1"
    assert np.isfinite(trace.Jtildestar[0]) and np.all(np.isnan(trace.Jtildestar[1:]))
    assert trace.converged[:, 1].tolist() == [True, False, False, False]


def _unconverged_second_rotated(spec, count, sol):
    if spec.objective == ROTATED and count == 2:
        return dataclasses.replace(sol, converged=False)
    return sol


def test_trace_records_convergence(builtin, fig_history, three_steps, monkeypatch):
    model, cert, ss = builtin
    full = three_steps
    assert full.converged.all()
    _recording(monkeypatch, _unconverged_second_rotated)
    trace = simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    assert trace.completed
    assert trace.converged.tolist() == [[True, True], [True, False], [True, True], [True, True]]
    assert trace.Jtildestar.tobytes() == full.Jtildestar.tobytes()


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
    specs one more), is float64, and the failure names the halt."""
    model = trace.specs[0].model
    n, m, p = model.n, model.m, model.p
    assert not trace.completed and trace.failure.startswith(prefix)
    assert trace.K == K and len(trace.specs) == K + 1
    shapes = {"x": (K + 1, n), "u": (K, m), "h": (K, p), "ell": (K,),
              "Jstar": (K,), "Jtildestar": (K,), "Hnorm": (K,)}
    for name, shape in shapes.items():
        series = getattr(trace, name)
        assert (series.shape, series.dtype) == (shape, np.float64), name
    assert (trace.converged.shape, trace.converged.dtype) == ((K, 2), np.bool_)


def test_infeasible_start_returns_partial_trace(builtin):
    model, cert, ss = builtin
    bad = HistoryState(np.array([[40.0]]), T=2)
    trace = simulate(model, cert, ss, 4, [2.0], bad, 5)
    _assert_halted(trace, 0, "step 0: ")


def test_terminal_evaluation_failure_keeps_the_steps(builtin, fig_history, three_steps, monkeypatch):
    # K = 3 steps make 3 original solves; the terminal one, the 4th, raises,
    # and the rotated values are still solved at the 3 applied states
    model, cert, ss = builtin
    full = three_steps
    specs = _recording(monkeypatch, _forced(ORIGINAL, 4))
    trace = simulate(model, cert, ss, 12, [2.0], fig_history, 3)
    assert [spec.objective for spec in specs] == [ORIGINAL] * 4 + [ROTATED] * 3
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

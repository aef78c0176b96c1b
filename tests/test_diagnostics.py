import copy
import dataclasses

import numpy as np
import pytest

from tacempc import diagnostics
from tacempc import model as model_mod
from tacempc.closedloop import simulate
from tacempc.diagnostics import decrease_check, lyapunov_trace, turnpike_report
from tacempc.errors import DomainError
from tacempc.history import HistoryState, norm_replacement, steady_history
from tacempc.model import DissipativityCertificate, storage_sup
from tacempc.ocp import ORIGINAL, OcpSolution, OcpSpec, solve


def _solve_original(builtin, N, T, x0=1.0):
    model, cert, ss = builtin
    h0 = np.atleast_1d(model.h(np.atleast_1d(x0), np.array([1.0])))
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=N, T=T,
                   x0=np.atleast_1d(float(x0)), H0=steady_history(h0, T),
                   objective=ORIGINAL)
    return solve(spec)


def test_turnpike_requires_positive_epsilon(builtin):
    sol = _solve_original(builtin, N=6, T=3)
    for epsilon in (0.0, -1.0, np.nan, np.inf):  # NaN compares false with 0
        with pytest.raises(DomainError):
            turnpike_report(sol, builtin[2], builtin[1], epsilon)
    # rho(1e-170) = 0.25 * 1e-340 underflows to 0.0, and C'/rho(eps) divided by it
    with pytest.raises(DomainError, match=r"eps 1e-170 gives rho\(eps\) = 0;"):
        turnpike_report(sol, builtin[2], builtin[1], 1e-170)


def test_turnpike_report_consistency(builtin):
    model, cert, ss = builtin
    sol = _solve_original(builtin, N=12, T=3)
    rep = turnpike_report(sol, ss, cert, 0.1)
    # proximity set rebuilt by brute force
    dev = np.hstack([sol.x_pred[:12] - ss.x_s, sol.u - ss.u_s])
    near = [k for k in range(12) if np.linalg.norm(dev[k]) <= 0.1]
    assert rep.proximity_set == tuple(near)
    assert rep.Q == len(near)
    # every consecutive-set member ends a run of T proximate instants
    for k in rep.consecutive_set:
        assert all(j in near for j in range(k - 2, k + 1))
    assert rep.lemma1_holds


def _raising(*args):
    raise AssertionError("a model callback was called")


def test_turnpike_report_reads_the_rollout(builtin):
    # with f and ell swapped for raising stubs, the solve still runs the
    # compiled stage pass and the report sums the rollout's ell_pred; h
    # stays, since theta_low minimizes it over the box
    model, cert, ss = builtin
    stubbed = copy.copy(model)  # a copy keeps the compiled stage pass
    for name in ("f", "ell"):
        object.__setattr__(stubbed, name, _raising)
    reports = [
        dataclasses.astuple(turnpike_report(_solve_original((m, cert, ss), N=10, T=3), ss,
                                            cert, 0.1))
        for m in (model, stubbed)
    ]
    assert repr(reports[0]) == repr(reports[1])


def test_turnpike_constants(builtin):
    model, cert, ss = builtin
    sol = _solve_original(builtin, N=10, T=3)
    rep = turnpike_report(sol, ss, cert, 0.1)
    # storage is 1.5 (x - 2), so sup |lam| = 18 on [-10, 10]
    assert rep.C == pytest.approx(36.0, abs=1e-9)
    assert rep.theta_low == pytest.approx(-35.0, abs=1e-6)
    delta = sol.J - 10 * ss.ell_s
    assert rep.delta == pytest.approx(delta, abs=1e-9)
    # k_{T,N} = 2 leftover steps for N = 10, T = 3
    assert rep.C_prime == pytest.approx(delta + 36.0 + 2 * 35.0, abs=1e-6)


def test_a_second_report_searches_no_box(builtin, monkeypatch):
    # the box constants C and theta_low are searched once per (model,
    # certificate) pair, not on every report
    diagnostics._box_constants.cache_clear()
    _, cert, ss = builtin
    sol = _solve_original(builtin, N=10, T=3)
    searches = []
    box_min = model_mod._box_min
    monkeypatch.setattr(model_mod, "_box_min",
                        lambda *args, **kw: searches.append(args) or box_min(*args, **kw))
    first = turnpike_report(sol, ss, cert, 0.1)
    assert len(searches) == 2
    assert turnpike_report(sol, ss, cert, 0.1) == first
    assert len(searches) == 2
    # an equal certificate is another pair
    turnpike_report(sol, ss, dataclasses.replace(cert), 0.1)
    assert len(searches) == 4


def test_storage_sup_reads_every_block(builtin, monkeypatch):
    # |x1 + 1| peaks at the last of the 101 grid points, x1 = 10
    model = builtin[0]
    cert = DissipativityCertificate.from_expression(1, "x1 + 1", [0.0], 1.0, 2.0, 1.0)
    monkeypatch.setattr(model_mod, "_GRID_BLOCK", 10)
    assert storage_sup(model, cert) == 11.0


def test_storage_sup_is_refined_between_grid_points(builtin):
    # |x1 (100 - x1^2)| peaks at x1 = 10/sqrt(3), off the grid over [-10, 10],
    # whose best point gives 384.888
    cert = DissipativityCertificate.from_expression(
        1, "x1 * (100 - x1^2)", [0.0], 1.0, 2.0, 1.0)
    assert storage_sup(builtin[0], cert) == pytest.approx(2000 / (3 * np.sqrt(3)), rel=1e-12)


def test_turnpike_grows_with_horizon(builtin):
    model, cert, ss = builtin
    q10 = turnpike_report(_solve_original(builtin, 10, 3), ss, cert, 0.1).Q
    q12 = turnpike_report(_solve_original(builtin, 12, 3), ss, cert, 0.1).Q
    assert q12 >= q10
    assert q12 >= 1


def test_turnpike_all_steady_trajectory(builtin):
    # hand-built solution that sits at the steady state for all 6 steps
    # (the true optimum leaves the turnpike near the end, so solve()
    # would not produce this)
    model, cert, ss = builtin
    H = steady_history(ss.h_s, 3)
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=6, T=3,
                   x0=ss.x_s, H0=H, objective=ORIGINAL)
    steady = OcpSolution(
        spec=spec, u=np.tile(ss.u_s, (6, 1)),
        x_pred=np.tile(ss.x_s, (7, 1)), h_pred=np.tile(ss.h_s, (6, 1)),
        ell_pred=np.full(6, ss.ell_s),
        J=6 * ss.ell_s, max_violation=0.0, stationarity=0.0,
        iterations=0, nfev=0, converged=True,
    )
    rep = turnpike_report(steady, ss, cert, 0.05)
    assert rep.Q == 6
    assert rep.proximity_set == tuple(range(6))
    assert rep.consecutive_set == tuple(range(2, 6))


def test_post_turnpike_history_bound(builtin):
    # after T consecutive proximate instants the predicted history built
    # from those steps deviates by at most sqrt(p) * L_h * epsilon
    model, cert, ss = builtin
    eps = 0.05
    sol = _solve_original(builtin, N=30, T=3)
    rep = turnpike_report(sol, ss, cert, eps)
    assert rep.consecutive_set  # nonempty for this horizon
    for k_x in rep.consecutive_set:
        cols = np.stack(
            [
                np.atleast_1d(model.h(sol.x_pred[j], sol.u[j]))
                for j in range(k_x - 1, k_x + 1)
            ],
            axis=1,
        )
        dev = norm_replacement(HistoryState(cols, T=3), ss.h_s)
        assert dev <= np.sqrt(model.p) * cert.L_h * eps + 1e-9


def test_lyapunov_constant_and_decrease(closed_loop_trace):
    trace = closed_loop_trace
    lt = lyapunov_trace(trace, trace.specs[0].cert, trace.specs[0].ss)
    assert lt.c == pytest.approx(1.0 / 240.0, rel=1e-12)
    assert len(lt.What) == 30
    assert len(lt.W) == 25  # defined for k = 0 .. K - T
    max_inc, ok = decrease_check(lt.W)
    assert ok
    assert max_inc <= 1e-3


def test_decrease_check_edge_cases():
    with pytest.raises(DomainError):
        decrease_check([])
    assert decrease_check([5.0]) == (0.0, True)
    assert decrease_check([3.0, 1.0, 1.0005]) == (pytest.approx(5e-4), True)
    assert decrease_check([1.0, 2.0]) == (1.0, False)


def test_rotated_value_is_not_decreasing(closed_loop_trace):
    trace = closed_loop_trace
    max_inc, ok = decrease_check(trace.Jtildestar[: trace.K])
    assert not ok
    assert max_inc > 1e-3


def test_lyapunov_zero_on_steady_run(builtin):
    model, cert, ss = builtin
    H = steady_history(ss.h_s, 6)
    trace = simulate(model, cert, ss, 12, ss.x_s, H, 8)
    lt = lyapunov_trace(trace, cert, ss)
    # per-step solves track the steady state to solver tolerance only,
    # so the series are small but not exactly zero
    assert np.max(np.abs(lt.W)) <= 1e-4
    assert np.max(np.abs(lt.V)) <= 1e-4


def test_lyapunov_domain_errors(builtin, closed_loop_trace):
    model, cert, ss = builtin
    short = simulate(model, cert, ss, 12, [2.0], closed_loop_trace.specs[0].H0, 3)
    with pytest.raises(DomainError):
        lyapunov_trace(short, cert, ss)  # 3 steps < T = 6


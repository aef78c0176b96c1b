"""The L-BFGS-B driver against scipy's own ``minimize(method="L-BFGS-B")``.

``tacempc.lbfgsb`` calls scipy's private ``_lbfgsb.setulb`` kernel; these
tests show, bit for bit, that it runs the same iterations as scipy's
driver, so a change in scipy's kernel or its calling convention fails here.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize

from tacempc import ocp
from tacempc.lbfgsb import lbfgsb
from tacempc.ocp import OcpSpec

_INF = float("inf")


def _assert_same_run(fun, x0, bounds, **options):
    """The driver, direct and as minimize's method, repeats scipy exactly."""
    want = optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                             options=options)
    via_minimize = optimize.minimize(fun, x0, method=lbfgsb, bounds=bounds, options=options)
    direct = lbfgsb(fun, x0, bounds=bounds, **options)
    # with every variable fixed, scipy returns before its iteration loop,
    # with no jac, nit or status; lbfgsb enters the loop and stops at once
    fixed = all(lo == hi for lo, hi in bounds)
    for got in (via_minimize, direct):
        assert got.x.tobytes() == want.x.tobytes()
        assert float(got.fun).hex() == float(want.fun).hex()
        if fixed:
            assert (got.nit, got.nfev) == (0, want.nfev)
        else:
            assert got.jac.tobytes() == want.jac.tobytes()
            assert (got.nit, got.nfev, got.status) == (want.nit, want.nfev, want.status)
    return want


def test_matches_scipy_on_al_subproblems(builtin, fig_history, monkeypatch):
    # every augmented-Lagrangian subproblem of the fig-history N = 12 solve
    model, cert, ss = builtin
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=12, T=6, x0=np.array([2.0]),
                   H0=fig_history)
    calls = []
    minimize = optimize.minimize

    def recording(fun, x0, **kw):
        calls.append((fun, x0.copy(), kw))
        return minimize(fun, x0, **kw)

    monkeypatch.setattr(ocp.optimize, "minimize", recording)
    ocp.solve(spec)
    monkeypatch.undo()
    assert len(calls) > 1
    for fun, x0, kw in calls:
        assert kw["method"] is lbfgsb and "jac" not in kw

        def al_fun(u, kw=kw, fun=fun):
            return fun(u, *kw["args"])

        _assert_same_run(al_fun, x0, kw["bounds"], **kw["options"])


@st.composite
def _box_quadratics(draw):
    """A convex quadratic over a box with every kind of bound (nbd 0 to 3)."""
    n = draw(st.integers(1, 6))
    entries = st.floats(-3.0, 3.0)
    A = draw(hnp.arrays(float, (n, n), elements=entries))
    Q = A @ A.T + 0.1 * np.eye(n)
    b = draw(hnp.arrays(float, n, elements=st.floats(-10.0, 10.0)))
    corner = draw(hnp.arrays(float, n, elements=st.floats(-5.0, 5.0)))
    width = draw(hnp.arrays(float, n, elements=st.floats(0.0, 4.0)))
    kinds = draw(st.lists(st.sampled_from("nlbu"), min_size=n, max_size=n))
    bounds = [(lo if k in "lb" else -_INF, lo + w if k in "ub" else _INF)
              for k, lo, w in zip(kinds, corner, width)]
    x0 = draw(hnp.arrays(float, n, elements=st.floats(-8.0, 8.0)))
    options = {"maxiter": draw(st.sampled_from([1, 2, 5, 15000])),
               "maxfun": draw(st.sampled_from([3, 15000])),
               "maxcor": draw(st.sampled_from([3, 10]))}
    return Q, b, bounds, x0, options


def _case(kinds, options):
    n = len(kinds)
    Q = np.diag(np.arange(1.0, n + 1)) + 0.5
    b = np.linspace(-4.0, 6.0, n)
    bounds = [{"n": (-_INF, _INF), "l": (0.5, _INF), "u": (-_INF, -0.5), "b": (-1.0, 1.0)}[k]
              for k in kinds]
    return Q, b, bounds, np.full(n, 3.0), options


@given(_box_quadratics())
@example(_case("nn", {"maxiter": 15000}))  # nbd 0: unbounded
@example(_case("ll", {"maxiter": 15000}))  # nbd 1: lower bounds only
@example(_case("uu", {"maxiter": 15000}))  # nbd 3: upper bounds only
@example((np.array([[0.1]]), np.zeros(1), [(0.0, 0.0)], np.zeros(1),
          {"maxiter": 1, "maxfun": 3, "maxcor": 3}))  # every variable fixed
def test_matches_scipy_on_box_quadratics(case):
    Q, b, bounds, x0, options = case

    def fun(x):
        return float(0.5 * x @ Q @ x + b @ x), Q @ x + b

    _assert_same_run(fun, x0, bounds, **options)


def test_reports_stops_like_scipy():
    Q, b, bounds, x0, _ = _case("nlbu", {})

    def fun(x):
        return float(0.5 * x @ Q @ x + b @ x), Q @ x + b

    assert _assert_same_run(fun, x0, bounds).status == 0
    assert _assert_same_run(fun, x0, bounds, maxiter=1).status == 1
    assert _assert_same_run(fun, x0, bounds, maxfun=2).status == 1


@pytest.mark.parametrize("extra", [{"jac": True}, {"callback": print}, {"hess": np.eye}])
def test_rejects_what_it_does_not_implement(extra):
    with pytest.raises(ValueError):
        lbfgsb(lambda x: (float(x @ x), 2 * x), np.ones(2), bounds=[(-1, 1)] * 2, **extra)


"""End-to-end acceptance checks, one test per validation-suite item.

These mirror the built-in ``tacempc check`` suite; each test asserts the
corresponding CheckResult and, where a budget applies, its runtime.

Known failure: the first forward-sum Lyapunov value W(0) of the bundled
closed-loop experiment does not reproduce the published reference value
0.8663 (we obtain ~0.42).  Every component feeding W(0) is verified
independently (rotated values, history weighting, the constant c), and
no consistent alternative weighting reproduces the reference; the check
is kept honest rather than loosened.
"""

import dataclasses
import json
import re
import time

import numpy as np
import pytest

from tacempc import closedloop, validation
from tacempc.cli import main
from tacempc.errors import InfeasibleError
from tacempc.ocp import ORIGINAL
from tacempc.validation import (
    _sweep_solutions,
    check_closed_loop,
    check_consecutive_turnpike,
    check_dissipativity,
    check_eq6_bound,
    check_gradients,
    check_iss_function,
    check_lemma1,
    check_norm_replacement,
    check_practical_convergence,
    check_rotated_identity,
    check_steady_state,
    check_turnpike_growth,
    check_window_constraints,
)


@pytest.fixture(scope="module")
def sweep():
    """The open-loop solves of checks 6-8 and the seconds they took."""
    start = time.perf_counter()
    sols, _ = _sweep_solutions()
    return sols, time.perf_counter() - start


@pytest.fixture(scope="module")
def closed_loop_checks(closed_loop_trace):
    return {r.ident: r for r in check_closed_loop(closed_loop_trace)}


def test_criterion_01_steady_state():
    r = check_steady_state()
    assert r.passed, r.detail
    assert r.runtime < 1.0


def test_criterion_02_dissipativity_grid():
    r = check_dissipativity()
    assert r.passed, r.detail
    assert r.runtime < 1.0


def test_criterion_03_rotated_cost_identity():
    r = check_rotated_identity()
    assert r.passed, r.detail


def test_criterion_04_history_iss_function():
    r = check_iss_function()
    assert r.passed, r.detail


def test_criterion_05_norm_replacement_axioms():
    r = check_norm_replacement()
    assert r.passed, r.detail


def test_criterion_06_transient_average_bound(sweep):
    r = check_eq6_bound(sweep[0])
    assert r.passed, r.detail


def test_criterion_07_turnpike_lower_bound(sweep):
    # On the bundled sweep the bound is nonpositive everywhere; the check
    # must report that as a vacuous skip, not as a pass.
    r = check_lemma1(sweep[0])
    assert r.skipped, r.detail
    assert r.status == "SKIP"
    assert r.detail.startswith(
        "SKIP (vacuous): the lower bound N - C'/rho(eps) is nonpositive"
    ), r.detail


def test_criterion_08_turnpike_growth(sweep):
    # the check reads the shared sweep, so the budget covers building it too
    sols, sweep_runtime = sweep
    r = check_turnpike_growth(sols)
    assert r.passed, r.detail
    assert sweep_runtime + r.runtime < 3.0


def test_sweep_rows_say_what_they_read_and_dropped(monkeypatch):
    # an unconverged sweep solve is dropped from rows 6-8, each row says
    # so, and no status changes
    solve = validation.solve

    def stalled_at_n6_t2(spec):
        sol = solve(spec)
        return dataclasses.replace(sol, converged=False) if (spec.N, spec.T) == (6, 2) else sol

    monkeypatch.setattr(validation, "solve", stalled_at_n6_t2)
    sols, dropped = _sweep_solutions()
    assert (len(sols), dropped) == (8, 1)
    eq6, lemma1, growth = (check(sols, dropped) for check in (
        check_eq6_bound, check_lemma1, check_turnpike_growth))
    assert (eq6.status, lemma1.status, growth.status) == ("PASS", "SKIP", "PASS")
    assert eq6.detail.endswith(" over 8 solves (read 8 of 9 solves, dropped 1 unconverged)")
    assert lemma1.detail.endswith("(8 solves x 4 radii; read 8 of 9 solves, dropped 1 unconverged)")
    assert growth.detail.endswith(" (read 2 of 9 solves, dropped 1 unconverged)")


def test_criterion_09_consecutive_turnpike():
    r = check_consecutive_turnpike()
    assert r.passed, r.detail
    assert r.runtime < 5.0


def test_criterion_10_runtime(closed_loop_runtime):
    assert closed_loop_runtime < 10.0


def test_criterion_10a_first_lyapunov_value(closed_loop_checks):
    # Known failure, kept honest: see the module docstring.
    r = closed_loop_checks["10a"]
    assert r.passed, r.detail


def test_first_lyapunov_value_prints_its_decomposition(closed_loop_checks):
    # the 10a detail shows W(0) = sum Jtilde*(0..5) + c * sum V(0..5), so
    # the known gap can be read off the row
    detail = closed_loop_checks["10a"].detail
    match = re.match(r"W\(0\) = (\S+) = sum Jtilde\*\(0\.\.5\) (\S+) \+ "
                     r"c 1/240 \* sum V\(0\.\.5\) (\S+), reference", detail)
    assert match, detail
    W0, jtilde, V = map(float, match.groups())
    assert jtilde + V / 240 == pytest.approx(W0, abs=1e-4)


def test_criterion_10b_rotated_value_after_one_step(closed_loop_checks):
    r = closed_loop_checks["10b"]
    assert r.passed, r.detail


def test_criterion_10c_lyapunov_practically_decreasing(closed_loop_checks):
    r = closed_loop_checks["10c"]
    assert r.passed, r.detail


def test_criterion_10d_rotated_value_not_monotone(closed_loop_checks):
    r = closed_loop_checks["10d"]
    assert r.passed, r.detail


def test_criterion_11_window_constraints(closed_loop_trace):
    r = check_window_constraints(closed_loop_trace)
    assert r.passed, r.detail


def test_criterion_12_practical_convergence(closed_loop_trace):
    r = check_practical_convergence(closed_loop_trace)
    assert r.passed, r.detail


def test_criterion_13_expression_gradients():
    r = check_gradients()
    assert r.passed, r.detail


def _rows(out):
    """{ident: (status, detail)} of a printed check table."""
    rows = [re.match(r"\s*(\S+)  (\S+)  .*?  (\S.*)$", line) for line in out.splitlines()]
    return {m[1]: (m[2], m[3]) for m in rows}


def test_check_table_survives_a_halted_run(monkeypatch, capsys):
    # the 3rd original closed-loop solve (step 2's) raises, so the
    # reference run halts after two steps: every row it feeds fails and
    # names the halt, and every other row still prints its own result
    originals = []

    def failing(spec):
        if spec.objective == ORIGINAL:
            originals.append(spec)
            if len(originals) == 3:
                raise InfeasibleError("forced")
        return solve(spec)

    solve = closedloop.solve
    monkeypatch.setattr(closedloop, "solve", failing)
    assert main(["check"]) == 1
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 16
    for ident in ("10a", "10b", "10c", "10d", "11", "12"):
        assert rows[ident] == (
            "FAIL", "raised InfeasibleError: closed loop halted (step 2: forced)"), ident
    assert [rows[i][0] for i in ("1", "2", "3", "4", "5", "6", "7", "8", "9", "13")] == [
        "PASS"] * 6 + ["SKIP"] + ["PASS"] * 3


def test_run_all_survives_raising_inputs(monkeypatch):
    # a raise in the shared sweep, in check 9's solve and in the reference
    # run fails exactly the rows that read them, naming the exception
    def boom(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(validation, "solve", boom)
    monkeypatch.setattr(closedloop, "solve", boom)
    results = validation.run_all()
    assert [r.ident for r in results] == [
        "1", "2", "3", "4", "5", "6", "7", "8", "9",
        "10a", "10b", "10c", "10d", "11", "12", "13"]
    for r in results:
        if r.ident in ("1", "2", "3", "4", "5", "13"):
            assert r.status == "PASS", (r.ident, r.detail)
        else:
            assert (r.status, r.detail) == ("FAIL", "raised RuntimeError: boom"), r.ident


@pytest.mark.parametrize("value", [0.5, 2.0])
def test_check_result_holds_a_python_bool(value):
    # a numeric check returns a numpy comparison; its result stores a bool,
    # so it prints as True/False and serializes to JSON
    r = validation._check("x", "numeric check")(lambda: (np.float64(value) <= 1.0, ""))()
    assert type(r.passed) is bool and r.passed == (value <= 1.0)
    assert json.loads(json.dumps(r.__dict__))["passed"] is r.passed

import dataclasses
import functools
import json
import operator
import pathlib
import shlex
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from tacempc import cli, closedloop, config, model
from tacempc.cli import csv_header, main
from tacempc.config import load_config, parse_history
from tacempc.errors import ConfigError, InfeasibleError
from tacempc.ocp import ROTATED


# ---------------------------------------------------------------------------
# configuration loading


def test_load_builtin_defaults():
    cfg = load_config(model_name="mueller-koehler")
    assert (cfg.N, cfg.T, cfg.K) == (12, 6, 30)
    assert cfg.ss.x_s[0] == pytest.approx(2.0)
    np.testing.assert_array_equal(cfg.x0, cfg.ss.x_s)
    assert cfg.H0.columns.shape == (1, 5)


def test_unknown_builtin_rejected():
    with pytest.raises(ConfigError):
        load_config(model_name="no-such-model")


def test_history_shorthands():
    cfg = load_config(model_name="mueller-koehler")
    steady = parse_history("steady", cfg.model, cfg.ss, 6)
    np.testing.assert_array_equal(steady.columns, np.zeros((1, 5)))
    # constant:x,u evaluates h there: h(1, 1) = -2
    const = parse_history("constant:1,1", cfg.model, cfg.ss, 4)
    np.testing.assert_array_equal(const.columns, [[-2.0, -2.0, -2.0]])
    explicit = parse_history("-2,-2,-2,-2,-1", cfg.model, cfg.ss, 6)
    np.testing.assert_array_equal(explicit.columns, [[-2, -2, -2, -2, -1]])
    with pytest.raises(ConfigError):
        parse_history("constant:1", cfg.model, cfg.ss, 4)  # needs n + m numbers
    with pytest.raises(ConfigError):
        parse_history("-2,-2", cfg.model, cfg.ss, 6)  # wrong length


def test_explicit_history_chunks_are_columns():
    # each ;-chunk is one column H_j, also when the (p, T - 1) matrix is square
    pair = SimpleNamespace(n=2, m=2, p=2)
    for T, text in ((3, "1,2;3,4"), (4, "1,2;3,4;5,6")):
        H = parse_history(text, pair, None, T)
        np.testing.assert_array_equal(H.columns, np.arange(1.0, 2 * T - 1).reshape(T - 1, 2).T)
    # p = 1: the comma shorthand is the whole row, as are one-entry chunks
    scalar = SimpleNamespace(n=1, m=1, p=1)
    for spec in ("-2,-2,-2,-2,-1", "-2;-2;-2;-2;-1", [[-2, -2, -2, -2, -1]],
                 [-2, -2, -2, -2, -1]):
        H = parse_history(spec, scalar, None, 6)
        np.testing.assert_array_equal(H.columns, [[-2, -2, -2, -2, -1]])
    # a JSON list is the matrix row by row, one row per output
    H = parse_history([[1, 3], [2, 4]], pair, None, 3)
    np.testing.assert_array_equal(H.columns, [[1, 3], [2, 4]])


def test_config_file_sections(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "model": "mueller-koehler",
        "experiment": {"N": 10, "T": 3, "K": 4, "x0": [1.0],
                       "history": "constant:1,1"},
        "solver": {"feas_tol": 1e-7, "stat_tol": 1e-5},
    }))
    cfg = load_config(str(path))
    assert (cfg.N, cfg.T, cfg.K) == (10, 3, 4)
    assert cfg.options.feas_tol == 1e-7
    assert cfg.options.stat_tol == 1e-5
    np.testing.assert_array_equal(cfg.x0, [1.0])


def test_config_overrides_route_to_sections(tmp_path):
    # overrides are experiment keys and replace the file's; solver options
    # come from the file alone
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"experiment": {"N": 14, "K": 4}, "solver": {"stat_tol": 1e-7}}))
    cfg = load_config(str(path), overrides={"N": "10", "T": 3})
    assert cfg.N == 10 and cfg.T == 3 and cfg.K == 4
    assert cfg.options.stat_tol == 1e-7
    with pytest.raises(ConfigError, match=r"unknown experiment keys: \['stat_tol'\]"):
        load_config(model_name="mueller-koehler", overrides={"stat_tol": 1e-7})


def test_config_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad_json))
    with pytest.raises(ConfigError):
        load_config(model_name="mueller-koehler", overrides={"N": 3, "T": 6})
    with pytest.raises(ConfigError):
        load_config(model_name="mueller-koehler", overrides={"x0": "1,2"})
    cfg_file = tmp_path / "solver.json"
    cfg_file.write_text(json.dumps({"solver": {"bogus_option": 1}}))
    with pytest.raises(ConfigError):
        load_config(str(cfg_file))
    with pytest.raises(ConfigError, match="experiment N must be an integer, got 12.5"):
        load_config(model_name="mueller-koehler", overrides={"N": 12.5})
    with pytest.raises(ConfigError, match="experiment N must be an integer, got inf"):
        load_config(model_name="mueller-koehler", overrides={"N": float("inf")})
    cfg_file.write_text(json.dumps({"solver": {"feas_tol": "tight"}}))
    with pytest.raises(ConfigError, match="solver feas_tol must be a number"):
        load_config(str(cfg_file))


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--N", "abc"], "experiment N must be an integer, got 'abc'"),
    (["simulate", "--history=constant:a,1"], "constant history must be numbers"),
    (["simulate", "--history=-2,-2,-2,-2;a"], "history columns must be numbers"),
    (["simulate", "--x0", "two"], "experiment x0 must be numbers"),
    (["turnpike", "--N", "10,abc"], "turnpike N must be an integer, got 'abc'"),
    # an empty --N used to run the default horizons 10 and 12
    (["turnpike", "--N", ""], "turnpike N must be an integer, got ''"),
    (["turnpike", "--N", " "], "turnpike N must be an integer, got ' '"),
])
def test_malformed_numbers_exit_with_config_error(tmp_path, capsys, argv, message):
    out = ["--out", str(tmp_path)] if argv[0] == "simulate" else []
    assert main(argv + ["--model", "mueller-koehler"] + out) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["simulate", "turnpike"])
def test_non_finite_initial_state_exits_with_config_error(tmp_path, capsys, command):
    # a NaN x0 or history used to reach the solver: a 0-step trace and exit 2
    # from simulate, the solver's "no iterate with a finite objective" from
    # turnpike; a -inf history voided its window rows and exited 0
    extra = ["--K", "3", "--out", str(tmp_path)] if command == "simulate" else []
    for flags, message in [(["--x0", "nan"], "initial state must be finite"),
                           (["--T", "3", "--history=nan,-2"], "history must be finite"),
                           (["--T", "3", "--history=-inf,-inf"], "history must be finite")]:
        assert main([command, "--model", "mueller-koehler", *flags, *extra]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not any(tmp_path.iterdir())


def test_turnpike_help_describes_its_horizon_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["turnpike", "--help"])
    assert exc.value.code == 0
    assert "horizons, comma separated (default 10,12)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["simulate", "--eps", "0.2"], ["turnpike", "--K", "3"]])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys, argv):
    # simulate has no proximity radius and turnpike no closed loop: both
    # flags used to parse and be ignored
    out = ["--out", str(tmp_path)] if argv[0] == "simulate" else []
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--model", "mueller-koehler", "--N", "6", "--T", "3", *out])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}\n" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key, value, message", [
    ("a", float("nan"), "a, omega and L_h must be positive and finite"),
    ("omega", float("inf"), "a, omega and L_h must be positive and finite"),
    ("L_h", float("nan"), "a, omega and L_h must be positive and finite"),
    ("lambda_bar", [float("nan")], "multiplier lambda_bar must be finite"),
    ("z_lower", [-float("inf"), -10.0], "box bounds must be finite"),
    ("z_lower", [float("nan"), -10.0], "box bounds must be finite"),
])
def test_non_finite_model_constants_exit_with_config_error(tmp_path, capsys, key, value, message):
    # Python's json reads NaN and Infinity: a NaN a wrote nan Lyapunov cells,
    # an infinite omega gave c = 0, an infinite box bound bound=nan, and a
    # NaN box bound or multiplier ended in a solver error
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"builtin": "mueller-koehler", key: value}}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--K", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("experiment", "N", True, "experiment N must be an integer, got True"),
    ("experiment", "K", True, "experiment K must be an integer, got True"),
    ("experiment", "x0", [True], "experiment x0 must be numbers, got [True]"),
    ("experiment", "eps", True, "experiment eps must be a number, got True"),
    ("experiment", "history", [[-2, -2, -2, -2, False]], "history columns must be numbers"),
    ("solver", "feas_tol", True, "solver feas_tol must be a number, got True"),
    ("model", "n", True, "model n must be an integer, got True"),
    ("model", "a", True, "model a must be a number, got True"),
    ("model", "omega", True, "model omega must be a number, got True"),
    ("model", "L_h", True, "model L_h must be a number, got True"),
    ("model", "z_lower", [-10.0, False], "model z_lower must be numbers"),
    ("model", "z_upper", [True, 10.0], "model z_upper must be numbers"),
    ("model", "lambda_bar", [True], "model lambda_bar must be numbers, got [True]"),
    ("model", "steady_state", {"x": [True], "u": [1.0]},
     "model steady_state x must be numbers, got [True]"),
])
def test_boolean_numbers_exit_with_config_error(tmp_path, capsys, section, key, value, message):
    # JSON true and false read as 1 and 0: K, x0, eps and a set to true ran
    # a one-step loop from x0 = 1 with eps = a = 1 and exited 0
    section_data = {"builtin": "mueller-koehler"} if section == "model" else {}
    path = tmp_path / "run.json"
    path.write_text(json.dumps({section: {**section_data, key: value}}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("f", ["x1 * u1 ?"], "model f[0]: unexpected character '?'"),
    ("ell", "(x1 - 3)^2 + u1^2 +", "model ell: expected a number, identifier or '(', got ''"),
    ("h", ["2*x1 + u2 - 5"], "model h[0]: identifier 'u2' exceeds declared dimension 1"),
    ("lam", "1.5 * (x1 - 2))", "model lam: unexpected token ')'"),
    ("ell", 3, "model ell must be an expression string, got 3"),  # was a TypeError traceback
    # a ValueError traceback: int() of the 5,000-digit index
    pytest.param("ell", "x" + "1" * 5000, "model ell: identifier 'x1111", id="index-5000-digits"),
    # parsed to inf: exit 0 with ell_s = inf
    pytest.param("ell", "(x1 - 3)^2 + " + "9" * 5000,
                 "model ell: number literal overflows a double (at position 13)",
                 id="literal-5000-digits"),
    # failed later, with a complementarity message
    pytest.param("h", ["x1 - 1e400"], "model h[0]: number literal overflows a double (at position 5)",
                 id="literal-1e400"),
])
def test_malformed_model_expression_exits_with_config_error(tmp_path, capsys, key, value, message):
    # an ExprSyntaxError was a solver error: exit 2 and no key named
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"builtin": "mueller-koehler", key: value}}))
    assert main(["steady-state", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("ell, times", [
    pytest.param(" + ".join(["x1"] * 1000), 1000, id="1000-terms"),
    pytest.param("(" * 400 + "x1" + ")" * 400, 1, id="400-parentheses"),
    pytest.param("-" * 2000 + "x1", 1, id="2000-minus-signs"),
])
def test_deep_model_expression_runs(tmp_path, capsys, ell, times):
    # each a RecursionError traceback, then a ConfigError at the depth bounds;
    # ell is x1 added ``times`` times, so the solved x_s is the box's -10
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"builtin": "mueller-koehler", "ell": ell}}))
    assert main(["steady-state", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x_s = -10"
    assert lines[2] == f"ell_s = {cli._fmt(functools.reduce(operator.add, [-10.0] * times))}"


def _nested_list(depth):
    return "[" * depth + "0" + "]" * depth


@pytest.mark.parametrize("x0, message", [
    # a RecursionError traceback from config._holds_bool
    pytest.param(_nested_list(600), "experiment x0 must be numbers, got [[[[", id="600-deep"),
    # a RecursionError traceback from json.load
    pytest.param(_nested_list(5000), "invalid JSON in ", id="5000-deep"),
])
def test_deeply_nested_config_exits_with_config_error(tmp_path, capsys, x0, message):
    path = tmp_path / "run.json"
    path.write_text('{"experiment": {"x0": ' + x0 + "}}")
    assert main(["steady-state", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err) < 200


@pytest.mark.parametrize("model, message", [
    ({"ell": "x" + "1" * 5000}, "model ell: identifier 'x1111"),
    ({"ell": "y" * 5000}, "model ell: unknown identifier 'yyyy"),
    ({"h": ["x1 " + "u" * 5000]}, "model h[0]: unexpected token 'uuuu"),
    ({"lam": ["x1"] * 5000}, "model lam must be an expression string, got ['x1', "),
    # quoted the list the string split into: ['1', '1', ...
    ({"lambda_bar": "1," * 5000}, "model lambda_bar must be numbers, got '1,1,1,1,"),
    ({"a": "q" * 5000}, "model a must be a number, got 'qqqq"),
], ids=["dimension", "identifier", "token", "expression", "numbers", "number"])
def test_long_inputs_are_quoted_in_part(tmp_path, capsys, model, message):
    # each message quoted the whole input: 5,050 characters for the identifier
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"builtin": "mueller-koehler", **model}}))
    assert main(["steady-state", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err) < 200
    assert " characters)" in err


_NO_STORAGE = {"lam": "0 * x1", "lambda_bar": [0.0]}  # any steady state passes the certificate


@pytest.mark.parametrize("overrides, message", [
    ({"steady_state": [2.0, 1.0]},  # was a TypeError traceback
     'model steady_state must be a JSON object with keys "x" and "u", got [2.0, 1.0]'),
    ({"steady_state": {"x": [2.0]}},  # was a KeyError traceback
     'model steady_state must be a JSON object with keys "x" and "u"'),
    ({"steady_state": {"x": [2.0], "u": [1.0], "h": 4}},
     'model steady_state must be a JSON object with keys "x" and "u"'),
    ({"steady_state": {"x": [2.0, 3.0], "u": [1.0]}},  # gave x_s of shape (2,)
     "model steady_state needs 1 x and 1 u entries, got [2.0, 3.0] and [1.0]"),
    ({"steady_state": {"x": [float("nan")], "u": [1.0]}},
     "model steady_state x [nan], u [1.0] is not an admissible steady state"),
    ({**_NO_STORAGE, "steady_state": {"x": [2.0], "u": [0.5]}},  # f(x, u) = 1
     "model steady_state x [2.0], u [0.5] is not an admissible steady state"),
    ({**_NO_STORAGE, "steady_state": {"x": [3.0], "u": [1.0]}},  # h(x, u) = 2
     "model steady_state x [3.0], u [1.0] is not an admissible steady state"),
    ({**_NO_STORAGE, "steady_state": {"x": [-20.0], "u": [1.0]}},  # outside the box
     "model steady_state x [-20.0], u [1.0] is not an admissible steady state"),
])
def test_malformed_pinned_steady_state_exits_with_config_error(tmp_path, capsys, overrides, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"builtin": "mueller-koehler", **overrides}}))
    assert main(["steady-state", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("eps", ["nan", "-1", "0", "inf"])
def test_proximity_radius_must_be_positive_and_finite(capsys, eps):
    # --eps nan printed bound=nan and exited 0; --eps -1 exited 2 from the report
    assert main(["turnpike", "--model", "mueller-koehler", "--N", "6", "--T", "3",
                 f"--eps={eps}"]) == 1
    assert capsys.readouterr().err.startswith("error: experiment eps must be positive and finite")
    with pytest.raises(ConfigError, match="experiment eps must be positive and finite"):
        load_config(model_name="mueller-koehler", overrides={"eps": float(eps)})


def test_a_proximity_radius_whose_margin_underflows_exits_with_config_error(capsys):
    # rho(1e-170) = 0.25 * 1e-340 underflows to 0.0: the report divided by it
    # and ended in a ZeroDivisionError traceback
    assert main(["turnpike", "--model", "mueller-koehler", "--N", "6", "--T", "3",
                 "--eps=1e-170"]) == 1
    assert capsys.readouterr().err == (
        "error: experiment eps 1e-170 gives rho(eps) = 0; the turnpike bound divides by it\n")


@pytest.mark.parametrize("argv", [
    # turnpike printed the N=12 report before rejecting N=3
    ["turnpike", "--N", "12,3", "--T", "6"],
    ["turnpike", "--N", "6", "--T", "3", "--eps", "1e-200"],
    # rho(1e300) overflows to inf: an overflow warning, then bound=6 and exit 0
    ["turnpike", "--N", "6", "--T", "3", "--eps", "1e300"],
    ["turnpike", "--N", "6", "--T", "3", "--eps", "nan"],
    ["turnpike", "--N", "6", "--T", "3", "--eps", "0"],
    ["turnpike", "--x0", "1,2"],
    ["turnpike", "--x0", "11"],
    ["simulate", "--x0", "1,2"],
    ["simulate", "--x0", "11"],
    ["simulate", "--K", "0"],
    # a regular file at --out: a FileExistsError traceback after the whole loop
    ["simulate", "--out", "FILE"],
], ids=lambda argv: " ".join(argv))
def test_bad_inputs_exit_before_any_solve(tmp_path, monkeypatch, capsys, argv):
    def refuse(spec):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "solve", refuse)
    monkeypatch.setattr(closedloop, "solve", refuse)
    regular = tmp_path / "file"
    regular.write_text("")
    out = tmp_path / "out"
    if argv[0] == "simulate" and "--out" not in argv:
        argv = [*argv, "--out", str(out)]
    argv = [str(regular) if arg == "FILE" else arg for arg in argv]
    assert main([*argv, "--model", "mueller-koehler"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists() and regular.read_text() == ""


def test_turnpike_notes_unconverged_solves(monkeypatch, capsys):
    # stderr names the horizon whose solve did not converge; stdout is unchanged
    argv = ["turnpike", "--model", "mueller-koehler", "--T", "3", "--x0", "1",
            "--history=constant:1,1", "--N", "10,12"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    solve = cli.solve
    monkeypatch.setattr(cli, "solve", lambda spec: dataclasses.replace(
        solve(spec), converged=spec.N != 12))
    assert main(argv) == 0
    patched = capsys.readouterr()
    assert plain.err == "" and patched.err == "note: N=12: solve returned converged=False\n"
    assert patched.out == plain.out


def test_a_box_wider_than_a_double_exits_with_config_error(tmp_path, capsys):
    # each bound is finite but the width is not: the grid searches filled
    # with NaN and turnpike printed bound=nan, holds=False and exited 0
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"builtin": "mueller-koehler",
                                          "z_lower": [-1e308, -10], "z_upper": [1e308, 10]}}))
    assert main(["turnpike", "--config", str(path), "--N", "12"]) == 1
    assert capsys.readouterr().err == "error: box widths must be finite\n"


@pytest.mark.parametrize("key", [
    "seed", "penalty_init", "penalty_growth", "penalty_max", "max_outer", "max_inner",
])
def test_removed_solver_keys_rejected(tmp_path, key):
    cfg_file = tmp_path / "solver.json"
    cfg_file.write_text(json.dumps({"solver": {key: 1}}))
    with pytest.raises(ConfigError, match=key):
        load_config(str(cfg_file))


@pytest.mark.parametrize("value", ["nan", -1, 0, "inf"])
def test_solver_tolerances_must_be_positive_and_finite(tmp_path, value):
    cfg_file = tmp_path / "solver.json"
    cfg_file.write_text(json.dumps({"solver": {"feas_tol": value}}))
    with pytest.raises(ConfigError, match="solver feas_tol must be positive and finite"):
        load_config(str(cfg_file))
    cfg_file.write_text(json.dumps({"solver": {"stat_tol": float(value)}}))
    with pytest.raises(ConfigError, match="solver stat_tol must be positive and finite"):
        load_config(str(cfg_file))


@pytest.mark.parametrize("raw, message", [
    ({"model": {"builtin": "mueller-koehler", "lamda": "x1"}},
     "unknown model keys: ['lamda']"),
    ({"experiment": {"horizon": 20}}, "unknown experiment keys: ['horizon']"),
    ({"experiment": {"epsilon": 0.2}}, "unknown experiment keys: ['epsilon']"),
    ({"solvr": {"feas_tol": 1e-6}}, "unknown configuration sections: ['solvr']"),
    ({"model": 5}, "model section must be a JSON object, got 5"),
    ({"experiment": [1, 2]}, "experiment section must be a JSON object, got [1, 2]"),
    ({"solver": "tight"}, "solver section must be a JSON object, got 'tight'"),
    ({"model": {"n": 1, "m": 1, "f": ["u1"], "ell": "u1^2", "h": ["x1"],
                "z_lower": [-1, -1], "z_upper": [1, 1], "lam": "0", "lambda_bar": [0],
                "a": 1, "omega": 2, "L_h": 1, "x_s": [0]}},
     "unknown model keys: ['x_s']"),
])
def test_unknown_or_malformed_config_rejected(tmp_path, raw, message):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as info:
        load_config(str(cfg_file))
    assert str(info.value) == message


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="unknown experiment keys: \\['horizon'\\]"):
        load_config(model_name="mueller-koehler", overrides={"horizon": 20})


# ---------------------------------------------------------------------------
# subcommands


def test_steady_state_command(capsys):
    rc = main(["steady-state", "--model", "mueller-koehler"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "x_s = 2" in out
    assert "u_s = 1" in out
    assert "ell_s = 2" in out
    assert "h_s = 0" in out


def test_steady_state_without_output_constraint(tmp_path, capsys):
    path = tmp_path / "droph.json"
    path.write_text(json.dumps({
        "model": {"builtin": "mueller-koehler", "h": ["0 * x1"],
                  "steady_state": None, "lam": "0 * x1", "L_h": 1.0},
    }))
    rc = main(["steady-state", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "x_s = 3" in out
    assert "ell_s = 1" in out


@pytest.mark.parametrize("pinned", [True, False])
def test_steady_state_command_solves_once(tmp_path, capsys, monkeypatch, pinned):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    solve = model.solve_steady_state
    monkeypatch.setattr(config, "solve_steady_state", counting)
    monkeypatch.setattr(cli, "solve_steady_state", counting)
    path = tmp_path / "model.json"
    section = {"builtin": "mueller-koehler"} if pinned else {
        "builtin": "mueller-koehler", "steady_state": None}
    path.write_text(json.dumps({"model": section}))
    assert main(["steady-state", "--config", str(path)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == "x_s = 2\nu_s = 1\nell_s = 2\nh_s = 0\n"


def test_steady_state_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "crossed.json"
    path.write_text(json.dumps({
        "model": {"builtin": "mueller-koehler",
                  "z_lower": [10.0, -10.0], "z_upper": [-10.0, 10.0]},
    }))
    rc = main(["steady-state", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err


def test_simulate_single_step_from_steady(tmp_path, capsys):
    rc = main(["simulate", "--model", "mueller-koehler",
               "--K", "1", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == csv_header(1, 1, 1)
    assert len(lines) == 2  # header + one step
    row = lines[1].split(",")
    assert row[0] == "0"
    assert float(row[1]) == pytest.approx(2.0)  # starts at x_s
    assert float(row[4]) == pytest.approx(2.0, abs=1e-3)  # ell near ell_s
    assert row[-1] == ""  # W undefined for a 1-step run


def test_simulate_notes_a_run_too_short_for_lyapunov_diagnostics(tmp_path, capsys):
    # K = 2 < T = 6 applied steps: the What and W columns stay empty, and
    # stdout says why, as it does for T < 2
    argv = ["simulate", "--model", "mueller-koehler", "--K", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("note: Lyapunov diagnostics require at least T = 6 applied steps, "
                          "got 2; skipped\n")
    rows = [line.split(",") for line in (tmp_path / "trace.csv").read_text().split("\n")[1:-1]]
    assert len(rows) == 2 and all(row[-2:] == ["", ""] for row in rows)


def test_simulate_notes_a_period_too_short_for_lyapunov_diagnostics(tmp_path, capsys):
    argv = ["simulate", "--model", "mueller-koehler", "--T", "1", "--K", "2",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(
        "note: Lyapunov diagnostics require T >= 2; skipped\n")
    rows = [line.split(",") for line in (tmp_path / "trace.csv").read_text().split("\n")[1:-1]]
    assert len(rows) == 2 and all(row[-2:] == ["", ""] for row in rows)


def _simulate_reference(tmp_path, K=8, svg=False):
    args = ["simulate", "--model", "mueller-koehler",
            "--K", str(K), "--x0", "2", "--history=-2,-2,-2,-2,-1",
            "--out", str(tmp_path)]
    if svg:
        args.append("--svg")
    return main(args)


def test_simulate_csv_layout(tmp_path, capsys):
    rc = _simulate_reference(tmp_path)
    assert rc == 0
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "k,x_1,u_1,h_1,ell,Jstar,Jtildestar,Hnorm,What,W"
    assert len(lines) == 9
    rows = [line.split(",") for line in lines[1:]]
    # W column is empty for the last T - 1 = 5 rows, filled before that
    for row in rows[:3]:
        assert row[-1] != ""
    for row in rows[3:]:
        assert row[-1] == ""
    # What is defined on every row
    assert all(row[-2] != "" for row in rows)


def test_simulate_csv_round_trip(tmp_path, capsys):
    # the 12-significant-digit format must reproduce the dynamics:
    # reparsing x, u and applying f matches the next printed state
    rc = _simulate_reference(tmp_path)
    assert rc == 0
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    # each printed value is off by at most half a unit in its 12th digit,
    # relative, and by the double roundings of computing, reading back and
    # rebuilding it; a rebuilt value is off by the sum over its terms
    eps = 0.5e-11 + 4 * 2.0**-53
    for prev, nxt in zip(rows, rows[1:]):
        x, u, h = float(prev[1]), float(prev[2]), float(prev[3])
        assert float(nxt[1]) == pytest.approx(x * u, rel=3 * eps)
        assert h == pytest.approx(2 * x + u - 5, abs=eps * (2 * abs(x) + abs(u) + abs(h)))


def test_simulate_svg(tmp_path, capsys):
    rc = _simulate_reference(tmp_path, svg=True)
    assert rc == 0
    root = ET.parse(tmp_path / "chart.svg").getroot()
    assert root.get("width") == "800"
    assert root.get("height") == "480"
    ns = "{http://www.w3.org/2000/svg}"
    names = {el.get("data-series") for el in root.iter(f"{ns}polyline")}
    assert {"Jstar", "Jtildestar", "Hnorm", "What", "W"} <= names


def _patch_second_rotated(monkeypatch, replace):
    """Pass the 2nd rotated closed-loop solution through replace(sol)."""
    solve, rotated = closedloop.solve, []

    def patched(spec):
        sol = solve(spec)
        if spec.objective == ROTATED:
            rotated.append(spec)
            if len(rotated) == 2:
                return replace(sol)
        return sol

    monkeypatch.setattr(closedloop, "solve", patched)


def test_simulate_reports_unconverged_solves(tmp_path, monkeypatch, capsys):
    # the count goes to stderr; stdout and the CSV are unchanged
    outputs = []
    for patch in (False, True):
        if patch:
            _patch_second_rotated(monkeypatch, lambda sol: dataclasses.replace(sol, converged=False))
        assert _simulate_reference(tmp_path) == 0
        captured = capsys.readouterr()
        outputs.append((captured.out, captured.err, (tmp_path / "trace.csv").read_bytes()))
    (out, err, csv), (out_p, err_p, csv_p) = outputs
    assert (out_p, csv_p) == (out, csv)
    assert err == "" and err_p == "note: 1 solves returned converged=False\n"


def test_simulate_survives_a_rotated_failure(tmp_path, monkeypatch, capsys):
    # every step is applied and written; Jtildestar is NaN at the failed
    # state alone, What there and W over the windows through it, and the
    # chart leaves the NaN points out
    def forced(sol):
        raise InfeasibleError("forced")

    _patch_second_rotated(monkeypatch, forced)
    assert _simulate_reference(tmp_path, svg=True) == 2
    err = capsys.readouterr().err
    assert "simulation incomplete: rotated value at step 1: forced" in err
    assert "halted" not in err  # the loop applied all K steps
    rows = [line.split(",") for line in (tmp_path / "trace.csv").read_text().split("\n")[1:-1]]
    assert len(rows) == 8
    nan_rows = {col: [k for k, row in enumerate(rows) if row[col] == "nan"] for col in (6, 8, 9)}
    assert nan_rows == {6: [1], 8: [1], 9: [0, 1, 2]}
    assert all("nan" not in row[:6] + row[7:8] for row in rows)
    svg = (tmp_path / "chart.svg").read_text()
    assert "nan" not in svg
    ns = "{http://www.w3.org/2000/svg}"
    points = {el.get("data-series"): el.get("points")
              for el in ET.fromstring(svg).iter(f"{ns}polyline")}
    assert len(points["Jtildestar"].split()) == 7 and len(points["Jstar"].split()) == 8


def test_simulate_infeasible_exit_code(tmp_path, capsys):
    # the run halts at step 0; with --svg the chart holds the axes alone
    for extra in ([], ["--svg"]):
        rc = main(["simulate", "--model", "mueller-koehler",
                   "--T", "2", "--K", "2", "--x0", "2", "--history", "40",
                   "--out", str(tmp_path), *extra])
        captured = capsys.readouterr()
        assert rc == 2
        assert "halted" in captured.err
    root = ET.parse(tmp_path / "chart.svg").getroot()
    polylines = list(root.iter("{http://www.w3.org/2000/svg}polyline"))
    assert [el.get("data-series") for el in polylines] == [None]


def test_turnpike_command(capsys):
    rc = main(["turnpike", "--model", "mueller-koehler",
               "--T", "3", "--x0", "1", "--history=constant:1,1",
               "--N", "10,12"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [line for line in out.strip().split("\n") if line.startswith("N=")]
    assert len(lines) == 2
    qs = [int(line.split("Q=")[1].split(",")[0]) for line in lines]
    assert qs[1] >= qs[0]
    assert all("holds=True" in line for line in lines)


def _readme_cli_examples():
    """The ``tacempc`` command lines of the sh block under README's
    ``## CLI``, backslash continuations joined, each split into argv."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("tacempc ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # the documented commands parse; the quick ones also run to exit 0
    examples = _readme_cli_examples()
    assert [argv[0] for argv in examples] == ["steady-state", "simulate", "turnpike", "check"]
    for argv in examples:
        cli.build_parser().parse_args(argv)
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        if argv[0] in ("steady-state", "turnpike"):
            assert main(argv) == 0, argv

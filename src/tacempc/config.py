"""JSON run configuration: model, experiment and solver sections.

A configuration is a JSON object with up to three keys.  "model" either
names a builtin ("mueller-koehler") or spells out dimensions, expression
strings and certificate constants; "experiment" holds horizon, period,
step count, initial state and history; "solver" overrides the
feasibility and stationarity tolerances.  Histories accept explicit columns
or the shorthands "steady" and "constant:x,u" (filled with the output at
that point).  Unknown sections and keys are rejected with a ConfigError
that names them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, quoted
from .history import HistoryState, steady_history
from .model import (
    DissipativityCertificate,
    SteadyState,
    SystemModel,
    is_steady_state,
    solve_steady_state,
    validate_certificate,
)
from .ocp import OcpSpec, SolverOptions

BUILTIN_MODELS = ("mueller-koehler",)

_MUELLER_KOEHLER = {
    "n": 1,
    "m": 1,
    "f": ["x1 * u1"],
    "ell": "(x1 - 3)^2 + u1^2",
    "h": ["2*x1 + u1 - 5"],
    "z_lower": [-10.0, -10.0],
    "z_upper": [10.0, 10.0],
    "lam": "1.5 * (x1 - 2)",
    "lambda_bar": [1.0],
    "a": 0.25,
    "omega": 2.0,
    "L_h": 3.0,
    "steady_state": {"x": [2.0], "u": [1.0]},
}
MODEL_KEYS = ("builtin", *_MUELLER_KOEHLER)
EXPERIMENT_KEYS = ("N", "T", "K", "x0", "history", "eps")


@dataclass(eq=False)
class RunConfig:
    """Fully resolved configuration ready to execute; ``load_config`` makes
    it, with x0 = x_s and the steady history where the experiment gives none."""

    model: SystemModel
    cert: DissipativityCertificate
    ss: SteadyState
    N: int
    T: int
    K: int
    x0: np.ndarray
    H0: HistoryState
    options: SolverOptions
    epsilon: float
    ss_solved: bool  # ss came from solve_steady_state, not the config


def _holds_bool(value) -> bool:
    """Whether value is, or a nested list holds, a boolean: JSON true and
    false, which int(), float() and numpy would read as 1 and 0."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, (bool, np.bool_)):
            return True
    return False


def as_number(value, kind, name: str):
    """kind(value) for kind int or float; ConfigError naming the field if
    malformed, including a boolean and a fractional value for an integer field."""
    try:
        if _holds_bool(value):
            raise TypeError(value)
        number = kind(value)
        if kind is int and isinstance(value, float) and number != value:
            raise ValueError(value)
        return number
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {quoted(value)}") from None


def _reject_unknown(keys, known, what: str):
    bad = sorted(set(keys) - set(known))
    if bad:
        raise ConfigError(f"unknown {what}: {bad}")


def _as_section(section, name: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be a JSON object, got {quoted(section)}")
    return section


def _as_floats(values, name: str) -> np.ndarray:
    """Float array of values (a string splits at commas); ConfigError if
    malformed or boolean, quoting values as given."""
    try:
        if _holds_bool(values):
            raise TypeError(values)
        return np.asarray(values.split(",") if isinstance(values, str) else values, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be numbers, got {quoted(values)}") from None


def builtin_model_data(name: str) -> dict:
    if name != "mueller-koehler":
        raise ConfigError(
            f"unknown builtin model {name!r}; available: {', '.join(BUILTIN_MODELS)}"
        )
    return dict(_MUELLER_KOEHLER)


def _build_model(data: dict):
    try:
        n = as_number(data["n"], int, "model n")
        m = as_number(data["m"], int, "model m")
        f_sources = list(data["f"])
        ell_source = data["ell"]
        h_sources = list(data["h"])
        z_lower = _as_floats(data["z_lower"], "model z_lower")
        z_upper = _as_floats(data["z_upper"], "model z_upper")
    except KeyError as exc:
        raise ConfigError(f"model definition missing key {exc.args[0]!r}") from None
    model = SystemModel.from_expressions(
        n=n,
        m=m,
        f_sources=f_sources,
        ell_source=ell_source,
        h_sources=h_sources,
        z_lower=z_lower,
        z_upper=z_upper,
    )
    try:
        cert = DissipativityCertificate.from_expression(
            n=n,
            lam_source=data["lam"],
            lambda_bar=_as_floats(data["lambda_bar"], "model lambda_bar"),
            a=as_number(data["a"], float, "model a"),
            omega=as_number(data["omega"], float, "model omega"),
            L_h=as_number(data["L_h"], float, "model L_h"),
        )
    except KeyError as exc:
        raise ConfigError(f"certificate missing key {exc.args[0]!r}") from None
    return model, cert


def _resolve_steady_state(model, data: dict) -> SteadyState:
    """The pinned steady state, checked as ``solve_steady_state`` checks its
    candidates, or the solved one when none is pinned."""
    given = data.get("steady_state")
    if given is None:
        return solve_steady_state(model)
    if not isinstance(given, dict) or set(given) != {"x", "u"}:
        raise ConfigError(
            f'model steady_state must be a JSON object with keys "x" and "u", got {quoted(given)}'
        )
    x_s = np.atleast_1d(_as_floats(given["x"], "model steady_state x"))
    u_s = np.atleast_1d(_as_floats(given["u"], "model steady_state u"))
    if x_s.shape != (model.n,) or u_s.shape != (model.m,):
        raise ConfigError(
            f"model steady_state needs {model.n} x and {model.m} u entries, "
            f"got {x_s.tolist()} and {u_s.tolist()}"
        )
    if not is_steady_state(model, x_s, u_s):  # the box is finite, so nan and inf fail
        raise ConfigError(
            f"model steady_state x {x_s.tolist()}, u {u_s.tolist()} is not an admissible "
            "steady state: it needs (x, u) in the box, f(x, u) = x and h(x, u) <= 0"
        )
    return SteadyState.at(model, x_s, u_s)


def parse_history(spec, model, ss, T: int) -> HistoryState:
    """Build the initial history from a shorthand or explicit columns."""
    if isinstance(spec, str):
        text = spec.strip()
        if text == "steady":
            return steady_history(ss.h_s, T)
        if text.startswith("constant:"):
            parts = _as_floats(text[len("constant:") :], "constant history")
            if len(parts) != model.n + model.m:
                raise ConfigError(
                    f"constant history needs {model.n + model.m} numbers (x then u)"
                )
            x_hat = np.array(parts[: model.n])
            u_hat = np.array(parts[model.n :])
            h_val = np.atleast_1d(np.asarray(model.h(x_hat, u_hat), dtype=float))
            return steady_history(h_val, T)
        # explicit columns: semicolons separate columns, commas entries; with
        # p = 1, one comma list without semicolons is the whole history row
        chunks = [col.split(",") for col in text.split(";") if col.strip()]
        cols = _as_floats(chunks, "history columns")
        if model.p > 1 or len(chunks) > 1:
            cols = cols.T
    else:  # a JSON list: the (p, T - 1) matrix, or its (T - 1, p) transpose
        cols = _as_floats(spec, "history columns")
        if cols.shape == (T - 1, model.p) and T - 1 != model.p:
            cols = cols.T  # accept row-per-step layout
    if cols.ndim == 1:
        cols = cols.reshape(1, -1) if model.p == 1 else cols.reshape(-1, 1)
    if cols.shape != (model.p, T - 1):
        raise ConfigError(
            f"history must have shape ({model.p}, {T - 1}), got {cols.shape}"
        )
    return HistoryState(columns=cols, T=T)


def load_config(
    path: Optional[str] = None,
    model_name: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> RunConfig:
    """Assemble a RunConfig from a JSON file and/or a builtin model name.

    overrides maps experiment keys to values (CLI flags); they replace
    the file's.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except (json.JSONDecodeError, RecursionError) as exc:  # too deep to decode
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("top-level configuration must be a JSON object")
        _reject_unknown(raw, ("model", "experiment", "solver"), "configuration sections")

    exp = {**_as_section(raw.get("experiment", {}), "experiment"), **(overrides or {})}
    solver = _as_section(raw.get("solver", {}), "solver")
    _reject_unknown(solver, [f.name for f in fields(SolverOptions)], "solver options")
    _reject_unknown(exp, EXPERIMENT_KEYS, "experiment keys")
    tols = {k: as_number(v, float, f"solver {k}") for k, v in solver.items()}
    options = SolverOptions(**tols)

    model_section = raw.get("model", {}) if model_name is None else model_name
    if isinstance(model_section, str):
        model_section = {"builtin": model_section}
    _reject_unknown(_as_section(model_section, "model"), MODEL_KEYS, "model keys")
    if "builtin" in model_section or not model_section:
        data = builtin_model_data(model_section.get("builtin", "mueller-koehler"))
        data.update({k: v for k, v in model_section.items() if k != "builtin"})
    else:
        data = model_section
    model, cert = _build_model(data)
    ss = _resolve_steady_state(model, data)
    validate_certificate(cert, ss)

    N = as_number(exp.get("N", 12), int, "experiment N")
    T = as_number(exp.get("T", 6), int, "experiment T")
    K = as_number(exp.get("K", 30), int, "experiment K")
    if T < 1:  # the history has T - 1 columns
        raise ConfigError(f"T must be >= 1, got T={T}")
    if K < 1:  # simulate's own K test raises a DomainError, not a ConfigError
        raise ConfigError(f"K must be >= 1, got K={K}")
    epsilon = as_number(exp.get("eps", 0.1), float, "experiment eps")
    try:
        cert.margin(epsilon)
    except DomainError as exc:
        raise ConfigError(f"experiment {exc}") from None
    x0 = ss.x_s.copy() if exp.get("x0") is None else _as_floats(exp["x0"], "experiment x0")
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=N, T=T, x0=x0,  # checks N >= T, x0 and H0
                   H0=parse_history(exp.get("history", "steady"), model, ss, T),
                   options=options)
    return RunConfig(
        model=model,
        cert=cert,
        ss=ss,
        N=N,
        T=T,
        K=K,
        x0=spec.x0,
        H0=spec.H0,
        options=options,
        epsilon=epsilon,
        ss_solved=data.get("steady_state") is None,
    )

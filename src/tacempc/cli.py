"""Command line front end.

Subcommands:

    steady-state   compute and print the optimal admissible steady state
    simulate       run the receding-horizon loop, emit trace.csv (+ SVG)
    turnpike       solve open-loop problems and print proximity reports
    check          run the built-in validation suite

Exit codes: 0 success, 1 configuration error or infeasible setup,
2 runtime solver failure (e.g. the loop became infeasible mid-run).
"""

from __future__ import annotations

import argparse
import os
import sys
import xml.etree.ElementTree as ET

import numpy as np

from .closedloop import ClosedLoopTrace, simulate
from .config import EXPERIMENT_KEYS, as_number, load_config
from .diagnostics import lyapunov_trace, turnpike_report
from .errors import ConfigError, DomainError, InfeasibleError, TacempcError
from .model import solve_steady_state
from .ocp import OcpSpec, solve
from .validation import run_all

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


# ---------------------------------------------------------------------------
# CSV / SVG emission


def csv_header(n: int, m: int, p: int) -> str:
    cols = ["k"]
    cols += [f"x_{i + 1}" for i in range(n)]
    cols += [f"u_{i + 1}" for i in range(m)]
    cols += [f"h_{i + 1}" for i in range(p)]
    cols += ["ell", "Jstar", "Jtildestar", "Hnorm", "What", "W"]
    return ",".join(cols)


def write_trace_csv(trace: ClosedLoopTrace, lt, path: str):
    """Emit the closed-loop trace; the W column is empty for the last
    T-1 rows (the forward sum needs steps beyond the trace)."""
    model = trace.specs[0].model
    lines = [csv_header(model.n, model.m, model.p)]
    for k in range(trace.K):
        row = [str(k)]
        row += [_fmt(v) for v in trace.x[k]]
        row += [_fmt(v) for v in trace.u[k]]
        row += [_fmt(v) for v in trace.h[k]]
        row.append(_fmt(trace.ell[k]))
        row.append(_fmt(trace.Jstar[k]))
        row.append(_fmt(trace.Jtildestar[k]))
        row.append(_fmt(trace.Hnorm[k]))
        row.append(_fmt(lt.What[k]) if lt is not None else "")
        if lt is not None and k < len(lt.W):
            row.append(_fmt(lt.W[k]))
        else:
            row.append("")
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def write_trace_svg(trace: ClosedLoopTrace, lt, path: str):
    """Line chart of the per-step series on a fixed 800x480 viewport; a
    run that halted before its first step gives the axes alone."""
    width, height = 800, 480
    mleft, mright, mtop, mbottom = 60, 20, 30, 40
    series = [
        ("Jstar", np.arange(trace.K), trace.Jstar[: trace.K]),
        ("Jtildestar", np.arange(trace.K), trace.Jtildestar[: trace.K]),
        ("Hnorm", np.arange(trace.K), trace.Hnorm),
    ]
    if lt is not None:
        series.append(("What", np.arange(len(lt.What)), lt.What))
        series.append(("W", np.arange(len(lt.W)), lt.W))
    ys = np.concatenate([s[2] for s in series])
    ys = ys[np.isfinite(ys)]  # Jtildestar and What are NaN after a failed rotated solve
    y_lo, y_hi = (float(np.min(ys)), float(np.max(ys))) if ys.size else (0.0, 1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    x_hi = max(trace.K - 1, 1)

    def sx(k):
        return mleft + (width - mleft - mright) * k / x_hi

    def sy(v):
        frac = (v - y_lo) / (y_hi - y_lo)
        return height - mbottom - (height - mtop - mbottom) * frac

    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(width),
        height=str(height),
        viewBox=f"0 0 {width} {height}",
    )
    ET.SubElement(root, "rect", x="0", y="0", width=str(width), height=str(height), fill="white")
    axes = (
        f"{mleft},{mtop} {mleft},{height - mbottom} {width - mright},{height - mbottom}"
    )
    ET.SubElement(root, "polyline", points=axes, fill="none", stroke="black")
    for idx, (name, ks, vals) in enumerate(series):
        if len(vals) == 0:
            continue
        pts = " ".join(f"{sx(k):.2f},{sy(v):.2f}" for k, v in zip(ks, vals) if np.isfinite(v))
        ET.SubElement(
            root, "polyline", points=pts, fill="none",
            stroke=_SVG_COLORS[idx % len(_SVG_COLORS)],
        ).set("data-series", name)
        label = ET.SubElement(
            root, "text", x=str(width - mright - 110),
            y=str(mtop + 16 * (idx + 1)),
            fill=_SVG_COLORS[idx % len(_SVG_COLORS)],
        )
        label.set("font-size", "12")
        label.text = name
    ET.ElementTree(root).write(path, encoding="unicode", xml_declaration=True)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_steady_state(args) -> int:
    cfg = load_config(args.config, args.model)
    ss = cfg.ss if cfg.ss_solved else solve_steady_state(cfg.model)
    print("x_s =", " ".join(_fmt(v) for v in ss.x_s))
    print("u_s =", " ".join(_fmt(v) for v in ss.u_s))
    print("ell_s =", _fmt(ss.ell_s))
    print("h_s =", " ".join(_fmt(v) for v in ss.h_s))
    return EXIT_OK


def _experiment_overrides(args) -> dict:
    """The experiment keys given as flags; a subcommand has only the flags it reads."""
    over = {}
    for key in EXPERIMENT_KEYS:
        if getattr(args, key, None) is not None:
            over[key] = getattr(args, key)
    return over


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.model, _experiment_overrides(args))
    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # such as a regular file at out_dir
        raise ConfigError(f"cannot create output directory: {exc}") from None
    trace = simulate(
        cfg.model, cfg.cert, cfg.ss, cfg.N, cfg.x0, cfg.H0, cfg.K,
        options=cfg.options,
    )
    spec = trace.specs[0]
    try:
        lt = lyapunov_trace(trace, spec.cert, spec.ss)
    except DomainError as exc:  # T < 2, or fewer than T steps applied
        lt = None
        print(f"note: {exc}; skipped")
    csv_path = os.path.join(out_dir, "trace.csv")
    write_trace_csv(trace, lt, csv_path)
    print(f"wrote {csv_path} ({trace.K} steps)")
    if args.svg:
        svg_path = os.path.join(out_dir, "chart.svg")
        write_trace_svg(trace, lt, svg_path)
        print(f"wrote {svg_path}")
    values = np.column_stack([trace.Jstar, trace.Jtildestar])
    unconverged = np.count_nonzero(~trace.converged & ~np.isnan(values))
    if unconverged:
        print(f"note: {unconverged} solves returned converged=False", file=sys.stderr)
    if trace.failure is not None:
        # the loop halted, or it applied every step and a later solve failed
        status = "halted early" if trace.K < cfg.K else "incomplete"
        print(f"simulation {status}: {trace.failure}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_turnpike(args) -> int:
    text = "10,12" if args.N is None else args.N  # an empty --N is an error, not the default
    horizons = [as_number(v, int, "turnpike N") for v in text.split(",")]
    cfg = load_config(args.config, args.model, {
        k: v for k, v in _experiment_overrides(args).items() if k != "N"
    } | {"N": max(horizons)})
    eps = cfg.epsilon
    # every horizon's spec is built, and so checked, before the first solve
    specs = [OcpSpec(model=cfg.model, cert=cfg.cert, ss=cfg.ss, N=N, T=cfg.T, x0=cfg.x0,
                     H0=cfg.H0, options=cfg.options) for N in horizons]
    for spec in specs:
        sol = solve(spec)
        if not sol.converged:
            print(f"note: N={spec.N}: solve returned converged=False", file=sys.stderr)
        rep = turnpike_report(sol, spec.ss, spec.cert, eps)
        print(f"N={spec.N} eps={_fmt(eps)}: Q={rep.Q}, "
              f"bound={_fmt(rep.lemma1_rhs)}, holds={rep.lemma1_holds}, "
              f"consecutive={list(rep.consecutive_set)}")
    return EXIT_OK


def cmd_check(args) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        print(f"{r.ident:>3}  {r.status:4}  {r.name:<{width}}  {r.detail}")
        if not r.passed:
            failed = True
    return EXIT_CONFIG if failed else EXIT_OK


# ---------------------------------------------------------------------------


_EXPERIMENT_FLAGS = {
    "N": {"help": "prediction horizon"},
    "T": {"type": int, "help": "constraint window length"},
    "K": {"type": int, "help": "closed-loop steps"},
    "x0": {"help": "initial state (comma separated)"},
    "history": {"help": 'initial history: "steady", "constant:x,u" or explicit columns'},
    "eps": {"type": float, "help": "proximity radius"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tacempc",
        description="Economic MPC with transient average constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *experiment):
        """--config, --model and the experiment flags the subcommand reads."""
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--model", help="builtin model name (e.g. mueller-koehler)")
        for key in experiment:
            p.add_argument(f"--{key}", **_EXPERIMENT_FLAGS[key])

    p_ss = sub.add_parser("steady-state", help="compute the optimal steady state")
    common(p_ss)
    p_ss.set_defaults(func=cmd_steady_state)

    p_sim = sub.add_parser("simulate", help="run the closed loop and write CSV")
    common(p_sim, "N", "T", "K", "x0", "history")
    p_sim.add_argument("--out", help="output directory (default: current)")
    p_sim.add_argument("--svg", action="store_true", help="also write chart.svg")
    p_sim.set_defaults(func=cmd_simulate)

    p_tp = sub.add_parser("turnpike", help="open-loop steady-state proximity reports")
    common(p_tp, "T", "x0", "history", "eps")
    p_tp.add_argument("--N", help="horizons, comma separated (default 10,12)")
    p_tp.set_defaults(func=cmd_turnpike)

    p_chk = sub.add_parser("check", help="run the built-in validation suite")
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TacempcError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

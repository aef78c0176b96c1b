"""tacempc benchmark: end-to-end latencies and a per-layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload mk-closed-loop --seed 0 --seconds 40 --trace 0

--trace 0  runs a fixed number of timed passes, --seconds divided by the
           workload's nominal pass time (about --seconds on a 2-core Xeon),
           and prints the end-to-end metrics (medians over passes and
           solves).  A fixed amount of work keeps the sample counts, and so
           the percentiles, the same from run to run.
--trace 1  runs pass 0 untraced, then again with every layer boundary
           wrapped, and prints the per-layer metrics and the tracing
           overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report with the environment stamp, the tail percentile and
sample counts, and the validation statuses.  Details are also written to
``.bench_out/<workload>/``.  The exit code is 0 when every correctness
gate holds, 1 when one fails, 2 when the library sources are missing.
BLAS thread pools are pinned to one thread before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# named here too, so that parsing arguments imports nothing from the library
WORKLOAD_NAMES = ("mk-closed-loop", "mk-open-loop", "pair-closed-loop")
LIBRARY_MODULES = (
    "tacempc", "tacempc.config", "tacempc.model", "tacempc.ocp",
    "tacempc.closedloop", "tacempc.diagnostics", "tacempc.cli",
)
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples above the reported tail percentile


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this fresh process and print it")
    return parser.parse_args(argv)


def setup_probe(workload: str) -> int:
    """Import the library, load the config and find the steady state."""
    start = time.perf_counter()
    for name in LIBRARY_MODULES:
        importlib.import_module(name)
    import workloads

    workloads.WORKLOADS[workload].setup()
    print(repr(time.perf_counter() - start))
    return 0


def measure_setup(workload: str) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def env_stamp() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(samples):
    """Highest percentile with TAIL_BEYOND samples above it: (value, pct, n).

    Never below the median, which it would be with fewer than
    2 * TAIL_BEYOND samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n


def run_untraced(wl, args, out_dir):
    from tracer import Recorder, instrument
    import workloads

    setup_times = measure_setup(wl.name)
    cfg, found, _ = wl.setup()
    gate = workloads.Gate()
    workloads.check_setup(cfg, found, gate)
    ctx = workloads.make_context(cfg)
    solve_ms, op_ms, pass_s = [], [], []
    start = time.perf_counter()
    for index in range(max(1, int(args.seconds // wl.nominal_pass_s))):
        if time.perf_counter() - start > 2 * args.seconds:
            break  # a much slower machine: keep the run within its time limit
        inputs = wl.inputs(ctx, args.seed, index)
        rec = Recorder()
        with instrument(rec):
            t0 = time.perf_counter()
            result = wl.run_pass(ctx, inputs, out_dir, gate, rec)
            pass_s.append(time.perf_counter() - t0)
        wl.check(result, rec, gate, wl.reference(args.seed, index))
        solve_ms += rec.solve_ms
        op_ms += rec.op_ms
    solve_tail, tail_pct, n_solves = tail(solve_ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(pass_s), "s"),
        "solve_p50_ms": (statistics.median(solve_ms), "ms"),
        "solve_tail_ms": (solve_tail, "ms"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "wall_s": f"median of {len(pass_s)} passes",
        "solve_p50_ms": f"{n_solves} solves",
        "solve_tail_ms": f"p{tail_pct:.1f} of {n_solves} solves",
        "op_p50_ms": f"{len(op_ms)} {'steps' if wl.closed_loop else 'solve+report'}",
    }
    details = {"passes": len(pass_s), "pass_s": pass_s, "setup_times_s": setup_times,
               "solve_tail_percentile": tail_pct, "solve_samples": n_solves,
               "op_samples": len(op_ms)}
    return metrics, notes, gate, details


def run_traced(wl, args, out_dir):
    from tracer import Recorder, Tracer, instrument
    import workloads

    cfg, found, timings = wl.setup()
    gate = workloads.Gate()
    workloads.check_setup(cfg, found, gate)
    ctx = workloads.make_context(cfg)
    inputs = wl.inputs(ctx, args.seed, 0)
    reference = wl.reference(args.seed, 0)

    rec = Recorder()
    with instrument(rec):
        t0 = time.perf_counter()
        result = wl.run_pass(ctx, inputs, out_dir, gate, rec)
        untraced_s = time.perf_counter() - t0
    wl.check(result, rec, gate, reference)

    tracer = Tracer()
    rec = Recorder()
    traced_ctx = ctx.traced(tracer)
    with instrument(rec, tracer):
        t0 = time.perf_counter()
        result = wl.run_pass(traced_ctx, inputs, out_dir, gate, rec)
        traced_s = time.perf_counter() - t0
    spans = {name: list(v) for name, v in tracer.spans.items()}
    counters = dict(tracer.counters)
    wl.check(result, rec, gate, reference)

    metrics = layer_metrics(spans, counters, rec, timings, traced_s, untraced_s,
                            tracer.top_level_s)
    notes = {"trace.overhead_s": f"traced {traced_s:.3f} s - untraced {untraced_s:.3f} s",
             "trace.attributed_share": "top-level spans / traced wall"}
    return metrics, notes, gate, {"spans": spans, "counters": counters}


def layer_metrics(spans, counters, rec, timings, traced_s, untraced_s, top_level_s):
    from tracer import CERT_CALLBACKS, MODEL_CALLBACKS

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    callbacks = MODEL_CALLBACKS + CERT_CALLBACKS
    cb = [f"model.cb.{n}" for n in callbacks]
    solve_calls = calls("ocp.solve.original") + calls("ocp.solve.rotated")
    minimize_calls = calls("nlp.minimize")
    m = {
        "config.load_s": (timings["config.load_s"], "s"),
        "model.steady_state_s": (timings["model.steady_state_s"], "s"),
        "model.cb_s": (sum(total(n) for n in cb), "s"),
        "model.cb.calls": (sum(calls(n) for n in cb), "count"),
    }
    for name in callbacks:
        m[f"model.cb.{name}.calls"] = (calls(f"model.cb.{name}"), "count")
        m[f"model.cb.{name}_s"] = (total(f"model.cb.{name}"), "s")
    m.update({
        "ocp.solve.calls": (solve_calls, "count"),
        "ocp.solve.original_s": (total("ocp.solve.original"), "s"),
        "ocp.solve.rotated_s": (total("ocp.solve.rotated"), "s"),
        "ocp.iterations": (sum(s.iterations for s in rec.solutions), "count"),
        "ocp.not_converged": (sum(not s.converged for s in rec.solutions), "count"),
        "ocp.self_s": (self_s("ocp.solve.original") + self_s("ocp.solve.rotated"), "s"),
        "ocp.eval.calls": (calls("ocp.eval"), "count"),
        "ocp.eval.self_s": (self_s("ocp.eval"), "s"),
        "nlp.minimize.calls": (minimize_calls, "count"),
        "nlp.nit": (counters.get("nlp.nit", 0), "count"),
        "nlp.nfev": (counters.get("nlp.nfev", 0), "count"),
        "nlp.self_s": (self_s("nlp.minimize"), "s"),
        "nlp.minimize_per_solve": (minimize_calls / max(solve_calls, 1), "ratio"),
        "nlp.nfev_per_nit": (counters.get("nlp.nfev", 0) / max(counters.get("nlp.nit", 0), 1),
                             "ratio"),
        "closedloop.step.calls": (calls("closedloop.step"), "count"),
        "closedloop.step_s": (total("closedloop.step"), "s"),
        "closedloop.self_s": (self_s("closedloop.simulate") + self_s("closedloop.step"), "s"),
        "diagnostics.turnpike_report_s": (total("diagnostics.turnpike_report"), "s"),
        "diagnostics.turnpike_report.calls": (calls("diagnostics.turnpike_report"), "count"),
        "diagnostics.lyapunov_trace_s": (total("diagnostics.lyapunov_trace"), "s"),
        "cli.write_s": (total("cli.write"), "s"),
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.attributed_share": (top_level_s / traced_s, "ratio"),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tacempc" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    env = env_stamp()
    run = run_traced if args.trace else run_untraced
    metrics, notes, gate, details = run(wl, args, out_dir)

    print(f"tacempc benchmark: workload={wl.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")
    print(f"  fail_ratio {gate.failed}/{gate.attempted} operations; "
          f"{gate.not_converged} solves returned converged=False")
    for ident, status in sorted(gate.statuses.items()):
        print(f"  check {ident:>3}: {status}")
    for problem in gate.problems:
        print(f"  FAILED: {problem}")

    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace, env=env,
                  not_converged=gate.not_converged, statuses=gate.statuses,
                  problems=gate.problems, details=details)
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())

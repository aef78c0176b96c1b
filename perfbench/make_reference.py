"""Write reference.json, the seed-0 references the correctness gates use.

Run only to re-baseline on purpose, from the repository root:

    python3 perfbench/make_reference.py

mk-closed-loop: ``validation.reference_trace`` (x, u, Jtildestar) and the
statuses of checks 10a-10d, 11 and 12 on it; 10a is the documented known
failure.  mk-open-loop: the objective of every pass-0 solve of seed 0.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tacempc import ocp, validation  # noqa: E402

import workloads  # noqa: E402


def main():
    trace = validation.reference_trace()
    checks = validation.check_closed_loop(trace) + [
        validation.check_window_constraints(trace),
        validation.check_practical_convergence(trace),
    ]
    cfg, _, _ = workloads.setup_mk()
    ctx = workloads.make_context(cfg)
    J = [
        ocp.solve(ocp.OcpSpec(model=cfg.model, cert=cfg.cert, ss=cfg.ss, N=N, T=T,
                              x0=x0, H0=H0, objective=ocp.ORIGINAL)).J
        for T, N, x0, H0 in workloads.open_loop_inputs(ctx, workloads.DEFAULT_SEED, 0)
    ]
    reference = {
        "mk-closed-loop": {
            "x": trace.x.tolist(),
            "u": trace.u.tolist(),
            "Jtildestar": trace.Jtildestar.tolist(),
            "statuses": {r.ident: r.status for r in checks},
        },
        "mk-open-loop": {"J": J},
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                         encoding="utf-8")


if __name__ == "__main__":
    main()

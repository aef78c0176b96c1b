"""The benchmark's seed-0 correctness gate, run on pass 0 of both workloads.

``perfbench/run.py`` rejects a run whose pass 0 of seed 0 leaves
``perfbench/reference.json``: on mk-closed-loop the reference trace's x, u
and Jtildestar must agree within ``workloads.TRACE_TOL`` and checks
10a-12 must keep their statuses; on mk-open-loop the objectives of the
nine sweep problems and of check 9's N=30 problem must agree within
``workloads.J_RTOL`` relative.  These tests run that pass and its gate
with the benchmark's own code, untimed, so a change that would fail the
benchmark fails here first.  They read the reference and never write it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from tracer import Recorder, instrument  # noqa: E402


@pytest.mark.parametrize("name, solves", [("mk-closed-loop", 62), ("mk-open-loop", 10)])
def test_seed_0_pass_meets_the_benchmark_gate(tmp_path, name, solves):
    wl = workloads.WORKLOADS[name]
    reference = wl.reference(workloads.DEFAULT_SEED, 0)
    assert reference is not None
    cfg, found, _ = wl.setup()
    gate = workloads.Gate()
    workloads.check_setup(cfg, found, gate)
    ctx = workloads.make_context(cfg)
    rec = Recorder()
    with instrument(rec):
        result = wl.run_pass(ctx, wl.inputs(ctx, workloads.DEFAULT_SEED, 0), tmp_path, gate, rec)
    wl.check(result, rec, gate, reference)
    assert gate.correct, gate.problems
    # the gate read every solve, and on the closed loop every pinned status
    assert len(rec.solutions) == solves
    assert sorted(gate.statuses) == (sorted(reference["statuses"]) if wl.closed_loop else [])

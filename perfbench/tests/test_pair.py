"""The pair model is two decoupled copies of the scalar model.

Each component of a pair closed loop must follow the scalar closed loop
started from that component's initial state and history row.

Seed 1 is a known exception: from x0 = 2.2252 the scalar solve of the
first step reports convergence at J = 36.63, while the pair solve reaches
J = 22.40 for that component; the single-shooting problem is not convex and
the scalar run stops at the worse local optimum.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import workloads  # noqa: E402
from tacempc import closedloop, config  # noqa: E402
from tacempc.history import HistoryState  # noqa: E402

K = 10
TOL = 1e-5


@pytest.mark.parametrize("seed", [
    2,
    pytest.param(1, marks=pytest.mark.xfail(
        strict=True, reason="scalar solve stops at a worse local optimum")),
])
def test_pair_components_match_scalar_runs(seed):
    cfg, found, _ = workloads.setup_pair()
    np.testing.assert_allclose(found.x_s, [2.0, 2.0], atol=1e-6)
    np.testing.assert_allclose(found.u_s, [1.0, 1.0], atol=1e-6)
    ctx = workloads.make_context(cfg)
    x0, H0 = workloads.closed_loop_inputs(ctx, seed=seed, index=0, pinned=False)
    assert x0[0] != x0[1]
    pair = closedloop.simulate(cfg.model, cfg.cert, cfg.ss, cfg.N, x0, H0, K)
    assert pair.completed, pair.failure

    mk = config.load_config(model_name="mueller-koehler")
    for i in range(2):
        H_i = HistoryState(columns=H0.columns[i : i + 1], T=H0.T)
        scalar = closedloop.simulate(mk.model, mk.cert, mk.ss, cfg.N, x0[i : i + 1], H_i, K)
        assert scalar.completed, scalar.failure
        np.testing.assert_allclose(pair.x[:, i], scalar.x[:, 0], rtol=0, atol=TOL)
        np.testing.assert_allclose(pair.u[:, i], scalar.u[:, 0], rtol=0, atol=TOL)

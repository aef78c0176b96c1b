import os
import time

# One BLAS thread, as in perfbench: with the default thread pool, a second
# process on the same cores made the sweep behind check 8 ten times slower,
# so the runtime budgets measured contention instead of the code.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
from hypothesis import settings

from tacempc.config import load_config
from tacempc.history import HistoryState
from tacempc.model import DissipativityCertificate, SteadyState, SystemModel
from tacempc.validation import reference_trace

# Property tests draw the same examples on every run (no example database,
# no per-example deadline): results depend on the code, not on the clock.
settings.register_profile("tacempc", derandomize=True, deadline=None, database=None)
settings.load_profile("tacempc")


@pytest.fixture(scope="session")
def builtin():
    cfg = load_config(model_name="mueller-koehler")
    return cfg.model, cfg.cert, cfg.ss


@pytest.fixture(scope="session")
def pair():
    """Two decoupled copies of the builtin model: n = m = p = 2."""
    model = SystemModel.from_expressions(
        2, 2, ["x1 * u1", "x2 * u2"], "(x1 - 3)^2 + u1^2 + (x2 - 3)^2 + u2^2",
        ["2*x1 + u1 - 5", "2*x2 + u2 - 5"], [-10.0] * 4, [10.0] * 4,
    )
    cert = DissipativityCertificate.from_expression(
        2, "1.5 * (x1 - 2) + 1.5 * (x2 - 2)", [1.0, 1.0], 0.25, 2.0, 3.0
    )
    return model, cert, SteadyState.at(model, [2.0, 2.0], [1.0, 1.0])


@pytest.fixture(scope="session")
def fig_history():
    """Mixed initial history used by the bundled closed-loop experiment."""
    return HistoryState(np.array([[-2.0, -2.0, -2.0, -2.0, -1.0]]), T=6)


@pytest.fixture(scope="session")
def _reference_run():
    start = time.perf_counter()
    trace = reference_trace()
    return trace, time.perf_counter() - start


@pytest.fixture(scope="session")
def closed_loop_trace(_reference_run):
    """The 30-step reference run; shared because it is the expensive part."""
    return _reference_run[0]


@pytest.fixture(scope="session")
def closed_loop_runtime(_reference_run):
    return _reference_run[1]

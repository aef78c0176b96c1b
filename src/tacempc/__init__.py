"""Economic MPC with transient average constraints.

Library for receding-horizon economic control of discrete-time systems
subject to moving-window (transient average) constraints on auxiliary
outputs, without terminal constraints.  Includes the optimal control
problem solver, closed-loop simulation, turnpike and Lyapunov
diagnostics, and a command line interface.

Expression nodes and the records that hold arrays or callables compare
and hash by identity; the records of plain values (``SolverOptions``,
``TurnpikeReport``, ``CheckResult``) compare by value.
"""

from .errors import (
    ConfigError,
    DomainError,
    InfeasibleError,
    TacempcError,
)
from .exprlang import EvalError, ExprSyntaxError
from .history import (
    HistoryState,
    iss_function,
    norm_replacement,
    shift_update,
    steady_history,
)
from .model import (
    DissipativityCertificate,
    SteadyState,
    SystemModel,
    check_dissipativity_grid,
    eval_rotated_stage_cost,
    min_weighted_output,
    solve_steady_state,
    validate_certificate,
)
from .ocp import (
    ORIGINAL,
    ROTATED,
    OcpSolution,
    OcpSpec,
    SolverOptions,
    solve,
)

__all__ = [
    "ConfigError",
    "DomainError",
    "EvalError",
    "ExprSyntaxError",
    "InfeasibleError",
    "TacempcError",
    "HistoryState",
    "iss_function",
    "norm_replacement",
    "shift_update",
    "steady_history",
    "DissipativityCertificate",
    "SteadyState",
    "SystemModel",
    "check_dissipativity_grid",
    "eval_rotated_stage_cost",
    "min_weighted_output",
    "solve_steady_state",
    "validate_certificate",
    "ORIGINAL",
    "ROTATED",
    "OcpSolution",
    "OcpSpec",
    "SolverOptions",
    "solve",
]

__version__ = "0.1.0"

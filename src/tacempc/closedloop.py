"""Receding-horizon loop: solve, apply the first input, shift the history.

Each step solves the optimal control problem twice at the current
extended state (x, H): once with the plain economic objective, whose
first input is applied to the plant, and once with the rotated
objective, which feeds the Lyapunov diagnostics.  Warm starts are the
previous optimal sequence shifted by one with u_s appended.

Both solves of a step, and the pair at the terminal state, are built
by ``_solve_pair``.  The loop keeps three records, the states, the
histories and each step's ``StepDiagnostics``, and builds every series
of the trace from them once it ends.  The closed-loop window sums reuse
the window operator of ``history``.  The trace holds the applied states
and inputs, from which ``model.eval_rotated_stage_cost`` gives the
rotated stage costs in one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, InfeasibleError
from .history import HistoryState, deviation_norm_replacement, shift_update, window_rows
from .model import DissipativityCertificate, SteadyState, SystemModel
from .ocp import ORIGINAL, ROTATED, OcpSolution, OcpSpec, SolverOptions, solve


@dataclass(frozen=True)
class StepDiagnostics:
    """Both per-step solves plus the realized stage quantities."""

    original: OcpSolution
    rotated: OcpSolution
    ell: float
    h: np.ndarray


def _solve_pair(model, cert, ss, N, x, H, options, ws_orig, ws_rot):
    """Solve the original and the rotated problem at (x, H), in that order."""
    common = dict(model=model, cert=cert, ss=ss, N=N, T=H.T, x0=x, H0=H, options=options)
    return (
        solve(OcpSpec(objective=ORIGINAL, warm_start=ws_orig, **common)),
        solve(OcpSpec(objective=ROTATED, warm_start=ws_rot, **common)),
    )


def step(
    model: SystemModel,
    cert: DissipativityCertificate,
    ss: SteadyState,
    N: int,
    state: Tuple[np.ndarray, HistoryState],
    options: SolverOptions = SolverOptions(),
    warm_start_original=None,
    warm_start_rotated=None,
):
    """One receding-horizon step from the extended state (x, H).

    Returns (u_applied, (x_next, H_next), diagnostics).  Raises
    InfeasibleError when no admissible input sequence is found.
    """
    x, H = state
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sol_orig, sol_rot = _solve_pair(
        model, cert, ss, N, x, H, options, warm_start_original, warm_start_rotated
    )
    u_applied = sol_orig.u[0].copy()
    x_next = np.atleast_1d(np.asarray(model.f(x, u_applied), dtype=float))
    h_now = np.atleast_1d(np.asarray(model.h(x, u_applied), dtype=float))
    H_next = shift_update(H, h_now)
    diag = StepDiagnostics(
        original=sol_orig,
        rotated=sol_rot,
        ell=float(model.ell(x, u_applied)),
        h=h_now,
    )
    return u_applied, (x_next, H_next), diag


@dataclass(frozen=True)
class ClosedLoopTrace:
    """Record of a closed-loop run of K applied steps.

    Arrays are indexed by the step k.  States and histories have one
    extra entry for the terminal extended state; the value arrays Jstar
    and Jtildestar also cover the terminal state when the run completed
    (a final pair of solves evaluates them there), so their length is
    K + 1 on success and K after an infeasible halt.
    """

    model: SystemModel
    cert: DissipativityCertificate
    ss: SteadyState
    N: int
    T: int
    K: int  # completed steps
    x: np.ndarray  # (K + 1, n)
    u: np.ndarray  # (K, m)
    h: np.ndarray  # (K, p)
    ell: np.ndarray  # (K,)
    Jstar: np.ndarray  # (K + 1,) or (K,) after a halt
    Jtildestar: np.ndarray  # same length as Jstar
    Hnorm: np.ndarray  # (K,), norm-replacement of H(k) - H^s
    histories: Tuple[HistoryState, ...]  # length K + 1
    failure: Optional[str] = None  # set when the loop halted early

    @property
    def completed(self) -> bool:
        return self.failure is None


def simulate(
    model: SystemModel,
    cert: DissipativityCertificate,
    ss: SteadyState,
    N: int,
    x0,
    H0: HistoryState,
    K: int,
    options: SolverOptions = SolverOptions(),
) -> ClosedLoopTrace:
    """Run K receding-horizon steps from (x0, H0).

    An infeasible step does not raise: the trace collected so far is
    returned with ``failure`` describing the halt, so callers can
    inspect how far the loop got.
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    xs, histories, diags = [np.array(x0, dtype=float, ndmin=1)], [H0], []
    warm = [None, None]
    failure = None
    for k in range(K):
        try:
            _, (x, H), diag = step(model, cert, ss, N, (xs[-1], histories[-1]), options, *warm)
        except InfeasibleError as exc:
            failure = f"step {k}: {exc}"
            break
        xs.append(x.copy())
        histories.append(H)
        diags.append(diag)
        warm = [np.vstack([sol.u[1:], ss.u_s[None]]) for sol in (diag.original, diag.rotated)]

    pairs = [(diag.original, diag.rotated) for diag in diags]
    if failure is None:
        # value functions at the terminal extended state, for the
        # performance residual r(K)
        try:
            pairs.append(_solve_pair(model, cert, ss, N, xs[-1], histories[-1], options, *warm))
        except InfeasibleError as exc:
            failure = f"terminal evaluation: {exc}"

    done = len(diags)
    return ClosedLoopTrace(
        model=model,
        cert=cert,
        ss=ss,
        N=N,
        T=H0.T,
        K=done,
        x=np.array(xs),
        u=np.array([diag.original.u[0] for diag in diags]).reshape(done, model.m),
        h=np.array([diag.h for diag in diags]).reshape(done, model.p),
        ell=np.array([diag.ell for diag in diags]),
        Jstar=np.array([orig.J for orig, _ in pairs]),
        Jtildestar=np.array([rot.J for _, rot in pairs]),
        Hnorm=np.array([deviation_norm_replacement(H, ss.h_s) for H in histories[:done]]),
        histories=tuple(histories),
        failure=failure,
    )


def window_sums(trace: ClosedLoopTrace) -> np.ndarray:
    """Length-T window sums of h along the closed loop, one row per window.

    Windows overlapping the initial history use the stored columns of
    H0, so row i is the sum over steps i - (T-1) .. i with negative
    indices read from the history.  Shape (K, p).
    """
    return window_rows(trace.h, trace.T, trace.histories[0].tail_sums)


def performance_residual(trace: ClosedLoopTrace) -> np.ndarray:
    """Residual r(K) = Jcl_K - [J*(chi(0)) - J*(chi(K))] - K * ell_s, with
    Jcl_K the closed-loop cost, the sum of ell over the first K steps.

    Returns the series for K = 1 .. number of steps the value function
    was evaluated at; r(K)/K estimates the horizon-dependent per-step
    suboptimality.
    """
    ks = np.arange(1, len(trace.Jstar))  # len(Jstar) is K + 1 on success
    Jcl = np.cumsum(trace.ell)
    return Jcl[ks - 1] - (trace.Jstar[0] - trace.Jstar[ks]) - ks * trace.ss.ell_s

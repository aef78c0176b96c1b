"""Receding-horizon loop: solve, apply the first input, shift the history.

Each step solves the economic (original) problem once at the extended
state (x, H) and reads the applied step from its rollout: the next state,
output and stage cost are ``x_pred[1]``, ``h_pred[0]`` and
``ell_pred[0]``, so the loop calls no model callback.  After the loop the
original problem is solved at the terminal state, and the rotated one,
which feeds only the Lyapunov diagnostics, along the recorded states.
Each chain of solves is warm-started from its previous solution shifted
by one with u_s appended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, InfeasibleError
from .history import HistoryState, deviation_norm_replacement, shift_update, window_rows
from .model import DissipativityCertificate, SteadyState, SystemModel
from .ocp import ORIGINAL, ROTATED, OcpSpec, SolverOptions, solve


def _solve_at(objective, model, cert, ss, N, state, options, warm_start):
    x, H = state
    return solve(OcpSpec(model=model, cert=cert, ss=ss, N=N, T=H.T, x0=x, H0=H,
                         objective=objective, options=options, warm_start=warm_start))


def _shifted(sol, ss):
    return np.vstack([sol.u[1:], ss.u_s[None]])


def step(
    model: SystemModel,
    cert: DissipativityCertificate,
    ss: SteadyState,
    N: int,
    state: Tuple[np.ndarray, HistoryState],
    options: SolverOptions = SolverOptions(),
    warm_start=None,
):
    """One original solve at (x, H).  Returns (u_applied, (x_next, H_next),
    solution) with x_next and the output shifted into H_next read from its
    rollout.  Raises InfeasibleError when no admissible input is found."""
    sol = _solve_at(ORIGINAL, model, cert, ss, N, state, options, warm_start)
    return sol.u[0].copy(), (sol.x_pred[1].copy(), shift_update(state[1], sol.h_pred[0])), sol


def _rotated_values(model, cert, ss, N, states, options):
    """(values, converged, failure) of the rotated solves along the states;
    one infeasible at state j leaves values[j:] NaN and converged[j:] False."""
    values, converged = np.full(len(states), np.nan), np.zeros(len(states), dtype=bool)
    warm = None
    for j, state in enumerate(states):
        try:
            sol = _solve_at(ROTATED, model, cert, ss, N, state, options, warm)
        except InfeasibleError as exc:
            return values, converged, f"rotated value at step {j}: {exc}"
        values[j], converged[j], warm = sol.J, sol.converged, _shifted(sol, ss)
    return values, converged, None


@dataclass(frozen=True)
class ClosedLoopTrace:
    """Record of a closed-loop run of K applied steps.

    Arrays are indexed by the step k.  States and histories have one
    extra entry for the terminal extended state; the value arrays Jstar
    and Jtildestar also cover the terminal state unless the loop halted
    (a final original solve evaluates it), so their length is K + 1, or K
    after a halt.  Jtildestar comes from rotated solves run
    after the loop; one infeasible at state j leaves Jtildestar[j:] NaN
    and sets ``failure``, while the applied series cover the whole run.
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
    converged: np.ndarray  # (len(Jstar), 2) bool: original, rotated solve
    Hnorm: np.ndarray  # (K,), norm-replacement of H(k) - H^s
    histories: Tuple[HistoryState, ...]  # length K + 1
    failure: Optional[str] = None  # set when the loop halted or a rotated solve failed

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
    """Run K receding-horizon steps from (x0, H0), then the terminal
    original solve and the rotated solves along the recorded states.

    An infeasible solve does not raise: the trace is returned with
    ``failure`` naming it, the loop's halt before a rotated failure.
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    xs, histories, sols = [np.array(x0, dtype=float, ndmin=1)], [H0], []
    warm = failure = None
    for k in range(K):
        try:
            _, (x, H), sol = step(model, cert, ss, N, (xs[-1], histories[-1]), options, warm)
        except InfeasibleError as exc:
            failure = f"step {k}: {exc}"
            break
        xs.append(x)
        histories.append(H)
        sols.append(sol)
        warm = _shifted(sol, ss)

    done = len(sols)
    if failure is None:
        # the value function at the terminal state, for the residual r(K)
        try:
            sols.append(_solve_at(ORIGINAL, model, cert, ss, N, (xs[-1], histories[-1]), options, warm))
        except InfeasibleError as exc:
            failure = f"terminal evaluation: {exc}"
    Jtildestar, rotated_converged, rotated_failure = _rotated_values(
        model, cert, ss, N, list(zip(xs, histories))[: len(sols)], options)

    return ClosedLoopTrace(
        model=model, cert=cert, ss=ss, N=N, T=H0.T, K=done,
        x=np.array(xs),
        u=np.array([sol.u[0] for sol in sols[:done]]).reshape(done, model.m),
        h=np.array([sol.h_pred[0] for sol in sols[:done]]).reshape(done, model.p),
        ell=np.array([sol.ell_pred[0] for sol in sols[:done]]),
        Jstar=np.array([sol.J for sol in sols]),
        Jtildestar=Jtildestar,
        converged=np.column_stack([np.array([sol.converged for sol in sols], bool), rotated_converged]),
        Hnorm=np.array([deviation_norm_replacement(H, ss.h_s) for H in histories[:done]]),
        histories=tuple(histories),
        failure=failure or rotated_failure,
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
    was evaluated at, empty for a run halted at step 0 or 1; r(K)/K
    estimates the horizon-dependent per-step suboptimality.
    """
    ks = np.arange(1, len(trace.Jstar))  # len(Jstar) is K + 1 on success
    Jcl = np.cumsum(trace.ell)
    # Jstar[:1], not Jstar[0]: a run halted at step 0 has no J*(chi(0))
    return Jcl[ks - 1] - (trace.Jstar[:1] - trace.Jstar[ks]) - ks * trace.ss.ell_s

"""Receding-horizon loop: solve, apply the first input, shift the history.

The controller's state between steps is the ``OcpSpec`` of the next
solve: every datum but the extended state (x, H) and the warm start is
shared by all the solves of a run.  ``step`` solves one spec and reads
the next from its rollout: the next state and the output shifted into H
are ``x_pred[1]`` and ``h_pred[0]``, so the loop calls no model
callback.  After the loop the original problem is solved at the terminal
spec, and the rotated one, which feeds only the Lyapunov diagnostics,
once at each recorded spec from ``solve``'s own start: each rotated
value is a function of its extended state alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, InfeasibleError
from .history import HistoryState, norm_replacement, shift_update, window_rows
from .model import DissipativityCertificate, SteadyState, SystemModel
from .ocp import ROTATED, OcpSolution, OcpSpec, SolverOptions, solve


def step(spec: OcpSpec) -> Tuple[OcpSolution, OcpSpec]:
    """One solve of spec.  Returns (solution, next_spec): next_spec is spec
    at the applied step's state and history, read from the rollout, and
    warm-started from the solution shifted by one with u_s appended.
    Raises InfeasibleError when no admissible input is found."""
    sol = solve(spec)
    return sol, replace(spec, x0=sol.x_pred[1], H0=shift_update(spec.H0, sol.h_pred[0]),
                        warm_start=np.vstack([sol.u[1:], spec.ss.u_s[None]]))


def _rotated_values(specs):
    """(values, converged, failure) of one cold rotated solve per spec; an
    infeasible one at j leaves values[j] NaN and converged[j] False, and
    failure names the first."""
    values, converged = np.full(len(specs), np.nan), np.zeros(len(specs), dtype=bool)
    failure = None
    for j, spec in enumerate(specs):
        try:
            sol = solve(replace(spec, objective=ROTATED, warm_start=None))
        except InfeasibleError as exc:
            failure = failure or f"rotated value at step {j}: {exc}"
        else:
            values[j], converged[j] = sol.J, sol.converged
    return values, converged, failure


@dataclass(frozen=True, eq=False)
class ClosedLoopTrace:
    """Record of a closed-loop run of K applied steps.

    Arrays are indexed by the step k.  States and histories have one
    extra entry for the terminal extended state; the value arrays Jstar
    and Jtildestar also cover the terminal state unless the loop halted
    (a final original solve evaluates it), so their length is K + 1, or K
    after a halt.  Jtildestar comes from one rotated solve per state,
    run after the loop; one infeasible at state j leaves Jtildestar[j]
    NaN and sets ``failure``.
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
    original solve and the rotated solves along the recorded specs.

    The first spec is built, and so validated, before any solve; each
    ``step`` maps it to the next.  An infeasible solve does not raise:
    the trace is returned with ``failure`` naming it, the loop's halt
    before a rotated failure.
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    specs = [OcpSpec(model=model, cert=cert, ss=ss, N=N, T=H0.T, x0=x0, H0=H0, options=options)]
    sols, failure = [], None
    for k in range(K):
        try:
            sol, spec = step(specs[-1])
        except InfeasibleError as exc:
            failure = f"step {k}: {exc}"
            break
        sols.append(sol)
        specs.append(spec)

    done = len(sols)
    if failure is None:
        # the value function at the terminal state, for the residual r(K)
        try:
            sols.append(solve(specs[-1]))
        except InfeasibleError as exc:
            failure = f"terminal evaluation: {exc}"
    Jtildestar, rotated_converged, rotated_failure = _rotated_values(specs[: len(sols)])
    histories = tuple(spec.H0 for spec in specs)

    return ClosedLoopTrace(
        model=model, cert=cert, ss=ss, N=N, T=H0.T, K=done,
        x=np.array([spec.x0 for spec in specs]),
        u=np.array([sol.u[0] for sol in sols[:done]]).reshape(done, model.m),
        h=np.array([sol.h_pred[0] for sol in sols[:done]]).reshape(done, model.p),
        ell=np.array([sol.ell_pred[0] for sol in sols[:done]]),
        Jstar=np.array([sol.J for sol in sols]),
        Jtildestar=Jtildestar,
        converged=np.column_stack([np.array([sol.converged for sol in sols], bool), rotated_converged]),
        Hnorm=np.array([norm_replacement(H, ss.h_s) for H in histories[:done]]),
        histories=histories,
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

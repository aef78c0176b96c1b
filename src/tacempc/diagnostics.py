"""Turnpike statistics and Lyapunov-function diagnostics.

Turnpike reports count how many predicted time instants lie in an
epsilon ball around the optimal steady-state and check the lower bound
on that count implied by the dissipation margin.  Lyapunov diagnostics
combine the rotated value function with the weighted history deviation
into the per-step function What and its T-step forward sum W, which is
practically decreasing along the closed loop even when the rotated
value function alone is not; ``decrease_check`` is the one test of that
property, for W and for any other series.  The box constants of the
bound, theta_low and sup |lam|, are ``model.min_weighted_output`` and
``model.storage_sup``, searched once per (model, certificate) pair; its
divisor rho(epsilon) is ``DissipativityCertificate.margin``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .closedloop import ClosedLoopTrace
from .errors import DomainError
from .history import iss_function, window_deficit, window_rows
from .model import DissipativityCertificate, SteadyState, min_weighted_output, storage_sup
from .ocp import OcpSolution

_DECREASE_TOL = 1e-3  # largest one-step increase of a practically decreasing series


@dataclass(frozen=True)
class TurnpikeReport:
    """Steady-state proximity statistics of one open-loop solution."""

    epsilon: float
    proximity_set: Tuple[int, ...]  # sorted k with (x(k), u(k)) near (x_s, u_s)
    Q: int
    consecutive_set: Tuple[int, ...]  # k_x ending T consecutive proximate instants
    lemma1_rhs: float  # N - C' / rho(epsilon)
    C: float  # 2 * sup |lam| over the state box
    C_prime: float  # delta + C - k_{T,N} * theta_low
    delta: float  # realized cost excess J_N - N * ell_s
    theta_low: float  # min over Z of lambda_bar . h

    @property
    def lemma1_holds(self) -> bool:
        """True when the bound is informative (rhs > 0) and satisfied,
        and vacuously when it is uninformative."""
        return self.lemma1_rhs <= 0 or self.Q >= self.lemma1_rhs


@lru_cache(maxsize=8)
def _box_constants(model, cert) -> Tuple[float, float]:
    """C = 2 sup |lam| and theta_low of a model and certificate, which
    hash by identity: two box searches, made on a pair's first report."""
    return 2.0 * storage_sup(model, cert), min_weighted_output(model, cert)


def turnpike_report(
    solution: OcpSolution,
    ss: SteadyState,
    cert: DissipativityCertificate,
    epsilon: float,
) -> TurnpikeReport:
    """Proximity count Q, the consecutive-window detector and the
    dissipativity-based lower bound Q >= N - C'/rho(epsilon).

    Proximity uses the Euclidean norm of the stacked deviation
    (x(k) - x_s, u(k) - u_s); delta is the realized excess of the plain
    economic cost over N * ell_s for this solution, the sum of the stage
    costs its rollout evaluated (``ell_pred``).
    """
    rho = cert.margin(epsilon)
    spec = solution.spec
    model, N, T = spec.model, spec.N, spec.T
    dev = np.hstack([solution.x_pred[:N] - ss.x_s, solution.u - ss.u_s])
    dist = np.linalg.norm(dev, axis=1)
    proximate = dist <= epsilon
    proximity_set = tuple(int(k) for k in np.nonzero(proximate)[0])
    # k ends T consecutive proximate instants iff the window ending at k
    # counts T of them (sums of 0s and 1s are exact)
    consecutive_set = tuple(int(k) for k in np.nonzero(window_rows(proximate, T) == T)[0])

    delta = float(np.sum(solution.ell_pred)) - N * ss.ell_s
    C, theta_low = _box_constants(model, cert)
    C_prime = delta + C - window_deficit(N, T) * theta_low
    rhs = N - C_prime / rho
    return TurnpikeReport(
        epsilon=float(epsilon),
        proximity_set=proximity_set,
        Q=len(proximity_set),
        consecutive_set=consecutive_set,
        lemma1_rhs=rhs,
        C=C,
        C_prime=C_prime,
        delta=delta,
        theta_low=theta_low,
    )


@dataclass(frozen=True, eq=False)
class LyapunovTrace:
    """Per-step Lyapunov quantities along a closed-loop trace.

    What(k) = Jtildestar(k) + c * V(k) with V the omega-weighted history
    deviation; W(k) sums What over the next T steps and is defined for
    k = 0 .. len(What) - T.
    """

    c: float
    V: np.ndarray  # weighted history deviation per step
    What: np.ndarray
    W: np.ndarray


def lyapunov_trace(
    trace: ClosedLoopTrace,
    cert: DissipativityCertificate,
    ss: SteadyState,
) -> LyapunovTrace:
    """Build What and its T-step forward sum W from a recorded run."""
    spec, K = trace.specs[0], trace.K
    T, n, m = spec.T, spec.model.n, spec.model.m
    if T < 2:
        raise DomainError("Lyapunov diagnostics require T >= 2")
    if K < T:
        raise DomainError(f"Lyapunov diagnostics require at least T = {T} applied steps, got {K}")
    c = cert.a * (n + m) ** (-0.5 * cert.omega) / (2.0 * cert.L_h * (T - 1))
    V = np.array([iss_function(s.H0, ss.h_s, cert.omega) for s in trace.specs[:K]])
    What = trace.Jtildestar[:K] + c * V
    W = window_rows(What, T)[T - 1 :]  # the full windows
    return LyapunovTrace(c=c, V=V, What=What, W=W)


def decrease_check(series):
    """Largest one-step increase of a series and whether it stays within
    ``_DECREASE_TOL``: the practical-decrease test for W (which passes it on
    the closed loop) and for the rotated value function (which does not)."""
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise DomainError("empty series")
    if series.size == 1:
        return 0.0, True
    max_increase = float(np.max(np.diff(series)))
    return max_increase, max_increase <= _DECREASE_TOL


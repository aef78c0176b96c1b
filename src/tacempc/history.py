"""Sliding history of auxiliary outputs and the measures defined on it.

The window constraints straddle past and future, so the controller state
is extended by the matrix H of the last T-1 auxiliary outputs (oldest
column first).  This module implements the shift update, the sign-aware
norm-replacement, the ISS-style weighted deviation sum, and the bound the
stored history imposes on the next N predicted outputs.

It also holds the one implementation of the transient-average windows
(``Windows``, and ``window_rows`` for one call), shared by the solver's
constraint assembly (``ocp``), the closed-loop record
(``closedloop.window_sums``), the Lyapunov windows and the turnpike
report's runs of proximate instants (``diagnostics``), and of the steady
history H^s (``steady_history``).  A window sum is one subtraction of two
row blocks of a padded cumulative sum whose head rows hold the negated
history tail sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class HistoryState:
    """Immutable p x (T-1) history matrix, oldest column first.

    For T = 1 the column matrix is empty (shape (p, 0)).
    """

    columns: np.ndarray  # (p, T - 1)
    T: int

    def __post_init__(self):
        cols = np.atleast_2d(np.asarray(self.columns, dtype=float))
        if self.T < 1:
            raise DomainError("period T must be >= 1")
        if cols.shape[1] != self.T - 1:
            raise DomainError(
                f"history must have T-1 = {self.T - 1} columns, got {cols.shape[1]}"
            )
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def p(self) -> int:
        return self.columns.shape[0]

    @cached_property
    def tail_sums(self) -> np.ndarray:
        """Row j-1 sums columns H_j..H_{T-1}: the history part of the
        window anchored at j; shape (T-1, p), computed once."""
        sums = np.empty((self.T - 1, self.p))
        for j in range(1, self.T):
            sums[j - 1] = np.sum(self.columns[:, j - 1 :], axis=1)
        sums.setflags(write=False)
        return sums


def steady_history(h_s, T: int) -> HistoryState:
    """History with every column equal to h_s: the steady history H^s when
    h_s is the steady-state output, a constant history otherwise."""
    h_s = np.atleast_1d(np.asarray(h_s, dtype=float))
    return HistoryState(columns=np.tile(h_s.reshape(-1, 1), (1, T - 1)), T=T)


def shift_update(H: HistoryState, h_new) -> HistoryState:
    """Drop the oldest column and append h_new; identity for T = 1."""
    if H.T == 1:
        return H
    h_new = np.atleast_1d(np.asarray(h_new, dtype=float))
    columns = np.column_stack([H.columns[:, 1:], h_new])
    return HistoryState(columns=columns, T=H.T)


def norm_replacement(H: HistoryState, h_s) -> float:
    """Sign-aware substitute for a norm of H - H^s, H^s the steady history
    of h_s: the maximum over columns of the summed positive parts.

    Zero iff every entry of H - H^s is <= 0; zero when T = 1.
    """
    if H.T == 1:
        return 0.0
    h_s = np.atleast_1d(np.asarray(h_s, dtype=float))
    return float(np.max(np.sum(np.maximum(H.columns - h_s.reshape(-1, 1), 0.0), axis=0)))


def iss_function(H: HistoryState, h_s, kappa: float) -> float:
    """Weighted history deviation sum_{i=1}^{T-1} i * ||H_i - h_s||_1^kappa.

    Certifies that the history forgets its past at a rate driven by the
    closed-loop output deviation (sandwich and decrease inequalities).
    """
    if H.T < 2:
        raise DomainError("iss_function requires T >= 2 (nonempty history)")
    h_s = np.atleast_1d(np.asarray(h_s, dtype=float))
    dev = np.sum(np.abs(H.columns - h_s.reshape(-1, 1)), axis=0)  # column 1-norms
    weights = np.arange(1, H.T)
    return float(np.sum(weights * dev**kappa))


_accumulate = np.add.accumulate


class Windows:
    """Length-T window sums of N per-step values (N, *shape): two operations.

    The buffer ``pad`` (T + N, *shape) holds the rows [-head; 0; cum]: the
    T - 1 history tail sums ``head`` negated, once (zeros without a head),
    a zero row, and the running sums cum of the values, which each call
    rewrites.  The windows are pad[T:] - pad[:N]: row k < T - 1 is the
    partial window anchored at j = k + 1, cum_k - (-head_k), which is
    cum_k + head_k bit for bit; row T - 1 is the first full window
    cum_{T-1} - 0.0; row k >= T is cum_k - cum_{k-T}.  Any N >= 0 works:
    for N < T only partial windows exist.
    """

    __slots__ = ("pad", "_cum", "_older")

    def __init__(self, N: int, T: int, head=None, shape=()):
        self.pad = np.zeros((T + N, *shape))
        if head is not None:
            np.negative(head, out=self.pad[: T - 1])
        self._cum, self._older = self.pad[T:], self.pad[:N]

    def __call__(self, values, out=None) -> np.ndarray:
        """The N window rows of values (N, *shape), written into out if given."""
        _accumulate(values, axis=0, out=self._cum)  # cumsum, without its argument handling
        return np.subtract(self._cum, self._older, out=out)


def window_rows(values, T: int, head=None) -> np.ndarray:
    """Length-T window sums of the per-step values (N, ...), one row per step.

    Row k < T - 1 is the partial window anchored at j = k + 1, plus the
    history tail sums ``head`` when given; the other rows are the full
    windows starting at i = 0..N-T.  One ``Windows`` call on a fresh
    padded buffer: a cumulative sum and one subtraction.
    """
    values = np.asarray(values, dtype=float)
    return Windows(len(values), T, head, values.shape[1:])(values)


def window_deficit(N: int, T: int) -> int:
    """ceil(N/T)*T - N: predicted steps missing to complete full periods."""
    return math.ceil(N / T) * T - N


def eq6_rhs(H: HistoryState, N: int) -> np.ndarray:
    """Bound on the sum of the next N predicted outputs implied by H.

    Equals minus the sum of the window_deficit(N, T) newest history
    columns; the zero vector when N is a multiple of T.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    k = window_deficit(N, H.T)
    assert 0 <= k <= H.T - 1
    if k == 0:
        return np.zeros(H.p)
    return -H.tail_sums[H.T - 1 - k]

"""Sliding history of auxiliary outputs and the measures defined on it.

The window constraints straddle past and future, so the controller state
is extended by the matrix H of the last T-1 auxiliary outputs (oldest
column first).  This module implements the shift update, the sign-aware
norm-replacement, the ISS-style weighted deviation sum, and the bound the
stored history imposes on the next N predicted outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class HistoryState:
    """Immutable p x (T-1) history matrix, oldest column first.

    For T = 1 the column matrix is empty (shape (p, 0)).  Optional bounds
    describe the feasible output range; when present, entries are
    validated on construction and on shift updates.
    """

    columns: np.ndarray  # (p, T - 1)
    T: int
    h_low: Optional[np.ndarray] = None
    h_high: Optional[np.ndarray] = None

    def __post_init__(self):
        cols = np.atleast_2d(np.asarray(self.columns, dtype=float))
        if self.T < 1:
            raise DomainError("period T must be >= 1")
        if self.T == 1:
            cols = cols.reshape(cols.shape[0] if cols.size else 1, 0)
        if cols.shape[1] != self.T - 1:
            raise DomainError(
                f"history must have T-1 = {self.T - 1} columns, got {cols.shape[1]}"
            )
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        if self.h_low is not None and self.h_high is not None and cols.size:
            low = np.asarray(self.h_low, dtype=float).reshape(-1, 1)
            high = np.asarray(self.h_high, dtype=float).reshape(-1, 1)
            if np.any(cols < low - 1e-9) or np.any(cols > high + 1e-9):
                raise DomainError("history entries outside the feasible output range")

    @property
    def p(self) -> int:
        return self.columns.shape[0]

    def column(self, j: int) -> np.ndarray:
        """1-based column access matching the H_1..H_{T-1} convention."""
        return self.columns[:, j - 1]

    @cached_property
    def tail_sums(self) -> np.ndarray:
        """Row j-1 sums columns H_j..H_{T-1}: the history part of the
        window anchored at j; shape (T-1, p), computed once."""
        sums = np.empty((self.T - 1, self.p))
        for j in range(1, self.T):
            sums[j - 1] = np.sum(self.columns[:, j - 1 :], axis=1)
        sums.setflags(write=False)
        return sums


def steady_history(h_s, T: int, h_low=None, h_high=None) -> HistoryState:
    """History filled with the steady-state output h_s."""
    h_s = np.atleast_1d(np.asarray(h_s, dtype=float))
    return HistoryState(
        columns=np.tile(h_s.reshape(-1, 1), (1, T - 1)),
        T=T,
        h_low=h_low,
        h_high=h_high,
    )


def constant_history(h_value, T: int, h_low=None, h_high=None) -> HistoryState:
    """History filled with a single output value."""
    return steady_history(h_value, T, h_low=h_low, h_high=h_high)


def shift_update(H: HistoryState, h_new) -> HistoryState:
    """Drop the oldest column and append h_new; identity for T = 1."""
    if H.T == 1:
        return H
    h_new = np.atleast_1d(np.asarray(h_new, dtype=float))
    if H.h_low is not None and H.h_high is not None:
        if np.any(h_new < np.asarray(H.h_low) - 1e-9) or np.any(
            h_new > np.asarray(H.h_high) + 1e-9
        ):
            raise DomainError(f"new output {h_new} outside the feasible range")
    columns = np.column_stack([H.columns[:, 1:], h_new])
    return HistoryState(columns=columns, T=H.T, h_low=H.h_low, h_high=H.h_high)


def positive_part_measure(columns: np.ndarray) -> float:
    """Max over columns of the per-column sum of positive parts.

    Zero iff every entry is <= 0; zero for an empty matrix (T = 1).
    """
    columns = np.atleast_2d(np.asarray(columns, dtype=float))
    if columns.shape[1] == 0:
        return 0.0
    return float(np.max(np.sum(np.maximum(columns, 0.0), axis=0)))


def norm_replacement(H: HistoryState) -> float:
    """Sign-aware substitute for a norm of the stored history."""
    return positive_part_measure(H.columns)


def deviation_norm_replacement(H: HistoryState, h_s) -> float:
    """Norm-replacement of H - H^s for the steady output h_s."""
    h_s = np.atleast_1d(np.asarray(h_s, dtype=float))
    if H.T == 1:
        return 0.0
    return positive_part_measure(H.columns - h_s.reshape(-1, 1))


def matrix_one_norm(columns: np.ndarray) -> float:
    """Induced 1-norm: maximum column absolute sum (0 for empty)."""
    columns = np.atleast_2d(np.asarray(columns, dtype=float))
    if columns.shape[1] == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(columns), axis=0)))


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

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tacempc.errors import DomainError
from tacempc.history import (
    HistoryState,
    eq6_rhs,
    iss_function,
    norm_replacement,
    shift_update,
    steady_history,
    window_deficit,
    window_rows,
)


def test_history_shape_validation():
    HistoryState(np.zeros((2, 4)), T=5)
    with pytest.raises(DomainError):
        HistoryState(np.zeros((2, 3)), T=5)
    with pytest.raises(DomainError):
        HistoryState(np.zeros((1, 1)), T=0)


def test_history_immutable():
    H = HistoryState(np.ones((1, 2)), T=3)
    with pytest.raises(ValueError):
        H.columns[0, 0] = 5.0


def test_history_t1_is_empty():
    for h_s in ([0.0], [1.0, -2.0]):
        H = steady_history(h_s, 1)
        assert H.p == len(h_s)
        assert H.columns.shape == (len(h_s), 0)
        assert eq6_rhs(H, 3).shape == (len(h_s),)
        assert shift_update(H, [3.0] * len(h_s)) is H
        assert norm_replacement(H, 0.0) == 0.0


def test_shift_update_drops_oldest():
    H = HistoryState(np.array([[1.0, 2.0, 3.0]]), T=4)
    H2 = shift_update(H, [4.0])
    np.testing.assert_array_equal(H2.columns, [[2.0, 3.0, 4.0]])
    assert H2.T == 4


def _measure(columns):
    """The norm-replacement of the history with these columns, h_s = 0."""
    return norm_replacement(HistoryState(columns, T=columns.shape[1] + 1), 0.0)


def test_norm_replacement_examples():
    assert _measure(np.array([[-2.0, -1.0]])) == 0.0
    assert _measure(np.array([[1.0, -3.0]])) == 1.0
    assert _measure(np.array([[1.0, -3.0], [2.0, 1.0]])) == 3.0


@st.composite
def _nonneg_growths(draw):
    """A history matrix (p, T - 1) and a nonnegative growth of its shape."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(2, 6)) - 1)
    cols = draw(hnp.arrays(float, shape, elements=st.floats(-2.0, 2.0)))
    return cols, draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1.0)))


# check 5 samples the same axioms with its own generator
@given(_nonneg_growths())
@example((np.zeros((1, 1)), np.zeros((1, 1))))  # T = 2, all-zero history
@example((np.zeros((1, 1)), np.array([[1e-300]])))  # growth leaves the zero set
@example((np.array([[-1.0, 0.5], [0.0, -2.0], [1.0, 1.0]]), np.ones((3, 2))))  # p = 3
def test_norm_replacement_axioms_random(case):
    cols, growth = case
    T = cols.shape[1] + 1
    val = norm_replacement(HistoryState(cols, T=T), 0.0)
    assert val >= 0.0
    assert (val == 0.0) == bool(np.all(cols <= 0.0))
    # entrywise increase cannot decrease the measure: rounding is monotone
    assert norm_replacement(HistoryState(cols + growth, T=T), 0.0) >= val
    # scaling a nonnegative matrix scales the measure
    pos = HistoryState(np.abs(cols), T=T)
    assert _measure(2.0 * np.abs(cols)) == 2.0 * norm_replacement(pos, 0.0)


def test_norm_replacement_of_the_deviation():
    H = HistoryState(np.array([[-2.0, 1.0]]), T=3)
    assert norm_replacement(H, [0.0]) == 1.0
    assert norm_replacement(H, [1.0]) == 0.0


def test_iss_function_requires_window():
    H = steady_history([0.0], 1)
    with pytest.raises(DomainError):
        iss_function(H, [0.0], 2.0)


def test_iss_function_weighted_sum():
    H = HistoryState(np.array([[-2.0, -2.0, -2.0, -2.0, -1.0]]), T=6)
    assert iss_function(H, [0.0], 2.0) == pytest.approx(45.0)
    assert iss_function(H, [0.0], 1.0) == pytest.approx(25.0)


@st.composite
def _iss_cases(draw):
    """(H, h_s, h_new, kappa) with T <= 6, p <= 3 and entries drawn as check 4 draws them."""
    p, T = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    entries = st.floats(-3.0, 3.0)
    cols = draw(hnp.arrays(float, (p, T - 1), elements=entries))
    h_s = draw(hnp.arrays(float, p, elements=st.floats(-1.0, 1.0)))
    h_new = draw(hnp.arrays(float, p, elements=entries))
    return HistoryState(cols, T=T), h_s, h_new, draw(st.sampled_from([1.0, 2.0]))


# check 4 samples the same inequalities with its own generator
@given(_iss_cases())
@example((steady_history([0.0], 2), np.zeros(1), np.zeros(1), 1.0))  # T = 2, all-zero history
@example((steady_history([0.0], 2), np.zeros(1), np.array([3.0]), 2.0))  # the same, then a new output
@example((steady_history([3.0, -3.0, 0.0], 6), np.array([1.0, -1.0, 0.5]), np.zeros(3), 2.0))  # p = 3
def test_iss_sandwich_and_decrease_properties(case):
    H, h_s, h_new, kappa = case
    T = H.T
    V = iss_function(H, h_s, kappa)
    dev = float(np.linalg.norm(H.columns - h_s.reshape(-1, 1), 1))
    # sandwich: each column deviation is at most dev, with weights 1..T-1
    assert dev**kappa <= V
    assert V <= (T - 1) ** 2 * dev**kappa * (1 + 1e-12)
    # one-step decrease: the shift drops one weight from every old column
    V_next = iss_function(shift_update(H, h_new), h_s, kappa)
    new_dev = float(np.sum(np.abs(h_new - h_s))) ** kappa
    assert V_next - V <= -(dev**kappa) + (T - 1) * new_dev + 1e-12 * (V + V_next + 1.0)


def test_window_deficit():
    assert window_deficit(12, 6) == 0
    assert window_deficit(10, 6) == 2
    assert window_deficit(10, 3) == 2
    assert window_deficit(6, 3) == 0
    assert window_deficit(7, 3) == 2


def test_eq6_rhs_zero_for_full_periods():
    H = HistoryState(np.array([[-2.0, -1.0]]), T=3)
    np.testing.assert_array_equal(eq6_rhs(H, 6), [0.0])
    np.testing.assert_array_equal(eq6_rhs(H, 3), [0.0])


def test_eq6_rhs_uses_newest_columns():
    H = HistoryState(np.array([[-2.0, -1.0]]), T=3)
    # N = 10: deficit 2, bound is minus the sum of the 2 newest columns
    np.testing.assert_allclose(eq6_rhs(H, 10), [3.0])
    # N = 11: deficit 1, only the newest column counts
    np.testing.assert_allclose(eq6_rhs(H, 11), [1.0])


def test_eq6_window_partition_property():
    # any h sequence whose every length-T window (including those using
    # the history) sums to <= 0 also satisfies the eq6 bound
    rng = np.random.default_rng(31)
    for _ in range(200):
        T = int(rng.integers(2, 6))
        N = int(rng.integers(T, 3 * T + 2))
        p = int(rng.integers(1, 3))
        past = rng.uniform(-1, 0, size=(p, T - 1))  # nonpositive history
        H = HistoryState(past, T=T)
        h = rng.uniform(-1.0, 0.0, size=(N, p))  # nonpositive outputs
        assert np.all(np.sum(h, axis=0) <= eq6_rhs(H, N) + 1e-12)


def test_steady_history_fill():
    H = steady_history([-2.0], 3)
    np.testing.assert_array_equal(H.columns, [[-2.0, -2.0]])


@given(st.integers(1, 3), st.integers(2, 6), st.data())
def test_shift_updates_compose(p, T, data):
    # T - 1 pushes replace the whole history; each partial window over the
    # pushed outputs, headed by the start history's tail sums, is that
    # output plus the column sum of the history it was pushed onto
    values = st.floats(-1e3, 1e3)
    H0 = HistoryState(data.draw(hnp.arrays(float, (p, T - 1), elements=values)), T=T)
    pushed = data.draw(hnp.arrays(float, (T - 1, p), elements=values))
    before = [H0]
    for y in pushed:
        before.append(shift_update(before[-1], y))
    assert before[-1].columns.tobytes() == np.ascontiguousarray(pushed.T).tobytes()
    windows = window_rows(pushed, T, H0.tail_sums)
    for y, H, window in zip(pushed, before, windows):
        expected = y + H.columns.sum(axis=1)
        scale = np.abs(y) + np.abs(H.columns).sum(axis=1)
        assert np.all(np.abs(window - expected) <= 1e-12 * scale)


@given(flags=st.lists(st.booleans(), min_size=1, max_size=40), T=st.integers(1, 8))
def test_window_rows_count_runs_of_flags(flags, T):
    # turnpike_report's consecutive set: k ends T consecutive flagged
    # instants iff the length-T window ending at k counts T flags
    ends, run = [], 0
    for k, flag in enumerate(flags):
        run = run + 1 if flag else 0
        if run >= T:
            ends.append(k)
    assert np.nonzero(window_rows(np.array(flags), T) == T)[0].tolist() == ends

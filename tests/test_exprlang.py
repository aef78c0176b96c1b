import dataclasses
import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tacempc import exprlang
from tacempc.exprlang import EvalError, ExprSyntaxError, parse
from tacempc.model import SystemModel, step_record_widths
from tacempc.validation import _fd_jacobian


def _value(source, x, u):
    """The value kernel of ``source`` at the point (x, u)."""
    return exprlang.kernel(parse(source, len(x), len(u)), len(x), len(u))(x, u)


def _gradient(source, x, u):
    """The gradient kernel of ``source`` at the point (x, u)."""
    return exprlang.kernel(parse(source, len(x), len(u)), len(x), len(u), gradient=True)(x, u)


def _same_tree(a, b):
    """Whether the trees a and b match node for node, with equal fields,
    walked with an explicit stack: nodes themselves compare by identity."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        for field in dataclasses.fields(a):
            left, right = getattr(a, field.name), getattr(b, field.name)
            if isinstance(left, exprlang.Expr):
                stack.append((left, right))
            elif left != right:
                return False
    return True


def test_parse_number_and_variable():
    e = parse("x1 + 2.5", 2, 1)
    assert isinstance(e, exprlang.BinOp)
    assert e.op == "+"
    assert _same_tree(e.left, exprlang.Var("x", 0))
    assert _same_tree(e.right, exprlang.Num(2.5))
    assert not _same_tree(e, parse("x1 + 2.25", 2, 1))
    assert not _same_tree(e, parse("x1 - 2.5", 2, 1))


def test_precedence_and_associativity():
    # 1 - 2 - 3 is (1 - 2) - 3; 2 + 3 * 4 keeps * tighter
    assert _value("1 - 2 - 3", [0.0], [0.0]) == -4.0
    assert _value("2 + 3 * 4", [0.0], [0.0]) == 14.0
    assert _value("-2^2", [0.0], [0.0]) == -4.0
    assert _value("(1 + 2) * 3", [0.0], [0.0]) == 9.0


def test_power_right_associative_integer_chain():
    # x^2^3 parses as x^(2^3) = x^8
    e = parse("x1^2^3", 1, 1)
    assert isinstance(e, exprlang.Pow)
    assert e.exponent == 8
    assert _same_tree(parse("x1" + "^1" * 2000, 1, 1), exprlang.Pow(exprlang.Var("x", 0), 1))


@pytest.mark.parametrize("source, position", [
    ("x1^2^2^2^2^2", 3),  # 2^65536: int-to-str failed in the code generator
    ("x1^9^9^9", 5),  # 9^9^9: computing 9**387420489 did not finish
    ("x1^65537", 3),
    ("x1^" + "9" * 5000, 3),  # past the int() digit limit
], ids=["chain-of-2s", "chain-of-9s", "literal-65537", "literal-5000-digits"])
def test_exponent_chains_are_bounded_at_parse_time(source, position):
    with pytest.raises(ExprSyntaxError, match="exponent exceeds 65536") as err:
        parse(source, 1, 1)
    assert err.value.position == position
    assert parse("x1^2^2^2^2", 1, 1).exponent == 65536


def test_identifier_index_is_compared_before_conversion():
    # int() of more than 4,300 digits raised a bare ValueError
    with pytest.raises(ExprSyntaxError, match="exceeds declared dimension 1") as err:
        parse("2 * x" + "1" * 5000, 1, 1)
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse("x" + "0" * 5000 + "1", 1, 1)  # no index has a leading zero
    assert _same_tree(parse("x12", 12, 1), exprlang.Var("x", 11))


@pytest.mark.parametrize("source, position", [
    ("x1 + " + "9" * 5000, 5),  # parsed to inf
    ("x1 - 1e400", 5),
    ("-1.5e309 * u1", 1),
], ids=["5000-digits", "1e400", "negated"])
def test_non_finite_number_literals_are_syntax_errors(source, position):
    with pytest.raises(ExprSyntaxError, match="number literal overflows a double") as err:
        parse(source, 1, 1)
    assert err.value.position == position
    assert _same_tree(parse("1e308 + 1e-400", 1, 1).right, exprlang.Num(0.0))  # underflow is finite


def _negated(value, times):
    for _ in range(times):
        value = -value
    return value


def _nested_quotients(x, u):
    """x / (x / ... (x / u^250)), 100 quotients, innermost first."""
    value = functools.reduce(operator.mul, [u] * 250)
    for _ in range(100):
        value = x / value
    return value


def _product_slope(x, factors):
    """d/dx of x * x * ... by the product rule, folded from the left."""
    product, slope = x, 1.0
    for _ in range(factors - 1):
        product, slope = product * x, x * slope + product
    return slope


# (source, value, d/dx or None) at (x, u); value and slope are left folds of
# the operations the compiled code performs, since a recursive oracle would
# need a frame per nesting level
_DEEP = [
    pytest.param(" + ".join(["x1"] * 1000), lambda x, u: functools.reduce(
        operator.add, [x] * 1000), lambda x: 1000.0, id="1000-terms"),
    pytest.param("(" * 400 + "x1" + ")" * 400, lambda x, u: x, lambda x: 1.0,
                 id="400-parentheses"),
    pytest.param("-" * 2000 + "x1", lambda x, u: _negated(x, 2000), lambda x: 1.0,
                 id="2000-minus-signs"),
    pytest.param("x1" + "^1" * 2000, lambda x, u: x**1, lambda x: 1.0, id="2000-exponents"),
    # the deepest inputs the former bounds admitted
    pytest.param(" + ".join(["x1^2"] * 300), lambda x, u: functools.reduce(
        operator.add, [x**2] * 300), lambda x: functools.reduce(
        operator.add, [2.0 * x] * 300), id="300-squares"),
    pytest.param(" * ".join(["x1"] * 351), lambda x, u: functools.reduce(
        operator.mul, [x] * 351), lambda x: _product_slope(x, 351), id="351-factors"),
    pytest.param("x1 / (" * 100 + " * ".join(["u1"] * 250) + ")" * 100,
                 _nested_quotients, None, id="100-quotients"),
    pytest.param("-" * 350 + "u1", lambda x, u: _negated(u, 350), lambda x: 0.0,
                 id="350-minus-signs"),
]


@pytest.mark.parametrize("source, value, slope", _DEEP)
def test_deep_expressions_compile_and_evaluate(source, value, slope):
    # the first three raised RecursionError, and later hit depth bounds of
    # 350 operations and 100 parentheses
    x, u = 1.001, 0.999
    e = parse(source, 1, 1)
    got = exprlang.kernel(e, 1, 1)([x], [u])
    assert _bits_equal(got, value(x, u))
    grad = exprlang.kernel(e, 1, 1, gradient=True)([x], [u])
    if slope is not None:
        assert grad[0] == slope(x)
    record = np.zeros((2, sum(step_record_widths(1, 1, 1))))
    exprlang.stage_pass([e], e, [e], 1, 1)(np.array([x]), np.array([[u]]), record)
    assert record[0, 1] == record[0, 2] == record[1, 0] == got
    assert record[0, 3:5].tolist() == record[0, 5:7].tolist() == grad.tolist()


def _at_depth(frames, call):
    """call() under ``frames`` more frames of the caller's stack."""
    return call() if frames == 0 else _at_depth(frames - 1, call)


def test_deep_expressions_compile_under_a_deep_caller():
    # two raised ConfigError at the depth bounds, two RecursionError
    x, u = 0.5, 0.25
    quotient = u + 2
    for _ in range(300):
        quotient = x / quotient
    cases = [
        (" + ".join(["x1"] * 2000), functools.reduce(operator.add, [x] * 2000)),
        ("(" * 1000 + "x1" + ")" * 1000, x),
        ("-" * 2000 + "x1", x),
        ("x1 / (" * 300 + "u1 + 2" + ")" * 300, quotient),
    ]
    for source, value in cases:
        built = _at_depth(800, lambda: SystemModel.from_expressions(
            n=1, m=1, f_sources=[source], ell_source=source, h_sources=[source],
            z_lower=[-10.0, -10.0], z_upper=[10.0, 10.0],
        ))
        assert built.ell([x], [u]) == built.f([x], [u])[0] == value


@pytest.mark.parametrize("source", [
    "-" * 2000 + "x1",
    "x1 * (" * 1000 + "u1" + ")" * 1000,
], ids=["2000-minus-signs", "1000-parentheses"])
def test_deep_trees_print_compare_and_hash_under_a_deep_caller(source):
    # the generated repr, == and hash of the nodes recursed once per level
    e, other = parse(source, 1, 1), parse(source, 1, 1)
    assert _at_depth(800, lambda: repr(e)).startswith("<tacempc.exprlang.")
    assert _at_depth(800, lambda: (e == e, e == other, hash(e) == hash(e))) == (True, False, True)
    assert _same_tree(e, other)


def test_single_value_kernel_gives_a_float_at_a_point():
    e = parse("x1 * u1 + 2", 1, 1)
    for args in (([1.5], [2.0]), (np.array([1.5]), np.array([2.0]))):
        value = exprlang.kernel(e, 1, 1)(*args)
        assert type(value) is float and value == 5.0
    assert type(exprlang.kernel(parse("3", 1, 1), 1, 1)([0.0], [0.0])) is float
    assert exprlang.kernel([e], 1, 1)([1.5], [2.0]).shape == (1,)  # a sequence keeps its axis
    batch = exprlang.kernel(e, 1, 1)(np.array([[1.0, 2.0]]), np.array([[1.0, 1.0]]))
    assert batch.tolist() == [3.0, 4.0]


def test_x_only_kernel_takes_x_alone():
    e = parse("x1 * x2 - 1", 2, 0)
    value, grad = exprlang.kernel(e, 2, 0), exprlang.kernel(e, 2, 0, gradient=True)
    assert value([2.0, 3.0]) == value([2.0, 3.0], ()) == 5.0
    assert grad([2.0, 3.0]).tolist() == grad([2.0, 3.0], ()).tolist() == [3.0, 2.0]
    with pytest.raises(TypeError):
        exprlang.kernel(parse("x1 + u1", 1, 1), 1, 1)([1.0])  # u is required when m > 0


def test_power_requires_integer_literal():
    with pytest.raises(ExprSyntaxError):
        parse("x1^1.5", 1, 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1^u1", 1, 1)


def test_unknown_identifier_and_dimension_check():
    with pytest.raises(ExprSyntaxError):
        parse("y1", 1, 1)
    with pytest.raises(ExprSyntaxError):
        parse("x3", 2, 1)
    with pytest.raises(ExprSyntaxError):
        parse("u2", 1, 1)


def test_syntax_error_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + ?", 1, 1)
    assert err.value.position == 5


def test_unbalanced_parentheses():
    with pytest.raises(ExprSyntaxError):
        parse("(x1 + u1", 1, 1)


def test_eval_broadcasts_over_batches():
    e = parse("2*x1 + u1 - 5", 1, 1)
    x = np.array([[1.0, 2.0, 3.0]])
    u = np.array([[1.0, 1.0, 2.0]])
    np.testing.assert_allclose(exprlang.kernel(e, 1, 1)(x, u), [-2.0, 0.0, 3.0])


def test_division_by_zero_raises():
    with pytest.raises(EvalError):
        _value("x1 / u1", [1.0], [0.0])
    with pytest.raises(EvalError):
        _gradient("x1 / u1", [1.0], [0.0])


def test_gradient_simple_cases():
    assert _value("(x1 - 3)^2 + u1^2", [2.0], [1.0]) == pytest.approx(2.0)
    assert _gradient("(x1 - 3)^2 + u1^2", [2.0], [1.0]) == pytest.approx([-2.0, 2.0])
    assert _value("x1 * u1", [2.0], [3.0]) == 6.0
    assert _gradient("x1 * u1", [2.0], [3.0]) == pytest.approx([3.0, 2.0])


def test_gradient_quotient_rule():
    assert _value("x1 / u1", [6.0], [2.0]) == 3.0
    assert _gradient("x1 / u1", [6.0], [2.0]) == pytest.approx([0.5, -1.5])


def test_zero_exponent_kills_gradient():
    assert _value("x1^0", [5.0], [0.0]) == 1.0
    assert _gradient("x1^0", [5.0], [0.0]) == pytest.approx([0.0, 0.0])


def test_negative_power_base_needs_parentheses():
    # ^ binds tighter than unary minus: (-1.5)^2 is 2.25, -1.5^2 is -2.25
    assert _value("(-1.5)^2", [0.0], [0.0]) == 2.25
    assert _value("-1.5^2", [0.0], [0.0]) == -2.25


# ---------------------------------------------------------------------------
# Kernels against the former recursive interpreter
#
# _oracle_eval and _oracle_dual are the tree-walking evaluators the compiler
# replaced, kept verbatim: the kernels must reproduce them bit for bit,
# including which inputs raise EvalError.


def _oracle_check_nonzero(b):
    try:
        zero = bool((b == 0).any())  # array operand
    except AttributeError:
        zero = b == 0
    if zero:
        raise EvalError("division by zero")


def _oracle_eval(e, x, u):
    if isinstance(e, exprlang.Num):
        return e.value
    if isinstance(e, exprlang.Var):
        return x[e.index] if e.kind == "x" else u[e.index]
    if isinstance(e, exprlang.Neg):
        return -_oracle_eval(e.arg, x, u)
    if isinstance(e, exprlang.Pow):
        return _oracle_eval(e.base, x, u) ** e.exponent
    if isinstance(e, exprlang.BinOp):
        a = _oracle_eval(e.left, x, u)
        b = _oracle_eval(e.right, x, u)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        _oracle_check_nonzero(b)
        return a / b
    raise TypeError(f"not an Expr: {e!r}")


def _oracle_dual(e, x, u, n, dim):
    if isinstance(e, exprlang.Num):
        return e.value, (0.0,) * dim
    if isinstance(e, exprlang.Var):
        slot = e.index if e.kind == "x" else n + e.index
        grad = [0.0] * dim
        grad[slot] = 1.0
        value = x[e.index] if e.kind == "x" else u[e.index]
        return float(value), tuple(grad)
    if isinstance(e, exprlang.Neg):
        v, g = _oracle_dual(e.arg, x, u, n, dim)
        return -v, tuple(-gi for gi in g)
    if isinstance(e, exprlang.Pow):
        v, g = _oracle_dual(e.base, x, u, n, dim)
        if e.exponent == 0:
            return 1.0, (0.0,) * dim
        scale = e.exponent * v ** (e.exponent - 1)
        return v**e.exponent, tuple(scale * gi for gi in g)
    if isinstance(e, exprlang.BinOp):
        va, ga = _oracle_dual(e.left, x, u, n, dim)
        vb, gb = _oracle_dual(e.right, x, u, n, dim)
        if e.op == "+":
            return va + vb, tuple(a + b for a, b in zip(ga, gb))
        if e.op == "-":
            return va - vb, tuple(a - b for a, b in zip(ga, gb))
        if e.op == "*":
            return va * vb, tuple(vb * a + va * b for a, b in zip(ga, gb))
        if vb == 0:
            raise EvalError("division by zero")
        inv = 1.0 / vb
        return va * inv, tuple((a - va * inv * b) * inv for a, b in zip(ga, gb))
    raise TypeError(f"not an Expr: {e!r}")


def _outcome(fn, *args):
    """('ok', result) or ('raised', exception type); numpy warnings muted."""
    with np.errstate(all="ignore"):
        try:
            return "ok", fn(*args)
        except ArithmeticError as exc:
            return "raised", type(exc)


def _bits_equal(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return a[keep].tobytes() == b[keep].tobytes()


def _equal_by_value(got, want):
    """Equal by value wherever want is not NaN, so zeros of either sign match.

    A gradient kernel folds structural zeros and ones that dual arithmetic
    multiplies and adds: that changes a finite or infinite result only in
    the sign of a zero, and where dual arithmetic made a NaN (inf * 0) the
    folded entry may be a number.
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    keep = ~np.isnan(want)
    return got.shape == want.shape and bool(np.all(got[keep] == want[keep]))


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0])
# quotients like 7/3 are not dyadic, so every operation rounds
_ROUNDED = st.builds(lambda a, b: a / b, st.integers(-999, 999), st.integers(1, 97))
_VALUES = st.one_of(_SPECIAL, _ROUNDED, st.floats(-10.0, 10.0))


@functools.lru_cache(maxsize=None)  # building a recursive strategy is slow
def _exprs(n, m):
    leaves = st.one_of(
        _VALUES.map(exprlang.Num),
        st.integers(0, n - 1).map(lambda i: exprlang.Var("x", i)),
        st.integers(0, m - 1).map(lambda i: exprlang.Var("u", i)),
    )

    def extend(sub):
        binop = st.builds(exprlang.BinOp, st.sampled_from("+-*/"), sub, sub)
        return st.one_of(
            sub.map(exprlang.Neg),
            st.builds(exprlang.Pow, sub, st.integers(0, 3)),
            binop,
            binop,
        )

    return st.recursive(leaves, extend, max_leaves=12)


@st.composite
def _cases(draw, quotient=False):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    e = draw(_exprs(n, m))
    if quotient:  # exercise the quotient rule with nontrivial gradients
        e = exprlang.BinOp("/", e, draw(_exprs(n, m)))
    point = st.one_of(_ROUNDED, _VALUES)  # zeros rarer, so fewer quotients raise
    x = draw(st.lists(point, min_size=n, max_size=n))
    u = draw(st.lists(point, min_size=m, max_size=m))
    return e, np.array(x), np.array(u)


@st.composite
def _kernel_cases(draw, quotient=False):
    """(rows, x, u): one to three expressions, the first drawn by _cases."""
    e, x, u = draw(_cases(quotient=quotient))
    return [e, *draw(st.lists(_exprs(len(x), len(u)), max_size=2))], x, u


_KERNEL_CASES = st.one_of(_kernel_cases(), _kernel_cases(quotient=True))
_EXTRA_COLUMNS = st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1, max_size=4)


def _pinned(batch):
    """Always run the edge cases below, whatever hypothesis draws; a batch
    test also gets their extra columns."""
    cases = [
        # division by zero at the drawn point
        (["x1 / u1"], [1.0], [0.0], [(2.0, 1.0, 0.0)]),
        # x1^4 overflows a Python float; the gradient kernel never computes
        # it, since no entry reads it
        (["x1^4"], [1e100], [0.0], [(2.0, 1.0, 0.0)]),
        # a constant expression still gives one value per column
        (["2", "u1"], [0.5], [1.0], [(1.0, 2.0, 3.0)]),
        # numpy's array ** rounds x^3 here one ulp away from libm pow
        (["x1^3"], [0.1899176304301875], [0.0], [(0.0, 0.0, 0.0)]),
        # the value divides by 0 / 5e-324 = 0, the dual arithmetic by
        # 0 * (1 / 5e-324) = nan: the gradient raises where the value does
        (["x1 / (x1 / 5e-324)"], [0.0], [0.0], [(1.0, 1.0, 1.0)]),
    ]

    def decorate(test):
        for sources, x, u, extra in reversed(cases):
            case = [parse(src, 1, 1) for src in sources], np.array(x), np.array(u)
            test = example(case=case, **({"extra": extra} if batch else {}))(test)
        return test

    return decorate


def _gradient_oracle(e, x, u):
    """The dual oracle's gradient, raising EvalError wherever the value
    does: a gradient kernel checks the value's divisors, and a dual divisor
    a * (1 / b) can differ from a / b (0 * (1 / 5e-324) is nan)."""
    try:
        _oracle_eval(e, x, u)
    except OverflowError:
        pass  # the dual oracle below meets the same power
    return _oracle_dual(e, x, u, len(x), len(x) + len(u))[1]


def _interpreted(oracle, rows, x, u):
    """The oracle's results for the rows at one point, stacked."""
    return np.array([oracle(e, x, u) for e in rows], dtype=float)


def _kernels(rows, n, m, gradient):
    """(kernel, rows it computes, whether its result drops the row axis):
    the first expression alone, then all of them."""
    yield exprlang.kernel(rows[0], n, m, gradient), rows[:1], True
    yield exprlang.kernel(rows, n, m, gradient), rows, False


def _check_points(case, gradient):
    """Kernels against the oracle at numpy scalars and at Python floats:
    values bit for bit, gradients by value where the oracle's are not NaN."""
    rows, x, u = case
    oracle = _gradient_oracle if gradient else _oracle_eval
    equal = _equal_by_value if gradient else _bits_equal
    for kernel, exprs, single in _kernels(rows, len(x), len(u), gradient):
        for args in ((x, u), (list(x), list(u))):
            want = _outcome(_interpreted, oracle, exprs, *args)
            got = _outcome(kernel, *args)
            if gradient and want == ("raised", OverflowError):
                # the oracle computes every value, the kernel only the ones
                # an entry reads: a dead power that overflows may not raise
                assert got[0] == "ok" or got[1] in (OverflowError, EvalError)
                continue
            assert got[0] == want[0]
            if want[0] == "raised":
                assert got[1] is want[1]
                continue
            expected = want[1][0] if single else want[1]
            assert np.shape(got[1]) == expected.shape
            assert equal(got[1], expected)


def _batch(x, u, extra):
    """(n + m, batch) columns: the drawn point, then the extra ones."""
    columns = [np.concatenate([x, u])] + [
        np.resize(np.array(col), len(x) + len(u)) for col in extra
    ]
    return np.column_stack(columns)


def _check_batch(case, extra, gradient):
    """Kernels over a batch of columns against the oracle at each column,
    compared like ``_check_points`` does."""
    rows, x, u = case
    n, m = len(x), len(u)
    z = _batch(x, u, extra)
    oracle = _gradient_oracle if gradient else _oracle_eval
    equal = _equal_by_value if gradient else _bits_equal
    for kernel, exprs, single in _kernels(rows, n, m, gradient):
        got = _outcome(kernel, z[:n], z[n:])
        points = [_outcome(_interpreted, oracle, exprs, col[:n], col[n:]) for col in z.T]
        raised = {p[1] for p in points if p[0] == "raised"}
        if EvalError in raised:  # a division check reads the whole batch
            assert got == ("raised", EvalError)
            continue
        if got[0] == "raised":
            # only a Python float overflows by raising: a constant power, or
            # at a point an overflow that came before a failing check
            assert got[1] in (OverflowError, EvalError) and OverflowError in raised
            continue
        rows_axis = () if single else (len(exprs),)
        assert got[1].shape == rows_axis + ((n + m,) if gradient else ()) + (z.shape[1],)
        for k, point in enumerate(points):
            if point[0] == "ok":
                assert equal(got[1][..., k], point[1][0] if single else point[1])


@settings(max_examples=400)
@given(case=_KERNEL_CASES)
@_pinned(batch=False)
def test_compiled_value_matches_interpreter(case):
    _check_points(case, gradient=False)


@settings(max_examples=400)
@given(case=_KERNEL_CASES)
@_pinned(batch=False)
def test_compiled_gradient_matches_interpreter(case):
    _check_points(case, gradient=True)


@settings(max_examples=200)
@given(case=_KERNEL_CASES, extra=_EXTRA_COLUMNS)
@_pinned(batch=True)
def test_batch_evaluation_matches_pointwise(case, extra):
    _check_batch(case, extra, gradient=False)


@settings(max_examples=200)
@given(case=_KERNEL_CASES, extra=_EXTRA_COLUMNS)
@_pinned(batch=True)
def test_batch_gradient_matches_pointwise(case, extra):
    _check_batch(case, extra, gradient=True)


# ---------------------------------------------------------------------------
# Gradient kernels against central differences of the value kernel: the
# invariant validation check 13 samples, over its expressions (+ - * /,
# each divisor 1 + s^2, and ^0..3, depth <= 4, constants in [-1, 1]) and
# points in [-2, 2].  Constants stay in [-1, 1]: with [-3, 3] a constant
# subtree such as ((3^3)^3)^3 = 3^27 added to x1 hides x1's step below the
# rounding of the sum, so the difference quotient, not the kernel, is wrong
# (relative error 1.0 at x1 = 0.5).


def _over_one_plus_square(a, b):
    return exprlang.BinOp("/", a, exprlang.BinOp("+", exprlang.Num(1.0), exprlang.Pow(b, 2)))


@functools.lru_cache(maxsize=None)
def _smooth_exprs(n, m, depth=4):
    leaf = st.one_of(
        st.floats(-1.0, 1.0).map(exprlang.Num),
        st.integers(0, n - 1).map(lambda i: exprlang.Var("x", i)),
        st.integers(0, m - 1).map(lambda i: exprlang.Var("u", i)),
    )
    if depth == 0:
        return leaf
    sub = _smooth_exprs(n, m, depth - 1)
    return st.one_of(
        leaf,
        sub.map(exprlang.Neg),
        st.builds(exprlang.Pow, sub, st.integers(0, 3)),
        st.builds(exprlang.BinOp, st.sampled_from("+-*"), sub, sub),
        st.builds(_over_one_plus_square, sub, sub),
    )


@st.composite
def _smooth_cases(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    point = st.floats(-2.0, 2.0)
    x = draw(st.lists(point, min_size=n, max_size=n))
    u = draw(st.lists(point, min_size=m, max_size=m))
    return draw(_smooth_exprs(n, m)), np.array(x), np.array(u)


def _smooth_case(source, x, u):
    return parse(source, len(x), len(u)), np.array(x), np.array(u)


@settings(max_examples=300)
@given(_smooth_cases())
@example(_smooth_case("0.75", [1.5], [-2.0]))
@example(_smooth_case("x1^0", [-1.25], [0.5]))
@example(_smooth_case("(x1*u1)^3", [1.75], [-1.5]))
@example(_smooth_case("x1 / (1 + (u1 - x1)^2)", [0.5], [1.25]))
def test_gradient_matches_finite_differences(case):
    e, x, u = case
    n, m = len(x), len(u)
    grad = exprlang.kernel(e, n, m, gradient=True)(x, u)
    fd = _fd_jacobian(exprlang.kernel([e], n, m), x, u, 1)[0]
    assert np.max(np.abs(grad - fd)) <= 1e-5 * (1.0 + np.max(np.abs(fd)))


def test_gradient_kernel_skips_dead_powers():
    # x1^4 overflows a Python float at 1e100, but only 4 * x1^3 is read
    with np.errstate(over="ignore"):
        assert _value("x1^4", np.array([1e100]), np.array([0.0])) == np.inf
    grad = _gradient("x1^4", [1e100], [0.0])
    assert grad.tobytes() == np.array([4 * 1e100**3, 0.0]).tobytes()


def test_kernels_keep_the_sign_of_zero_constants():
    # Num(0.0) == Num(-0.0) as trees, yet each keeps its sign
    positive, negative = exprlang.Num(0.0), exprlang.Num(-0.0)
    assert _same_tree(positive, negative)
    values = exprlang.kernel([positive, negative], 0, 0)([], [])
    assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0]
    assert math.copysign(1.0, exprlang.kernel(negative, 0, 0)([], [])) == -1.0


def test_generated_source_binds_constants_by_name():
    gen = exprlang._Codegen()
    _, grad = exprlang._derivatives(parse("1.5 * x1 / (u1 - 0.25)^2", 1, 1), 1, 2)
    for g in grad:
        exprlang._value_code(g, gen)
    source = "\n".join(gen.lines)
    assert "1.5" not in source and "0.25" not in source
    # 1.0 is the quotient's 1 / b, 2.0 the power rule's factor
    assert {gen.names[k] for k in gen.names if k.startswith("c")} == {1.5, 0.25, 1.0, 2.0}


def _built_nodes(e):
    """Every node of the tree e, depth first."""
    yield e
    for child in (getattr(e, name, None) for name in ("arg", "base", "left", "right")):
        if child is not None:
            yield from _built_nodes(child)


def _folded_away(node):
    """Whether node multiplies by _ZERO or _ONE, adds or subtracts _ZERO,
    or negates _ZERO: what the smart constructors of _derivatives fold."""
    zero, one = exprlang._ZERO, exprlang._ONE
    if isinstance(node, exprlang.Neg):
        return node.arg is zero
    if not isinstance(node, exprlang.BinOp):
        return False
    operands = (node.left, node.right)
    if node.op == "*":
        return any(o is zero or o is one for o in operands)
    return node.op in "+-" and any(o is zero for o in operands)


@settings(max_examples=300)
@given(case=st.one_of(_cases(), _cases(quotient=True)))
@example(case=(parse("x1^0 * u1 + (1 - x1) / (x1 * u1)^1", 1, 1), [0.0], [0.0]))
def test_derivatives_fold_structural_zeros_and_ones(case):
    e, x, u = case
    value, grad = exprlang._derivatives(e, len(x), len(x) + len(u))
    assert len(grad) == len(x) + len(u)
    for root in (value, *grad):
        assert not any(_folded_away(node) for node in _built_nodes(root))


# ---------------------------------------------------------------------------
# Stage pass: states, stage values and stage Jacobians in one Python-float loop


@st.composite
def _models(draw):
    """(f, ell, h, x0 (n,), inputs (N, m)) for n states, m inputs, p outputs."""
    n, m, p = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    N = draw(st.integers(1, 5))
    f = draw(st.lists(_exprs(n, m), min_size=n, max_size=n))
    ell = draw(_exprs(n, m))
    h = draw(st.lists(_exprs(n, m), min_size=p, max_size=p))
    x0 = draw(st.lists(_VALUES, min_size=n, max_size=n))
    u = draw(st.lists(st.lists(_VALUES, min_size=m, max_size=m), min_size=N, max_size=N))
    return f, ell, h, np.array(x0), np.array(u)


def _stepped_and_batched(f, ell, h, x0, u):
    """What the stage pass must store: x_1..x_N from stepping the f kernel
    at numpy points, then ell, h and the Jacobians from the batched
    kernels over the whole trajectory, each flattened step-major."""
    n, m = len(x0), u.shape[1]
    step = exprlang.kernel(f, n, m)
    states, x = [x0], x0
    for uk in u:
        x = step(x, uk)
        states.append(x)
    xs, us = np.array(states[:-1]).T, u.T
    batched = [
        exprlang.kernel(ell, n, m)(xs, us),
        exprlang.kernel(h, n, m)(xs, us).T,
        exprlang.kernel(f, n, m, gradient=True)(xs, us).transpose(2, 0, 1),
        exprlang.kernel(ell, n, m, gradient=True)(xs, us).T,
        exprlang.kernel(h, n, m, gradient=True)(xs, us).transpose(2, 0, 1),
    ]
    return [np.concatenate(states[1:])] + [a.ravel() for a in batched]


def _overflows(fn, *args):
    """Whether fn(*args) overflows in numpy, or raises EvalError first."""
    with np.errstate(all="ignore", over="raise"):
        try:
            fn(*args)
        except (FloatingPointError, OverflowError, EvalError):
            return True
    return False


def _model_case(f, ell, h, x0, u):
    x0, u = np.array(x0, dtype=float), np.array(u, dtype=float)
    n, m = len(x0), u.shape[1]
    return ([parse(s, n, m) for s in f], parse(ell, n, m), [parse(s, n, m) for s in h], x0, u)


@settings(max_examples=300)
@given(_models())
# x_1 = 1e100, so x_2 overflows: numpy gives inf where a Python float
# power raises OverflowError
@example(_model_case(["x1^4 + u1"], "x1^2", ["x1^3 - u1"], [1e25], [[0.0], [0.0]]))
# the second step divides by u = 0: EvalError, the outputs untouched
@example(_model_case(["x1 / u1"], "x1", ["u1"], [1.0], [[2.0], [0.0], [2.0]]))
# a constant cost still gives one value, and a zero gradient, per step
@example(_model_case(["x2", "x1 * u1"], "2", ["x1", "x2 - u1"], [0.5, 1.5], [[1.0], [3.0]]))
# x1^4 overflows a Python float at 1e100, but the gradient reads only 4 * x1^3
@example(_model_case(["x1"], "x1^4", ["x1^4"], [1e100], [[0.0]]))
# a divisor that reads only constants is checked at step 0, before the
# one store: EvalError, the record untouched
@example(_model_case(["x1 / (1 - 1)"], "x1", ["u1"], [1.0], [[2.0], [3.0]]))
def test_stage_pass_matches_stepped_and_batched_kernels(case):
    f, ell, h, x0, u = case
    n, m, p, N = len(x0), u.shape[1], len(h), u.shape[0]
    want = _outcome(_stepped_and_batched, f, ell, h, x0, u)
    widths = step_record_widths(n, m, p)
    record = np.full((N + 1, sum(widths)), 7.0)
    untouched = record.copy()
    got = _outcome(exprlang.stage_pass(f, ell, h, n, m), x0, u, record)
    if got == ("raised", OverflowError):
        # a Python float power raises where numpy's gives inf (the model then
        # runs its kernels' pass), so numpy overflows on the same inputs, or
        # first meets a division by zero that the pass would meet later
        assert _overflows(_stepped_and_batched, f, ell, h, x0, u)
        assert record.tobytes() == untouched.tobytes()
        return
    if want == ("raised", OverflowError):
        # only a constant power overflows the batched kernels by raising,
        # and the pass runs that line first
        assert got == ("raised", EvalError)
        return
    assert got[0] == want[0]
    if want[0] == "raised":
        assert got[1] is want[1] is EvalError
        assert record.tobytes() == untouched.tobytes()
        return
    # the six named views: x_1..x_N, then ell, h, f_z, ell_z, h_z of steps 0..N-1
    columns = np.split(record, np.cumsum(widths)[:-1], axis=1)
    views = [columns[0][1:]] + [c[:N] for c in columns[1:]]
    names = ("x", "ell", "h", "fz", "lz", "hz")
    for name, view, expected in zip(names, views, want[1]):
        assert _bits_equal(view.ravel(), expected), name
    # x0 and the unused tail of row N are not written
    assert record[0, :n].tobytes() == untouched[0, :n].tobytes()
    assert record[N, n:].tobytes() == untouched[N, n:].tobytes()

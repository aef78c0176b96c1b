"""Small arithmetic expression language for dynamics, costs and outputs.

Grammar (standard precedence, ``^`` binds tighter than unary minus)::

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' exponent)?
    atom    :=  NUMBER | IDENT | '(' expr ')'

``+ - * /`` are left associative, ``^`` is right associative and its
exponent must be a nonnegative integer literal (chains like ``x^2^3``
collapse to ``x^8``).  Identifiers are ``x1..xn`` and ``u1..um``.

``kernel`` compiles a sequence of expressions into one straight-line
Python function that computes their values, or their gradients by
forward-mode dual numbers (exact for the polynomial/rational
expressions the grammar admits), and stores them in one array; every
model callback is one such kernel.  A kernel works on a point (scalars)
or on numpy arrays (componentwise broadcast over a trailing batch axis),
and its result always has the batch shape: a constant expression over K
columns gives K values.  The generated code performs the operations of
a recursive tree walk one for one, in the same order and without
constant folding, so results are bit-identical to interpreting the tree
at a point; integer powers of arrays call libm ``pow`` like scalar
``**`` does, so a batch evaluation equals the pointwise ones bit for
bit.

``stage_pass`` compiles a whole model (dynamics f, stage cost ell and
outputs h) into one Python-float loop over an input sequence: at each step
it computes the next state, ell and h by the value code of ``kernel`` and
the Jacobians f_z, ell_z and h_z by the same live dual code as the
gradient kernels, appends them as one tuple to one list, and at the end
stores the list with one write into the rollout's step record, one row
per step.
``SystemModel.from_expressions`` makes it the model's ``stage_pass``; in a
rollout it takes the place of N steps of the f kernel on numpy scalars
and five batched kernel calls.  Each ``^`` is Python's ``**``, which calls
libm ``pow`` like the kernels, and a division by zero raises EvalError at
the same inputs, so every output is bit for bit what stepping f and
batching the other kernels gives.  Where a power overflows, numpy gives
inf but ``**`` raises OverflowError; the pass then leaves the record
untouched, and ``from_expressions`` runs the kernels' pass instead.
"""

from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import TacempcError


class ExprSyntaxError(TacempcError, ValueError):
    """Malformed expression source; carries the character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(TacempcError, ArithmeticError):
    """Runtime evaluation failure (division by zero)."""


# ---------------------------------------------------------------------------
# AST


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    kind: str  # 'x' or 'u'
    index: int  # zero-based


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # '+', '-', '*', '/'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int  # >= 0


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))"
)

_IDENT_RE = re.compile(r"^([xu])([1-9]\d*)$")


class _Tokens:
    def __init__(self, source: str):
        self.source = source
        self.tokens = []  # (kind, text, pos)
        pos = 0
        while pos < len(source):
            match = _TOKEN_RE.match(source, pos)
            if match is None or match.end() == pos:
                stripped = source[pos:].lstrip()
                if not stripped:
                    break
                raise ExprSyntaxError(
                    f"unexpected character {stripped[0]!r}",
                    len(source) - len(stripped),
                )
            kind = match.lastgroup
            text = match.group(kind)
            self.tokens.append((kind, text, match.start(kind)))
            pos = match.end()
        self.tokens.append(("eof", "", len(source)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


def parse(source: str, n: int, m: int) -> Expr:
    """Parse ``source`` into an Expr over x1..xn and u1..um."""
    toks = _Tokens(source)
    expr = _parse_expr(toks, n, m)
    kind, text, pos = toks.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)
    return expr


def _parse_expr(toks, n, m):
    node = _parse_term(toks, n, m)
    while toks.peek()[1] in ("+", "-"):
        op = toks.next()[1]
        node = BinOp(op, node, _parse_term(toks, n, m))
    return node


def _parse_term(toks, n, m):
    node = _parse_unary(toks, n, m)
    while toks.peek()[1] in ("*", "/"):
        op = toks.next()[1]
        node = BinOp(op, node, _parse_unary(toks, n, m))
    return node


def _parse_unary(toks, n, m):
    if toks.peek()[1] == "-":
        toks.next()
        return Neg(_parse_unary(toks, n, m))
    return _parse_power(toks, n, m)


def _parse_power(toks, n, m):
    base = _parse_atom(toks, n, m)
    if toks.peek()[1] == "^":
        toks.next()
        return Pow(base, _parse_exponent(toks))
    return base


def _parse_exponent(toks):
    kind, text, pos = toks.next()
    if kind != "num" or not re.fullmatch(r"\d+", text):
        raise ExprSyntaxError("exponent must be a nonnegative integer literal", pos)
    value = int(text)
    if toks.peek()[1] == "^":  # right associative: x^2^3 == x^(2^3)
        toks.next()
        value = value ** _parse_exponent(toks)
    return value


def _parse_atom(toks, n, m):
    kind, text, pos = toks.next()
    if kind == "num":
        return Num(float(text))
    if kind == "ident":
        match = _IDENT_RE.match(text)
        if match is None:
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        var_kind, one_based = match.group(1), int(match.group(2))
        limit = n if var_kind == "x" else m
        if one_based > limit:
            raise ExprSyntaxError(
                f"identifier {text!r} exceeds declared dimension {limit}", pos
            )
        return Var(var_kind, one_based - 1)
    if text == "(":
        node = _parse_expr(toks, n, m)
        kind, text, pos = toks.next()
        if text != ")":
            raise ExprSyntaxError("expected ')'", pos)
        return node
    raise ExprSyntaxError(f"expected a number, identifier or '(', got {text!r}", pos)


# ---------------------------------------------------------------------------
# Compilation
#
# An expression is translated once into straight-line Python source that
# performs exactly the floating-point operations of a recursive walk of the
# tree, in the same order: every interior node becomes one temporary,
# variables are read as x[i] / u[i] where they occur, float constants are
# bound by name (never printed into the source) and nothing is folded or
# simplified.  Results are therefore bit-identical to tree interpretation.


_BINARY_OPS = ("+", "-", "*", "/")  # the operators a BinOp may carry


def _check_nonzero(b):
    try:
        zero = bool((b == 0).any())  # array operand
    except AttributeError:
        zero = b == 0
    if zero:
        raise EvalError("division by zero")


def _pow(a, k):
    """a ** k; arrays go through libm pow, which scalar ``**`` also calls.

    numpy's array ``**`` computes a**2 as a*a and other powers in its own
    loops; either can differ from libm pow by an ulp.
    """
    if isinstance(a, np.ndarray):
        return np.float_power(a, k)
    return a**k


def _scalar_nonzero(b):
    if b == 0:
        raise EvalError("division by zero")


def _batch_shape(x):
    """The trailing batch shape of an argument: () at a point."""
    try:
        return x.shape[1:]
    except AttributeError:  # a list or tuple
        return np.shape(x)[1:]


def _dual_var(v):
    """A variable read by the dual code: Python float at a point, else as is."""
    return v if isinstance(v, np.ndarray) else float(v)


class _Codegen:
    """Accumulates the lines and the name bindings of one generated function.

    A kernel's code reads variables as ``x[i]``/``u[i]`` and writes ``^`` as
    ``_pow``.  A stage pass's code (``floats``) runs on Python floats: it
    reads each variable from a local ``x_i``/``u_i``, which the dual code
    uses as is (``_dual_var`` is the identity there), checks divisions with
    ``_scalar_nonzero`` and writes ``^`` as Python's ``**``.
    """

    def __init__(self, floats=False):
        self.lines = []
        self.names = {
            "_check_nonzero": _scalar_nonzero if floats else _check_nonzero,
            "_pow": _pow,
            "_dual_var": _dual_var,
            "_empty": np.empty,
            "_batch_shape": _batch_shape,
            "_zero": 0.0,
            "_one": 1.0,
        }
        self.temps = 0
        self.floats = floats

    def const(self, value):
        name = f"c{len(self.names)}"
        self.names[name] = value
        return name

    def emit(self, rhs):
        name = f"t{self.temps}"
        self.temps += 1
        self.lines.append(f"{name} = {rhs}")
        return name

    def var(self, kind, index):
        """The code that reads the variable x_index or u_index."""
        kind, index = "x" if kind == "x" else "u", operator.index(index)
        return f"{kind}_{index}" if self.floats else f"{kind}[{index}]"

    def power(self, base, k):
        k = operator.index(k)
        return f"{base} ** {k}" if self.floats else f"_pow({base}, {k})"

    def body(self, indent):
        return "".join(f"{indent}{line}\n" for line in self.lines)

    def define(self, source):
        """The function ``compiled`` that ``source`` defines over the bindings."""
        namespace = dict(self.names)
        exec(compile(source, "<exprlang>", "exec"), namespace)  # noqa: S102
        return namespace["compiled"]

    def build(self, result):
        return self.define(f"def compiled(x, u):\n{self.body('    ')}    return {result}\n")


def _value_code(e: Expr, gen: _Codegen) -> str:
    """Emit the value computation of e; returns the name or leaf holding it."""
    if isinstance(e, Num):
        return gen.const(e.value)
    if isinstance(e, Var):
        return gen.var(e.kind, e.index)
    if isinstance(e, Neg):
        return gen.emit(f"-{_value_code(e.arg, gen)}")
    if isinstance(e, Pow):
        return gen.emit(gen.power(_value_code(e.base, gen), e.exponent))
    if isinstance(e, BinOp) and e.op in _BINARY_OPS:
        a = _value_code(e.left, gen)
        b = _value_code(e.right, gen)
        if e.op == "/":
            gen.lines.append(f"_check_nonzero({b})")
        return gen.emit(f"{a} {e.op} {b}")
    raise TypeError(f"not an Expr: {e!r}")


def _dual_code(e: Expr, gen: _Codegen, n: int, dim: int):
    """Emit forward-mode dual arithmetic for e; returns (value, gradient names)."""
    if isinstance(e, Num):
        return gen.const(e.value), ["_zero"] * dim
    if isinstance(e, Var):
        slot = e.index if e.kind == "x" else n + e.index
        grad = ["_zero"] * dim
        grad[slot] = "_one"
        read = gen.var(e.kind, e.index)
        return (read if gen.floats else gen.emit(f"_dual_var({read})")), grad
    if isinstance(e, Neg):
        v, g = _dual_code(e.arg, gen, n, dim)
        return gen.emit(f"-{v}"), [gen.emit(f"-{gi}") for gi in g]
    if isinstance(e, Pow):
        v, g = _dual_code(e.base, gen, n, dim)  # emitted even for k = 0: it may raise
        k = operator.index(e.exponent)
        if k == 0:
            return "_one", ["_zero"] * dim
        scale = gen.emit(f"{k} * {gen.power(v, k - 1)}")
        return gen.emit(gen.power(v, k)), [gen.emit(f"{scale} * {gi}") for gi in g]
    if isinstance(e, BinOp) and e.op in _BINARY_OPS:
        va, ga = _dual_code(e.left, gen, n, dim)
        vb, gb = _dual_code(e.right, gen, n, dim)
        if e.op in ("+", "-"):
            value = gen.emit(f"{va} {e.op} {vb}")
            return value, [gen.emit(f"{a} {e.op} {b}") for a, b in zip(ga, gb)]
        if e.op == "*":
            value = gen.emit(f"{va} * {vb}")
            return value, [gen.emit(f"{vb} * {a} + {va} * {b}") for a, b in zip(ga, gb)]
        gen.lines.append(f"_check_nonzero({vb})")
        inv = gen.emit(f"_one / {vb}")
        value = gen.emit(f"{va} * {inv}")
        return value, [
            gen.emit(f"({a} - {va} * {inv} * {b}) * {inv}") for a, b in zip(ga, gb)
        ]
    raise TypeError(f"not an Expr: {e!r}")


_TEMP = re.compile(r"\bt\d+\b")


def _live_lines(lines, results):
    """The lines that the names in ``results``, or a division check, read.

    Walks backwards: an assignment is kept when a later kept line or a
    result reads its target; every ``_check_nonzero`` line is kept, so the
    same inputs raise EvalError.
    """
    live = set(results)
    kept = []
    for line in reversed(lines):
        target, assign, rhs = line.partition(" = ")
        if assign and target not in live:
            continue
        live.update(_TEMP.findall(rhs if assign else line))
        kept.append(line)
    return kept[::-1]


def kernel(exprs, n: int, m: int, gradient: bool = False):
    """One compiled ``(x, u) -> ndarray`` for a sequence of expressions.

    The body is the value code (or the dual-number code) of each
    expression in turn, so every stored number is bit for bit what
    interpreting its tree gives at that point.  The gradient is taken
    w.r.t. (x1..xn, u1..um).  The result is one ``np.empty`` array of
    shape (len(exprs)[, K]) for values and (len(exprs), n + m[, K]) for
    gradients, with K the batch shape of x, whatever the expressions read;
    a single expression, not in a sequence, drops the leading row axis, so
    it gives a 0-d array at a point.  Gradient kernels keep only the
    lines a gradient entry or a division check reads: values no entry
    needs are not computed, so a dead power that would overflow a Python
    float does not raise OverflowError here.
    """
    single = isinstance(exprs, Expr)
    rows = [exprs] if single else list(exprs)
    gen = _Codegen()
    if gradient:
        grads = [_dual_code(e, gen, n, n + m)[1] for e in rows]
        gen.lines = _live_lines(gen.lines, [g for grad in grads for g in grad])
        shape = (len(rows), n + m)
        stores = [((i, j), g) for i, grad in enumerate(grads) for j, g in enumerate(grad)]
    else:
        shape = (len(rows),)
        stores = [((i,), _value_code(e, gen)) for i, e in enumerate(rows)]
    if single:
        shape, stores = shape[1:], [(index[1:], name) for index, name in stores]
    gen.lines.append(f"out = _empty({shape} + _batch_shape(x))")
    gen.lines += [f"out[{index}] = {name}" for index, name in stores]
    return gen.build("out")


def stage_pass(f, ell, h, n: int, m: int):
    """Compiled stage pass ``(x0, us, record)`` of a model.

    f (n expressions), ell (one) and h (p expressions) are over x1..xn and
    u1..um.  The pass runs over the inputs us (N, m), N >= 1, once, from
    the state x0 (n,), and at each step k computes x_{k+1} = f(x_k, u_k),
    ell_k and h_k by the value code of ``kernel`` and the Jacobians f_z,
    ell_z and h_z by its live dual code, in the order it was emitted.  The
    results go into the step record, a C-contiguous (N + 1, R) array with
    R = n + 1 + p + (n + p + 1)(n + m):
    row k holds x_k, ell_k, h_k, then f_z, ell_z and h_z at z_k = (x_k,
    u_k), each flattened row-major like the batched kernels transposed to
    (N, rows[, n + m]); row N holds x_N.  The pass appends one tuple per
    step to one list and stores it with one ``struct.pack_into`` at the
    end, from entry n of row 0 on, so x0 and the unused tail of row N are
    not written, and an EvalError or OverflowError leaves the record
    untouched.

    The loop runs on Python floats, bound to what the numpy kernels compute
    at the same points: each ``^`` is libm ``pow`` (Python's ``**``), and a
    division checks its divisor like the kernels do.  So every output is
    bit for bit the batched kernels' at the states of stepping f, except
    that where a power overflows numpy gives inf and the pass raises
    OverflowError.
    """
    gen = _Codegen(floats=True)
    gen.names["_pack_into"] = struct.pack_into
    models = (f, [ell], h)
    values = [[_value_code(e, gen) for e in rows] for rows in models]
    grads = [[g for e in rows for g in _dual_code(e, gen, n, n + m)[1]] for rows in models]
    # the record row of step k after x_k: ell, h, f_z, ell_z, h_z, then x_{k+1}
    row = values[1] + values[2] + grads[0] + grads[1] + grads[2] + values[0]
    gen.lines = _live_lines(gen.lines, row)
    state = "".join(f"x_{i}, " for i in range(n))
    inputs = "".join(f"u_{j}, " for j in range(m))
    # the bindings become default arguments: locals read faster than globals
    bound = "".join(f", {name}={name}" for name in gen.names)
    return gen.define(
        f"def compiled(x0, us, record{bound}):\n"
        f"    {state}= x0.tolist()\n"
        "    rows = []\n"
        "    extend = rows.extend\n"
        + f"    for {inputs}in us.tolist():\n"
        + gen.body("        ")
        + f"        extend(({', '.join(row)},))\n"
        + f"        {state}= {', '.join(values[0])},\n"
        # one store: packing the doubles into the record is about twice as
        # fast as numpy's ``out[:] = rows``
        + f"    _pack_into(f'{{len(rows)}}d', record, {8 * n}, *rows)\n"
    )

"""Small arithmetic expression language for dynamics, costs and outputs.

Grammar (standard precedence, ``^`` binds tighter than unary minus)::

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' exponent)?
    atom    :=  NUMBER | IDENT | '(' expr ')'

``+ - * /`` are left associative, ``^`` is right associative and its
exponent must be a nonnegative integer literal (chains like ``x^2^3``
collapse to ``x^8``) of at most 65536, the chain's value included.
Identifiers are ``x1..xn`` and ``u1..um``, and number literals must be
finite as doubles.  Parsing and compiling use explicit stacks, so
neither nesting nor the caller's stack depth is bounded.

``kernel`` compiles a sequence of expressions into one straight-line
Python function that computes their values, or their gradients, and
stores them in one array, or returns one value at a point as a Python
float; every model and certificate callback is one such kernel.
Gradients are exact (the grammar admits only polynomial and rational
expressions): ``_derivatives`` builds them as expressions by the
forward-mode rules, with structural zeros and ones folded away, and
they are compiled like values.  A kernel works on a point (scalars) or
on numpy arrays (componentwise broadcast over a trailing batch axis),
and its result always has the batch shape: a constant expression over K
columns gives K values.  The value code performs the operations of a
recursive tree walk one for one, in the same order and without constant
folding, so values are bit-identical to interpreting the tree at a
point; integer powers of arrays call libm ``pow`` like scalar ``**``
does, so a batch evaluation equals the pointwise ones bit for bit.

``stage_pass`` compiles a whole model (dynamics f, stage cost ell and
outputs h) into one Python-float loop over an input sequence: at each step
it computes the next state, ell and h, then the Jacobians f_z, ell_z and
h_z, which read the values' temporaries, appends them as one tuple to one
list, and at the end stores the list with one write into the rollout's
step record, one row per step.
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

import math
import operator
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import TacempcError, quoted


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


@dataclass(frozen=True, eq=False, repr=False)
class Num(Expr):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    kind: str  # 'x' or 'u'
    index: int  # zero-based


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(Expr):
    op: str  # '+', '-', '*', '/'
    left: Expr
    right: Expr


_BINARY_OPS = ("+", "-", "*", "/")  # the operators a BinOp may carry


@dataclass(frozen=True, eq=False, repr=False)
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
_MAX_EXPONENT = 2**16  # largest exponent, chains like x^2^2^2^2 included


class _Tokens:
    def __init__(self, source: str):
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
    """Parse ``source`` into an Expr over x1..xn and u1..um.

    Operator precedence parsing: operands wait on one stack, and operators,
    unary minus signs ("neg") and open parentheses on another, so nesting
    costs no Python frame.
    """
    # how tightly each entry of the operator stack binds; a token that ends
    # an operand group (')', the end or any other) binds 1, so it applies
    # every operator down to the innermost '(', which binds 0
    precedence = {"(": 0, "+": 2, "-": 2, "*": 3, "/": 3, "neg": 4}
    toks = _Tokens(source)
    operands, ops = [], []
    while True:
        kind, text, pos = toks.next()
        if text in ("-", "("):  # a prefix of the next operand
            ops.append("neg" if text == "-" else text)
            continue
        operands.append(_parse_atom(kind, text, pos, n, m))
        while True:  # the operand's power, then each group it closes
            if toks.peek()[1] == "^":
                toks.next()
                operands.append(Pow(operands.pop(), _parse_exponent(toks)))
            kind, text, pos = toks.next()
            binding = precedence[text] if text in _BINARY_OPS else 1
            while ops and precedence[ops[-1]] >= binding:
                op, right = ops.pop(), operands.pop()
                operands.append(Neg(right) if op == "neg" else BinOp(op, operands.pop(), right))
            if text != ")" or not ops:
                break
            ops.pop()  # its '('
        if text in _BINARY_OPS:
            ops.append(text)
        elif ops:
            raise ExprSyntaxError("expected ')'", pos)
        elif kind != "eof":
            raise ExprSyntaxError(f"unexpected token {quoted(text)}", pos)
        else:
            return operands.pop()


def _parse_exponent(toks):
    """The value of an exponent chain, right associative: x^2^3 == x^(2^3)."""
    too_large = f"exponent exceeds {_MAX_EXPONENT}"
    chain = []
    while True:
        kind, text, pos = toks.next()
        if kind != "num" or not re.fullmatch(r"\d+", text):
            raise ExprSyntaxError("exponent must be a nonnegative integer literal", pos)
        # checked before int() and ** run: either is slow, or fails, on huge numbers
        if len(text.lstrip("0")) > len(str(_MAX_EXPONENT)):
            raise ExprSyntaxError(too_large, pos)
        chain.append((int(text), pos))
        if toks.peek()[1] != "^":
            break
        toks.next()
    power = 1
    for value, pos in reversed(chain):
        if value > 1 and power >= _MAX_EXPONENT.bit_length():  # 2**power > bound
            raise ExprSyntaxError(too_large, pos)
        power = value**power
        if power > _MAX_EXPONENT:
            raise ExprSyntaxError(too_large, pos)
    return power


def _parse_atom(kind, text, pos, n, m):
    """The leaf a number or identifier token stands for."""
    if kind == "num":
        value = float(text)
        if not math.isfinite(value):
            raise ExprSyntaxError("number literal overflows a double", pos)
        return Num(value)
    if kind == "ident":
        match = _IDENT_RE.match(text)
        if match is None:
            raise ExprSyntaxError(f"unknown identifier {quoted(text)}", pos)
        var_kind, digits = match.groups()
        limit = n if var_kind == "x" else m
        # digits first: int() fails on more than 4,300 of them
        if len(digits) > len(str(limit)) or int(digits) > limit:
            raise ExprSyntaxError(
                f"identifier {quoted(text)} exceeds declared dimension {limit}", pos
            )
        return Var(var_kind, int(digits) - 1)
    raise ExprSyntaxError(f"expected a number, identifier or '(', got {quoted(text)}", pos)


# ---------------------------------------------------------------------------
# Derivatives
#
# The source transformation of forward mode (Griewank & Walther,
# "Evaluating Derivatives"): the dual-number rules, applied term for term
# and in the same order, build the value and gradient of an expression as
# expressions.  The smart constructors fold the structural zeros and ones
# _ZERO and _ONE (nodes compare by identity, so a parsed 0 is not one), so
# no node built here multiplies by 0 or 1, or adds or subtracts 0.  On
# finite values folding changes a result only in the sign of a zero, and
# where dual arithmetic met inf * 0 the folded entry may be a number.

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _neg(a):
    return _ZERO if a is _ZERO else Neg(a)


def _add(a, b):
    return b if a is _ZERO else a if b is _ZERO else BinOp("+", a, b)


def _sub(a, b):
    return _neg(b) if a is _ZERO else a if b is _ZERO else BinOp("-", a, b)


def _mul(a, b):
    if a is _ZERO or b is _ZERO:
        return _ZERO
    return b if a is _ONE else a if b is _ONE else BinOp("*", a, b)


_FOLDED = {"+": _add, "-": _sub, "*": _mul}


def _postorder(root: Expr, done):
    """The nodes of root's tree that are not in ``done``, children first
    and left to right, in the order of a recursive walk.  The caller puts
    each node in ``done`` as it gets it, so a node shared in the tree
    comes once, and nothing under a node already done is visited."""
    stack = [(root, False)]
    while stack:
        e, ready = stack.pop()
        if ready:
            yield e
        elif e not in done:
            stack.append((e, True))
            stack += [(c, False) for c in reversed(_children(e))]


def _children(e: Expr):
    if isinstance(e, BinOp):
        return e.left, e.right
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def _derivatives(root: Expr, n: int, dim: int):
    """(value, gradient w.r.t. (x1..xn, u1..)) of root as Exprs, dim entries.

    The value is the node itself wherever its operands' values are, so
    compiled code shares it with the value code; a quotient's value is
    a * (1 / b) as in dual arithmetic, and a zero power's is _ONE.
    """
    done = {}  # node -> (value, gradient)
    for e in _postorder(root, done):
        if isinstance(e, (Num, Var)):
            value, grad = e, [_ZERO] * dim
            if isinstance(e, Var):
                grad[e.index if e.kind == "x" else n + e.index] = _ONE
        elif isinstance(e, Neg):
            v, g = done[e.arg]
            value, grad = (e if v is e.arg else Neg(v)), [_neg(gi) for gi in g]
        elif isinstance(e, Pow) and operator.index(e.exponent) == 0:
            value, grad = _ONE, [_ZERO] * dim
        elif isinstance(e, Pow):
            v, g = done[e.base]
            k = operator.index(e.exponent)
            # k * v^(k-1), with v^1 = v bit for bit (libm pow)
            scale = _ONE if k == 1 else _mul(Num(float(k)), v if k == 2 else Pow(v, k - 1))
            value, grad = (e if v is e.base else Pow(v, k)), [_mul(scale, gi) for gi in g]
        elif isinstance(e, BinOp) and e.op == "/":
            (va, ga), (vb, gb) = done[e.left], done[e.right]
            inv = BinOp("/", _ONE, vb)
            value = _mul(va, inv)
            grad = [_mul(_sub(a, _mul(value, b)), inv) for a, b in zip(ga, gb)]
        elif isinstance(e, BinOp) and e.op in _FOLDED:
            (va, ga), (vb, gb) = done[e.left], done[e.right]
            value = e if va is e.left and vb is e.right else _FOLDED[e.op](va, vb)
            if e.op == "*":
                grad = [_add(_mul(vb, a), _mul(va, b)) for a, b in zip(ga, gb)]
            else:
                grad = [_FOLDED[e.op](a, b) for a, b in zip(ga, gb)]
        else:
            raise TypeError(f"not an Expr: {type(e).__name__}")
        done[e] = value, grad
    return done[root]


# ---------------------------------------------------------------------------
# Compilation
#
# Expressions are translated once into straight-line Python source that
# performs exactly the floating-point operations of a recursive walk of the
# trees, in the same order: every interior node becomes one temporary, once
# (a node reached again reads its temporary), variables are read as x[i] /
# u[i] where they occur and float constants are bound by name (never
# printed into the source).  The value code folds and simplifies nothing,
# so values are bit-identical to tree interpretation; gradients are the
# value code of the folded trees of _derivatives.


def _check_nonzero(b):
    """EvalError if the divisor b, or any entry of an array b, is zero."""
    if (b == 0).any() if isinstance(b, np.ndarray) else b == 0:
        raise EvalError("division by zero")


def _pow(a, k):
    """a ** k; arrays go through libm pow, which scalar ``**`` also calls.

    numpy's array ``**`` computes a**2 as a*a and other powers in its own
    loops; either can differ from libm pow by an ulp.
    """
    if isinstance(a, np.ndarray):
        return np.float_power(a, k)
    return a**k


def _batch_shape(x):
    """The trailing batch shape of an argument: () at a point."""
    try:
        return x.shape[1:]
    except AttributeError:  # a list or tuple
        return np.shape(x)[1:]


class _Codegen:
    """Accumulates the lines and the name bindings of one generated function.

    A kernel's code reads variables as ``x[i]``/``u[i]`` and writes ``^`` as
    ``_pow``.  A stage pass's code (``floats``) runs on Python floats: it
    reads each variable from a local ``x_i``/``u_i`` and writes ``^`` as
    Python's ``**``.  Both check divisions with ``_check_nonzero``.
    ``codes`` maps each emitted node to the name holding its value, and
    ``checked`` holds the names already checked for zero.
    """

    def __init__(self, floats=False):
        self.lines = []
        self.names = {
            "_check_nonzero": _check_nonzero,
            "_pow": _pow,
            "_empty": np.empty,
            "_batch_shape": _batch_shape,
        }
        self.codes = {}
        self.checked = set()
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

    def check(self, name):
        """Emit the zero check of a divisor, once per name."""
        if name not in self.checked:
            self.checked.add(name)
            self.lines.append(f"_check_nonzero({name})")

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


def _value_code(root: Expr, gen: _Codegen) -> str:
    """Emit the value computation of root, once per node; returns the name
    or leaf holding it."""
    for e in _postorder(root, gen.codes):
        if isinstance(e, Num):
            code = gen.const(e.value)
        elif isinstance(e, Var):
            code = gen.var(e.kind, e.index)
        else:
            args = [gen.codes[c] for c in _children(e)]
            if isinstance(e, Neg):
                code = gen.emit(f"-{args[0]}")
            elif isinstance(e, Pow):
                code = gen.emit(gen.power(args[0], e.exponent))
            elif isinstance(e, BinOp) and e.op in _BINARY_OPS:
                if e.op == "/":
                    gen.check(args[1])
                code = gen.emit(f"{args[0]} {e.op} {args[1]}")
            else:
                raise TypeError(f"not an Expr: {type(e).__name__}")
        gen.codes[e] = code
    return gen.codes[root]


def _check_divisors(root: Expr, gen: _Codegen):
    """Emit the zero check of every divisor in root, in the value code's order."""
    done = set()
    for e in _postorder(root, done):
        done.add(e)
        if isinstance(e, BinOp) and e.op == "/":
            gen.check(_value_code(e.right, gen))


def kernel(exprs, n: int, m: int, gradient: bool = False):
    """One compiled ``(x, u) -> ndarray`` for a sequence of expressions.

    The body is the value code of each expression in turn, so every stored
    value is bit for bit what interpreting its tree gives at that point;
    for gradients, the zero checks of the expressions' divisors and then
    the value code of each gradient entry of ``_derivatives``, w.r.t.
    (x1..xn, u1..um).  The result is one ``np.empty`` array of shape
    (len(exprs)[, K]) for values and (len(exprs), n + m[, K]) for
    gradients, with K the batch shape of x, whatever the expressions read;
    a single expression, not in a sequence, drops the leading row axis, so
    its value kernel gives a Python float at a point.  A kernel over x
    alone (m = 0) may be called with x alone.  A gradient kernel raises
    EvalError wherever the value kernel does, and computes only what an
    entry or a check reads: a dead power that would overflow a Python
    float does not raise OverflowError here.
    """
    single = isinstance(exprs, Expr)
    rows = [exprs] if single else list(exprs)
    gen = _Codegen()
    if gradient:
        for e in rows:
            _check_divisors(e, gen)
        grads = [[_value_code(g, gen) for g in _derivatives(e, n, n + m)[1]] for e in rows]
        shape = (len(rows), n + m)
        stores = [((i, j), g) for i, grad in enumerate(grads) for j, g in enumerate(grad)]
    else:
        shape = (len(rows),)
        stores = [((i,), _value_code(e, gen)) for i, e in enumerate(rows)]
    if single:
        shape, stores = shape[1:], [(index[1:], name) for index, name in stores]
    gen.lines.append(f"out = _empty({shape} + _batch_shape(x))")
    gen.lines += [f"out[{index}] = {name}" for index, name in stores]
    result = "out" if shape else "out if out.ndim else float(out)"
    params = "x, u=()" if m == 0 else "x, u"
    return gen.define(f"def compiled({params}):\n{gen.body('    ')}    return {result}\n")


def stage_pass(f, ell, h, n: int, m: int):
    """Compiled stage pass ``(x0, us, record)`` of a model.

    f (n expressions), ell (one) and h (p expressions) are over x1..xn and
    u1..um.  The pass runs over the inputs us (N, m), N >= 1, once, from
    the state x0 (n,), and at each step k computes x_{k+1} = f(x_k, u_k),
    ell_k and h_k by the value code of ``kernel``, then the Jacobians f_z,
    ell_z and h_z by the value code of the gradient entries, which reads
    the values' temporaries.  The results go into the step record, a
    C-contiguous (N + 1, R) array with R = n + 1 + p + (n + p + 1)(n + m):
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
    grads = [
        [_value_code(g, gen) for e in rows for g in _derivatives(e, n, n + m)[1]]
        for rows in models
    ]
    # the record row of step k after x_k: ell, h, f_z, ell_z, h_z, then x_{k+1}
    row = values[1] + values[2] + grads[0] + grads[1] + grads[2] + values[0]
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

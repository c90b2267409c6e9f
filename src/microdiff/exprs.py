"""Small expression language for operators.

Grammar (precedence high to low): ``^``, unary ``-``, ``*`` and ``/``,
binary ``+ -``.  ``*`` is noncommutative and evaluated left to right.
Atoms: integer literals (rationals via ``/``), the uniformizer ``p``,
coordinates ``x`` / ``x1..xd``, derivations ``d`` / ``d1..dd``, the inverse
derivation ``dinv``, parentheses, and the comprehensions
``prod(n=a..b, body)`` / ``sum(n=a..b, body)`` whose index variable may
appear in exponents.  An evaluation error names the position of its
operator's token (of ``prod``/``sum`` for a range bound).

Evaluation folds on the operator store: a number stays a ``Fraction``, an
operator is the kernel's general sums ``(sums, W, E, n, None)`` over
``p^W / E`` at the context's precision ``n`` and degree cap.  A symbol or
a number lifts to one row, a number scales the integers, two operators
multiply in the kernel, and ``+`` and ``-`` are the operator sum
(:func:`microdiff.diffop._sum`); :func:`evaluate` wraps the result in one
:class:`MicroOp`, flat where each coefficient is one constant (``_flat``).
Every step keeps the operator arithmetic's term order and refusals: the
degree cap per term pair, the window on each product, and ``e * deg f`` up
front for ``f^e``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .diffop import (DEFAULT_WINDOW_CAP, MicroOp, _as_rows, _as_terms, _check_ring, _flat,
                     _kernel_sums, _scaled, _sum, _window_cap_check)
from .errors import DegreeCapOverflow, ExprSyntaxError, UnknownSymbol
from .padic import DEFAULT_PRECISION, DEFAULT_PRIME, check_prime
from .tate import DEFAULT_DEGREE_CAP

# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: object
    rhs: object
    pos: int = field(default=0, compare=False)  # of the operator's token


@dataclass(frozen=True)
class Compr:
    kind: str  # 'prod' | 'sum'
    var: str
    lo: object
    hi: object
    body: object
    pos: int = field(default=0, compare=False)  # of the kind's token


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(\.\.)|([()+\-*/^=,]))")
_KINDS = (None, "num", "name", "dots", "op")  # token kind by index of the matched group


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        g = m.lastindex
        tokens.append((_KINDS[g], m.group(g), m.start(g)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise ExprSyntaxError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.additive()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def additive(self):
        node = self.multiplicative()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op, pos = self.next()
            node = Bin(op, node, self.multiplicative(), pos)
        return node

    def multiplicative(self):
        node = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            _, op, pos = self.next()
            node = Bin(op, node, self.unary(), pos)
        return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            pos = self.next()[2]
            # right-associative; unary minus binds below ^, so -2 needs parens
            exponent = self.power_operand()
            return Bin("^", base, exponent, pos)
        return base

    def power_operand(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "(":
            return self.atom()
        if tok[0] == "op" and tok[1] == "-":
            self.next()
            return Neg(self.power_operand())
        return self.power()

    def atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "num":
            return Num(int(value))
        if kind == "op" and value == "(":
            node = self.additive()
            self.expect("op", ")")
            return node
        if kind == "name":
            nxt = self.peek()
            if value in ("prod", "sum") and nxt[0] == "op" and nxt[1] == "(":
                return self.comprehension(value, pos)
            return Sym(value)
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)

    def comprehension(self, kind: str, pos: int):
        self.expect("op", "(")
        var_tok = self.expect("name")
        self.expect("op", "=")
        lo = self.additive()
        self.expect("dots")
        hi = self.additive()
        self.expect("op", ",")
        body = self.additive()
        self.expect("op", ")")
        return Compr(kind, var_tok[1], lo, hi, body, pos)


def parse(text: str):
    """Parse an operator expression into its AST."""
    return _Parser(text).parse()


# -- printer -------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(node, parent_prec: int = 0) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        inner = to_text(node.operand, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        left = to_text(node.lhs, prec + 1 if node.op == "^" else prec)  # ^ is right-associative
        right = to_text(node.rhs, prec + 1)
        text = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Compr):
        return (f"{node.kind}({node.var}={to_text(node.lo)}..{to_text(node.hi)}, "
                f"{to_text(node.body)})")
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation ----------------------------------------------------------------


@dataclass(frozen=True)
class EvalContext:
    prime: int = DEFAULT_PRIME
    dim: int = 1
    precision: int = DEFAULT_PRECISION
    degree_cap: int = DEFAULT_DEGREE_CAP
    window_cap: int = DEFAULT_WINDOW_CAP

    def __post_init__(self):
        check_prime(self.prime)


_AXIS_RE = re.compile(r"^([xd])([0-9]+)$")
_ONE = Fraction(1)


def _resolve_symbol(name: str, ctx: EvalContext, env: dict):
    if name in env:
        return env[name]
    if name == "p":
        return Fraction(ctx.prime)
    if name in ("x", "d"):
        if ctx.dim != 1:
            raise UnknownSymbol(f"plain '{name}' needs dim 1; use {name}1..{name}d")
        name += "1"
    zero = (0,) * ctx.dim
    if name == "dinv":
        _check_ring(ctx.dim, ctx.prime, ctx.degree_cap, ctx.precision)
        return _term(_ONE, ctx, (-1,) + zero[1:])
    m = _AXIS_RE.match(name)
    if m:
        letter, axis = m[1], int(m[2])
        if not 1 <= axis <= ctx.dim:
            raise UnknownSymbol(f"axis {axis} out of range for dim {ctx.dim}")
        e = zero[:axis - 1] + (1,) + zero[axis:]
        _check_ring(ctx.dim, ctx.prime, ctx.degree_cap, ctx.precision, axis * (letter == "x"))
        return _term(_ONE, ctx, m=e) if letter == "x" else _term(_ONE, ctx, e)
    raise UnknownSymbol(f"unknown symbol {name!r}")


def _as_op(value, ctx: EvalContext) -> MicroOp:
    """The operator of an evaluated value, a number one flat constant row in
    a ring the checked constructors accept (0 has no monomial to pass the cap)."""
    if isinstance(value, MicroOp):
        return value
    _check_ring(ctx.dim, ctx.prime, ctx.degree_cap if value else 0, ctx.precision)
    return _operator(_term(value, ctx), ctx)


def _operator(kept: tuple, ctx: EvalContext) -> MicroOp:
    """The operator of kernel sums, flat where each is one constant."""
    return MicroOp(ctx.dim, ctx.prime, _as_terms(ctx.dim, ctx.prime, _flat(kept, (0,) * ctx.dim)))


def _as_int(value, what: str, pos: int) -> int:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise ExprSyntaxError(f"{what} must evaluate to an integer", pos)


def evaluate(node, ctx: EvalContext, env: dict | None = None):
    """Evaluate to a MicroOp or a scalar Fraction (numbers stay numbers)."""
    value = _fold(node, ctx, env or {})
    return value if isinstance(value, Fraction) else _operator(value, ctx)


def _fold(node, ctx: EvalContext, env: dict):
    """A Fraction or an operator's kernel sums (see the module docstring)."""
    if isinstance(node, Bin):
        lhs = _fold(node.lhs, ctx, env)
        rhs = _fold(node.rhs, ctx, env)
        if node.op == "+":
            return _add(lhs, rhs, ctx)
        if node.op == "-":
            return _add(lhs, _neg(rhs, ctx), ctx)
        if node.op == "*":
            return _mul(lhs, rhs, ctx)
        if node.op == "/":
            if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
                if rhs == 0:
                    raise ExprSyntaxError("division by zero", node.pos)
                return lhs / rhs
            raise ExprSyntaxError("'/' is for rational literals only", node.pos)
        return _power(lhs, _as_int(rhs, "exponent", node.pos), ctx, node.pos)
    if isinstance(node, Sym):
        return _resolve_symbol(node.name, ctx, env)
    if isinstance(node, Num):
        return Fraction(node.value)
    if isinstance(node, Neg):
        return _neg(_fold(node.operand, ctx, env), ctx)
    if isinstance(node, Compr):
        lo = _as_int(_fold(node.lo, ctx, env), "range bound", node.pos)
        hi = _as_int(_fold(node.hi, ctx, env), "range bound", node.pos)
        acc = Fraction(node.kind == "prod")
        for i in range(lo, hi + 1):
            item = _fold(node.body, ctx, {**env, node.var: Fraction(i)})
            acc = item if i == lo else (_mul if node.kind == "prod" else _add)(acc, item, ctx)
        return acc
    raise TypeError(f"not an expression node: {node!r}")


def _term(q: Fraction, ctx: EvalContext, alpha=None, m=None) -> tuple:
    """q x^m D^alpha (m and alpha 0 by default) as one row of kernel sums."""
    zero = (0,) * ctx.dim
    row = {alpha or zero: [{m or zero: 1}, None, ctx.degree_cap]}
    return _scaled((row, 0, 1, ctx.precision, None), q, ctx.prime)


def _neg(value, ctx: EvalContext):
    return -value if isinstance(value, Fraction) else _scaled(value, -1, ctx.prime)


def _add(a, b, ctx: EvalContext):
    """a + b; operators add by the operator sum, :func:`microdiff.diffop._sum`."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return _sum(*(_term(v, ctx) if isinstance(v, Fraction) else v for v in (a, b)),
                ctx.dim, ctx.prime)


def _mul(a, b, ctx: EvalContext):
    """a*b: a number scales an operator, two operators multiply in the
    product kernel, and each product meets the window cap."""
    if isinstance(a, Fraction):
        if isinstance(b, Fraction):
            return a * b
        out = _scaled(b, a, ctx.prime)
    elif isinstance(b, Fraction):
        out = _scaled(a, b, ctx.prime)
    else:
        out = _kernel_sums(_as_rows(a, ctx.prime), _as_rows(b, ctx.prime), ctx.dim, ctx.prime)
    _window_cap_check(out[0], ctx.window_cap)
    return out


def _power(base, e: int, ctx: EvalContext, pos: int):
    if isinstance(base, Fraction):
        if base == 0 and e < 0:
            raise ExprSyntaxError("division by zero", pos)
        return base**e
    sums, W, E = base[:3]
    monomial = len(sums) == 1 and len(next(iter(sums.values()))[0]) == 1
    if monomial:
        (alpha, (f, _, _)), = sums.items()
        (m, N), = f.items()
        c = Fraction(N, E) * Fraction(ctx.prime) ** W
    if e < 0:
        if not monomial or any(m):
            raise ExprSyntaxError("negative powers need a monomial base", pos)
        # D^-alpha * c^-1 is a product of its own, refused by the window first
        alpha, c, e = tuple(-a for a in alpha), 1 / c, -e
        _window_cap_check({alpha: None}, ctx.window_cap)
    # commutation only lowers x-degrees, so f^e has degree exactly e * deg f
    needed = e * max([sum(k) for f, _, _ in sums.values() for k in f], default=0)
    if needed > ctx.degree_cap:
        raise DegreeCapOverflow(needed, ctx.degree_cap)
    if e and monomial and not (any(alpha) and any(m)):
        # nothing commutes: one step to c^e x^(e*m) D^(e*alpha), whose window
        # refusal names e*|alpha|
        out = _term(c**e, ctx, tuple(e * a for a in alpha), tuple(e * k for k in m))
        _window_cap_check(out[0], ctx.window_cap)
        return out
    # the base's rows and one commutation table serve every step
    out, rows, table = _term(_ONE, ctx), _as_rows(base, ctx.prime), {}
    for _ in range(e):
        out = _kernel_sums(_as_rows(out, ctx.prime), rows, ctx.dim, ctx.prime, table)
        _window_cap_check(out[0], ctx.window_cap)
    return out

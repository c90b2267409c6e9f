"""Small expression language for operators.

Grammar (precedence high to low): ``^``, unary ``-``, ``*`` and ``/``,
binary ``+ -``.  ``*`` is noncommutative and evaluated left to right.
Atoms: integer literals (rationals via ``/``), the uniformizer ``p``,
coordinates ``x`` / ``x1..xd``, derivations ``d`` / ``d1..dd``, the inverse
derivation ``dinv``, parentheses, and the comprehensions
``prod(n=a..b, body)`` / ``sum(n=a..b, body)`` whose index variable may
appear in exponents.  An evaluation error names the position of its
operator's token (of ``prod``/``sum`` for a range bound).

Evaluation folds on the operator store: a number is an ``int``, a
``Fraction`` only where ``/`` or a negative power makes one, and an
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


_TOKEN = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|(\.\.)|([()+\-*/^=,])|(\S)")
_KINDS = (None, "num", "name", "dots")  # by group; an operator is its own kind, group 5 bad


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then ("end", "", len(text)), in one pass."""
    tokens = []
    for m in _TOKEN.finditer(text):
        g, value = m.lastindex, m[m.lastindex]
        if g == 5:
            raise ExprSyntaxError(f"unexpected character {value!r}", m.start())
        tokens.append((_KINDS[g] if g < 4 else value, value, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def expect(self, kind: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ExprSyntaxError(f"expected {kind!r}, found {found}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        node = self.additive()
        tok = self.tokens[self.i]
        if tok[0] != "end":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def additive(self):
        node, tokens = self.multiplicative(), self.tokens
        while (tok := tokens[self.i])[0] in ("+", "-"):
            self.i += 1
            node = Bin(tok[0], node, self.multiplicative(), tok[2])
        return node

    def multiplicative(self):
        node, tokens = self.unary(), self.tokens
        while (tok := tokens[self.i])[0] in ("*", "/"):
            self.i += 1
            node = Bin(tok[0], node, self.unary(), tok[2])
        return node

    def unary(self):
        if self.tokens[self.i][0] == "-":
            self.i += 1
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.tokens[self.i]
        if tok[0] != "^":
            return base
        self.i += 1
        # right-associative; unary minus binds below ^, so -2 needs parens
        return Bin("^", base, self.power_operand(), tok[2])

    def power_operand(self):
        kind = self.tokens[self.i][0]
        if kind == "(":
            return self.atom()
        if kind == "-":
            self.i += 1
            return Neg(self.power_operand())
        return self.power()

    def atom(self):
        tok = self.tokens[self.i]
        self.i += 1
        kind, value = tok[0], tok[1]
        if kind == "num":
            return Num(int(value))
        if kind == "name":
            if value in ("prod", "sum") and self.tokens[self.i][0] == "(":
                return self.comprehension(value, tok[2])
            return Sym(value)
        if kind == "(":
            node = self.additive()
            self.expect(")")
            return node
        raise ExprSyntaxError("unexpected end of input" if kind == "end"
                              else f"unexpected token {value!r}", tok[2])

    def comprehension(self, kind: str, pos: int):
        self.expect("(")
        var = self.expect("name")[1]
        self.expect("=")
        lo = self.additive()
        self.expect("dots")
        hi = self.additive()
        self.expect(",")
        body = self.additive()
        self.expect(")")
        return Compr(kind, var, lo, hi, body, pos)


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


def _resolve_symbol(name: str, ctx: EvalContext, env: dict):
    if name in env:
        return env[name]
    if name == "p":
        return ctx.prime
    if name in ("x", "d"):
        if ctx.dim != 1:
            raise UnknownSymbol(f"plain '{name}' needs dim 1; use {name}1..{name}d")
        name += "1"
    zero = (0,) * ctx.dim
    if name == "dinv":
        _check_ring(ctx.dim, ctx.prime, ctx.degree_cap, ctx.precision)
        return _term(1, ctx, (-1,) + zero[1:])
    m = _AXIS_RE.match(name)
    if m:
        letter, axis = m[1], int(m[2])
        if not 1 <= axis <= ctx.dim:
            raise UnknownSymbol(f"axis {axis} out of range for dim {ctx.dim}")
        e = zero[:axis - 1] + (1,) + zero[axis:]
        _check_ring(ctx.dim, ctx.prime, ctx.degree_cap, ctx.precision, axis * (letter == "x"))
        return _term(1, ctx, m=e) if letter == "x" else _term(1, ctx, e)
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
    if not isinstance(value, tuple) and value.denominator == 1:
        return int(value)
    raise ExprSyntaxError(f"{what} must evaluate to an integer", pos)


def evaluate(node, ctx: EvalContext, env: dict | None = None):
    """Evaluate to a MicroOp or a scalar Fraction (numbers stay numbers)."""
    value = _fold(node, ctx, env or {})
    return _operator(value, ctx) if isinstance(value, tuple) else Fraction(value)


def _fold(node, ctx: EvalContext, env: dict):
    """A number or an operator's kernel sums (see the module docstring)."""
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
            if isinstance(lhs, tuple) or isinstance(rhs, tuple):
                raise ExprSyntaxError("'/' is for rational literals only", node.pos)
            if rhs == 0:
                raise ExprSyntaxError("division by zero", node.pos)
            q = Fraction(lhs, rhs)
            return q.numerator if q.denominator == 1 else q
        return _power(lhs, _as_int(rhs, "exponent", node.pos), ctx, node.pos)
    if isinstance(node, Sym):
        return _resolve_symbol(node.name, ctx, env)
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        return _neg(_fold(node.operand, ctx, env), ctx)
    if isinstance(node, Compr):
        lo = _as_int(_fold(node.lo, ctx, env), "range bound", node.pos)
        hi = _as_int(_fold(node.hi, ctx, env), "range bound", node.pos)
        acc = int(node.kind == "prod")
        for i in range(lo, hi + 1):
            item = _fold(node.body, ctx, {**env, node.var: i})
            acc = item if i == lo else (_mul if node.kind == "prod" else _add)(acc, item, ctx)
        return acc
    raise TypeError(f"not an expression node: {node!r}")


def _term(q: int | Fraction, ctx: EvalContext, alpha=None, m=None) -> tuple:
    """q x^m D^alpha (m and alpha 0 by default) as one row of kernel sums."""
    zero = (0,) * ctx.dim
    kept = {alpha or zero: [{m or zero: 1}, None, ctx.degree_cap]}, 0, 1, ctx.precision, None
    return kept if q == 1 else _scaled(kept, q, ctx.prime)


def _neg(value, ctx: EvalContext):
    return _scaled(value, -1, ctx.prime) if isinstance(value, tuple) else -value


def _add(a, b, ctx: EvalContext):
    """a + b; operators add by the operator sum, :func:`microdiff.diffop._sum`."""
    if not (isinstance(a, tuple) or isinstance(b, tuple)):
        return a + b
    return _sum(*(v if isinstance(v, tuple) else _term(v, ctx) for v in (a, b)),
                ctx.dim, ctx.prime)


def _mul(a, b, ctx: EvalContext):
    """a*b: a number scales an operator, two operators multiply in the
    product kernel, and each product meets the window cap."""
    if not isinstance(a, tuple):
        if not isinstance(b, tuple):
            return a * b
        out = _scaled(b, a, ctx.prime)
    elif not isinstance(b, tuple):
        out = _scaled(a, b, ctx.prime)
    else:
        out = _kernel_sums(_as_rows(a, ctx.prime), _as_rows(b, ctx.prime), ctx.dim, ctx.prime)
    _window_cap_check(out[0], ctx.window_cap)
    return out


def _power(base, e: int, ctx: EvalContext, pos: int):
    if not isinstance(base, tuple):
        if e >= 0:
            return base**e
        if base == 0:
            raise ExprSyntaxError("division by zero", pos)
        return Fraction(base)**e
    sums, W, E = base[:3]
    monomial = len(sums) == 1 and len(next(iter(sums.values()))[0]) == 1
    if monomial:
        (alpha, (f, _, _)), = sums.items()
        (m, N), = f.items()
        c = N * ctx.prime**W if W >= 0 else Fraction(N, ctx.prime**-W)
        c = c if E == 1 else Fraction(c, E)
    if e < 0:
        if not monomial or any(m):
            raise ExprSyntaxError("negative powers need a monomial base", pos)
        # D^-alpha * c^-1 is a product of its own, refused by the window first
        alpha, c, e = tuple(-a for a in alpha), Fraction(1, c), -e
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
    out, rows, table = _term(1, ctx), _as_rows(base, ctx.prime), {}
    for _ in range(e):
        out = _kernel_sums(_as_rows(out, ctx.prime), rows, ctx.dim, ctx.prime, table)
        _window_cap_check(out[0], ctx.window_cap)
    return out

"""Small expression language for operators.

Grammar (precedence high to low): ``^``, unary ``-``, ``*`` and ``/``,
binary ``+ -``.  ``*`` is noncommutative and evaluated left to right.
Atoms: integer literals (rationals via ``/``), the uniformizer ``p``,
coordinates ``x`` / ``x1..xd``, derivations ``d`` / ``d1..dd``, the inverse
derivation ``dinv``, parentheses, and the comprehensions
``prod(n=a..b, body)`` / ``sum(n=a..b, body)`` whose index variable may
appear in exponents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .diffop import DEFAULT_WINDOW_CAP, MicroOp
from .errors import DegreeCapOverflow, ExprSyntaxError, UnknownSymbol
from .microop import mul
from .padic import DEFAULT_PRECISION, DEFAULT_PRIME, PadicScalar
from .tate import DEFAULT_DEGREE_CAP, TateSeries

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


@dataclass(frozen=True)
class Compr:
    kind: str  # 'prod' | 'sum'
    var: str
    lo: object
    hi: object
    body: object


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
            op = self.next()[1]
            node = Bin(op, node, self.multiplicative())
        return node

    def multiplicative(self):
        node = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.next()[1]
            node = Bin(op, node, self.unary())
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
            self.next()
            # right-associative; unary minus binds below ^, so -2 needs parens
            exponent = self.power_operand()
            return Bin("^", base, exponent)
        return base

    def power_operand(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "(":
            return self.atom()
        if tok[0] == "op" and tok[1] == "-":
            self.next()
            return Neg(self.power_operand())
        base = self.atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.next()
            return Bin("^", base, self.power_operand())
        return base

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
                return self.comprehension(value)
            return Sym(value)
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)

    def comprehension(self, kind: str):
        self.expect("op", "(")
        var_tok = self.expect("name")
        self.expect("op", "=")
        lo = self.additive()
        self.expect("dots")
        hi = self.additive()
        self.expect("op", ",")
        body = self.additive()
        self.expect("op", ")")
        return Compr(kind, var_tok[1], lo, hi, body)


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
        left = to_text(node.lhs, prec)
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


_AXIS_RE = re.compile(r"^([xd])([0-9]+)$")


def _resolve_symbol(name: str, ctx: EvalContext, env: dict):
    if name in env:
        return env[name]
    if name == "p":
        return Fraction(ctx.prime)
    if name in ("x", "d"):
        if ctx.dim != 1:
            raise UnknownSymbol(f"plain '{name}' needs dim 1; use {name}1..{name}d")
        name += "1"
    if name == "dinv":
        return _unit_monomial((-1,) + (0,) * (ctx.dim - 1), ctx)
    m = _AXIS_RE.match(name)
    if m:
        letter, axis = m[1], int(m[2])
        if not 1 <= axis <= ctx.dim:
            raise UnknownSymbol(f"axis {axis} out of range for dim {ctx.dim}")
        if letter == "x":
            return MicroOp.constant(TateSeries.coordinate(
                axis, ctx.dim, ctx.prime, ctx.degree_cap, ctx.precision))
        return _unit_monomial((0,) * (axis - 1) + (1,) + (0,) * (ctx.dim - axis), ctx)
    raise UnknownSymbol(f"unknown symbol {name!r}")


def _unit_monomial(alpha: tuple[int, ...], ctx: EvalContext) -> MicroOp:
    """D^alpha with coefficient 1 at the working degree cap and precision."""
    one = TateSeries.constant(1, ctx.dim, ctx.prime, ctx.degree_cap, ctx.precision)
    return MicroOp.monomial(alpha, one, ctx.dim, ctx.prime)


def _as_op(value, ctx: EvalContext) -> MicroOp:
    if isinstance(value, MicroOp):
        return value
    return MicroOp.constant(TateSeries.constant(Fraction(value), ctx.dim, ctx.prime,
                                                ctx.degree_cap, ctx.precision))


def _as_int(value, what: str) -> int:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    if isinstance(value, int):
        return value
    raise ExprSyntaxError(f"{what} must evaluate to an integer", 0)


def evaluate(node, ctx: EvalContext, env: dict | None = None):
    """Evaluate to a MicroOp or a scalar Fraction (numbers stay numbers)."""
    env = env or {}
    if isinstance(node, Num):
        return Fraction(node.value)
    if isinstance(node, Sym):
        return _resolve_symbol(node.name, ctx, env)
    if isinstance(node, Neg):
        v = evaluate(node.operand, ctx, env)
        return -v
    if isinstance(node, Compr):
        lo = _as_int(evaluate(node.lo, ctx, env), "range bound")
        hi = _as_int(evaluate(node.hi, ctx, env), "range bound")
        acc = None
        for i in range(lo, hi + 1):
            item = evaluate(node.body, ctx, {**env, node.var: Fraction(i)})
            if acc is None:
                acc = item
            elif node.kind == "prod":
                acc = _combine_mul(acc, item, ctx)
            else:
                acc = _combine_add(acc, item, ctx)
        if acc is None:
            return Fraction(1) if node.kind == "prod" else Fraction(0)
        return acc
    if isinstance(node, Bin):
        lhs = evaluate(node.lhs, ctx, env)
        rhs = evaluate(node.rhs, ctx, env)
        if node.op == "+":
            return _combine_add(lhs, rhs, ctx)
        if node.op == "-":
            return _combine_add(lhs, -rhs, ctx)
        if node.op == "*":
            return _combine_mul(lhs, rhs, ctx)
        if node.op == "/":
            if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
                if rhs == 0:
                    raise ExprSyntaxError("division by zero", 0)
                return lhs / rhs
            raise ExprSyntaxError("'/' is for rational literals only", 0)
        if node.op == "^":
            return _power(lhs, rhs, ctx)
    raise TypeError(f"not an expression node: {node!r}")


def _combine_add(a, b, ctx: EvalContext):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return _as_op(a, ctx) + _as_op(b, ctx)


def _combine_mul(a, b, ctx: EvalContext):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return mul(_as_op(a, ctx), _as_op(b, ctx), window_cap=ctx.window_cap)


def _power(base, exponent, ctx: EvalContext):
    e = _as_int(exponent, "exponent")
    if isinstance(base, Fraction):
        if base == 0 and e < 0:
            raise ExprSyntaxError("division by zero", 0)
        return base**e
    if e < 0:
        if len(base.terms) == 1:
            (alpha, coeff), = base.terms.items()
            if len(coeff.coeffs) == 1 and coeff.is_unit():
                inv_alpha = tuple(-x for x in alpha)
                c = coeff.coeffs[(0,) * base.dim].inv()
                unit = mul(_unit_monomial(inv_alpha, ctx),
                           MicroOp.constant(TateSeries.constant(
                               c, base.dim, base.prime, ctx.degree_cap),
                               base.dim, base.prime),
                           window_cap=ctx.window_cap)
                return _power(unit, Fraction(-e), ctx)
        raise ExprSyntaxError("negative powers need a monomial base", 0)
    # commutation only lowers x-degrees, so f^e has degree exactly e * deg f
    needed = e * max([sum(m) for c in base.terms.values() for m in c.coeffs], default=0)
    if needed > ctx.degree_cap:
        raise DegreeCapOverflow(needed, ctx.degree_cap)
    out = _unit_monomial((0,) * base.dim, ctx)
    (alpha, f), = base.terms.items() if len(base.terms) == 1 else ((None, None),)
    if e > 1 and f is not None and len(f.coeffs) == 1:
        (m, c), = f.coeffs.items()
        if not (any(alpha) and any(m)):
            # nothing commutes: one step to c^e x^(e*m) D^(e*alpha), whose
            # window refusal names e*|alpha|
            base, e = MicroOp.monomial(tuple(e * a for a in alpha), TateSeries(
                base.dim, base.prime, {tuple(e * k for k in m): PadicScalar(
                    c.prime, e * c.valuation, c.unit**e, c.precision)}, f.degree_cap),
                base.dim, base.prime), 1
    for _ in range(e):
        out = mul(out, base, window_cap=ctx.window_cap)
    return out

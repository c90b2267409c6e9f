import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microdiff import (DegreeCapOverflow, ExprSyntaxError, MicroOp, MicrodiffError,
                       PadicScalar, TateSeries, UnknownSymbol, diffop, microop, mul,
                       product_op)
from microdiff.exprs import (Bin, Compr, EvalContext, Neg, Num, Sym, evaluate,
                             parse, to_text)

F = Fraction
CTX = EvalContext()


def ev(text, ctx=CTX):
    return evaluate(parse(text), ctx)


def as_op(text, ctx=CTX):
    from microdiff.exprs import _as_op
    return _as_op(ev(text, ctx), ctx)


class TestParse:
    def test_precedence(self):
        ast = parse("1 - p*d")
        assert ast == Bin("-", Num(1), Bin("*", Sym("p"), Sym("d")))

    def test_power_binds_tightest(self):
        ast = parse("p^2*d")
        assert ast == Bin("*", Bin("^", Sym("p"), Num(2)), Sym("d"))

    def test_unary_minus_below_power(self):
        assert parse("-p^2") == Neg(Bin("^", Sym("p"), Num(2)))

    def test_left_to_right_product(self):
        ast = parse("a*b*c")
        assert ast == Bin("*", Bin("*", Sym("a"), Sym("b")), Sym("c"))

    def test_comprehension(self):
        ast = parse("prod(n=1..4, 1 - p^n*d)")
        assert isinstance(ast, Compr) and ast.kind == "prod" and ast.var == "n"

    def test_exponent_expression(self):
        ast = parse("p^(n^2)")
        assert ast == Bin("^", Sym("p"), Bin("^", Sym("n"), Num(2)))

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 + ")
        assert err.value.position == 4

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("(1 + p")

    def test_bad_character(self):
        # the character itself, not the whitespace before it
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 # 2")
        assert str(err.value) == "unexpected character '#' (at position 2)"
        assert err.value.position == 2

    @pytest.mark.parametrize("text, char, pos", [
        ("1 + $", "$", 4), ("1+$", "$", 2), ("1 +\t $", "$", 5), ("prod(n=1...3, n)", ".", 10)])
    def test_a_bad_character_is_named_at_its_position(self, text, char, pos):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"unexpected character {char!r} (at position {pos})"
        assert err.value.position == pos

    @pytest.mark.parametrize("text, message, pos", [
        ("1 +", "unexpected end of input", 3), ("1 + ", "unexpected end of input", 4),
        ("", "unexpected end of input", 0), ("(1 + 2", "expected ')', found end of input", 6),
        ("prod(n=1..3", "expected ',', found end of input", 11)])
    def test_the_end_of_input_is_named(self, text, message, pos):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {pos})" and err.value.position == pos


class TestPrintRoundTrip:
    CASES = [
        "1 - p*d",
        "(1 - p*d)*(x*d + p)",
        "prod(n=1..4, 1 - p^n*d)",
        "sum(n=0..5, p^(n^2)*d^n)",
        "dinv*x",
        "-p^3 + 1/2",
        "p^-2*d",
        "1 - (p + p^2)*d + p^3*d^2",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        ast = parse(text)
        assert parse(to_text(ast)) == ast


class TestEvaluate:
    def test_finite_product(self):
        P = as_op("(1 - p*d)*(1 - p^2*d)")
        assert P.coefficient((1,)).coefficient((0,)).as_fraction() == -6

    def test_prod_matches_catalog(self):
        P = as_op("prod(n=1..4, 1 - p^n*d)")
        assert P.terms_equal(product_op(4, exact=True))

    def test_sum_matches_gauss(self):
        from microdiff import gauss_op
        G = as_op("sum(n=0..5, p^(n^2)*d^n)")
        assert G.terms_equal(gauss_op(5, exact=True))

    def test_dinv_x(self):
        S = as_op("dinv*x")
        assert set(S.terms) == {(-1,), (-2,)}
        assert S.coefficient((-1,)) == TateSeries.coordinate(1)

    def test_rational_literal(self):
        assert ev("3/4") == F(3, 4)

    @pytest.mark.parametrize("text, value", [
        ("2/2", 1), ("p^2", 4), ("0^0", 1), ("p^(-1)", F(1, 2)), ("sum(n=1..3, n)", 6),
        ("prod(n=1..0, d)", 1), ("(1/2)*2", 1), ("3", 3)])
    def test_a_number_evaluates_to_a_fraction(self, text, value):
        # the fold keeps integers as int; evaluate hands out a Fraction
        got = ev(text)
        assert type(got) is Fraction and got == value

    def test_rational_on_operators_rejected(self):
        with pytest.raises(ExprSyntaxError):
            ev("d/2")

    def test_scalar_arithmetic(self):
        assert ev("p^-2 + 1/4") == F(1, 2)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            ev("q + 1")

    def test_axis_symbols(self):
        ctx = EvalContext(dim=2)
        P = as_op("x1*d2 + d1", ctx)
        assert set(P.terms) == {(0, 1), (1, 0)}
        with pytest.raises(UnknownSymbol):
            ev("x3", ctx)
        with pytest.raises(UnknownSymbol):
            ev("x", ctx)

    def test_operator_power(self):
        P = as_op("(x*d)^2")
        Q = mul(as_op("x*d"), as_op("x*d"))
        assert P.terms_equal(Q)

    def test_dinv_power(self):
        S = as_op("dinv^3")
        assert set(S.terms) == {(-3,)}

    def test_negative_power_of_monomial(self):
        S = as_op("(p*d)^-1")
        assert set(S.terms) == {(-1,)}
        assert S.coefficient((-1,)).coefficient((0,)).as_fraction() == F(1, 2)

    def test_negative_power_of_sum_rejected(self):
        with pytest.raises(ExprSyntaxError):
            ev("(1 + d)^-1")

    def test_noncommutative_order(self):
        left = as_op("d*x")
        right = as_op("x*d")
        assert not left.terms_equal(right)
        assert left.terms_equal(right + MicroOp.identity())

    @pytest.mark.parametrize("text, pos", [
        ("x + x^-1", 5), ("1 + 2/0", 5), ("d + d/2", 5), ("1 + 0^-1", 5),
        ("p + d^d", 5), ("1 + prod(n=1..d, d)", 4)])
    def test_errors_name_the_operator_position(self, text, pos):
        with pytest.raises(ExprSyntaxError) as err:
            ev(text)
        assert err.value.position == pos


# -- the fold against the unfolded rules -----------------------------------------
#
# The reference below evaluates as the expression language did before literals
# were folded: every literal is its own MicroOp, joined by mul and +, and a
# power is a loop of products, except that a one-scalar monomial with nothing
# to commute is raised in one step and a negative power inverts a constant
# D-monomial first.


def _ref_unit(alpha, ctx):
    one = TateSeries.constant(1, ctx.dim, ctx.prime, ctx.degree_cap, ctx.precision)
    return MicroOp.monomial(alpha, one, ctx.dim, ctx.prime)


def _ref_as_op(v, ctx):
    if isinstance(v, MicroOp):
        return v
    return MicroOp.constant(TateSeries.constant(v, ctx.dim, ctx.prime, ctx.degree_cap,
                                                ctx.precision))


def _ref_mul(a, b, ctx):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return mul(_ref_as_op(a, ctx), _ref_as_op(b, ctx), window_cap=ctx.window_cap)


def _ref_add(a, b, ctx):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return _ref_as_op(a, ctx) + _ref_as_op(b, ctx)


def _ref_power(base, e, ctx, pos):
    if isinstance(base, Fraction):
        if base == 0 and e < 0:
            raise ExprSyntaxError("division by zero", pos)
        return base**e
    if e < 0:
        (alpha, f), = base.terms.items() if len(base.terms) == 1 else ((None, None),)
        if f is None or len(f.coeffs) != 1 or not f.is_unit():
            raise ExprSyntaxError("negative powers need a monomial base", pos)
        c = MicroOp.constant(TateSeries.constant(f.coeffs[(0,) * ctx.dim].inv(), ctx.dim,
                                                 ctx.prime, ctx.degree_cap))
        unit = mul(_ref_unit(tuple(-a for a in alpha), ctx), c, window_cap=ctx.window_cap)
        return _ref_power(unit, -e, ctx, pos)
    needed = e * max([sum(m) for c in base.terms.values() for m in c.coeffs], default=0)
    if needed > ctx.degree_cap:
        raise DegreeCapOverflow(needed, ctx.degree_cap)
    out = _ref_unit((0,) * ctx.dim, ctx)
    (alpha, f), = base.terms.items() if len(base.terms) == 1 else ((None, None),)
    if e > 1 and f is not None and len(f.coeffs) == 1:
        (m, c), = f.coeffs.items()
        if not (any(alpha) and any(m)):
            coeff = TateSeries(ctx.dim, ctx.prime, {tuple(e * k for k in m): PadicScalar(
                ctx.prime, e * c.valuation, c.unit**e, c.precision)}, f.degree_cap)
            base, e = MicroOp.monomial(tuple(e * a for a in alpha), coeff, ctx.dim,
                                       ctx.prime), 1
    for _ in range(e):
        out = mul(out, base, window_cap=ctx.window_cap)
    return out


def _ref_int(v, what, pos):
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    raise ExprSyntaxError(f"{what} must evaluate to an integer", pos)


def ref_evaluate(node, ctx, env=None):
    env = env or {}
    if isinstance(node, Num):
        return Fraction(node.value)
    if isinstance(node, Sym):
        name = node.name
        if name in env or name == "p":
            return env.get(name, Fraction(ctx.prime))
        if name == "dinv":
            return _ref_unit((-1,) + (0,) * (ctx.dim - 1), ctx)
        letter, axis = re.fullmatch(r"([xd])([0-9]*)", name).groups()
        i = int(axis or 1) - 1
        if letter == "x":
            return MicroOp.constant(TateSeries.coordinate(i + 1, ctx.dim, ctx.prime,
                                                          ctx.degree_cap, ctx.precision))
        return _ref_unit(tuple(int(j == i) for j in range(ctx.dim)), ctx)
    if isinstance(node, Neg):
        return -ref_evaluate(node.operand, ctx, env)
    if isinstance(node, Compr):
        lo = _ref_int(ref_evaluate(node.lo, ctx, env), "range bound", node.pos)
        hi = _ref_int(ref_evaluate(node.hi, ctx, env), "range bound", node.pos)
        acc = Fraction(node.kind == "prod")
        for i in range(lo, hi + 1):
            item = ref_evaluate(node.body, ctx, {**env, node.var: Fraction(i)})
            acc = item if i == lo else (_ref_mul if node.kind == "prod" else _ref_add)(
                acc, item, ctx)
        return acc
    lhs, rhs = ref_evaluate(node.lhs, ctx, env), ref_evaluate(node.rhs, ctx, env)
    if node.op in "+-":
        return _ref_add(lhs, rhs if node.op == "+" else -rhs, ctx)
    if node.op == "*":
        return _ref_mul(lhs, rhs, ctx)
    if node.op == "/":
        if not (isinstance(lhs, Fraction) and isinstance(rhs, Fraction)):
            raise ExprSyntaxError("'/' is for rational literals only", node.pos)
        if rhs == 0:
            raise ExprSyntaxError("division by zero", node.pos)
        return lhs / rhs
    return _ref_power(lhs, _ref_int(rhs, "exponent", node.pos), ctx, node.pos)


def outcome(evaluator, node, ctx):
    """Everything observable: term order, monomial order, values, precisions
    and caps, or the refusal's type, text and ``needed``."""
    try:
        v = evaluator(node, ctx)
    except MicrodiffError as exc:
        return type(exc), str(exc), getattr(exc, "needed", None)
    if isinstance(v, Fraction):
        return v
    return v.tail, v.neg_tail, [
        (a, f.degree_cap, f.exact, [(m, c.valuation, c.unit, c.precision, c.exact)
                                    for m, c in f.coeffs.items()])
        for a, f in v.terms.items()]


def random_literal_text(rng, dim: int, depth: int = 2) -> str:
    """A sum of products of literals, powers of literals and of sums, and
    comprehensions, with exponents -3..6."""
    axes = ("",) if dim == 1 else ("1", "2")
    symbols = ["p", "dinv"] + [c + a for c in "xd" for a in axes]

    def exponent():
        e = rng.randint(-3, 6)
        return str(e) if e >= 0 else f"({e})"

    def factor(depth):
        kind = rng.randrange(6 if depth else 3)
        if kind == 0:
            return rng.choice(["0", "2", "3", "9", "(5/7)", "(-4/9)", "(1/3)"])
        if kind == 1:
            return rng.choice(symbols)
        if kind == 2:
            return f"{rng.choice(symbols)}^{exponent()}"
        if kind == 3:
            return f"({expr(depth - 1)})^{exponent()}"
        if kind == 4:
            return f"({expr(depth - 1)})"
        lo = rng.randint(0, 2)
        body = rng.choice([f"p^n*{factor(depth - 1)}", f"({expr(depth - 1)})^n"])
        return f"{rng.choice(['prod', 'sum'])}(n={lo}..{lo + rng.randint(-1, 3)}, {body})"

    def expr(depth):
        terms = ["*".join(factor(depth) for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))]
        return rng.choice(["", "-"]) + " ".join(
            t if i == 0 else f"{rng.choice('+-')} {t}" for i, t in enumerate(terms))

    return expr(depth)


@st.composite
def literal_exprs(draw):
    """A context and an expression over every literal the fold takes."""
    dim = draw(st.sampled_from((1, 2)))
    ctx = EvalContext(prime=draw(st.sampled_from((2, 3, 5))), dim=dim,
                      precision=draw(st.sampled_from((20, 64, 100))),
                      degree_cap=draw(st.sampled_from((8, 32))),
                      window_cap=draw(st.sampled_from((0, 3, 64, None))))
    return ctx, parse(random_literal_text(draw(st.randoms(use_true_random=False)), dim))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(literal_exprs())
@example((EvalContext(prime=3), parse("(3/5*d^2)^-2 - 2*p^2*x^3*d*(1/7 - dinv)")))
@example((EvalContext(window_cap=3), parse("(d^2)^-2")))
@example((EvalContext(degree_cap=8), parse("(x^2 + d)^5")))
@example((EvalContext(), parse("(1 + d)*(1 - d) - (x - 2)*(x + 2)")))
@example((EvalContext(dim=2), parse("x1*d2 - d2*x1 + prod(n=1..3, 1 - p^n*d1*d2)")))
def test_folding_matches_the_unfolded_rules(case):
    ctx, node = case
    assert outcome(evaluate, node, ctx) == outcome(ref_evaluate, node, ctx)


def test_an_expression_builds_one_operator_and_no_operator_product_or_sum(monkeypatch):
    # a product that commutes used to turn the fold into MicroOps, which then
    # multiplied by diffop._product and added by MicroOp.__add__
    node = parse("(x*d + p*x^2*dinv + 3)^4 - prod(n=1..5, 1 - p^n*d)")
    want = outcome(ref_evaluate, node, CTX)
    built, post_init = [], MicroOp.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    def refused(*args, **kwargs):
        raise AssertionError("evaluation ran an operator product or sum")
    monkeypatch.setattr(MicroOp, "__post_init__", counted)
    monkeypatch.setattr(MicroOp, "__add__", refused)
    monkeypatch.setattr(diffop, "_product", refused)
    monkeypatch.setattr(microop, "_product", refused)
    assert outcome(evaluate, node, CTX) == want
    assert len(built) == 1



@pytest.mark.parametrize("text, ctx, coeffs", [
    ("1 - p*d", CTX, {(0,): 1, (1,): -2}),
    ("prod(n=1..3, 1 - p^n*d)", CTX, {(0,): 1, (1,): -14, (2,): 56, (3,): -64}),
    ("3*d1*d2 - 1/3*p^2*d2 + 5", EvalContext(dim=2), {(1, 1): 3, (0, 1): F(-4, 3), (0, 0): 5}),
    ("3*d - 1/3*dinv", EvalContext(prime=3, precision=20, degree_cap=8),
     {(1,): 3, (-1,): F(-1, 3)}),
    ("(d - dinv)^2", CTX, {(2,): 1, (0,): -2, (-2,): 1})])
def test_a_parsed_constant_coefficient_operator_holds_its_series_twins_store(text, ctx, coeffs):
    # every coefficient one constant: the parsed store is the one the same
    # operator made from series holds, flat sums at its precision and cap
    twin = MicroOp(ctx.dim, ctx.prime, {a: TateSeries.constant(
        PadicScalar.from_fraction(c, ctx.prime, ctx.precision), ctx.dim, ctx.prime,
        ctx.degree_cap) for a, c in coeffs.items()})
    kept = ev(text, ctx).terms.kept
    assert kept == twin.terms.kept and kept[4] == ctx.degree_cap


@pytest.mark.parametrize("text, kept", [("3", ({(0,): 3}, 0, 1, 64, 32)),
                                        ("1/3", ({(0,): 1}, 0, 3, 64, 32)),
                                        ("0", ({}, 0, 1, 64, None))])
def test_a_number_operand_holds_the_flat_sums_of_its_series_twin(text, kept):
    # a number lifted to an operator (``mul d 3``, ``invert 3``) holds flat
    # sums, as the same constant made from series does; 0 holds none
    assert as_op(text).terms.kept == kept
    if text != "0":
        twin = MicroOp.constant(TateSeries.constant(PadicScalar.from_fraction(F(text), 2)))
        assert twin.terms.kept == kept


def test_a_power_forms_each_commutation_once(monkeypatch):
    # every step of f^4 multiplies by the same f: its rows and one commutation
    # table serve the whole loop, so no (alpha, beta) list is formed twice
    formed, commutations = [], diffop._commutations

    def counted(alpha, beta, *args):
        formed.append((alpha, beta))
        return commutations(alpha, beta, *args)
    node = parse("(x*d + p*x^2*dinv + 3)^4")
    want = outcome(ref_evaluate, node, CTX)
    monkeypatch.setattr(diffop, "_commutations", counted)
    assert outcome(evaluate, node, CTX) == want
    assert formed and len(formed) == len(set(formed))

def _power_exponents():
    small = st.integers(0, 3).map(Num)
    return st.one_of(small, st.integers(1, 2).map(lambda e: Neg(Num(e))),
                     st.builds(lambda a, b: Bin("^", Num(a), Num(b)),
                               st.integers(1, 2), st.integers(1, 2)))


def _expressions():
    leaves = st.one_of(st.integers(0, 9).map(Num),
                       st.sampled_from(("p", "x", "d", "dinv")).map(Sym))

    def extend(child):
        return st.one_of(child.map(Neg),
                         st.builds(Bin, st.sampled_from("+-*"), child, child),
                         st.builds(lambda a, b: Bin("/", Num(a), Num(b)),
                                   st.integers(0, 9), st.integers(1, 9)),
                         st.builds(lambda b, e: Bin("^", b, e), child, _power_exponents()))
    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_expressions())
@example(Bin("^", Bin("^", Sym("x"), Num(2)), Num(3)))
@example(Bin("^", Bin("^", Num(2), Num(2)), Bin("^", Num(2), Num(2))))
@example(Bin("^", Neg(Bin("^", Sym("d"), Num(2))), Neg(Num(1))))
def test_printed_text_parses_back_to_an_equal_value(node):
    # (x^2)^3 used to print as x^2^3, which parses as x^(2^3)
    def value(node):  # a refusal's text names positions, which printing moves
        got = outcome(evaluate, node, CTX)
        return got[::2] if isinstance(got, tuple) and isinstance(got[0], type) else got
    back = parse(to_text(node))
    assert back == node
    assert value(back) == value(node)


# -- the tokenizer and parser against the ones they replaced --------------------
#
# The reference below is the regex-per-token tokenizer and the peek/next
# parser that came before the one-pass tokenizer.  Both must give the same
# AST, every position included, or the same refusal at the same position.
# Two refusals are worded anew: a bad character is named itself, at its own
# position, where the reference named the whitespace before it, and the end
# of input is named where the reference printed ''.

_REF_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(\.\.)|([()+\-*/^=,]))")
_REF_KINDS = (None, "num", "name", "dots", "op")


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        g = m.lastindex
        tokens.append((_REF_KINDS[g], m.group(g), m.start(g)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _RefParser:
    def __init__(self, text):
        self.tokens = _ref_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
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
            return Bin("^", base, self.power_operand(), pos)
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
        kind, value, pos = self.next()
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

    def comprehension(self, kind, pos):
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


def _with_positions(node):
    """The AST as nested tuples holding every field, ``pos`` included."""
    if not isinstance(node, (Bin, Compr, Neg)):  # Num, Sym or a field that is no node
        return node
    return (type(node).__name__,) + tuple(
        _with_positions(getattr(node, f.name)) for f in dataclasses.fields(node))


def parsed(parser, text):
    """The AST with its positions, or the refusal's type, text and position."""
    try:
        return "ast", _with_positions(parser(text))
    except ExprSyntaxError as exc:
        return type(exc), str(exc), exc.position


def reworded(text, ref):
    """The reference's outcome with the two refusals worded anew."""
    if ref[0] == "ast":
        return ref
    kind, message, pos = ref
    if message.startswith("unexpected character"):  # at the first non-space from pos
        pos = len(text) - len(text[pos:].lstrip())
        return kind, f"unexpected character {text[pos]!r} (at position {pos})", pos
    return kind, message.replace("token ''", "end of input").replace(
        "found ''", "found end of input"), pos


_EDIT_CHARS = "0123456789pxdn()+-*/^=,. \t\n$#_"


@st.composite
def edited_texts(draw):
    """A literal expression with its whitespace varied, then up to three
    single-character insertions, deletions or replacements."""
    rng = draw(st.randoms(use_true_random=False))
    pieces = random_literal_text(rng, rng.choice((1, 2))).split(" ")
    text = "".join(piece + rng.choice(("", "", " ", "  ", "\t", "\n "))
                   for piece in pieces)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        i = rng.randint(0, len(text))
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert" or i == len(text):
            text = text[:i] + rng.choice(_EDIT_CHARS) + text[i:]
        else:
            text = text[:i] + (rng.choice(_EDIT_CHARS) if edit == "replace" else "") + text[i + 1:]
    return text


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(edited_texts())
@example("1 + $")
@example("1 +")
@example("(1 + 2")
@example("")
@example(" \t ")
@example("prod(n=1..3 1)")
@example("p^-(-2)^3 - x*  d .. 2")
def test_the_parser_matches_the_one_it_replaced(text):
    want = reworded(text, parsed(lambda t: _RefParser(t).parse(), text))
    assert parsed(parse, text) == want

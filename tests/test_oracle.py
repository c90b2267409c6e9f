"""Products, norms, orders, polygons and unit verdicts checked against the
benchmark's oracle.

``perfbench/oracle.py`` writes the Weyl-Laurent product and every level's
verdict rule out on ``Fraction`` dictionaries ``{alpha: {m: c}}`` and imports
nothing from microdiff, so it is loaded here by path and is an independent
reference: tier-1's own product reference shares the library's commutation
formula.  Operators are exact, in d = 1 and 2, with Laurent exponents and
polynomial x coefficients.
"""

import importlib.util
import pathlib
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from microdiff import (MicroOp, PadicScalar, RingLevel, TateSeries, check_unit, mul, norm_k,
                       order_Nk, order_nk, polygon)

_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

UNITS = (1, 3, 5, 7, 11)


def to_op(P: dict, dim: int, p: int) -> MicroOp:
    return MicroOp(dim, p, {alpha: TateSeries(dim, p, {
        m: PadicScalar.from_fraction(c, p) for m, c in row.items()}) for alpha, row in P.items()})


def from_op(S: MicroOp) -> dict:
    """The exact coefficients of S, which must be exact data."""
    assert S.is_exact
    return {alpha: {m: Fraction(c.unit) * Fraction(S.prime) ** c.valuation
                    for m, c in f.coeffs.items()} for alpha, f in S.terms.items()}


@st.composite
def operators(draw, p, dim, laurent):
    """An exact operator as an oracle dictionary: one to four terms with
    exponents in [-n, n] (in [0, n] when not ``laurent``), n drawn from 0 to 3.
    Each coefficient has one to three monomials of degree <= 2 per axis, the
    first made constant three times in four, so that units are common.  Each
    scalar is a p-adic unit (a fraction when p > 2) times p^v, -3 <= v <= 3.
    Half the time one term is echoed, so that weighted maxima tie."""
    units = st.sampled_from([u for u in UNITS if u % p])
    n = draw(st.integers(0, 3))
    P = {}
    for _ in range(draw(st.integers(1, 4))):
        alpha = tuple(draw(st.integers(-n if laurent else 0, n)) for _ in range(dim))
        monomials = [tuple(draw(st.integers(0, 2)) for _ in range(dim))
                     for _ in range(draw(st.sampled_from((1, 1, 2, 3))))]
        if draw(st.sampled_from((True, True, True, False))):
            monomials[0] = (0,) * dim
        P[alpha] = {m: draw(st.sampled_from((1, -1))) * Fraction(draw(units), draw(units))
                    * Fraction(p) ** draw(st.integers(-3, 3)) for m in monomials}
    if draw(st.booleans()):  # a term echoed one step up at p^j: at level j their weights tie
        alpha, row = draw(st.sampled_from(sorted(P.items())))
        j = draw(st.integers(1, 3))
        P[(alpha[0] + 1, *alpha[1:])] = {m: c * p**j for m, c in row.items()}
    return P


primes, dims = st.sampled_from((2, 3, 5)), st.sampled_from((1, 2))


@st.composite
def operand_pairs(draw):
    p, dim, laurent = draw(primes), draw(dims), draw(st.booleans())
    return p, dim, draw(operators(p, dim, laurent)), draw(operators(p, dim, laurent))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(operand_pairs())
def test_products_equal_the_oracle_product(drawn):
    p, dim, P, Q = drawn
    assert from_op(mul(to_op(P, dim, p), to_op(Q, dim, p))) == oracle.mul(P, Q)


@st.composite
def leveled_operators(draw):
    """A level, and an operator that is Laurent half the time at ek and fkr
    (dkq and the limit levels take positive operators only)."""
    p, dim = draw(primes), draw(dims)
    tag = draw(st.sampled_from(("dkq", "ek", "fkr", "fir", "finf", "dinf")))
    k = draw(st.integers(0 if tag == "dkq" else 1, 3)) if tag in ("dkq", "ek", "fkr") else None
    r = draw(st.integers(1, k if tag == "fkr" else 3)) if tag in ("fkr", "fir") else None
    laurent = tag in ("ek", "fkr") and draw(st.booleans())
    return p, dim, draw(operators(p, dim, laurent)), RingLevel(tag, k, r)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(leveled_operators())
def test_unit_verdicts_agree_with_the_oracle(drawn):
    p, dim, P, level = drawn
    verdict = check_unit(to_op(P, dim, p), level)
    invertible, beta = oracle.verdict(oracle.Data.of(P, p), level.tag, level.k, level.r)
    assert verdict.invertible == invertible, (P, level, verdict)
    assert (tuple(verdict.beta) if invertible else None) == beta, (P, level, verdict)


@st.composite
def drawn_operators(draw, laurent):
    """A prime, a dimension and an exact operator, Laurent when ``laurent`` draws True."""
    p, dim = draw(primes), draw(dims)
    return p, dim, draw(operators(p, dim, draw(laurent)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(drawn_operators(st.just(False)))
def test_level_norms_and_orders_agree_with_the_oracle(drawn):
    p, dim, P = drawn
    S, data = to_op(P, dim, p), oracle.Data.of(P, p)
    for k in range(4):
        assert norm_k(S, k) == Fraction(p) ** oracle.norm_exponent(data, k), (P, k)
        assert (order_Nk(S, k), order_nk(S, k)) == oracle.orders(data, k), (P, k)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(drawn_operators(st.booleans()))
def test_ek_and_fkr_norms_agree_with_the_oracle(drawn):
    p, dim, P = drawn
    S, data = to_op(P, dim, p), oracle.Data.of(P, p)
    for k in range(1, 4):
        assert RingLevel.ek(k).norm_exponent(S) == oracle.ek_exponent(data, k), (P, k)
        for r in range(1, k + 1):
            want = oracle.fkr_exponent(data, k, r)
            assert RingLevel.fkr(k, r).norm_exponent(S) == want, (P, k, r)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(drawn_operators(st.just(False)))
def test_newton_polygons_agree_with_the_oracle(drawn):
    p, dim, P = drawn
    poly = polygon(to_op(P, dim, p))
    assert (list(poly.vertices), list(poly.slopes)) == oracle.polygon(oracle.Data.of(P, p)), P

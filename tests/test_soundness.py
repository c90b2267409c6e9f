"""Certified answers on truncated data agree with the exact operator.

Metamorphic check: cut an exact operator at a length, attach a valid tail
certificate for the dropped terms, and ask every norm, order, slope and unit
query of both.  A refusal is always allowed; an answer from the truncated
operator must be the exact operator's answer.  The regression tests pin the
known ways the ``infinite`` marker and tail-only operators used to produce
false proofs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdiff import (InsufficientTruncation, MicroOp, NotCertifiable, NotInvertible,
                       PadicScalar, TailCertificate, TateSeries, UndecidableFiniteness,
                       WindowOverflow, ZeroOperator, check_unit, compose, invert,
                       is_slope, mul, norm_Ek, norm_Fkr, norm_k, norm_mu, order_Ek,
                       order_Nk, order_nk, order_Nmu, order_nmu, polygon,
                       product_op, sector_norms, slope_in_interval)
from microdiff.diffop import _graded_weight, floor_sum, length, tail_sup_exponent
from microdiff.tower import RingLevel

from conftest import rand_laurent_op, rand_positive_op

REFUSALS = (InsufficientTruncation, UndecidableFiniteness, NotCertifiable,
            WindowOverflow)
TAIL_SLOPES = tuple(Fraction(s) for s in ("-1", "0", "1/2", "1", "3/2", "2", "3", "4", "6", "9"))


# -- regressions ------------------------------------------------------------------


def test_cancelling_infinite_tails_do_not_prove_infinite_support():
    G = product_op(5)
    H = G + MicroOp.identity() - G  # exactly 1
    assert H.terms_equal(MicroOp.identity())
    assert not H.tail.infinite
    with pytest.raises(UndecidableFiniteness):
        check_unit(H, RingLevel.finf())


def test_product_with_a_non_constant_factor_drops_the_infinite_marker():
    S = MicroOp(1, 2, {(n,): TateSeries.constant(Fraction(2) ** n) for n in range(9)},
                TailCertificate(8, 0, 1, infinite=True))  # sum p^n d^n
    SP = compose(S, MicroOp.identity() - MicroOp.monomial((1,), 2))  # exactly 1
    assert not SP.tail.infinite
    with pytest.raises(UndecidableFiniteness):
        check_unit(SP, RingLevel.finf())


def test_product_with_a_nonzero_constant_keeps_the_infinite_marker():
    G = product_op(5)
    for P in (compose(MicroOp.constant(3), G), compose(G, MicroOp.constant(3))):
        assert P.tail.infinite
        assert check_unit(P, RingLevel.finf()).violated == "not_finite"


def test_one_sided_sum_keeps_the_infinite_marker():
    H = product_op(5) + MicroOp.monomial((2,), 1)
    assert H.tail.infinite


@pytest.mark.parametrize("query", [
    lambda T: norm_k(T, 1), lambda T: norm_mu(T, 1), lambda T: norm_Ek(T, 1),
    lambda T: norm_Fkr(T, 2, 1), lambda T: order_Nk(T, 1), lambda T: order_nk(T, 1),
    lambda T: order_Nmu(T, 1), lambda T: order_nmu(T, 1), lambda T: order_Ek(T, 1),
    lambda T: sector_norms(T, 2, 1),
])
def test_tail_only_operator_is_refused(query):
    T = MicroOp(1, 2, {}, TailCertificate(0, 0, 5, infinite=True))
    with pytest.raises(InsufficientTruncation):
        query(T)


def test_exact_zero_operator_is_unchanged():
    Z = MicroOp.zero()
    assert norm_k(Z, 1) == 0 and norm_Ek(Z, 1) == 0 and norm_Fkr(Z, 2, 1) == 0
    for order in (order_Nk, order_nk, order_Ek):
        with pytest.raises(ZeroOperator):
            order(Z, 1)


def test_constant_takes_the_dimension_of_a_series():
    f = TateSeries.constant(3, 2)
    C = MicroOp.constant(f)
    assert C.dim == 2 and C.terms == {(0, 0): f}


# The degree cap of the coefficient ring (32) used to drop x^40 from a
# coefficient with no tail and no refusal, which gave false proofs.  A
# certified answer must be the true one; a refusal is also honest.

def parsed(text: str) -> MicroOp:
    from microdiff.exprs import EvalContext, _as_op, evaluate, parse
    ctx = EvalContext()
    return _as_op(evaluate(parse(text), ctx), ctx)


def test_degree_cap_does_not_hide_a_norm():
    try:
        assert norm_k(parsed("x^40*d + 1"), 1) == 2  # |x^40 d|_1 = p^1
    except REFUSALS:
        pass


def test_degree_cap_does_not_prove_a_unit():
    try:
        assert not check_unit(parsed("1 + x^20*x^20*d"), RingLevel.dkq(1)).invertible
    except REFUSALS:
        pass


def test_degree_cap_does_not_zero_a_product():
    try:
        assert not parsed("x^20 * x^20*d").is_zero
    except REFUSALS:
        pass


def test_a_commutation_step_keeps_the_degree_cap():
    # p*x*d * x^30 = p*x^31*d + 30*p*x^30, and x^2 * x^30 = x^32 fits the cap
    P = parsed("(p*x*d + x^2)*x^30")
    assert P.coefficient((0,)).degree() == 32
    assert norm_k(P, 0) == 1


def at_cap(P: MicroOp, cap: int) -> MicroOp:
    return MicroOp(P.dim, P.prime, {a: TateSeries(c.dim, c.prime, dict(c.coeffs), cap, c.exact)
                                    for a, c in P.terms.items()})


def assert_true_residual(P: MicroOp, S: MicroOp, level: RingLevel, target: int):
    """||P*S - 1|| <= p**-target, multiplied back at degree cap 400, which no
    coefficient reaches, at the level (a limit level: at its delegate)."""
    if level.k is None:
        level = RingLevel.fkr(*check_unit(P, level).delegate)
    one = MicroOp.constant(TateSeries.constant(1, P.dim, P.prime, 400))
    residual = mul(at_cap(P, 400), at_cap(S, 400), window_cap=None) - one
    e = level.norm_exponent(residual)
    assert e is None or e <= -target


def test_an_inverse_past_the_degree_cap_is_refused_or_true():
    # the geometric series of p^4*x*d needs coefficients of degree up to 59;
    # the multiply-back runs at a cap no coefficient reaches
    P, level = parsed("1 + p^4*x*d"), RingLevel.ek(3)
    try:
        S = invert(P, level, residual_exponent=60)
    except REFUSALS:
        return
    assert_true_residual(P, S, level, 60)


def test_an_inverse_with_a_non_constant_dominant_coefficient_is_refused_or_true():
    # c_0 = 1 + p*x used to be inverted only up to the degree cap, and the
    # multiply-back at the same cap dropped exactly the x^33 terms it should
    # measure: the certificate claimed p^-40, the true residual was p^-33
    P, level = parsed("1 + p*x + p^5*d"), RingLevel.ek(1)
    try:
        S = invert(P, level, residual_exponent=40)
    except REFUSALS:
        return
    assert_true_residual(P, S, level, 40)


@st.composite
def non_constant_units(draw):
    """(P, level, target) with a dominant coefficient c = u +- p^a*x_i (a in
    1..3), a unit that is not a constant: at ek(k) and fkr(k, r) it sits at
    d^0 above terms +-p^b*d^gamma of weight k*fl(gamma) - b in -6..-1; at
    finf it is the top coefficient, at length 2, over lower-order terms.
    Targets run up to 60, past what 33 terms of the geometric series of c
    reach at a = 1.  Choices are uniform (a seeded ``random.Random``), so
    large targets come up as often as small ones."""
    rng = draw(st.randoms(use_true_random=True))
    dim, tag, k = rng.choice((1, 2)), rng.choice(("ek", "fkr", "finf")), rng.randint(1, 3)
    level = {"ek": RingLevel.ek(k), "fkr": RingLevel.fkr(k, rng.randint(1, k)),
             "finf": RingLevel.finf()}[tag]
    scale = rng.choice((1, -1)) * Fraction(2) ** rng.randint(1, 3)
    c = TateSeries.constant(rng.choice((1, -1, 3)), dim) + TateSeries.coordinate(
        rng.randint(1, dim), dim).scale(PadicScalar.from_fraction(scale))
    beta = (2,) + (0,) * (dim - 1) if tag == "finf" else (0,) * dim
    terms = {beta: c}
    for _ in range(rng.randint(1, 2)):
        gamma = tuple(rng.randint(0, 1 if tag == "finf" else 2) for _ in range(dim))
        if gamma != beta and (tag != "finf" or sum(gamma) < 2):
            b = rng.randint(0, 6) if tag == "finf" else k * sum(gamma) + rng.randint(1, 6)
            terms[gamma] = TateSeries.constant(rng.choice((1, -1)) * 2 ** b, dim)
    return MicroOp(dim, 2, terms), level, rng.randint(1, 60)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(non_constant_units())
def test_inverses_of_non_constant_dominant_units_are_refused_or_true(case):
    P, level, target = case
    try:
        S = invert(P, level, residual_exponent=target)
    except (NotInvertible, *REFUSALS):
        return
    assert_true_residual(P, S, level, target)


@pytest.mark.parametrize("alpha", [(3,), (-2,), (2, 1), (2, -1), (-2, 1), (1, -4), (-1, -1)])
@pytest.mark.parametrize("k, r", [(1, None), (3, None), (2, 1), (4, 2)])
@pytest.mark.parametrize("beta", [0, 1, -2])
def test_tail_sup_bounds_a_term_on_the_certificate(alpha, k, r, beta):
    """A discarded term lying on its certificate never exceeds the tail sup,
    and reaches it where its grading is the top one at its length."""
    n, fl, v = length(alpha), floor_sum(alpha), -1
    cert = TailCertificate(n - 1, v - 9 * n, 9)
    T = MicroOp(len(alpha), 2, {}, *((cert, None) if fl >= 0 else (None, cert)))
    exponent = _graded_weight(fl - beta, k, r) - v
    sup = tail_sup_exponent(T, k, r, beta)
    assert sup >= exponent
    if fl == n or len(alpha) == 1 or fl == -1:
        assert sup == exponent


@pytest.mark.parametrize("dim, positive_sector, t1", [
    (1, True, 1), (2, True, 1), (1, False, -2), (2, False, Fraction(-1, 2))])
def test_tail_sup_refuses_a_slope_below_the_weight(dim, positive_sector, t1):
    cert = TailCertificate(0, 0, t1)
    T = MicroOp(dim, 2, {}, *((cert, None) if positive_sector else (None, cert)))
    with pytest.raises(InsufficientTruncation):
        tail_sup_exponent(T, 2, 1)


# -- metamorphic property ------------------------------------------------------------


def truncate(E: MicroOp, rng: random.Random) -> MicroOp:
    """Keep the terms up to a random length; certify the rest per sector.

    Half the cuts sit just below a stored term, so a dropped term lies at
    the first discarded length, where a certificate is tight.
    """
    lengths = [length(a) for a in E.terms]
    cut = rng.choice(lengths) - 1 if rng.random() < 0.5 else rng.randint(0, max(lengths))
    kept = {a: c for a, c in E.terms.items() if length(a) <= cut}
    certs = []
    for positive_sector in (True, False):
        dropped = [(length(a), min(s.valuation for s in c.coeffs.values()))
                   for a, c in E.terms.items()
                   if length(a) > cut and (floor_sum(a) >= 0) == positive_sector]
        if not dropped and ((E.positive and not positive_sector) or rng.random() < 0.5):
            certs.append(None)  # nothing was dropped: the sector is exact
            continue
        t1 = rng.choice(TAIL_SLOPES)
        t0 = min((v - t1 * n for n, v in dropped), default=Fraction(rng.randint(-4, 8)))
        certs.append(TailCertificate(cut, t0 - rng.choice((0, 0, 1)), t1))
    return MicroOp(E.dim, E.prime, kept, *certs)


def outcome(query, P):
    try:
        return "ok", query(P)
    except REFUSALS:
        return "refused", None
    except ZeroOperator:
        return "zero", None
    except ValueError:
        return "invalid", None


def verdict_key(v):
    return v.invertible, v.beta if v.invertible else None


def queries(positive: bool):
    out = []
    for k in range(0, 5):
        if positive:
            out += [lambda P, k=k: norm_k(P, k), lambda P, k=k: order_Nk(P, k),
                    lambda P, k=k: order_nk(P, k),
                    lambda P, k=k: verdict_key(check_unit(P, RingLevel.dkq(k)))]
        if k == 0:
            continue
        out += [lambda P, k=k: norm_Ek(P, k), lambda P, k=k: order_Ek(P, k),
                lambda P, k=k: verdict_key(check_unit(P, RingLevel.ek(k)))]
        for r in range(1, k + 1):
            out += [lambda P, k=k, r=r: norm_Fkr(P, k, r),
                    lambda P, k=k, r=r: sector_norms(P, k, r),
                    lambda P, k=k, r=r: verdict_key(check_unit(P, RingLevel.fkr(k, r)))]
        if positive:
            out += [lambda P, k=k: verdict_key(check_unit(P, RingLevel.fir(k))),
                    lambda P, k=k: slope_in_interval(P, 1, k)]
    if positive:
        for mu in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)):
            out += [lambda P, mu=mu: norm_mu(P, mu), lambda P, mu=mu: order_Nmu(P, mu),
                    lambda P, mu=mu: order_nmu(P, mu), lambda P, mu=mu: is_slope(P, mu)]
        out += [lambda P: verdict_key(check_unit(P, RingLevel.finf())),
                lambda P: verdict_key(check_unit(P, RingLevel.dinf()))]
    return out


def certified_slopes_agree(T: MicroOp, E: MicroOp):
    poly = outcome(polygon, T)
    if poly[0] != "ok":
        return
    ceiling = poly[1].certified_below
    exact = polygon(E).slopes
    assert list(poly[1].certified_slopes()) == [
        s for s in exact if ceiling is None or s < ceiling]


def exact_operator(rng: random.Random, dim: int, laurent: bool, poly: bool) -> MicroOp:
    if laurent:
        return rand_laurent_op(rng, dim, max_terms=6)
    return rand_positive_op(rng, dim, max_terms=6, poly=poly)


SHAPES = [(dim, laurent, poly) for dim in (1, 2)
          for laurent, poly in ((False, False), (False, True), (True, False))]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(SHAPES),
       combine=st.sampled_from(("none", "sum", "compose")))
def test_truncated_answers_match_exact(seed, shape, combine):
    rng = random.Random(seed)
    dim, laurent, poly = shape
    laurent = laurent and combine != "compose"
    A = exact_operator(rng, dim, laurent, poly)
    E, T = A, truncate(A, rng)
    if combine != "none":
        B = exact_operator(rng, dim, laurent, poly)
        TB = truncate(B, rng)
        if combine == "sum":
            E, T = A + B, T + TB
        else:
            E, T = compose(A, B, window_cap=None), compose(T, TB, window_cap=None)
    if T.positive and E.terms:
        certified_slopes_agree(T, E)
    for query in queries(T.positive and E.positive):
        got = outcome(query, T)
        if got[0] in ("ok", "zero"):
            assert got == outcome(query, E)

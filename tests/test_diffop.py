import contextlib
import itertools
import math
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microdiff import (DegreeCapOverflow, InsufficientTruncation, MicroOp, NotCertifiable,
                       PadicScalar, PrecisionExhausted, TailCertificate, TateSeries,
                       ZeroOperator, compose,
                       finite_order, is_finite, norm_k, norm_mu, order_Nk,
                       order_nk, order_Nmu, order_nmu, product_op,
                       quasi_abelian_defect)
from microdiff import diffop
from microdiff.errors import MicrodiffError
from microdiff.microop import mul
from microdiff.padic import fraction_valuation

from conftest import rand_positive_op
from smoke import read_back as from_json

F = Fraction


def op_1_minus_pd(n=1):
    """1 - p^n d at p = 2."""
    return MicroOp.identity() - MicroOp.monomial((1,), F(2) ** n)


def d():
    return MicroOp.derivation()


def x_op(dim=1, axis=1):
    return MicroOp.constant(TateSeries.coordinate(axis, dim), dim)


class TestCompose:
    def test_leibniz_single_term(self):
        assert compose(d(), x_op()).terms_equal(
            compose(x_op(), d()) + MicroOp.identity())

    def test_identity(self, rng):
        P = rand_positive_op(rng, poly=True)
        assert compose(P, MicroOp.identity()).terms_equal(P)
        assert compose(MicroOp.identity(), P).terms_equal(P)

    def test_constant_coefficients_expand(self):
        # (1 - p d)(1 - p^2 d) = 1 - (p + p^2) d + p^3 d^2
        prod = compose(op_1_minus_pd(1), op_1_minus_pd(2))
        assert prod.coefficient((0,)).coefficient((0,)).as_fraction() == 1
        assert prod.coefficient((1,)).coefficient((0,)).as_fraction() == -6
        assert prod.coefficient((2,)).coefficient((0,)).as_fraction() == 8

    def test_associative(self, rng):
        for _ in range(30):
            P = rand_positive_op(rng, max_terms=3, max_exp=2, poly=True)
            Q = rand_positive_op(rng, max_terms=3, max_exp=2, poly=True)
            R = rand_positive_op(rng, max_terms=3, max_exp=2, poly=True)
            assert compose(compose(P, Q), R).terms_equal(compose(P, compose(Q, R)))

    def test_a_product_of_positive_operators_is_not_scanned_for_positivity(self):
        # compose checks its operands; their product is positive, and a chain
        # scans each factor and the identity once, never a product
        positive, G, H = vars(MicroOp)["positive"], product_op(4), product_op(3)
        with mock.patch.object(positive, "func", wraps=positive.func) as scans:
            acc = MicroOp.identity()
            for n in range(1, 21):
                acc = compose(acc, op_1_minus_pd(n))
            truncated = compose(G, H)
        assert scans.call_count == 21 + 2
        for S in (acc, truncated):
            assert S.positive and MicroOp(S.dim, S.prime, S.terms, S.tail, S.neg_tail).positive

    def test_d2_leibniz(self):
        # d1 * (x1 x2) = x1 x2 d1 + x2
        x1x2 = TateSeries.coordinate(1, 2) * TateSeries.coordinate(2, 2)
        P = compose(MicroOp.derivation(1, 2), MicroOp.constant(x1x2, 2))
        assert P.coefficient((1, 0)) == x1x2
        assert P.coefficient((0, 0)) == TateSeries.coordinate(2, 2)


class TestNormK:
    def test_two_term_max(self):
        assert norm_k(op_1_minus_pd(), 1) == 1

    def test_order_zero_is_gauss(self):
        f = MicroOp.constant(F(3, 4))
        for k in range(4):
            assert norm_k(f, k) == 4

    def test_product_op_value(self):
        # closed form p^(k(k-1)/2) on the exact partial product
        for k in range(1, 6):
            assert norm_k(product_op(k, exact=True), k) == F(2) ** (k * (k - 1) // 2)

    def test_zero(self):
        assert norm_k(MicroOp.zero(), 3) == 0

    def test_tail_certification(self):
        P = product_op(4)  # tail slope 5/2 certifies k <= 2
        assert norm_k(P, 2) == F(2)
        with pytest.raises(InsufficientTruncation):
            norm_k(P, 3)


class TestOrders:
    def test_product_op(self):
        for k in range(1, 7):
            P = product_op(2 * k + 1)
            assert order_Nk(P, k) == k
            assert order_nk(P, k) == k - 1

    def test_functions_have_order_zero(self):
        f = MicroOp.constant(F(5))
        assert order_Nk(f, 3) == 0 == order_nk(f, 3)

    def test_gauss_parity(self):
        from microdiff import gauss_op
        for k in range(1, 9):
            G = gauss_op(k + 1)
            if k % 2 == 0:
                assert order_Nk(G, k) == k // 2 == order_nk(G, k)
            else:
                assert order_Nk(G, k) == (k + 1) // 2
                assert order_nk(G, k) == (k - 1) // 2

    def test_zero_raises(self):
        with pytest.raises(ZeroOperator):
            order_Nk(MicroOp.zero(), 1)


def test_integer_level_orders_answer_as_the_rational_weight_orders():
    # order_Nk and order_nk weigh at the integer k; order_Nmu and order_nmu at
    # mu = k give the same orders and the same refusals, type and text, each
    # refusal naming the function called
    from microdiff import gauss_op, truncated_cofactor

    def outcome(query, P, k):
        try:
            return query(P, k)
        except (MicrodiffError, ValueError) as exc:
            return type(exc), str(exc).replace(query.__name__, "<query>")
    ops = [rand_positive_op(random.Random(seed), poly=poly) for poly in (False, True)
           for seed in range(40)]
    ops += [product_op(5), gauss_op(4), truncated_cofactor(2, 7), product_op(9) + gauss_op(6),
            MicroOp.zero(), MicroOp(1, 2, {}, TailCertificate(0, 0, 5)),
            MicroOp.monomial((-1,), 1) + d()]
    refused = set()
    for P in ops:
        for k in range(5):
            for by_k, by_mu in ((order_Nk, order_Nmu), (order_nk, order_nmu)):
                got = outcome(by_k, P, k)
                assert got == outcome(by_mu, P, k) == outcome(by_mu, P, F(k))
                refused |= {got[0]} if isinstance(got, tuple) else set()
    assert refused == {ZeroOperator, InsufficientTruncation, ValueError}


class TestNormMu:
    def test_integer_weight_matches_norm_k(self, rng):
        for _ in range(50):
            P = rand_positive_op(rng, poly=True)
            for k in (0, 1, 2, 3):
                assert F(2) ** norm_mu(P, k) == norm_k(P, k)
                assert order_Nmu(P, k) == order_Nk(P, k)
                assert order_nmu(P, k) == order_nk(P, k)

    def test_trivial_weight(self):
        P = MicroOp.identity() + d()
        assert norm_mu(P, 0) == 0
        assert order_Nmu(P, 0) == 1 and order_nmu(P, 0) == 0

    def test_half_integer(self):
        # 1 + p d + p^3 d^2 at mu = 3/2: exponents 0, 1/2, 0
        P = (MicroOp.identity() + MicroOp.monomial((1,), F(2))
             + MicroOp.monomial((2,), F(8)))
        assert norm_mu(P, F(3, 2)) == F(1, 2)
        assert order_Nmu(P, F(3, 2)) == 1 == order_nmu(P, F(3, 2))
        # mu = 2 is a slope: the slope-2 edge joins abscissas 1 and 2
        assert norm_mu(P, 2) == 1
        assert order_Nmu(P, 2) == 2 and order_nmu(P, 2) == 1

    def test_a_negative_weight_is_refused_by_every_norm_and_order(self):
        # the orders used to answer at a weight the norms refused
        P = MicroOp.identity() + d()
        for query, weight in ((norm_k, -1), (norm_mu, -1), (norm_mu, F(-1, 2)),
                              (order_Nk, -1), (order_nk, -1),
                              (order_Nmu, F(-1, 2)), (order_nmu, F(-1, 2))):
            with pytest.raises(ValueError, match=">= 0"):
                query(P, weight)


class TestDefect:
    def test_optimal_pair(self):
        for k in (1, 2, 3):
            assert quasi_abelian_defect(d(), x_op(), k) == F(2) ** (-k)

    def test_scalar_center(self):
        for k in (1, 2):
            assert quasi_abelian_defect(rand_positive_op_sample(),
                                        MicroOp.constant(F(7)), k) == 0

    def test_d_squared(self):
        # [d^2, x] = 2d
        dd = compose(d(), d())
        assert quasi_abelian_defect(dd, x_op(), 2) <= F(2) ** -2

    def test_random_bound(self, rng):
        for k in (1, 2, 3):
            for _ in range(60):
                P = rand_positive_op(rng, poly=True)
                Q = rand_positive_op(rng, poly=True)
                assert quasi_abelian_defect(P, Q, k) <= F(2) ** (-k)


def rand_positive_op_sample():
    import random
    return rand_positive_op(random.Random(17), poly=True)


class TestMultiplicativity:
    def test_norm_and_order(self, rng):
        for k in (1, 2, 3):
            for _ in range(60):
                P = rand_positive_op(rng, poly=True)
                Q = rand_positive_op(rng, poly=True)
                PQ = compose(P, Q)
                assert norm_k(PQ, k) == norm_k(P, k) * norm_k(Q, k)
                assert order_Nk(PQ, k) == order_Nk(P, k) + order_Nk(Q, k)

    def test_monotone_orders_in_level(self, rng):
        for _ in range(60):
            P = rand_positive_op(rng, poly=True)
            orders = [order_Nk(P, k) for k in range(0, 6)]
            assert orders == sorted(orders)

    def test_stationarity_of_finite_ops(self, rng):
        for _ in range(40):
            P = rand_positive_op(rng)
            q = finite_order(P)
            # large k dominates every valuation gap
            spread = max(-s.valuation for c in P.terms.values() for s in c.coeffs.values())
            k0 = 2 * (abs(spread) + 8)
            assert order_Nk(P, k0) == q == order_Nk(P, k0 + 1)


class TestFiniteness:
    def test_exact_finite(self):
        P = op_1_minus_pd()
        assert is_finite(P) and finite_order(P) == 1

    def test_generator_not_finite(self):
        assert not is_finite(product_op(4))

    def test_d2_order(self):
        # x d1 + d2^2 at d = 2
        P = (MicroOp.monomial((1, 0), TateSeries.coordinate(1, 2))
             + MicroOp.monomial((0, 2), 1, 2))
        assert finite_order(P) == 2


    def test_a_truncated_coefficient_series_is_refused(self):
        f = TateSeries(1, 2, {(0,): PadicScalar.one()}, exact=False)
        with pytest.raises(NotCertifiable):
            MicroOp(1, 2, {(1,): f})


class TestTailArithmetic:
    def test_sum_folds_corrupted_range(self):
        # tail starting at 1 forces stored length-2 terms of the other
        # summand into the certificate
        tailed = MicroOp(1, 2, {(0,): TateSeries.constant(1)},
                         TailCertificate(1, F(0), F(3)))
        exact = MicroOp.monomial((2,), F(4))
        s = tailed + exact
        assert (2,) not in s.terms
        assert s.tail.t0 <= F(2) - s.tail.t1 * 2

    def test_product_start_shrinks_with_coefficient_degree(self):
        tailed = MicroOp(1, 2, {(0,): TateSeries.constant(1)},
                         TailCertificate(3, F(0), F(4)))
        polyop = MicroOp.monomial((1,), TateSeries.coordinate(1))
        prod = compose(tailed, polyop)
        # left-tail terms land at length >= start+1+minlen-maxdeg = 4+1-1
        assert prod.tail.start == 3


# -- rational-weight maxima against a direct Fraction evaluation --------------------


@st.composite
def weighted_cases(draw):
    """A positive operator (d = 1 or 2, exact or truncated) and a rational
    weight mu = a/b >= 0.  A tail's sup of mu*n - v sits on, just above or
    just below the stored max, and its slope may fall below mu."""
    dim = draw(st.sampled_from((1, 2)))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        alpha = tuple(draw(st.integers(0, 5)) for _ in range(dim))
        c = TateSeries.constant(draw(st.sampled_from((1, -3, 5)))
                                * F(2) ** draw(st.integers(-8, 8)), dim)
        if draw(st.booleans()):
            c = c + TateSeries.coordinate(dim, dim) * TateSeries.constant(
                F(2) ** draw(st.integers(-8, 8)), dim)
        terms[alpha] = c
    mu = F(draw(st.integers(0, 30)), draw(st.integers(1, 7)))
    tail = None
    if draw(st.booleans()):
        n = max(sum(a) for a in terms) + draw(st.integers(1, 3))
        t1 = mu + F(draw(st.integers(-2, 8)), draw(st.integers(1, 3)))
        stored = max(mu * sum(a) - s.valuation
                     for a, c in terms.items() for s in c.coeffs.values())
        sup = stored + F(draw(st.integers(-4, 2)), draw(st.integers(1, 4)))
        tail = TailCertificate(n - 1, mu * n - t1 * n - sup, t1)
    return MicroOp(dim, 2, terms, tail), mu


def direct_mu_answer(P: MicroOp, mu: F):
    """(norm exponent, largest order, smallest order) from mu*n - v in
    Fractions, or None where the tail can reach the stored max."""
    exps = [(mu * sum(a) - min(s.valuation for s in c.coeffs.values()), sum(a))
            for a, c in P.terms.items()]
    best = max(e for e, _ in exps)
    orders = [n for e, n in exps if e == best]
    if P.tail is not None:
        t, n = P.tail, P.tail.start + 1
        if mu > t.t1 or mu * n - (t.t0 + t.t1 * n) >= best:
            return None
    return best, max(orders), min(orders)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(weighted_cases())
def test_rational_weight_queries_match_fraction_evaluation(case):
    P, mu = case
    want = direct_mu_answer(P, mu)
    if want is None:
        for query in (norm_mu, order_Nmu, order_nmu):
            with pytest.raises(InsufficientTruncation):
                query(P, mu)
        return
    norm = norm_mu(P, mu)
    assert type(norm) is F and norm == want[0]
    assert (order_Nmu(P, mu), order_nmu(P, mu)) == want[1:]


class TestProductPrecision:
    def test_precision_above_the_default_is_kept(self):
        # (3 d^2)(x^3 + 5): commuting d^2 past x^3 scales by binomials
        x = TateSeries.coordinate(1, precision=100)
        P = MicroOp.monomial((2,), TateSeries.constant(3, precision=100))
        Q = MicroOp.constant(x * x * x + TateSeries.constant(5, precision=100))
        for c in compose(P, Q).terms.values():
            assert {s.precision for s in c.coeffs.values()} == {100}

    def test_default_precision_unchanged(self):
        prod = compose(MicroOp.monomial((2,), 3), MicroOp.constant(
            TateSeries.coordinate(1) * TateSeries.coordinate(1) + TateSeries.constant(5)))
        for c in prod.terms.values():
            assert {s.precision for s in c.coeffs.values()} == {64}


# -- the integer product kernel against the series arithmetic ---------------------


@st.composite
def product_operands(draw):
    """Two operators for the product kernel, in one of three modes.

    "general": d = 1 or 2, Laurent exponents, p = 2, 3 or 5, scalars
    +-u/w * p^v with w in (1, 3, 5), degree caps 3, 5 and 32 mixed within
    one operator (so exact pairs are refused past the cap), one or two
    precisions, and exact inverses from invert_unit(cap) (degree cap - 1).
    "cancel": constant or dense coefficients of scalars +-1 at precisions
    20 and 64, so that monomials and terms cancel midway and come back.
    "caps": exact coefficients of degree <= 1 at cap 3 and exactly 2 at cap
    32, so that no pair is refused but sums meet monomials past one
    summand's cap.  "digit": operands of one of the other modes, each read
    back from JSON whole, in a random part, or not at all (not both), so
    residues meet residues and exact scalars, and cancel.  Choices are
    uniform (a seeded ``random.Random``), so each mode's rare paths come up
    at a steady rate.
    """
    rng = draw(st.randoms(use_true_random=True))
    mode = rng.choice(("general", "cancel", "caps", "digit"))
    if mode == "digit":
        mode = rng.choice(("general", "cancel", "caps"))
        ways = rng.choice([(w, v) for w in range(3) for v in range(3) if w or v])
        return tuple(read_back(S, way, rng) for S, way in zip(operands(rng, mode), ways))
    return operands(rng, mode)


def operands(rng: random.Random, mode: str):
    dim, p = rng.choice((1, 2)), rng.choice((2, 3, 5))
    precisions = (20, 64) if mode == "cancel" else rng.choice(((64,), (20,), (20, 64)))

    def scalar():
        if mode == "cancel":
            q = F(rng.choice((1, -1)))
        else:
            q = (F(rng.choice((1, -1, 2, 3, -5)), rng.choice((1, 3, 5)))
                 * F(p) ** rng.randint(-2, 3))
        return PadicScalar.from_fraction(q, p, rng.choice(precisions))

    def series():
        if mode == "cancel":
            dense = rng.random() < 0.5
            box = [m for m in itertools.product(range(3 if dim == 1 else 2), repeat=dim)
                   if dense and rng.random() < 0.75]
            return TateSeries(dim, p, {m: scalar() for m in box or [(0,) * dim]})
        cap = rng.choice((3, 32) if mode == "caps" else (3, 5, 32))
        if mode == "general" and rng.random() < 0.125:
            x = TateSeries.coordinate(rng.randint(1, dim), dim, p, cap)
            unit = TateSeries.constant(rng.choice((1, -1)), dim, p, cap)
            return (unit + x.scale(PadicScalar.from_int(p, p))).invert_unit(cap)
        top = (1 if cap == 3 else 2) if mode == "caps" else cap
        coeffs = {(2,) + (0,) * (dim - 1): scalar()} if top == 2 else {}
        for _ in range(rng.randint(1, 3)):
            m = tuple(rng.randint(0, 2) for _ in range(dim))
            if sum(m) <= top:
                coeffs[m] = scalar()
        return TateSeries(dim, p, coeffs, cap)

    def operator(lo, hi):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            f = series()
            if not f.is_zero:
                terms[tuple(rng.randint(lo, hi) for _ in range(dim))] = f
        return MicroOp(dim, p, terms)

    if mode == "cancel":
        # up to three pairs meet in d1^0: P at d1^0..d1^2, Q at d1^0..d1^-2
        def stack(sign):
            return MicroOp(dim, p, {(sign * a,) + (0,) * (dim - 1): series()
                                    for a in range(3) if rng.random() < 0.75})
        return stack(1), stack(-1)
    lo, hi = (-2, 3) if mode == "general" else (0, 1)
    return operator(lo, hi), operator(lo, hi)


def series_product_terms_and_sums(P: MicroOp, Q: MicroOp) -> tuple:
    """:func:`series_product_terms` with its kernel sums, as ``_product_terms`` returns."""
    terms = series_product_terms(P, Q)
    return terms, diffop._series_sums(terms, P.prime)


def read_back(S: MicroOp, way: int, rng: random.Random, digits: int | None = None) -> MicroOp:
    """S as it is (way 0), read back from JSON (1), or the sum of a random
    part of its terms as they are and the rest read back (2)."""
    if way < 2:
        return from_json(S, digits) if way else S
    kept = {a: c for a, c in S.terms.items() if rng.random() < 0.5}
    rest = {a: c for a, c in S.terms.items() if a not in kept}
    return MicroOp(S.dim, S.prime, kept) + from_json(MicroOp(S.dim, S.prime, rest), digits)


def terms_snapshot(terms):
    """Term order, caps, exact flags, values and precisions per monomial."""
    return [(gamma, c.degree_cap, c.exact,
             sorted((m, s.valuation, type(s.unit), s.unit, s.precision, s.exact)
                    for m, s in c.coeffs.items()))
            for gamma, c in terms.items()]


def product_snapshot(product_terms, P: MicroOp, Q: MicroOp):
    """Everything a product promises, or the refusal's type and text."""
    try:
        terms = product_terms(P, Q)
    except (NotCertifiable, PrecisionExhausted) as e:
        return type(e), str(e)
    return terms_snapshot(terms)


def falling_binomial(a, j, prime, precision):
    """C(a, j) = a (a - 1) ... (a - j + 1) / j!, independent of padic's."""
    return PadicScalar.from_fraction(F(math.prod(range(a - j + 1, a + 1)), math.factorial(j)),
                                     prime, precision)


def term_product(alpha, f: TateSeries, beta, g: TateSeries, prime: int):
    """(f * D^alpha) . (g * D^beta) as coefficient-left terms, by series
    arithmetic: D^alpha moves past g axis by axis by D^a g = sum_j C(a, j)
    D^j(g) D^(a-j), which stops at j = a for a >= 0 and once D^j(g)
    vanishes.  The binomials are exact scalars at the largest precision of
    g's, so they never cap a product's; ``s`` is None while it is 1."""
    pending = [(g, None, (0,) * len(alpha))]  # (D^j g, C(alpha, j) or None, j)
    precision = max(c.precision for c in g.coeffs.values())
    for i, a in enumerate(alpha):
        if a == 0:
            continue
        expanded = []
        for h, s, j in pending:
            dh, jj = h, 0
            while True:  # dh is nonzero and C(a, jj) too, as jj <= a for a >= 0
                factor = falling_binomial(a, jj, prime, precision)
                sj = s if jj == 0 else factor if s is None else s * factor
                expanded.append((dh, sj, j[:i] + (jj,) + j[i + 1:]))
                jj += 1
                if 0 <= a < jj:
                    break
                dh = dh.derive(i + 1)
                if dh.is_zero:
                    break
        pending = expanded
    for h, s, j in pending:
        gamma = tuple(a + b - c for a, b, c in zip(alpha, beta, j))
        coeff = f * h
        if not coeff.exact:
            raise DegreeCapOverflow(f.degree() + h.degree(), coeff.degree_cap)
        if s is not None:
            coeff = coeff.scale(s)
        if not coeff.is_zero:
            yield gamma, coeff


def negated(f: TateSeries) -> TateSeries:
    """-f coefficient by coefficient, each at its own precision."""
    return TateSeries(f.dim, f.prime, {m: -c for m, c in f.coeffs.items()}, f.degree_cap, f.exact)


def capped_sum(f: TateSeries, g: TateSeries) -> TateSeries:
    """f + g, refused where the degree cap drops a monomial."""
    s = f + g
    if not s.exact:
        raise DegreeCapOverflow(max(f.degree(), g.degree()), s.degree_cap)
    return s


def series_product_terms(P: MicroOp, Q: MicroOp) -> dict:
    """The product terms by series arithmetic, one term pair at a time: the
    reference the integer kernel keeps values, term order, caps, exact
    flags, precisions and refusals of."""
    out: dict = {}
    for alpha, f in P.terms.items():
        for beta, g in Q.terms.items():
            for gamma, coeff in term_product(alpha, f, beta, g, P.prime):
                prev = out.get(gamma)
                coeff = coeff if prev is None else capped_sum(prev, coeff)
                if coeff.is_zero:
                    out.pop(gamma, None)
                else:
                    out[gamma] = coeff
    return out


def has_residue(*ops: MicroOp) -> bool:
    return not all(c.exact for S in ops for f in S.terms.values() for c in f.coeffs.values())


def relift(S: MicroOp, rng: random.Random) -> MicroOp:
    """S with each residue lifted to an exact scalar: the residue plus a
    random multiple of p^precision, at the residue's valuation."""
    p = S.prime

    def lift(c: PadicScalar) -> PadicScalar:
        if c.exact:
            return c
        unit = c.unit + rng.randint(-3, 3) * p ** c.precision
        return PadicScalar.from_fraction(F(unit) * F(p) ** c.valuation, p, c.precision)
    return MicroOp(S.dim, p, {a: TateSeries(S.dim, p, {m: lift(c) for m, c in f.coeffs.items()},
                                            f.degree_cap) for a, f in S.terms.items()})


def assert_relifts_agree(P: MicroOp, Q: MicroOp, terms: dict, rng: random.Random,
                         complete: bool = True):
    """Every exact scalar of ``terms`` equals the exact product of relifted
    P and Q there, and every residue agrees with it modulo the precision it
    claims; with ``complete``, every monomial ``terms`` lacks is 0 there."""
    for _ in range(3):
        lifted = relift(P, rng)
        exact = series_product_terms(lifted, lifted if Q is P else relift(Q, rng))
        for gamma in set(terms) | (set(exact) if complete else set()):
            got = terms[gamma].coeffs if gamma in terms else {}
            want = exact[gamma].coeffs if gamma in exact else {}
            for m in set(got) | (set(want) if complete else set()):
                value = want[m].as_fraction() if m in want else F(0)
                if m not in got:
                    assert value == 0
                elif got[m].exact:
                    assert got[m].as_fraction() == value
                else:
                    s, p = got[m], P.prime
                    diff = value - F(s.unit) * F(p) ** s.valuation
                    assert diff == 0 or fraction_valuation(diff, p) >= s.valuation + s.precision


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(product_operands())
def test_the_integer_kernel_equals_the_series_arithmetic(operands):
    """Where the series arithmetic refuses a product with a residue (every
    known digit of a partial sum cancelled), the kernel, which keeps such a
    monomial to the end, may answer; every answer with a residue agrees with
    relifted operands."""
    P, Q = operands
    want = product_snapshot(series_product_terms, P, Q)
    got = product_snapshot(lambda P, Q: diffop._product_terms(P, Q)[0], P, Q)
    if not (isinstance(want, tuple) and want[0] is PrecisionExhausted):
        assert got == want
    if has_residue(P, Q) and isinstance(got, list):
        assert_relifts_agree(P, Q, diffop._product_terms(P, Q)[0], random.Random(0))


@st.composite
def constant_operands(draw):
    """Two operators whose coefficients are exact constants, for the flat path.

    d = 1 or 2, Laurent exponents, p = 2, 3 or 5, scalars +-u/w * p^v with
    w in (1, 3, 5, 7), so the common denominator is not 1.  "flat": each
    operand has one precision (20 or 64) and one degree cap (3 or 32), which
    may differ between the two.  "cancel": scalars +-1 on d1^0..d1^2 and
    d1^0..d1^-2, so that d1^0 cancels midway and is formed again.  "mixed":
    the left operand mixes precisions or caps over its terms, so the product
    takes the general path.
    """
    rng = draw(st.randoms(use_true_random=True))
    mode = rng.choice(("flat", "cancel", "mixed"))
    dim, p = rng.choice((1, 2)), rng.choice((2, 3, 5))

    def operator(exponents, precisions, caps):
        terms = {}
        for i, alpha in enumerate(exponents):
            q = (F(rng.choice((1, -1))) if mode == "cancel" else
                 F(rng.choice((1, -1, 2, 3, -5)), rng.choice((1, 3, 5, 7)))
                 * F(p) ** rng.randint(-2, 3))
            terms[alpha] = TateSeries.constant(PadicScalar.from_fraction(
                q, p, precisions[i % len(precisions)]), dim, p, caps[i % len(caps)])
        return MicroOp(dim, p, terms)

    def exponents(sign=0):
        if sign:
            return [(sign * a,) + (0,) * (dim - 1) for a in range(3) if rng.random() < 0.75]
        return list({tuple(rng.randint(-2, 3) for _ in range(dim))
                     for _ in range(rng.randint(1, 4))})

    def one(values):
        return (rng.choice(values),)

    left, right = ((exponents(1), exponents(-1)) if mode == "cancel"
                   else (exponents(), exponents()))
    if mode == "mixed":
        left = left + [tuple(e + 5 for e in left[0])]  # at least two terms to mix
        precisions, caps = rng.choice((((20, 64), one((3, 32))), (one((20, 64)), (3, 32))))
        return mode, operator(left, precisions, caps), operator(right, one((20, 64)),
                                                                one((3, 32)))
    return mode, *(operator(e or [(0,) * dim], one((20, 64)), one((3, 32)))
                   for e in (left, right))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(constant_operands())
def test_the_flat_path_equals_the_series_arithmetic(operands):
    mode, P, Q = operands
    want = product_snapshot(series_product_terms, P, Q)
    with mock.patch.object(diffop, "_flat_product", wraps=diffop._flat_product) as flat:
        got = product_snapshot(lambda P, Q: diffop._product_terms(P, Q)[0], P, Q)
    assert got == want
    # flat operands, two one-term ones too, take the flat loop; mixed ones the general path
    assert flat.called == (mode != "mixed")


@st.composite
def product_chains(draw):
    """Two chains of products, interleaved, for the kernel's row reuse.

    Each step takes one chain's last value and multiplies it on the left or
    on the right by a fresh operator, or by itself; or by an operator whose
    scalars mix precisions 20 and 64; or replaces the value first by an
    equal copy that is not the same object, or by the value with a tail
    certificate, so that the product folds, or by the value read back from
    JSON, so that residues enter the chain; or clips the product to a
    window.  Degree caps 5 and 32 are mixed, so chains meet refusals.  Half
    the operators have constant coefficients and one cap, so flat and
    x-coefficient products alternate through the kept rows.
    """
    rng = draw(st.randoms(use_true_random=True))
    dim, p = rng.choice((1, 2)), rng.choice((2, 3, 5))
    lo = rng.choice((0, -1))

    def operator(precisions=(64,)):
        terms, flat, cap = {}, rng.random() < 0.5, rng.choice((5, 32))
        for _ in range(rng.randint(1, 3)):
            coeffs = {(0,) * dim if flat else tuple(rng.randint(0, 1) for _ in range(dim)):
                      PadicScalar.from_fraction(
                F(rng.choice((1, -1, 3)), rng.choice((1, 5))) * F(p) ** rng.randint(0, 2),
                p, rng.choice(precisions)) for _ in range(rng.randint(1, 2))}
            terms[tuple(rng.randint(lo, 1) for _ in range(dim))] = TateSeries(
                dim, p, coeffs, cap if flat else rng.choice((5, 32)))
        return MicroOp(dim, p, terms)

    kinds = ("left", "left", "right", "square", "mixed", "copy", "fold", "clip", "json")
    steps = [(rng.randint(0, 1), rng.choice(kinds),
              operator((20, 64)) if rng.random() < 0.25 else operator(),
              rng.randint(1, 3)) for _ in range(rng.randint(2, 8))]
    return [operator(), operator()], steps


def chain_factors(kind, acc, operand, size):
    if kind == "right":
        return operand, acc
    if kind == "square":
        return acc, acc
    if kind == "copy":
        acc = MicroOp(acc.dim, acc.prime, dict(acc.terms), acc.tail, acc.neg_tail)
    elif kind == "fold":
        acc = MicroOp(acc.dim, acc.prime, dict(acc.terms), TailCertificate(size, 0, 1))
    elif kind == "json":
        acc = from_json(acc)
    return acc, operand


def chain_step(kind, acc, operand, size):
    if kind == "clip":
        return mul(acc, operand, window=size, window_cap=None)
    return diffop._product(*chain_factors(kind, acc, operand, size), None)


def operator_snapshot(S):
    """An operator's terms and tails; a refusal, as (type, text), as it is."""
    return S if isinstance(S, tuple) else (terms_snapshot(S.terms), S.tail, S.neg_tail)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(product_chains())
def test_chained_products_equal_the_series_arithmetic(chains):
    starts, steps = chains
    got, want = list(starts), list(starts)
    for which, kind, operand, size in steps:
        results = []
        for values, series in ((got, False), (want, True)):
            with contextlib.ExitStack() as stack:
                if series:  # the product body on the series arithmetic, which keeps no rows
                    stack.enter_context(mock.patch.object(
                        diffop, "_product_terms", series_product_terms_and_sums))
                try:
                    results.append(chain_step(kind, values[which], operand, size))
                except (NotCertifiable, PrecisionExhausted, InsufficientTruncation,
                        ValueError) as e:
                    results.append((type(e), str(e)))
        if isinstance(results[1], tuple) and results[1][0] is PrecisionExhausted:
            # the series refuses where a partial sum of residues cancels
            if isinstance(results[0], MicroOp):
                assert_relifts_agree(*chain_factors(kind, got[which], operand, size),
                                     results[0].terms, random.Random(0), complete=False)
                want[which] = results[0]
            continue
        assert operator_snapshot(results[0]) == operator_snapshot(results[1])
        if isinstance(results[0], MicroOp):
            got[which], want[which] = results


# -- the operator sum against the series arithmetic ---------------------------------


def series_fold_beyond(terms: dict, cert, positive_sector: bool):
    """The fold on ``TateSeries`` terms: the stored terms of the sector past
    the certificate's start leave ``terms``, and each lowers t0 to its
    spectral valuation minus t1 times its length."""
    if cert is None:
        return None
    t0 = cert.t0
    doomed = [a for a in terms
              if (diffop.floor_sum(a) >= 0) == positive_sector and diffop.length(a) > cert.start]
    for a in doomed:
        v = F(min(s.valuation for s in terms[a].coeffs.values()))
        t0 = min(t0, v - cert.t1 * diffop.length(a))
        del terms[a]
    return TailCertificate(cert.start, t0, cert.t1, cert.infinite)


def series_sum(P: MicroOp, Q: MicroOp) -> MicroOp:
    """P + Q by series arithmetic, one term at a time: Q's terms added into
    P's in Q's order, a term that cancels dropped, and the stored terms
    past the smaller certificate of each sector folded into it."""
    out = dict(P.terms)
    for a, c in Q.terms.items():
        s = capped_sum(out[a], c) if a in out else c
        if s.is_zero:
            out.pop(a, None)
        else:
            out[a] = s
    tail = series_fold_beyond(out, diffop._min_tail(P.tail, Q.tail), positive_sector=True)
    neg_tail = series_fold_beyond(out, diffop._min_tail(P.neg_tail, Q.neg_tail),
                                  positive_sector=False)
    return MicroOp(P.dim, P.prime, out, tail, neg_tail)


def series_neg(P: MicroOp) -> MicroOp:
    return MicroOp(P.dim, P.prime, {a: negated(c) for a, c in P.terms.items()}, P.tail, P.neg_tail)


SUMS = {"P + Q": (lambda P, Q: P + Q, series_sum),
        "P - Q": (lambda P, Q: P - Q, lambda P, Q: series_sum(P, series_neg(Q))),
        "-P": (lambda P, Q: -P, lambda P, Q: series_neg(P))}


def sum_snapshot(fn, P: MicroOp, Q: MicroOp):
    """Term order, monomial order, values, precisions, caps and tails of a
    sum, or its refusal's type, text and ``needed``."""
    try:
        S = fn(P, Q)
    except MicrodiffError as e:
        return type(e), str(e), getattr(e, "needed", None)
    return (terms_snapshot(S.terms), [list(c.coeffs) for c in S.terms.values()],
            S.tail, S.neg_tail)


@st.composite
def sum_operands(draw):
    """Two operators for the sum, in one mode of the product operands above
    ("general": d = 1 or 2, Laurent exponents, mixed precisions and caps;
    "cancel"; "caps") or "flat" (one exact constant per coefficient, at one
    precision and cap per operator).  Q shares some of P's terms, as they
    are, negated or doubled, so that monomials and terms cancel.  Either
    operand may be read back from JSON, whole or in part (digit mode), and
    either may carry a certificate in one sector or both (tails)."""
    rng = draw(st.randoms(use_true_random=True))
    mode = rng.choice(("general", "cancel", "caps", "flat"))
    if mode == "flat":
        dim, p = rng.choice((1, 2)), rng.choice((2, 3, 5))

        def flat():
            n, cap = rng.choice((20, 64)), rng.choice((3, 32))
            return MicroOp(dim, p, {tuple(rng.randint(-2, 3) for _ in range(dim)):
                                    TateSeries.constant(PadicScalar.from_fraction(
                                        F(rng.choice((1, -1, 2, 3, -5)), rng.choice((1, 3, 7)))
                                        * F(p) ** rng.randint(-2, 3), p, n), dim, p, cap)
                                    for _ in range(rng.randint(1, 4))})
        P, Q = flat(), flat()
    else:
        P, Q = operands(rng, mode)
    shared = {a: rng.choice((c, negated(c), c + c)) for a, c in P.terms.items()
              if rng.random() < 0.5}
    Q = MicroOp(Q.dim, Q.prime, {**dict(Q.terms), **shared} if rng.random() < 0.5
                else {**shared, **dict(Q.terms)})
    if rng.random() < 0.5:  # digit mode
        ways = rng.choice([(w, v) for w in range(3) for v in range(3) if w or v])
        digits = rng.choice((None, 6))
        P, Q = (read_back(S, way, rng, digits) for S, way in zip((P, Q), ways))

    def tails(S):
        def cert():
            return rng.choice((None, TailCertificate(rng.randint(0, 3), F(rng.randint(-2, 2)),
                                                     F(rng.randint(0, 4), 2), rng.random() < 0.5)))
        return MicroOp(S.dim, S.prime, dict(S.terms), cert(), cert())
    if rng.random() < 0.25:
        P, Q = (tails(S) if rng.random() < 0.75 else S for S in (P, Q))
    return P, Q


def json_at_20(text: str, dim: int = 1, p: int = 2) -> MicroOp:
    from microdiff.exprs import EvalContext, evaluate, parse
    return from_json(evaluate(parse(text), EvalContext(prime=p, dim=dim, precision=20)))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(sum_operands())
@example((-json_at_20("1 + p*x*d"), json_at_20("1 + p*x*d + p^3*d^2")))  # every digit cancels
@example((MicroOp(1, 2, {(1,): TateSeries(1, 2, {(3,): PadicScalar.one()}, 32)}),
          MicroOp(1, 2, {(1,): TateSeries(1, 2, {(1,): PadicScalar.one()}, 2)})))  # x^3 past cap 2
def test_the_operator_sum_equals_the_series_arithmetic(operands):
    """P + Q, P - Q and -P keep the series sum's terms, term and monomial
    order, precisions, caps and tails, and its refusals with their text."""
    P, Q = operands
    for name, (got, want) in SUMS.items():
        assert sum_snapshot(got, P, Q) == sum_snapshot(want, P, Q), name


def test_a_sum_refuses_as_the_series_arithmetic():
    P, Q = -json_at_20("1 + p*x*d"), json_at_20("1 + p*x*d + p^3*d^2")
    with pytest.raises(PrecisionExhausted, match=r"sum is 0 modulo p\^20"):
        P + Q
    P = MicroOp(1, 2, {(1,): TateSeries(1, 2, {(3,): PadicScalar.one()}, 32)})
    Q = MicroOp(1, 2, {(1,): TateSeries(1, 2, {(1,): PadicScalar.one()}, 2)})
    with pytest.raises(DegreeCapOverflow) as refusal:
        P - Q
    assert refusal.value.needed == 3


@pytest.mark.parametrize("texts, dim, from_json_at_20", [
    (("1 + p*x*d", "x^2*d^2 + p*dinv"), 1, False),
    (("x1*d2 + 3", "p*x2*d1^2 - 5*x1*x2*d1"), 2, False),
    (("1 + p*x*d", "x*d^2 + p*dinv"), 1, True)])
def test_a_sum_of_disjoint_general_sums_joins_copies_of_their_entries(texts, dim,
                                                                       from_json_at_20):
    # one p^W / E and precision and no shared term: the sums join as they
    # are, without adding a monomial, and no entry, dict or list is shared
    from microdiff.exprs import EvalContext, evaluate, parse
    P, Q = (json_at_20(t, dim) if from_json_at_20 else evaluate(parse(t), EvalContext(dim=dim))
            for t in texts)
    (sa, *rest), (sb, *rest_b) = P.terms.kept, Q.terms.kept
    assert rest == rest_b and rest[3] is None and not sa.keys() & sb.keys()
    with mock.patch.object(diffop, "_add_into", side_effect=AssertionError):
        S = P + Q
    kept = S.terms.kept
    assert kept == ({**sa, **sb}, *rest)
    for g, entry in kept[0].items():
        source = (sa if g in sa else sb)[g]
        assert entry is not source and entry[0] is not source[0]
        assert (entry[1] is None) == (source[1] is None) and (
            entry[1] is None or entry[1] is not source[1])
    assert sum_snapshot(lambda A, B: A + B, P, Q) == sum_snapshot(series_sum, P, Q)


P64 = 3 ** 64  # residues below are modulo p^precision at p = 3
# (x^2*d + 3*dinv + 5) read back from JSON, times (x*d^2 + 9*x^3): per term,
# (monomial, valuation, residue, precision, exact); d^0's x^0 coefficient is -p
DIGIT_MODE_PRODUCT = [
    ((1,), 32, True, [((1,), 1, 1, 64, False), ((5,), 2, 1, 64, False)]),
    ((0,), 32, True, [((0,), 1, P64 - 1, 64, False), ((3,), 2, 5, 64, False),
                      ((4,), 3, 1, 64, False)]),
    ((-1,), 32, True, [((3,), 3, 1, 64, False)]),
    ((-2,), 32, True, [((2,), 4, P64 - 1, 64, False)]),
    ((-3,), 32, True, [((1,), 4, 2, 64, False)]),
    ((-4,), 32, True, [((0,), 4, P64 - 2, 64, False)]),
    ((2,), 32, True, [((1,), 0, 5, 64, False), ((2,), 0, 1, 64, False)]),
    ((3,), 32, True, [((3,), 0, 1, 64, False)]),
]


class TestProductKernel:
    def test_a_term_that_cancels_and_comes_back_moves_to_the_end(self):
        # d^0 cancels after two pairs and is formed again by the last one
        P = MicroOp(1, 2, {(1,): TateSeries.constant(1), (0,): TateSeries.constant(1),
                           (2,): TateSeries.constant(1)})
        Q = MicroOp(1, 2, {(0,): TateSeries.constant(1), (-1,): TateSeries.constant(-1),
                           (-2,): TateSeries.constant(1)})
        got, _ = diffop._product_terms(P, Q)
        assert list(got) == list(series_product_terms(P, Q))
        assert list(got)[-1] == (0,)

    def test_a_digit_mode_operand_keeps_the_series_arithmetic(self):
        from microdiff.exprs import EvalContext, _as_op, evaluate, parse
        from microdiff.jsonio import operator_from_json, operator_to_json

        def parsed(text):
            return _as_op(evaluate(parse(text), EvalContext(prime=3)), EvalContext(prime=3))
        P = operator_from_json(operator_to_json(parsed("x^2*d + 3*dinv + 5")))
        prod, _ = diffop._product_terms(P, parsed("x*d^2 + 9*x^3"))
        residues = [(gamma, c.degree_cap, c.exact,
                     sorted((m, s.valuation, s.residue(), s.precision, s.exact)
                            for m, s in c.coeffs.items()))
                    for gamma, c in prod.items()]
        assert residues == DIGIT_MODE_PRODUCT

    def test_concurrent_chains_equal_the_same_chains_run_in_turn(self):
        # each thread's products may meet another thread's kept rows; each
        # step is a flat product, an x-coefficient product of its result
        # (from kept flat rows) and a constant factor on that (from kept sums)
        def chain(seed):
            rng = random.Random(seed)
            p = rng.choice((2, 3))

            def factor(n, x):
                return MicroOp(1, p, {(0,): TateSeries.constant(1, prime=p),
                                      ((-1) ** n,): TateSeries(1, p, {
                                          (x,): PadicScalar.from_fraction(
                                              F(rng.choice((1, -1, 5))) * p ** n, p)})})
            acc, out = MicroOp.identity(1, p), []
            for n in range(1, 16):
                acc = mul(acc, factor(n, 0), window_cap=None)
                mixed = mul(acc, factor(n, 1), window_cap=None)
                mixed = mul(mixed, factor(n + 1, 0), window_cap=None)
                out += [operator_snapshot(acc), operator_snapshot(mixed)]
            return out

        seeds = range(4)
        in_turn = [chain(seed) for seed in seeds]
        results = [None] * len(seeds)
        threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, chain(i)))
                   for i in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == in_turn

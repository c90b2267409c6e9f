from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdiff import (InsufficientTruncation, MicroOp, TailCertificate,
                       TateSeries, ZeroOperator, gauss_op, is_slope, order_Nmu,
                       order_nmu, polygon, product_op, slope_in_interval,
                       truncated_cofactor)

from conftest import rand_positive_op

F = Fraction


class TestPolygon:
    def test_two_points(self):
        P = MicroOp.identity() + MicroOp.derivation()
        poly = polygon(P)
        assert poly.vertices == ((0, 0), (1, 0))
        assert poly.slopes == (F(0),)

    def test_product_op_all_vertices(self):
        poly = polygon(product_op(8))
        assert poly.vertices == tuple((n, F(n * (n + 1), 2)) for n in range(9))
        assert poly.slopes == tuple(F(n) for n in range(1, 9))

    def test_gauss_op_odd_slopes(self):
        poly = polygon(gauss_op(7))
        assert poly.slopes == tuple(F(2 * n - 1) for n in range(1, 8))

    def test_collinear_points_are_not_vertices(self):
        # valuations 0, 1, 2: a single slope-1 edge
        P = (MicroOp.identity() + MicroOp.monomial((1,), F(2))
             + MicroOp.monomial((2,), F(4)))
        poly = polygon(P)
        assert poly.vertices == ((0, 0), (2, 2))
        assert poly.slopes == (F(1),)
        assert len(poly.points) == 3

    def test_per_abscissa_minimum_d2(self):
        P = (MicroOp.monomial((1, 0), F(2)) + MicroOp.monomial((0, 1), F(8))
             + MicroOp.identity(2))
        poly = polygon(P)
        assert (1, F(1)) in poly.points and len(poly.points) == 2

    def test_zero_raises(self):
        with pytest.raises(ZeroOperator):
            polygon(MicroOp.zero())

    def test_truncation_flag_and_ceiling(self):
        poly = polygon(product_op(6))
        assert poly.truncated and poly.certified_below == F(7, 2)
        assert polygon(product_op(6, exact=True)).certified_below is None


class TestIsSlope:
    def test_product_op_integer_slopes(self):
        P = product_op(9)
        assert is_slope(P, 1) and is_slope(P, 3)
        assert not is_slope(P, F(3, 2))

    def test_gauss_even_not_slope(self):
        G = gauss_op(9)
        assert not is_slope(G, 2) and not is_slope(G, 4)
        assert is_slope(G, 3)

    def test_constant_zero_weight(self):
        P = MicroOp.identity() + MicroOp.derivation()
        assert is_slope(P, 0)

    def test_above_ceiling_raises(self):
        P = product_op(4)  # ceiling 5/2
        with pytest.raises(InsufficientTruncation):
            is_slope(P, 3)

    def test_equivalence_with_order_gap(self, rng):
        checked = 0
        for _ in range(100):
            P = rand_positive_op(rng, max_terms=5, max_exp=6, poly=True)
            for _ in range(20):
                mu = F(rng.randint(0, 24), rng.randint(1, 4))
                gap = order_nmu(P, mu) < order_Nmu(P, mu)
                assert is_slope(P, mu) == gap
                checked += 1
        assert checked == 2000


class TestSlopeInInterval:
    def test_product_op(self):
        P = product_op(9)
        for k in range(1, 4):
            assert slope_in_interval(P, 1, k)

    def test_single_slope_outside(self):
        P = MicroOp.identity() - MicroOp.monomial((1,), F(2))
        assert not slope_in_interval(P, 2, 5)
        assert slope_in_interval(P, 1, 2)

    def test_constant(self):
        P = MicroOp.constant(F(7))
        assert not slope_in_interval(P, 1, 10)

    def test_uncertified_range_raises(self):
        P = product_op(4)  # ceiling 5/2: [2, 3] cannot be ruled out
        assert slope_in_interval(P, 1, 3)  # certified hit at slope 1 or 2
        with pytest.raises(InsufficientTruncation):
            slope_in_interval(P, 3, 4)

    def test_slopes_diverge_with_truncation(self):
        # the certified ceiling grows with M, so ever larger slopes appear
        last = F(0)
        for M in (4, 8, 12, 16):
            poly = polygon(product_op(M))
            certified = poly.certified_slopes()
            assert certified and certified[-1] > last
            last = certified[-1]


# -- the cached integer polygon against a Fraction reference ----------------------

TAIL_SLOPES = tuple(F(s) for s in ("-1", "0", "1/2", "1", "5/3", "2", "3", "7/2", "6"))


@st.composite
def positive_ops(draw):
    """Exact or truncated positive operators in d = 1 and d = 2, with
    constant or linear coefficients; a truncated one may store terms past
    its tail start."""
    dim = draw(st.sampled_from((1, 2)))
    terms = {}
    for _ in range(draw(st.integers(1, 7))):
        alpha = tuple(draw(st.integers(0, 6)) for _ in range(dim))
        c = TateSeries.constant(draw(st.sampled_from((1, -1, 3, -5, 7)))
                                * F(2) ** draw(st.integers(-6, 6)), dim)
        if draw(st.booleans()):
            x = TateSeries.coordinate(draw(st.integers(1, dim)), dim)
            c = c + x * TateSeries.constant(F(2) ** draw(st.integers(-6, 6)), dim)
        terms[alpha] = c
    tail = None
    if draw(st.booleans()):
        longest = max(sum(a) for a in terms)
        tail = TailCertificate(draw(st.integers(0, longest + 2)),
                               F(draw(st.integers(-12, 12)), draw(st.integers(1, 3))),
                               draw(st.sampled_from(TAIL_SLOPES)))
    return MicroOp(dim, 2, terms, tail)


def slope(a, b):
    return (b[1] - a[1]) / (b[0] - a[0])


def fraction_polygon(P: MicroOp):
    """Points, vertices, slopes and ceiling on Fraction valuations, the hull
    by the slope test (a point leaves when the slope into it is not below
    the slope out of it)."""
    minima = {}
    for a, c in P.terms.items():
        n, v = sum(a), F(min(s.valuation for s in c.coeffs.values()))
        minima[n] = min(v, minima.get(n, v))
    points = sorted(minima.items())
    hull = []
    for pt in points:
        while len(hull) >= 2 and slope(hull[-2], hull[-1]) >= slope(hull[-1], pt):
            hull.pop()
        hull.append(pt)
    slopes = [slope(a, b) for a, b in zip(hull, hull[1:])]
    ceiling = None
    if P.tail is not None:
        t = P.tail
        anchor = t.t0 + t.t1 * (t.start + 1)
        ceiling = min([t.t1] + [(anchor - v) / (t.start + 1 - n)
                                for n, v in hull if n <= t.start])
    return points, hull, slopes, ceiling


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(positive_ops())
def test_cached_polygon_matches_fraction_hull(P):
    poly = polygon(P)
    points, hull, slopes, ceiling = fraction_polygon(P)
    assert list(poly.points) == points
    assert list(poly.vertices) == hull
    assert list(poly.slopes) == slopes
    assert poly.certified_below == ceiling
    assert poly.truncated == (P.tail is not None)
    # compact storage: integer valuations, exact fractions for the rest
    assert all(type(n) is int and type(v) is int for n, v in poly.points)
    assert all(type(s) is Fraction for s in poly.slopes)
    assert ceiling is None or type(poly.certified_below) is Fraction
    assert polygon(P) is poly


def test_second_call_returns_the_cached_polygon():
    P = product_op(6)
    assert polygon(P) is polygon(P)
    assert is_slope(P, 2) and polygon(P) is P._polygon


def test_non_positive_operator_raises_on_every_call():
    P = MicroOp.identity() + MicroOp.monomial((-1,), F(2))
    for _ in range(3):
        with pytest.raises(ValueError):
            polygon(P)
        with pytest.raises(ValueError):
            is_slope(P, 1)
        with pytest.raises(ValueError):
            slope_in_interval(P, 1, 2)


def test_tail_only_operator_raises_on_every_call():
    T = MicroOp(1, 2, {}, TailCertificate(0, 0, 5))
    for _ in range(3):
        with pytest.raises(InsufficientTruncation):
            polygon(T)
        with pytest.raises(InsufficientTruncation):
            is_slope(T, 1)
        with pytest.raises(InsufficientTruncation):
            slope_in_interval(T, 1, 2)


def test_is_slope_above_the_ceiling_refuses_on_every_call():
    P = product_op(4)  # ceiling 5/2
    assert is_slope(P, 2)
    for _ in range(3):
        with pytest.raises(InsufficientTruncation):
            is_slope(P, 3)
        with pytest.raises(InsufficientTruncation):
            is_slope(P, F(5, 2))
    assert is_slope(P, 2) and not is_slope(P, F(3, 2))


# -- slope bounds: an int is compared as it is, anything else as its Fraction -------

BOUNDS = (1, F(1), 1.0, "1", "3/2", True, 10)


def outcome(query, *args):
    """A query's bool, or the type and text of its refusal."""
    try:
        return query(*args)
    except Exception as e:  # the type and text are the outcome
        return type(e), str(e)


CEILING_ONE = MicroOp(1, 2, {(0,): TateSeries.constant(1)}, TailCertificate(0, 0, 1))


@pytest.mark.parametrize("P", [product_op(4), gauss_op(5), truncated_cofactor(1, 5), CEILING_ONE,
                               MicroOp.identity() + MicroOp.derivation(),
                               MicroOp.identity() + MicroOp.monomial((2,), F(8))],
                         ids=["product_op(4)", "gauss_op(5)", "cofactor(1,5)", "ceiling 1", "1+d",
                              "1+p^3d^2"])
def test_slope_bounds_are_read_as_their_fractions(P):
    # every bound, and every pair, answers or refuses as on its Fractions
    poly = polygon(P)
    for b in BOUNDS:
        assert outcome(is_slope, P, b) == outcome(poly.has_slope_in, F(b), F(b)), b
        for k in BOUNDS:
            assert outcome(slope_in_interval, P, b, k) == outcome(
                poly.has_slope_in, F(b), F(k)), (b, k)


def test_slope_bounds_refuse_with_the_same_text():
    P = product_op(4)  # certified slopes 1 and 2, ceiling 5/2
    assert outcome(is_slope, P, 10) == (
        InsufficientTruncation, "cannot rule out slopes in [10, 10] beyond the certified "
        "ceiling 5/2")
    assert outcome(slope_in_interval, P, "5/2", 3.0) == (
        InsufficientTruncation, "cannot rule out slopes in [5/2, 3] beyond the certified "
        "ceiling 5/2")
    assert outcome(is_slope, CEILING_ONE, True) == (
        InsufficientTruncation, "cannot rule out slopes in [1, 1] beyond the certified "
        "ceiling 1")
    assert [is_slope(P, b) for b in (1, F(1), 1.0, "1", "3/2", True)] == [True] * 4 + [False, True]

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdiff import DegreeCapOverflow, MicroOp, NotCertifiable, PadicScalar, TateSeries
from microdiff.diffop import norm_k

from conftest import rand_series


def const(x, dim=1):
    return TateSeries.constant(Fraction(x), dim)


def coord(axis=1, dim=1):
    return TateSeries.coordinate(axis, dim)


def gauss_norm(f: TateSeries) -> Fraction:
    """max |c_m| = p**-v(c_m) over the stored coefficients; 0 for the zero element."""
    return max((Fraction(f.prime) ** -c.valuation for c in f.coeffs.values()),
               default=Fraction(0))


def minus(f: TateSeries, g: TateSeries) -> TateSeries:
    return f + g.scale(PadicScalar.from_int(-1, g.prime))


class TestGaussNorm:
    def test_x_plus_p(self):
        assert gauss_norm(coord() + const(2)) == 1

    def test_zero(self):
        assert gauss_norm(TateSeries.zero()) == 0

    def test_direct_max(self):
        # p^2 x^3 + p^5
        f = coord() * coord() * coord()
        f = f.scale(PadicScalar.from_int(4)) + const(32)
        assert gauss_norm(f) == Fraction(1, 4)

    def test_multiplicative_on_random_pairs(self, rng):
        for _ in range(200):
            f = rand_series(rng, poly=True)
            g = rand_series(rng, poly=True)
            assert gauss_norm(f * g) == gauss_norm(f) * gauss_norm(g)


def spectral_valuation(f: TateSeries) -> int | None:
    """v with |f| = p**-v, as the operator store reads it off its integer sums
    (the term table of the constant operator f); None for the zero series."""
    op = MicroOp.constant(f)
    rows = op.term_table
    v = rows[0][3] if rows else None
    assert norm_k(op, 1) == (0 if v is None else Fraction(f.prime) ** -v)
    assert v == min((c.valuation for c in f.coeffs.values()), default=None)
    return v


class TestSpectralValuation:
    def test_monomial(self):
        f = (coord() * coord() * coord()).scale(PadicScalar.from_int(4))
        assert spectral_valuation(f) == 2

    def test_unit_series(self):
        assert spectral_valuation(const(1) + coord().scale(PadicScalar.from_int(2))) == 0

    def test_direct_max(self):
        f = const(8) + (coord() * coord()).scale(PadicScalar.from_int(8))
        assert spectral_valuation(f) == 3

    def test_zero(self):
        assert spectral_valuation(TateSeries.zero()) is None


class TestDerive:
    def test_square(self):
        f = coord() * coord()
        assert f.derive(1) == coord().scale(PadicScalar.from_int(2))

    def test_constant(self):
        assert const(5).derive(1).is_zero

    def test_term_by_term(self):
        f = coord() * coord() * coord() + coord().scale(PadicScalar.from_int(2))
        df = f.derive(1)
        assert df == (coord() * coord()).scale(PadicScalar.from_int(3)) + const(2)

    def test_norm_never_increases(self, rng):
        for _ in range(100):
            f = rand_series(rng, dim=2, poly=True)
            assert gauss_norm(f.derive(1)) <= gauss_norm(f)


class TestUnits:
    def test_one_plus_px(self):
        f = const(1) + coord().scale(PadicScalar.from_int(2))
        assert f.is_unit()

    def test_coordinate_not_unit(self):
        assert not coord().is_unit()

    def test_norm_on_x_term(self):
        # p + x: the coordinate term carries the norm
        f = const(2) + coord()
        assert not f.is_unit()

    def test_truncated_not_certifiable(self):
        f = TateSeries(1, 2, {(0,): PadicScalar.one()}, exact=False)
        with pytest.raises(NotCertifiable):
            f.is_unit()

    def test_invert_geometric_series(self):
        # 1 + 2x = 1 - u with u = -2x, v(u) = 1: J = 9 reaches p^-10
        f = const(1) + coord().scale(PadicScalar.from_int(2))
        g = f.invert_unit(10)
        assert g.exact and g.degree() == 9
        for n in range(10):
            assert g.coefficient((n,)).as_fraction() == Fraction(-2) ** n
        assert f * g == minus(const(1), power(coord().scale(PadicScalar.from_int(-2)), 10))

    def test_invert_constant(self):
        g = const(6).invert_unit(10)
        assert g.coefficient((0,)).as_fraction() == Fraction(1, 6)
        assert const(6) * g == const(1)

    @pytest.mark.parametrize("c0, dim, cap", [
        (PadicScalar.from_fraction(Fraction(6), 2), 1, 32),
        (PadicScalar.from_fraction(Fraction(-5, 9), 3, 20), 2, 8),
        (PadicScalar.from_residue(-2, 7, 5, 12), 1, 4)])
    def test_a_constant_inverts_as_its_series_did(self, c0, dim, cap):
        # the J = 0 series: the 1 at c0^-1's precision, scaled by c0^-1
        f, c0_inv = TateSeries.constant(c0, dim, c0.prime, cap), c0.inv()
        series = TateSeries.constant(PadicScalar.one(c0.prime, c0_inv.precision), dim,
                                     c0.prime, cap).scale(c0_inv)
        g = f.invert_unit(10)
        assert (g.degree_cap, g.exact) == (series.degree_cap, series.exact) == (cap, True)
        assert [(m, c.valuation, type(c.unit), c.unit, c.precision, c.exact)
                for m, c in g.coeffs.items()] == [
            (m, c.valuation, type(c.unit), c.unit, c.precision, c.exact)
            for m, c in series.coeffs.items()]
        with pytest.raises(NotCertifiable):
            TateSeries(dim, c0.prime, dict(f.coeffs), cap, exact=False).invert_unit(10)

    def test_multiply_back(self):
        # 1 - 4x^2 = 1 - u with v(u) = 2: (J + 1) * 2 >= 7 gives J = 3
        u = coord().scale(PadicScalar.from_int(4)) * coord()
        f = minus(const(1), u)
        assert f * f.invert_unit(7) == minus(const(1), power(u, 4))

    def test_an_inverse_past_the_cap_is_refused_up_front(self):
        x = TateSeries.coordinate(1, degree_cap=8)
        f = TateSeries.constant(1, degree_cap=8) + x.scale(PadicScalar.from_int(2))
        with pytest.raises(DegreeCapOverflow) as refusal:
            f.invert_unit(20)  # J = 19
        assert refusal.value.needed == 19
        assert f * f.invert_unit(8) == minus(TateSeries.constant(1, degree_cap=8), power(
            x.scale(PadicScalar.from_int(-2)), 8))

    def test_inverse_norm(self, rng):
        for _ in range(50):
            h = rand_series(rng, poly=True)
            if not h.is_unit():
                continue
            g = h.invert_unit(20)
            assert gauss_norm(g) == 1 / gauss_norm(h)
            u = minus(const(1), h.scale(h.coefficient((0,)).inv()))
            J = h.inverse_length(20)
            if not u.is_zero:  # the least J with (J + 1) * v(u) >= 20
                vu = min(c.valuation for c in u.coeffs.values())
                assert (J + 1) * vu >= 20 > J * vu
            assert h * g == minus(const(1), power(u, J + 1))


def power(f: TateSeries, n: int) -> TateSeries:
    out = const(1)
    for _ in range(n):
        out = out * f
    return out


def test_degree_cap_truncates_and_flags():
    f = TateSeries(1, 2, {(3,): PadicScalar.one()}, degree_cap=4)
    g = f * f  # degree 6 > cap 4
    assert g.is_zero and not g.exact


def test_json_round_trip():
    from microdiff.jsonio import series_from_json, series_to_json
    f = const(1) + coord().scale(PadicScalar.from_int(6))
    back = series_from_json(series_to_json(f), 2)
    assert back.dim == f.dim and set(back.coeffs) == set(f.coeffs)
    for m, c in f.coeffs.items():
        assert back.coeffs[m].valuation == c.valuation
        assert back.coeffs[m].residue() == c.residue()


# -- ring-op results against dict-of-Fraction polynomials -------------------------
#
# Sums, products, scalings and derivatives build their results without
# validation; each must equal a polynomial computed on plain Fractions and
# rebuild through the public constructor.


def rebuilt(f: TateSeries) -> TateSeries:
    return TateSeries(f.dim, f.prime, dict(f.coeffs), f.degree_cap, f.exact)


def as_poly(f: TateSeries) -> dict:
    return {m: c.as_fraction() for m, c in f.coeffs.items()}


def poly_add(a, b, cap):
    """Truncated sum, and whether the truncation dropped a monomial."""
    out = {m: a.get(m, 0) + b.get(m, 0) for m in set(a) | set(b) if sum(m) <= cap}
    return {m: c for m, c in out.items() if c}, any(sum(m) > cap for m in set(a) | set(b))


def poly_mul(a, b, cap):
    out, dropped = {}, False
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if sum(m) <= cap:
                out[m] = out.get(m, 0) + ca * cb
            else:
                dropped = True
    return {m: c for m, c in out.items() if c}, dropped


@st.composite
def series_pairs(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    dim = draw(st.integers(1, 2))

    def series(cap):
        monos = st.tuples(*[st.integers(0, 4)] * dim).filter(lambda m: sum(m) <= cap)
        values = st.builds(lambda a, b, v: Fraction(a, b) * Fraction(p) ** v,
                           st.integers(-30, 30), st.integers(1, 9), st.integers(-40, 40))
        coeffs = draw(st.dictionaries(monos, values, max_size=5))
        f = TateSeries.zero(dim, p, cap)
        for m, c in coeffs.items():
            if c:
                f = f + TateSeries(dim, p, {m: PadicScalar.from_fraction(c, p)}, cap)
        return f

    cap_a, cap_b = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    f, g = series(cap_a), series(cap_b)
    if draw(st.booleans()):
        g = minus(g, f)  # cancellations, including to the zero series
    scalar = draw(st.integers(-60, 60))
    return f, g, scalar


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(series_pairs())
def test_series_ring_ops_match_fractions(case):
    f, g, scalar = case
    cap = min(f.degree_cap, g.degree_cap)
    a, b = as_poly(f), as_poly(g)
    s = PadicScalar.from_int(scalar, f.prime)
    checks = [(f + g, poly_add(a, b, cap)), (f * g, poly_mul(a, b, cap)),
              (f.scale(s), ({m: c * scalar for m, c in a.items() if scalar}, False))]
    for axis in range(1, f.dim + 1):
        expected = {}
        for m, c in a.items():
            if m[axis - 1] and c * m[axis - 1]:
                dm = m[:axis - 1] + (m[axis - 1] - 1,) + m[axis:]
                expected[dm] = expected.get(dm, 0) + c * m[axis - 1]
        checks.append((f.derive(axis), (expected, False)))
    for h, (expected, dropped) in checks:
        assert as_poly(h) == expected
        assert h.exact == (not dropped)  # the operands are exact polynomials
        assert rebuilt(h) == h


def test_public_constructor_still_validates():
    one = PadicScalar.one()
    with pytest.raises(ValueError):
        TateSeries(0, 2, {})
    with pytest.raises(ValueError):
        TateSeries(1, 2, {(1, 0): one})
    with pytest.raises(ValueError):
        TateSeries(1, 2, {(-1,): one})
    with pytest.raises(ValueError):
        TateSeries(1, 2, {(5,): one}, degree_cap=4)
    with pytest.raises(ValueError):
        TateSeries(1, 2, {(0,): PadicScalar.zero()})
    with pytest.raises(ValueError):
        TateSeries(1, 3, {(0,): one})

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microdiff import DivisionByZero, PadicScalar, PrecisionExhausted
from microdiff.padic import (check_prime, fraction_valuation, generalized_binomial,
                             int_binomial, int_valuation)


def F(x, prime=2):
    return PadicScalar.from_fraction(Fraction(x), prime)


class TestAdd:
    def test_integers_p2(self):
        s = F(4) + F(8)
        assert s.valuation == 2 and s.unit == 3

    def test_zero_identity(self):
        a = F(Fraction(3, 5))
        assert a + PadicScalar.zero() == a

    def test_integer_oracle_p3(self):
        # oracle: exact integer arithmetic
        s = F(3, prime=3) + F(6, prime=3)
        assert s.as_fraction() == 9 and s.valuation == 2

    def test_ultrametric(self, rng):
        for _ in range(200):
            a = F(Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 9)))
            b = F(Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 9)))
            s = a + b
            if s.is_zero:
                continue
            assert s.valuation >= min(a.valuation, b.valuation)
            if a.valuation != b.valuation:
                assert s.valuation == min(a.valuation, b.valuation)

    def test_exact_cancellation_is_zero(self):
        assert (F(7) + F(-7)).is_zero

    def test_digit_mode_cancellation_raises(self):
        a = PadicScalar.from_residue(0, 5, precision=8)
        b = PadicScalar.from_residue(0, 2**8 - 5, precision=8)
        with pytest.raises(PrecisionExhausted):
            a + b

    def test_a_p_divisible_residue_moves_its_p_power_into_the_valuation(self):
        # 12 = 2^2 * 3 known modulo 2^5: 3 at valuation 2, known to 3 digits past it
        s = PadicScalar.from_residue(0, 12, 2, 5)
        assert (s.valuation, s.unit, s.precision, s.exact) == (2, 3, 3, False)
        assert s.valuation + s.precision == 5 and s == PadicScalar.from_residue(2, 3, 2, 3)
        with pytest.raises(PrecisionExhausted, match="residue carries no known digits"):
            PadicScalar.from_residue(0, 32, 2, 5)

    def test_digit_mode_precision_meet(self):
        a = PadicScalar.from_residue(0, 5, precision=10)
        b = PadicScalar.from_residue(2, 3, precision=4)
        s = a + b
        # result known modulo p^min(0+10, 2+4) = p^6
        assert s.valuation + s.precision == 6


class TestMul:
    def test_valuation_additivity(self):
        a, b = F(4), F(8 * 3)
        assert (a * b).valuation == 5

    def test_one_identity(self):
        a = F(Fraction(7, 3))
        assert a * PadicScalar.one() == a

    def test_integer_oracle_p5(self):
        prod = F(10, prime=5) * F(15, prime=5)
        assert prod.valuation == 2 and prod.unit == 6

    def test_norm_multiplicative(self, rng):
        def norm(s):  # |s| = p**-v(s)
            return Fraction(s.prime) ** -s.valuation
        for _ in range(200):
            a = F(Fraction(rng.randint(-50, 50) or 3, rng.randint(1, 7)))
            b = F(Fraction(rng.randint(-50, 50) or 5, rng.randint(1, 7)))
            assert norm(a * b) == norm(a) * norm(b)


def power(c: PadicScalar, n: int) -> PadicScalar:
    """c**n as repeated products, with c.inv() for n < 0."""
    step = c if n >= 0 else c.inv()
    out = PadicScalar.one(c.prime, c.precision)
    for _ in range(abs(n)):
        out = out * step
    return out


class TestPowers:
    BASES = (F(Fraction(-12, 5)), F(Fraction(3, 8), prime=3), F(Fraction(1, 25), prime=5),
             PadicScalar.from_residue(1, 7, precision=16),
             PadicScalar.from_residue(-2, 11, prime=3, precision=5))

    @pytest.mark.parametrize("c", BASES)
    def test_repeated_products_have_the_power_valuation_and_value(self, c):
        for n in range(-3, 10):
            cn = power(c, n)
            assert cn.valuation == n * c.valuation, n
            if c.exact:
                assert cn.exact and cn.as_fraction() == c.as_fraction() ** n, n
            elif n:  # c**0 is the exact one
                assert not cn.exact and cn.precision == c.precision, n
            back = cn * power(c, -n)
            assert back.valuation == 0 and back.residue() == 1, n

    def test_zero(self):
        z = PadicScalar.zero(3, 9)
        assert all(power(z, n).is_zero and power(z, n).precision == 9 for n in range(1, 6))


class TestInv:
    def test_uniformizer(self):
        assert F(2).inv().valuation == -1

    def test_one(self):
        assert PadicScalar.one().inv() == PadicScalar.one()

    def test_extended_euclid_oracle(self):
        # oracle: modular inverse computed independently
        inv3 = F(3).inv()
        assert inv3.valuation == 0
        assert inv3.residue(64) == pow(3, -1, 2**64)

    def test_zero_raises(self):
        with pytest.raises(DivisionByZero):
            PadicScalar.zero().inv()

    def test_double_inverse(self, rng):
        for _ in range(50):
            a = F(Fraction(rng.randint(1, 99), rng.randint(1, 99)))
            assert a.inv().inv() == a

    def test_digit_mode(self):
        a = PadicScalar.from_residue(1, 7, precision=16)
        one = a * a.inv()
        assert one.valuation == 0 and one.residue() == 1


class TestGeneralizedBinomial:
    def test_negative_upper(self):
        # C(-1, j) = (-1)^j
        for j in range(5):
            assert generalized_binomial(-1, j).as_fraction() == (-1) ** j

    def test_negative_binomial_identity(self):
        for m in range(1, 4):
            for j in range(5):
                expected = (-1) ** j * math.comb(m + j - 1, j)
                assert generalized_binomial(-m, j).as_fraction() == expected

    def test_vanishing_above_positive_upper(self):
        assert generalized_binomial(3, 5).is_zero

    def test_small(self):
        assert generalized_binomial(4, 2).as_fraction() == 6

    def test_identity(self):
        assert generalized_binomial(9, 0) == PadicScalar.one()

    def test_kummer_oracle(self):
        # oracle: carry count when adding 3 + 3 in base 2 is 2
        b = generalized_binomial(6, 3)
        assert b.as_fraction() == 20 and b.valuation == 2

    def test_matches_math_comb(self, rng):
        for _ in range(100):
            n = rng.randint(0, 20)
            l = rng.randint(0, n)
            assert int_binomial(n, l) == math.comb(n, l)
            assert generalized_binomial(n, l).as_fraction() == math.comb(n, l)


def test_json_round_trip():
    from microdiff.jsonio import scalar_from_json, scalar_to_json
    a = F(Fraction(24, 7))
    back = scalar_from_json(scalar_to_json(a), 2)
    assert back.valuation == a.valuation and back.residue() == a.residue()
    z = scalar_from_json(scalar_to_json(PadicScalar.zero()), 2)
    assert z.is_zero


# -- valuations against a divide loop ---------------------------------------------


def naive_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


VALUATIONS = sorted(set(range(70)) | {2**i + d for i in range(6, 11) for d in (-1, 0, 1)}
                    | {5000})


def cofactors(p):
    units = (1, p - 1, p + 1, 3 * p**40 + 1)
    non_units = (p, p**2 * (p + 1), 10 * p**7 + p**3)
    return units + non_units


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("sign", (1, -1))
def test_int_valuation_matches_divide_loop(p, sign):
    for v in VALUATIONS:
        for c in cofactors(p):
            n = sign * p**v * c
            assert int_valuation(n, p) == naive_valuation(n, p), (p, v, c)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("sign", (1, -1))
def test_fraction_valuation_matches_divide_loop(p, sign):
    for v in (0, 1, 2, 63, 64, 65, 1025):
        for a in cofactors(p):
            for b in (1, p + 1, p**3):
                for q in (Fraction(sign * p**v * a, b), Fraction(sign * a, p**v * b)):
                    expected = (naive_valuation(q.numerator, p)
                                - naive_valuation(q.denominator, p))
                    assert fraction_valuation(q, p) == expected, (p, v, a, b)


def test_valuation_of_zero_raises():
    for p in (2, 3):
        with pytest.raises(ValueError):
            int_valuation(0, p)
        with pytest.raises(ValueError):
            fraction_valuation(Fraction(0), p)


# -- ring-op results against Fraction arithmetic ----------------------------------
#
# Ring operations build their results without validation; every result must
# still be a scalar the public constructor accepts, and equal to it.


def rebuilt(s: PadicScalar) -> PadicScalar:
    return PadicScalar(s.prime, s.valuation, s.unit, s.precision, s.exact)


@st.composite
def exact_values(draw, p):
    """A rational p**v * a/b, b > 0, with valuation gaps up to the thousands."""
    if draw(st.integers(0, 15)) == 0:
        return Fraction(0)
    v = draw(st.one_of(st.integers(-6, 6), st.integers(-3000, 3000)))
    a = draw(st.integers(-10**6, 10**6).filter(lambda n: n % p != 0))
    b = draw(st.integers(1, 10**4).filter(lambda n: n % p != 0))
    return Fraction(a, b) * Fraction(p) ** v


@st.composite
def scalar_pairs(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    x = draw(exact_values(p))
    shape = draw(st.sampled_from(("free", "negated", "same_valuation")))
    if shape == "negated":
        y = -x
    elif shape == "same_valuation" and x:
        u = draw(st.integers(-10**6, 10**6).filter(lambda n: n % p != 0))
        y = x * Fraction(u, draw(st.integers(1, 50).filter(lambda n: n % p != 0)))
    else:
        y = draw(exact_values(p))
    return p, x, y


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(scalar_pairs())
@example((2, Fraction(1), Fraction(1)))
@example((3, Fraction(1), Fraction(2)))
@example((2, Fraction(2**2000 * 3), Fraction(-3 * 2**2000)))
@example((5, Fraction(1, 5**1500), Fraction(7 * 5**1800, 3)))
def test_exact_ring_ops_match_fractions(case):
    p, x, y = case
    a, b = F(x, p), F(y, p)
    results = [(a + b, x + y), (a + -b, x - y), (a * b, x * y), (-a, -x)]
    if x:
        results.append((a.inv(), 1 / x))
    for s, expected in results:
        assert s.exact and s.as_fraction() == expected
        assert s.is_zero == (expected == 0)
        # the rebuild checks the unit is a p-unit, which pins the valuation
        assert rebuilt(s) == s


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.sampled_from((2, 3, 5)), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(1, 10**9), st.integers(1, 10**9), st.integers(1, 12), st.integers(1, 12))
def test_digit_mode_results_rebuild(p, va, vb, ra, rb, na, nb):
    a = PadicScalar.from_residue(va, ra * p + 1, p, na)
    b = PadicScalar.from_residue(vb, rb * p + 1, p, nb)
    results = [a * b, -a, a.inv()]
    try:
        results.append(a + b)
    except PrecisionExhausted:
        pass
    for s in results:
        assert not s.exact and rebuilt(s) == s


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        PadicScalar(2, 0, Fraction(2))
    with pytest.raises(ValueError):
        PadicScalar(2, 0, Fraction(3, 4))
    with pytest.raises(TypeError):
        PadicScalar(2, 0, 3)
    with pytest.raises(ValueError):
        PadicScalar(2, None, Fraction(1))
    with pytest.raises(ValueError):
        PadicScalar(1, 0, Fraction(1))
    with pytest.raises(ValueError):
        PadicScalar(3, 0, 9, precision=2, exact=False)
    with pytest.raises(ValueError):
        PadicScalar(2, 0, Fraction(1), precision=0)


class TestCheckPrime:
    def test_agrees_with_trial_division(self):
        for n in range(-3, 3000):
            is_prime = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
            if is_prime:
                assert check_prime(n) == n
            else:
                with pytest.raises(ValueError):
                    check_prime(n)

    @pytest.mark.parametrize("n", [
        561, 2047, 3215031751,  # a Carmichael number; strong pseudoprimes to 2 and to 2..7
        3825123056546413051,  # a strong pseudoprime to the bases 2..23
        318665857834031151167461,  # ... and to 2..37, the first twelve primes
    ])
    def test_strong_pseudoprimes_are_refused(self, n):
        with pytest.raises(ValueError, match="not a prime"):
            check_prime(n)

    def test_large_primes_pass_and_values_past_the_proven_bound_are_refused(self):
        for p in (2**31 - 1, 2**61 - 1, 2**64 - 59):
            assert check_prime(p) == p
        for n in (3317044064679887385961981, 2**89 - 1):
            with pytest.raises(ValueError, match="3.3e24"):
                check_prime(n)

    def test_every_constructor_refuses_a_composite_or_unit_prime(self):
        for p in (0, 1, 4, 9):
            with pytest.raises(ValueError):
                PadicScalar.from_int(3, p)
            with pytest.raises(ValueError):
                PadicScalar.from_residue(0, 1, p, 4)
            with pytest.raises(ValueError):
                PadicScalar.zero(p)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("v", range(-3, 4))
def test_from_fraction_fields(p, v):
    # the v = 0 path skips the power and the division; every field is kept
    for u in (Fraction(1), Fraction(-7), Fraction(3, 7), Fraction(-11, 13)):
        if u.numerator % p == 0 or u.denominator % p == 0:
            continue
        q = u * Fraction(p) ** v
        for arg in {q, int(q)} if q.denominator == 1 else {q}:
            s = PadicScalar.from_fraction(arg, p, 20)
            assert (s.prime, s.valuation, s.unit, s.precision, s.exact) == (p, v, u, 20, True)
            assert type(s.unit) is Fraction

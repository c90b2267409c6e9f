from fractions import Fraction

import pytest

from microdiff import (InsufficientTruncation, MicroOp, RingLevel, TailCertificate, TateSeries,
                       WindowOverflow, compose, mul, norm_Ek, norm_Fkr, norm_k, norm_mu, order_Ek,
                       order_Nk, order_Nmu, order_nk, product_op, quasi_abelian_defect,
                       required_truncation, sector_norms, sector_split, weight)

from conftest import rand_laurent_op, rand_positive_op

F = Fraction


def dinv(dim=1):
    return MicroOp.monomial((-1,) + (0,) * (dim - 1), 1, dim)


def x_op(dim=1, axis=1):
    return MicroOp.constant(TateSeries.coordinate(axis, dim), dim)


class TestWeight:
    def test_worked_instance_d2(self):
        for k, r in ((2, 1), (3, 1), (5, 2)):
            assert weight((2, -3), k, r) == -r

    def test_zero(self):
        assert weight((0, 0), 3, 1) == 0

    def test_negative_d1(self):
        assert weight((-2,), 3, 2) == -4

    def test_level_params_validation(self):
        with pytest.raises(ValueError):
            weight((1,), 1, 2)
        with pytest.raises(ValueError):
            weight((1,), 2, 0)

    @pytest.mark.parametrize("level", [1.5, F(3, 2)])
    def test_a_level_that_is_not_an_integer_is_refused(self, level):
        # norm_k(1 - p*d, 1.5) used to be 2**0.5, a float, and RingLevel.ek(1.5)
        # gave a verdict; order_Nk and order_nk answered at the weight 3/2, and
        # required_truncation("product_op", 1.5) was 4.0
        P = MicroOp.identity() - MicroOp.monomial((1,), 2)
        for S in (P, MicroOp(1, 2, {})):  # the zero operator too
            for query in (lambda: norm_k(S, level), lambda: norm_Ek(S, level),
                          lambda: order_Ek(S, level), lambda: norm_Fkr(S, level, 1),
                          lambda: norm_Fkr(S, 2, level), lambda: sector_norms(S, level, 1),
                          lambda: quasi_abelian_defect(S, P, level),
                          lambda: order_Nk(S, level), lambda: order_nk(S, level)):
                with pytest.raises(ValueError, match="must be integers"):
                    query()
        for make in (lambda: weight((1,), level, 1), lambda: weight((1,), 2, level),
                     lambda: RingLevel.dkq(level), lambda: RingLevel.ek(level),
                     lambda: RingLevel.fkr(level, 1), lambda: RingLevel.fkr(2, level),
                     lambda: RingLevel.fir(level),
                     lambda: required_truncation("product_op", level)):
            with pytest.raises(ValueError, match="must be integers"):
                make()
        # a rational weight is no level: its norm is a fractional exponent
        assert norm_mu(P, F(3, 2)) == F(1, 2) and order_Nmu(P, F(3, 2)) == 1


class TestMul:
    def test_dinv_x(self):
        # d^-1 x = x d^-1 - d^-2 exactly (second derivative of x vanishes)
        prod = mul(dinv(), x_op())
        assert prod.coefficient((-1,)) == TateSeries.coordinate(1)
        assert prod.coefficient((-2,)).coefficient((0,)).as_fraction() == -1
        assert len(prod.terms) == 2 and prod.is_exact

    def test_dinv_scalar_commutes(self):
        c = MicroOp.constant(F(3, 4))
        assert mul(dinv(), c).terms_equal(mul(c, dinv()))

    def test_monomial_cancellation(self):
        # (p^k d)(p^r d)^-1 = p^(k-r)
        k, r = 3, 1
        left = MicroOp.monomial((1,), F(2) ** k)
        right = MicroOp.monomial((-1,), F(2) ** -r)
        prod = mul(left, right)
        assert prod.terms_equal(MicroOp.constant(F(2) ** (k - r)))

    def test_inverse_pair_is_identity(self):
        assert mul(dinv(), MicroOp.derivation()).terms_equal(MicroOp.identity())
        assert mul(MicroOp.derivation(), dinv()).terms_equal(MicroOp.identity())

    def test_negative_power_expansion_terminates(self):
        # d^-2 x^2 has exactly three terms
        prod = mul(MicroOp.monomial((-2,), 1), x_op() * x_op())
        assert set(prod.terms) == {(-2,), (-3,), (-4,)}

    def test_associative(self, rng):
        for _ in range(25):
            S = rand_laurent_op(rng, max_terms=3, max_exp=2)
            T = rand_laurent_op(rng, max_terms=3, max_exp=2)
            U = rand_laurent_op(rng, max_terms=3, max_exp=2)
            assert mul(mul(S, T), U).terms_equal(mul(S, mul(T, U)))

    def test_window_overflow(self):
        big = MicroOp.monomial((60,), 1)
        with pytest.raises(WindowOverflow):
            mul(big, MicroOp.monomial((10,), 1), window_cap=64)

    def test_window_overflow_carries_the_largest_exponent(self):
        # the first offending exponent is (65, 0); the largest is -72
        S = MicroOp.monomial((60, 0), 1) + MicroOp.monomial((1, -72), 1)
        with pytest.raises(WindowOverflow) as info:
            mul(S, MicroOp.monomial((5, 0), 1), window_cap=64)
        assert info.value.needed == 72
        assert str(info.value).endswith("rerun with --window 72 or larger")

    def test_window_clip_folds_into_tail(self):
        prod = mul(MicroOp.monomial((3,), 1), MicroOp.monomial((2,), F(4)),
                   window=4)
        assert not prod.terms
        assert prod.tail is not None and prod.tail.start == 4
        assert prod.tail.bound_at(5) <= 2


class TestProductPaths:
    """compose, mul and ``*`` share one product body; each entry path agrees."""

    @staticmethod
    def exact_positive():
        return MicroOp(1, 2, {(0,): TateSeries.constant(3), (1,): TateSeries.coordinate(1),
                              (2,): TateSeries.constant(F(1, 2))})

    def test_truncated_positive_mul_equals_compose(self):
        G, E = product_op(6), self.exact_positive()
        for S, T in ((G, E), (E, G)):
            prod = mul(S, T)
            assert prod.tail is not None
            assert prod == compose(S, T)  # terms and tail

    def test_truncated_times_laurent_is_refused(self):
        for S, T in ((product_op(6), dinv()), (dinv(), product_op(6))):
            with pytest.raises(InsufficientTruncation):
                mul(S, T)

    def test_window_on_a_truncated_product_keeps_the_certificate(self):
        G, C = product_op(6), MicroOp.constant(3)
        full = mul(G, C)
        assert full.tail.infinite and full.tail.t1 > 0
        clipped = mul(G, C, window=4)
        dropped = [a for a in full.terms if a[0] > 4]
        assert dropped
        assert clipped.terms == {a: c for a, c in full.terms.items() if a[0] <= 4}
        assert clipped.tail.start == min(full.tail.start, 4)
        assert clipped.tail.t1 == min(full.tail.t1, 0)
        assert clipped.tail.infinite
        assert clipped.tail.t0 == min([full.tail.t0] + [s.valuation for a in dropped
                                                        for s in full.terms[a].coeffs.values()])
        assert clipped.neg_tail is None

    def test_window_clips_a_negative_sector_term_into_neg_tail(self):
        T = MicroOp.identity() + MicroOp.monomial((-4,), 4)
        prod = mul(dinv(), T, window=4)
        assert prod.terms_equal(dinv())
        assert prod.tail is None
        assert prod.neg_tail == TailCertificate(4, 2, 0)

    def test_star_is_mul(self, rng):
        for _ in range(20):
            S, T = rand_laurent_op(rng, max_exp=2), rand_laurent_op(rng, max_exp=2)
            assert S * T == mul(S, T)
        G = product_op(6)
        for _ in range(5):
            E = rand_positive_op(rng, max_exp=2, poly=True)
            assert G * E == mul(G, E) and E * G == mul(E, G)

    def test_compose_refuses_a_laurent_operator(self):
        for S, T in ((dinv(), MicroOp.identity()), (MicroOp.identity(), dinv())):
            with pytest.raises(ValueError):
                compose(S, T)


class TestNormEk:
    def test_dinv(self):
        for k in (1, 2, 3):
            assert norm_Ek(dinv(), k) == F(2) ** -k

    def test_identity(self):
        assert norm_Ek(MicroOp.identity(), 2) == 1

    def test_mixed(self):
        S = mul(dinv(), x_op())  # x d^-1 - d^-2
        assert norm_Ek(S, 2) == F(1, 4)

    def test_multiplicative(self, rng):
        for k in (1, 2, 3):
            for _ in range(60):
                S = rand_laurent_op(rng)
                T = rand_laurent_op(rng)
                assert norm_Ek(mul(S, T), k) == norm_Ek(S, k) * norm_Ek(T, k)

    def test_order(self):
        S = MicroOp.identity() + MicroOp.monomial((-1,), F(1, 2))
        # exponents: 0 and -k+1; at k=1 both are 0
        assert order_Ek(S, 1) == 0
        assert norm_Ek(S, 1) == 1


class TestNormFkr:
    def test_dinv(self):
        for k, r in ((2, 1), (3, 1), (3, 2)):
            assert norm_Fkr(dinv(), k, r) == F(2) ** -r

    def test_monomial_lemma_box(self):
        for d in (1, 2):
            for k, r in ((2, 1), (3, 1), (3, 2)):
                exps = range(-4, 5)
                if d == 1:
                    alphas = [(a,) for a in exps]
                else:
                    alphas = [(a, b) for a in exps for b in exps]
                for alpha in alphas:
                    mono = MicroOp.monomial(alpha, 1, d)
                    assert norm_Fkr(mono, k, r) == F(2) ** weight(alpha, k, r)

    def test_contraction_below_one(self):
        # (p^k d)(p^r d)^-1 has norm p^(r-k) < 1 = product of norms
        k, r = 3, 1
        left = MicroOp.monomial((1,), F(2) ** k)
        right = MicroOp.monomial((-1,), F(2) ** -r)
        assert norm_Fkr(mul(left, right), k, r) == F(2) ** (r - k)
        assert norm_Fkr(left, k, r) * norm_Fkr(right, k, r) == 1

    def test_submultiplicative_always(self, rng):
        for _ in range(80):
            S = rand_laurent_op(rng)
            T = rand_laurent_op(rng)
            for k, r in ((2, 1), (3, 2)):
                assert (norm_Fkr(mul(S, T), k, r)
                        <= norm_Fkr(S, k, r) * norm_Fkr(T, k, r))

    def test_multiplicative_within_sectors(self, rng):
        hits = 0
        for _ in range(300):
            S = rand_laurent_op(rng)
            T = rand_laurent_op(rng)
            for part in (0, 1):
                Ss, Ts = sector_split(S)[part], sector_split(T)[part]
                if not Ss.terms or not Ts.terms:
                    continue
                hits += 1
                prod = mul(Ss, Ts)
                for k, r in ((2, 1), (3, 2)):
                    assert (norm_Fkr(prod, k, r)
                            == norm_Fkr(Ss, k, r) * norm_Fkr(Ts, k, r))
        assert hits > 100

    def test_level_monotonicity(self, rng):
        for _ in range(60):
            S = rand_laurent_op(rng)
            pos, neg = sector_split(S)
            # raising k grows the positive sector, fixes the negative one
            if pos.terms:
                assert norm_Fkr(pos, 2, 1) <= norm_Fkr(pos, 3, 1)
            if neg.terms:
                assert norm_Fkr(neg, 2, 1) == norm_Fkr(neg, 3, 1)
                # raising r shrinks the negative sector
                assert norm_Fkr(neg, 3, 2) <= norm_Fkr(neg, 3, 1)


class TestSectorSplit:
    def test_basic(self):
        S = MicroOp.identity() + dinv()
        pos, neg = sector_split(S)
        assert pos.terms_equal(MicroOp.identity()) and neg.terms_equal(dinv())

    def test_positive_operator(self):
        S = MicroOp.identity() + MicroOp.derivation()
        pos, neg = sector_split(S)
        assert pos.terms_equal(S) and not neg.terms

    def test_d2_grading_sign(self):
        S = (MicroOp.monomial((1, -2), 1, 2) + MicroOp.monomial((2, -1), 1, 2))
        pos, neg = sector_split(S)
        assert set(pos.terms) == {(2, -1)} and set(neg.terms) == {(1, -2)}

    def test_recombination(self, rng):
        for _ in range(40):
            S = rand_laurent_op(rng, dim=2)
            pos, neg = sector_split(S)
            assert (pos + neg).terms_equal(S)

    def test_sector_norms_max(self, rng):
        for _ in range(40):
            S = rand_laurent_op(rng)
            a, b = sector_norms(S, 3, 1)
            assert max(a, b) == norm_Fkr(S, 3, 1)


class TestQuasiAbelianMicro:
    def test_defect_under_Ek(self, rng):
        for _ in range(40):
            S = rand_laurent_op(rng, max_terms=3, max_exp=2)
            T = rand_laurent_op(rng, max_terms=3, max_exp=2)
            if not S.terms or not T.terms:
                continue
            k = 2
            bracket = mul(S, T) - mul(T, S)
            lhs = norm_Ek(bracket, k) if bracket.terms else F(0)
            assert lhs <= F(2) ** -k * norm_Ek(S, k) * norm_Ek(T, k)

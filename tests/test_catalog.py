from fractions import Fraction

import pytest

from microdiff import (MicroOp, cofactor_norm_check, compose, gauss_op,
                       norm_k, order_Nk, product_op, required_truncation,
                       truncated_cofactor)

F = Fraction


class TestProductOp:
    def test_m2_expansion(self):
        P = product_op(2, exact=True)
        coeffs = {a[0]: c.coefficient((0,)).as_fraction()
                  for a, c in P.terms.items()}
        assert coeffs == {0: 1, 1: -6, 2: 8}

    def test_m1(self):
        P = product_op(1, exact=True)
        assert P.terms_equal(MicroOp.identity() - MicroOp.monomial((1,), F(2)))

    def test_closed_form_valuations(self):
        for M in (3, 6, 10):
            P = product_op(M)
            for a, c in P.terms.items():
                n = a[0]
                assert min(s.valuation for s in c.coeffs.values()) == n * (n + 1) // 2

    def test_orders_at_required_truncation(self):
        for k in range(1, 7):
            P = product_op(required_truncation("product_op", k))
            assert order_Nk(P, k) == k

    def test_recurrence(self):
        for M in (1, 2, 5):
            left = product_op(M + 1, exact=True)
            right = compose(product_op(M, exact=True),
                            MicroOp.identity() - MicroOp.monomial((1,), F(2) ** (M + 1)))
            assert left.terms_equal(right)

    def test_truncated_recurrence_keeps_certificates(self):
        # composing the truncation with the next factor stays certified at
        # the levels the coarser certificate covers
        P = compose(product_op(6),
                    MicroOp.identity() - MicroOp.monomial((1,), F(2) ** 7))
        for k in (1, 2):
            assert norm_k(P, k) == norm_k(product_op(7), k)


class TestGaussOp:
    def test_m1(self):
        G = gauss_op(1, exact=True)
        assert G.terms_equal(MicroOp.identity() + MicroOp.monomial((1,), F(2)))

    def test_closed_form_valuations(self):
        for a, c in gauss_op(8).terms.items():
            assert min(s.valuation for s in c.coeffs.values()) == a[0] ** 2

    def test_parity_orders(self):
        from microdiff import order_nk
        G = gauss_op(5)
        assert order_Nk(G, 4) == 2 == order_nk(G, 4)
        assert order_Nk(G, 3) == 2 and order_nk(G, 3) == 1


class TestCofactor:
    def test_unit_at_low_levels(self):
        from microdiff import check_unit
        from microdiff.tower import RingLevel
        Q = truncated_cofactor(3, 14)
        for m in (1, 2, 3):
            assert check_unit(Q, RingLevel.dkq(m)).invertible

    def test_norm_check_values(self):
        assert cofactor_norm_check(2, 1, 8) == F(1) - 2
        assert cofactor_norm_check(3, 1, 8) == F(1) - 3
        assert cofactor_norm_check(3, 2, 10) == F(3) - 3

    def test_norm_check_closed_form(self):
        for m in (1, 2):
            for k in range(m + 1, 7):
                M = max(2 * m + 2, k + 2)
                assert cofactor_norm_check(k, m, M) == F(m * (m + 1), 2) - k

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cofactor_norm_check(1, 1, 10)
        with pytest.raises(ValueError):
            cofactor_norm_check(4, 1, 3)


class TestRequiredTruncation:
    def test_pinned_values(self):
        assert [required_truncation("product_op", k) for k in (1, 2, 3)] == [3, 5, 7]
        assert [required_truncation("gauss_op", k) for k in (1, 2, 3)] == [2, 3, 4]

    def test_certifies_against_brute_force(self):
        # brute-force oracle: data at a much deeper truncation agrees
        for k in range(1, 7):
            M = required_truncation("product_op", k)
            assert order_Nk(product_op(M), k) == order_Nk(product_op(M + 10), k)
            assert norm_k(product_op(M), k) == norm_k(product_op(M + 10), k)
            M = required_truncation("gauss_op", k)
            assert order_Nk(gauss_op(M), k) == order_Nk(gauss_op(M + 10), k)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            required_truncation("mystery", 2)

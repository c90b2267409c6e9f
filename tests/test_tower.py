import copy
import dataclasses
import itertools
import math
import pickle
import random
import re
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microdiff import (DegreeCapOverflow, InsufficientTruncation, MicroOp, MicrodiffError,
                       NotInvertible, PadicScalar, PrecisionExhausted, TailCertificate, TateSeries,
                       UndecidableFiniteness, WindowOverflow,
                       check_unit, classify_surconvergent, gauss_op, invert,
                       mul, norm_Ek, norm_Fkr, norm_k, product_op,
                       slope_criterion_check, truncated_cofactor)
from microdiff import cli, diffop, microop, tower
from microdiff.diffop import _graded_weight, tail_sup_exponent
from microdiff.exprs import EvalContext, _as_op, evaluate, parse
from microdiff.jsonio import operator_from_json, operator_to_json, verdict_to_json
from microdiff.padic import fraction_valuation
from microdiff.tower import RingLevel, UnitVerdict

from conftest import rand_laurent_op, rand_positive_op, rand_series
from test_diffop import from_json as round_trip, read_back, relift, series_product_terms_and_sums

F = Fraction


def one_minus_pd():
    return MicroOp.identity() - MicroOp.monomial((1,), F(2))


class TestRingLevel:
    def test_validation(self):
        with pytest.raises(ValueError):
            RingLevel.fkr(1, 2)
        with pytest.raises(ValueError):
            RingLevel.ek(0)
        with pytest.raises(ValueError):
            RingLevel("bogus")
        assert RingLevel.dkq(0).k == 0

    def test_str(self):
        assert str(RingLevel.fkr(3, 1)) == "fkr(k=3, r=1)"
        assert str(RingLevel.finf()) == "finf"

    def test_each_tag_takes_exactly_its_fields(self):
        # RingLevel("ek", k=2, r=1) printed as ek(k=2) yet weighed dinv by r = 1,
        # RingLevel("fir", k=0, r=1) printed as fir(r=1) yet wrote k = 0 to JSON,
        # and RingLevel("finf", k=0, r=0) answered
        for tag, k, r in (("ek", 2, 1), ("fir", 0, 1), ("finf", 0, 0)):
            with pytest.raises(ValueError, match="takes no"):
                RingLevel(tag, k=k, r=r)
        least = {"dkq": {"k": 0}, "ek": {"k": 1}, "fkr": {"k": 1, "r": 1}, "fir": {"r": 1},
                 "finf": {}, "dinf": {}}
        for tag, fields in least.items():
            for name in "kr":
                if name in fields:  # missing, or below its least value
                    refused = [{n: v for n, v in fields.items() if n != name},
                               {**fields, name: fields[name] - 1}]
                else:  # stray
                    refused = [{**fields, name: 0}, {**fields, name: 1}]
                for kwargs in refused:
                    with pytest.raises(ValueError):
                        RingLevel(tag, **kwargs)
            for bumps in itertools.product(range(3), repeat=2):
                kwargs = {n: fields[n] + b for n, b in zip("kr", bumps) if n in fields}
                try:
                    level = RingLevel(tag, **kwargs)
                except ValueError:
                    assert tag == "fkr" and kwargs["k"] < kwargs["r"]
                    continue
                written = verdict_to_json(UnitVerdict(False, level, violated="x"))["level"]
                named = ", ".join(f"{n}={v}" for n, v in written.items() if n != "tag")
                assert written["tag"] == tag
                assert str(level) == (f"{tag}({named})" if named else tag)


class TestCheckUnitLadder:
    """The walk of 1 - p*d through the tower."""

    def test_not_unit_in_e1(self):
        v = check_unit(one_minus_pd(), RingLevel.ek(1))
        assert not v.invertible and v.violated == "max_coefficient_not_unique"

    def test_unit_in_e2(self):
        v = check_unit(one_minus_pd(), RingLevel.ek(2))
        assert v.invertible and v.beta == (1,)

    def test_not_unit_in_f21(self):
        # the recentred series has two-level norm exactly 1: no contraction
        v = check_unit(one_minus_pd(), RingLevel.fkr(2, 1))
        assert not v.invertible and v.violated == "lower_order_too_large"
        assert v.alpha == (0,)

    def test_unit_in_f32(self):
        assert check_unit(one_minus_pd(), RingLevel.fkr(3, 2)).invertible

    def test_not_unit_in_fir1(self):
        v = check_unit(one_minus_pd(), RingLevel.fir(1))
        assert not v.invertible and v.violated == "lower_order_too_large"

    def test_unit_in_fir2_and_finf(self):
        assert check_unit(one_minus_pd(), RingLevel.fir(2)).invertible
        v = check_unit(one_minus_pd(), RingLevel.finf())
        assert v.invertible and v.beta == (1,) and v.delegate == (2, 2)

    def test_not_unit_in_dinf(self):
        v = check_unit(one_minus_pd(), RingLevel.dinf())
        assert not v.invertible and v.violated == "order_positive"


class TestCheckUnitGeneral:
    def test_unit_function_everywhere(self):
        f = MicroOp.constant(F(3))
        for lvl in (RingLevel.dkq(2), RingLevel.ek(1), RingLevel.fkr(3, 1),
                    RingLevel.fir(1), RingLevel.finf(), RingLevel.dinf()):
            v = check_unit(f, lvl)
            assert v.invertible and v.beta == (0,)

    def test_product_op_never_unit_in_ek(self):
        for k in (1, 2, 3):
            P = product_op(2 * k + 2)
            v = check_unit(P, RingLevel.ek(k))
            assert not v.invertible
            assert v.violated == "max_coefficient_not_unique"

    def test_cofactor_unit_in_dkq(self):
        Q = truncated_cofactor(3, 14)
        for m in (1, 2, 3):
            v = check_unit(Q, RingLevel.dkq(m))
            assert v.invertible and v.beta == (0,)

    def test_product_op_not_finite_at_limit_levels(self):
        P = product_op(9)
        for lvl in (RingLevel.fir(1), RingLevel.finf()):
            v = check_unit(P, lvl)
            assert not v.invertible and v.violated == "not_finite"

    def test_gauss_op_even_levels(self):
        G = gauss_op(9)
        assert check_unit(G, RingLevel.ek(4)).invertible
        assert not check_unit(G, RingLevel.ek(3)).invertible

    def test_undecidable_without_witness(self):
        P = MicroOp(1, 2, {(0,): TateSeries.constant(1)},
                    TailCertificate(2, F(0), F(5)))
        with pytest.raises(UndecidableFiniteness):
            check_unit(P, RingLevel.finf())

    def test_insufficient_truncation_blocks_unit_claims(self):
        # the tail can reach the stored max at level 2: do not guess
        P = MicroOp(1, 2, {(0,): TateSeries.constant(1)},
                    TailCertificate(1, F(0), F(1)))
        with pytest.raises(InsufficientTruncation):
            check_unit(P, RingLevel.ek(2))

    @pytest.mark.parametrize("make, level, message", [
        # the certificate's own refusal, with the level
        (lambda: product_op(2), RingLevel.ek(2),
         "tail slope 3/2 does not dominate the weight slope 2"),
        # a unit: the tail reaches the stored maximum, or at fkr the recentred one
        (lambda: with_tail("1 + p^4*d", TailCertificate(1, F(0), F(1))), RingLevel.ek(1),
         "tail sup p^0 reaches the stored maximum p^0"),
        (lambda: with_tail("1 + p^4*d", TailCertificate(1, F(0), F(2))), RingLevel.fkr(2, 1),
         "tail sup p^0 reaches the recentred maximum p^0"),
        # a non-unit (x at the maximum): the tail exceeds the stored maximum
        (lambda: with_tail("1 + x*d", TailCertificate(1, F(-2), F(1))), RingLevel.ek(1),
         "tail sup p^2 exceeds the stored maximum p^1")])
    def test_a_tail_refusal_names_the_bound_that_binds(self, make, level, message):
        with pytest.raises(InsufficientTruncation) as refusal:
            check_unit(make(), level)
        assert str(refusal.value) == f"{message}; the {level} verdict needs a larger truncation"

    def test_laurent_unit_in_fkr(self):
        S = MicroOp.monomial((-1,), 1) + MicroOp.monomial((1,), F(128))
        v = check_unit(S, RingLevel.fkr(3, 1))
        assert v.invertible and v.beta == (-1,)

    def test_d2_unique_top_requirement(self):
        # two order-2 coefficients of equal norm: not a unit in finf at d=2
        P = (MicroOp.monomial((2, 0), 1, 2) + MicroOp.monomial((0, 2), 1, 2)
             + MicroOp.identity(2))
        v = check_unit(P, RingLevel.finf())
        assert not v.invertible and v.violated == "top_order_not_dominated"
        # strict dominance flips the verdict
        Q = (MicroOp.monomial((2, 0), 1, 2) + MicroOp.monomial((0, 2), F(2), 2)
             + MicroOp.identity(2))
        assert check_unit(Q, RingLevel.finf()).invertible

    def test_positive_required_at_limit_levels(self):
        S = MicroOp.monomial((-1,), 1)
        with pytest.raises(ValueError):
            check_unit(S, RingLevel.finf())


class TestTowerCoherence:
    def test_fkr_implies_ek_and_lower_k(self, rng):
        for _ in range(120):
            P = rand_positive_op(rng)
            for (k, r) in ((2, 1), (3, 2), (4, 1)):
                if check_unit(P, RingLevel.fkr(k, r)).invertible:
                    assert check_unit(P, RingLevel.ek(k)).invertible
                    for l in range(r, k + 1):
                        assert check_unit(P, RingLevel.fkr(l, r)).invertible

    def test_fir_chain(self, rng):
        for _ in range(120):
            P = rand_positive_op(rng)
            for r in (1, 2):
                if check_unit(P, RingLevel.fir(r)).invertible:
                    assert check_unit(P, RingLevel.fir(r + 1)).invertible
                    assert check_unit(P, RingLevel.finf()).invertible
                    for k in range(r, 9):
                        assert check_unit(P, RingLevel.fkr(k, r)).invertible

    def test_finf_characterization_d1(self, rng):
        for _ in range(120):
            P = rand_positive_op(rng)
            q = max(a[0] for a in P.terms)
            expected = P.terms[(q,)].is_unit()
            assert check_unit(P, RingLevel.finf()).invertible == expected

    def test_dinf_consistency(self, rng):
        for _ in range(60):
            P = rand_positive_op(rng)
            verdict = check_unit(P, RingLevel.dinf()).invertible
            dkq_all = all(check_unit(P, RingLevel.dkq(k)).invertible
                          for k in range(0, 7))
            assert verdict == dkq_all


class TestSlopeCriterion:
    def test_one_minus_pd(self):
        P = one_minus_pd()
        assert not slope_criterion_check(P, 1, 2)  # slope 1 in [1, 2]
        assert slope_criterion_check(P, 2, 5)

    def test_product_op_never(self):
        P = product_op(9)
        for r, k in ((1, 1), (1, 3), (2, 4)):
            assert not slope_criterion_check(P, r, k)

    def test_constant_unit(self):
        P = MicroOp.constant(F(5))
        assert slope_criterion_check(P, 1, 10)

    def test_fkr_unit_implies_no_slope(self, rng):
        for _ in range(150):
            P = rand_positive_op(rng)
            for (k, r) in ((2, 1), (3, 1), (3, 2)):
                if check_unit(P, RingLevel.fkr(k, r)).invertible:
                    assert slope_criterion_check(P, r, k)


class TestClassify:
    def test_finite(self):
        c = classify_surconvergent(one_minus_pd())
        assert c.kind == "finite" and c.order == 1

    def test_infinite_generator(self):
        assert classify_surconvergent(product_op(5)).kind == "infinite"

    def test_unknown(self):
        P = MicroOp(1, 2, {(0,): TateSeries.constant(1)},
                    TailCertificate(3, F(0), F(4)))
        assert classify_surconvergent(P).kind == "unknown"


class TestInvert:
    def test_monomial_exact(self):
        P = MicroOp.monomial((1,), F(4))  # p^2 d
        S = invert(P, RingLevel.ek(2))
        assert S.terms_equal(MicroOp.monomial((-1,), F(1, 4)))
        assert mul(P, S).terms_equal(MicroOp.identity())

    def test_one_minus_pd_at_e2(self):
        P = one_minus_pd()
        S = invert(P, RingLevel.ek(2), residual_exponent=20)
        res = mul(P, S) - MicroOp.identity()
        assert norm_Ek(res, 2) <= F(2) ** -20
        # the expansion inverts around the dominant term -p*d
        assert (-1,) in S.terms

    def test_neumann_series_at_dkq0(self):
        x = TateSeries.coordinate(1)
        P = MicroOp.identity() + MicroOp.monomial((1,), x.scale(PadicScalar.from_int(2)))
        S = invert(P, RingLevel.dkq(0), residual_exponent=12)
        res = mul(P, S) - MicroOp.identity()
        assert norm_k(res, 0) <= F(2) ** -12

    def test_not_invertible_raises(self):
        with pytest.raises(NotInvertible):
            invert(one_minus_pd(), RingLevel.ek(1))

    def test_delegated_finf(self):
        P = one_minus_pd()
        S = invert(P, RingLevel.finf(), residual_exponent=20)
        res = mul(P, S) - MicroOp.identity()
        assert norm_Fkr(res, 2, 2) <= F(2) ** -20

    def test_tailed_cofactor_at_dkq(self):
        Q = truncated_cofactor(3, 16)
        S = invert(Q, RingLevel.dkq(2), residual_exponent=10)
        stored = MicroOp(1, 2, dict(Q.terms))
        res = mul(stored, S, window_cap=None) - MicroOp.identity()
        assert norm_k(res, 2) <= F(2) ** -10

    def test_laurent_at_fkr(self):
        S = MicroOp.monomial((-1,), 1) + MicroOp.monomial((1,), F(128))
        Sinv = invert(S, RingLevel.fkr(3, 1), residual_exponent=15)
        res = mul(S, Sinv) - MicroOp.identity()
        measured = norm_Fkr(res, 3, 1) if res.terms else F(0)
        assert measured <= F(2) ** -15

    def test_random_residuals(self, rng):
        done = 0
        while done < 30:
            P = rand_laurent_op(rng, max_terms=3, max_exp=1)
            try:
                v = check_unit(P, RingLevel.fkr(2, 1))
            except Exception:
                continue
            if not v.invertible:
                continue
            S = invert(P, RingLevel.fkr(2, 1), residual_exponent=20)
            res = mul(P, S, window_cap=None) - MicroOp.identity()
            measured = norm_Fkr(res, 2, 1) if res.terms else F(0)
            assert measured <= F(2) ** -20
            done += 1

    def test_operators_it_builds_keep_the_degree_cap_of_p(self):
        # the identity, D^-beta and the multiply-back's identity used to sit
        # at the default cap 32, so no --deg-cap could reach degree 59
        P, level = parsed("1 + p^4*x*d", cap=120), RingLevel.ek(3)
        S = invert(P, level, residual_exponent=60)
        assert {c.degree_cap for c in S.terms.values()} == {120}
        assert max(c.degree() for c in S.terms.values()) == 59
        assert level.norm_exponent(mul(P, S, window_cap=None) - MicroOp.constant(
            TateSeries.constant(1, degree_cap=120))) <= -60

    def test_a_degree_cap_refusal_names_a_cap_that_suffices(self):
        # deg P + J*deg R = 2 + 19*2: R holds p*x^2, c_beta's own monomial
        # past its constant, and p^5*d, and J = 19 reaches p^-20; the dropped
        # series meets the cap, as the whole series does, with the same hint,
        # and the rerun at the hint forms nothing past it
        with pytest.raises(DegreeCapOverflow) as refusal:
            invert(parsed("1 + p*x^2 + p^5*d"), RingLevel.ek(1), residual_exponent=20)
        assert refusal.value.needed == 40
        P, level = parsed("1 + p*x^2 + p^5*d", cap=40), RingLevel.ek(1)
        S = invert(P, level, residual_exponent=20)
        assert max(c.degree() for c in S.terms.values()) <= 40
        assert_within_the_target(P, level, 20, S)

    def test_a_high_target_inverse_asks_for_the_cap_it_needs_and_answers_there(self):
        # c_beta = 3 + p^2*x: J = 59 powers of R, each of degree 1, past deg P
        # = 1; inverting c_beta apart asked for --deg-cap 1800
        with pytest.raises(DegreeCapOverflow) as refusal:
            invert(parsed("3 + p^2*x + p^5*x*d"), RingLevel.ek(1), residual_exponent=120)
        assert refusal.value.needed == 60
        P, level = parsed("3 + p^2*x + p^5*x*d", cap=60), RingLevel.ek(1)
        S = invert(P, level, residual_exponent=120)
        assert max(c.degree() for c in S.terms.values()) <= 60
        assert_within_the_target(P, level, 120, S)

    def test_a_dropped_inverse_the_multiply_back_refuses_gives_way_to_the_whole_series(self):
        # S's own drop made to keep only its D^0 term: the exact multiply-back
        # refuses that S, and the whole series answers, the loop's inverse
        P, level = parsed("1 + p^4*x*d"), RingLevel.ek(1)
        drops = []

        def keep_the_constant(sums, W, floor, p):
            drops.append(1)
            return {a: s for a, s in sums.items() if not any(a)}
        with mock.patch.object(tower, "_drop_below", keep_the_constant):
            S = invert(P, level, residual_exponent=30)
        assert drops and outcome_of(S) == outcome_of(invert_the_old_way(P, level, 64, 30))

    def test_a_series_one_power_short_is_refused_by_the_multiply_back(self):
        # J - 1 powers of -R leave the inverse of an exact 1 + p^4*d at ek(1)
        # p^-27 from 1: the multiply-back must hold it to the whole target
        # p^-30, where one checking half the target (p^-15) lets it through
        whole = tower._geometric_sum

        def one_power_short(Q, J, *rest):
            return whole(Q, J - 1, *rest)
        with mock.patch.object(tower, "_geometric_sum", one_power_short):
            with pytest.raises(InsufficientTruncation, match=re.escape(
                    "residual p-norm p^-27 exceeds the target p^-30")):
                invert(parsed("1 + p^4*d"), RingLevel.ek(1), residual_exponent=30)

    def test_a_d2_unit_the_degree_cap_refused_answers_at_the_default_cap(self):
        # the exact series reached degree 43 here and was refused at cap 32;
        # the monomials below the residual are no longer formed
        P, level = parsed("(-1 - 8*x2 + 4*x1) - 64*d1*d2", dim=2), RingLevel.fkr(2, 1)
        S = invert(P, level, residual_exponent=13)
        assert max(c.degree_cap for c in S.terms.values()) == 32
        assert_within_the_target(P, level, 13, S)

    def test_a_non_constant_dominant_coefficient_answers_at_the_default_cap(self):
        # c_beta = 1 + p*x: its x joins the one series, of degree 19, where
        # inverting c_beta apart asked for --deg-cap 96
        P, level = parsed("1 + p*x + p^5*d"), RingLevel.ek(1)
        S = invert(P, level, residual_exponent=20)
        assert max(c.degree() for c in S.terms.values()) == 19
        assert_within_the_target(P, level, 20, S)

    @pytest.mark.parametrize("text, target", [("3 + p^2*x + p^5*x*d", 60),
                                              ("1 + p^3*x*d + p^4*x^2*dinv", 120)])
    def test_a_high_target_inverse_keeps_what_reaches_the_residual(self, text, target):
        # the exact geometric series of the first held 6,540 monomials
        P, level = parsed(text, cap=4000), RingLevel.ek(1)
        S = invert(P, level, window_cap=4000, residual_exponent=target)
        assert sum(len(c.coeffs) for c in S.terms.values()) <= 1300
        assert_within_the_target(P, level, target, S)

    def test_a_window_refusal_names_a_window_that_suffices(self):
        # R = -p^-1*d^-1 at ek(2): J = 79 powers reach d^-79 and D^-1 one
        # more; the refused product held d^-65 and the hint used to be 65
        with pytest.raises(WindowOverflow) as refusal:
            invert(parsed("1 - p*d"), RingLevel.ek(2), residual_exponent=80)
        assert refusal.value.needed == 80
        assert "lower bound" not in str(refusal.value)
        invert(parsed("1 - p*d"), RingLevel.ek(2), window_cap=80, residual_exponent=80)
        with pytest.raises(WindowOverflow):
            invert(parsed("1 - p*d"), RingLevel.ek(2), window_cap=79, residual_exponent=80)

    def test_window_hints_with_x_coefficients_work_on_the_first_rerun(self, rng):
        # each product lowers a D-exponent by up to its right factor's
        # coefficient degree, so J*max|e_R| + |beta| alone falls short here
        done = 0
        while done < 20:
            P = MicroOp(1, 2, {(rng.randint(-2, 2),): rand_series(rng, poly=True)
                               for _ in range(rng.randint(2, 3))})
            level = rng.choice((RingLevel.ek(1), RingLevel.ek(2), RingLevel.fkr(2, 1)))
            target, window = rng.randint(5, 25), rng.randint(1, 4)
            try:
                invert(P, level, window_cap=window, residual_exponent=target)
                continue
            except WindowOverflow as refusal:
                needed = refusal.needed
            except (NotInvertible, InsufficientTruncation, DegreeCapOverflow):
                continue
            try:  # the rerun answers or refuses for another bound
                invert(P, level, window_cap=needed, residual_exponent=target)
            except DegreeCapOverflow:
                pass
            done += 1

    def test_a_non_constant_dominant_coefficient_in_d2_is_quick(self):
        # c_beta = 56 - 9*x1: its inverse used to be expanded to the degree
        # cap, and this inverse ran for more than 20 s
        P = parsed("(56 - 9*x1) - 22*d2^3 + 1/4*d1^3 + (-56 - 1/2*x1)*d1*d2^3"
                   " + (7/4 + 24*x1)*d1^2*d2^2", dim=2)
        level = RingLevel.ek(1)
        start = time.process_time()
        try:
            S = invert(P, level, residual_exponent=6)
        except (DegreeCapOverflow, InsufficientTruncation):
            S = None
        assert time.process_time() - start < 5
        if S is not None:
            e = level.norm_exponent(mul(P, S, window_cap=None) - MicroOp.identity(2))
            assert e is None or e <= -6


def parsed(text: str, dim: int = 1, cap: int = 32, prime: int = 2) -> MicroOp:
    ctx = EvalContext(prime=prime, dim=dim, degree_cap=cap)
    return _as_op(evaluate(parse(text), ctx), ctx)


def with_tail(text: str, tail: TailCertificate) -> MicroOp:
    """The stored terms of ``text`` under a tail certificate."""
    return MicroOp(1, 2, dict(parsed(text).terms), tail)


def series_the_old_way(Q: MicroOp, J: int, cap: int, window_cap):
    """The geometric series as invert summed it on operators: one product
    and one ``MicroOp.__add__`` per power."""
    series = power = MicroOp.constant(1, Q.dim, Q.prime, cap)
    for _ in range(J):
        power = mul(power, Q, window_cap=window_cap)
        if not power.terms:
            break
        series = series + power
    return series


def invert_the_old_way(P, level, window_cap=64, residual_exponent=20):
    """invert as it ran on operators, the reference for the row pipeline: R
    by ``mul`` and ``MicroOp.__neg__``, the series by the operator loop,
    ``mul`` by D^-beta and by g, and the multiply-back an operator product
    less the operator 1; the 1 and D^-beta at the default precision."""
    verdict = check_unit(P, level)
    if not verdict.invertible:
        raise NotInvertible(f"not a unit at {level}: {verdict.violated}")
    if level.tag in ("fir", "finf", "dinf"):
        k, r = verdict.delegate
        return invert_the_old_way(P, RingLevel.fkr(k, r), window_cap, residual_exponent)
    beta, cap = verdict.beta, max(c.degree_cap for c in P.terms.values())
    c_beta = P.terms[beta]
    rest = MicroOp(P.dim, P.prime, {tuple(x - y for x, y in zip(a, beta)): c
                                    for a, c in P.terms.items() if a != beta})
    rho = [e + min(s.valuation for s in c_beta.coeffs.values()) for e in
           (level.norm_exponent(rest), tail_sup_exponent(P, level.k, level.r, sum(beta)))
           if e is not None]
    inv_mono = MicroOp.monomial(tuple(-b for b in beta), 1, P.dim, P.prime, cap)
    if not rho:
        return mul(inv_mono, MicroOp.constant(c_beta.invert_unit(residual_exponent)),
                   window_cap=window_cap)
    if max(rho) >= 0:
        raise NotInvertible("recentred series does not contract")
    J = math.ceil(F(residual_exponent) / -max(rho)) - 1
    deg_g = c_beta.inverse_length(residual_exponent) * c_beta.degree()
    deg_R = max((c.degree() for c in rest.terms.values()), default=0) + deg_g
    try:
        g = MicroOp.constant(c_beta.invert_unit(residual_exponent))
        series = series_the_old_way(-mul(g, rest, window_cap=None), J, cap, window_cap)
        S = mul(mul(inv_mono, series, window_cap=window_cap), g, window_cap=window_cap)
        stored = MicroOp(P.dim, P.prime, dict(P.terms))
        res = mul(stored, S, window_cap=None) - MicroOp.constant(1, P.dim, P.prime, cap)
        measured = level.norm_exponent(res)
        sup = tail_sup_exponent(P, level.k, level.r)
        if sup is not None:
            sup += level.norm_exponent(S)
            measured = sup if measured is None else max(measured, sup)
        if measured is not None and measured > -residual_exponent:
            raise InsufficientTruncation(
                f"residual p-norm p^{measured} exceeds the target p^{-residual_exponent}")
    except DegreeCapOverflow:
        needed = max(c.degree() for c in P.terms.values()) + deg_g + J * deg_R
        raise DegreeCapOverflow(needed, cap, f"the inverse and its multiply-back reach "
                                f"coefficient degree at most {needed}, past the degree cap") from None
    except WindowOverflow as e:
        needed = max(map(abs, beta)) + deg_g + J * (
            max((abs(x) for a in rest.terms for x in a), default=0) + 2 * deg_R)
        raise WindowOverflow(e.reason, needed, "every exponent the inverse forms stays "
                             f"within {needed}") from None
    return S


def inverse_or_refusal(P, level, window, target, inverse=invert):
    """The inverse, or the refusal's type, text and ``needed``."""
    try:
        return inverse(P, level, window_cap=window, residual_exponent=target)
    except MicrodiffError as exc:
        return type(exc), str(exc), getattr(exc, "needed", None)


def assert_within_the_target(P: MicroOp, level: RingLevel, target: int, S: MicroOp,
                             old: MicroOp | None = None):
    """S, an inverse of the exact P, meets the target on a multiply-back by the
    series arithmetic (neither the kernel's product nor ``_verify_residual``),
    and differs from ``old``, another, by at most ||P^-1|| p^-target at the
    level, as S - P^-1 = P^-1 (P*S - 1): ||P^-1|| is ||P||^-1 at dkq and ek,
    whose norms are multiplicative, and at fkr the norm of S."""
    if level.k is None:  # a limit level: the inverse is certified at its delegate
        level = RingLevel.fkr(*check_unit(P, level).delegate)
    e, cap = level.norm_exponent, max(c.degree_cap for c in P.terms.values())
    with series_products():
        r = e(mul(P, S, window_cap=None) - MicroOp.constant(1, P.dim, P.prime, cap))
    assert r is None or r <= -target
    d = None if old is None else e(S - old)
    assert d is None or d <= (e(S) if level.tag == "fkr" else -e(P)) - target


def constant_dominant(P: MicroOp, level: RingLevel) -> bool:
    """P is no unit at the level, or its dominant coefficient c_beta is a constant."""
    try:
        verdict = check_unit(P, level)
    except MicrodiffError:
        return True
    return not verdict.invertible or set(P.terms[verdict.beta].coeffs) <= {(0,) * P.dim}


def outcome_of(S):
    """Term order, caps and every scalar's fields of the inverse ``S``, or
    the refusal of :func:`inverse_or_refusal` as it is."""
    if isinstance(S, tuple):
        return S
    return [(a, f.degree_cap, f.exact, sorted((m, c.valuation, c.unit, c.precision, c.exact)
                                              for m, c in f.coeffs.items()))
            for a, f in S.terms.items()]


@st.composite
def invert_cases(draw):
    """An operator built to be a unit at its level, mostly: a unit coefficient
    at beta and every other term p-adically smaller than its recentred weight
    asks.  d = 1 or 2, p = 2, 3 or 5, constant or polynomial coefficients,
    D^-1 terms, scalars at precision 20 or 64 and caps 6 or 32, mixed over
    the terms or not, and the window and degree caps low enough to refuse."""
    rng = draw(st.randoms(use_true_random=False))
    dim, p = rng.choice((1, 2)), rng.choice((2, 3, 5))
    level = rng.choice((RingLevel.ek(1), RingLevel.ek(2), RingLevel.fkr(2, 1),
                        RingLevel.fkr(3, 1), RingLevel.finf()))
    poly = rng.random() < 0.5
    precisions = rng.choice(((64,), (20,), (20, 64)))
    caps = rng.choice(((32,), (6,), (6, 32)))
    low = 0 if level.tag == "finf" else -1
    units = [u for u in (1, 3, 5, 7, -1, -3, F(1, 3), F(-5, 7)) if F(u).numerator % p
             and F(u).denominator % p]

    def coefficient(v):
        scalars = {(0,) * dim: F(rng.choice(units)) * F(p) ** v}
        if poly:
            for _ in range(rng.randint(0, 2)):
                m = tuple(rng.randint(0, 2) for _ in range(dim))
                scalars[m] = F(rng.choice(units)) * F(p) ** (v + rng.randint(1 if any(m) else 0, 2))
        n, cap = rng.choice(precisions), rng.choice(caps)
        return TateSeries(dim, p, {m: PadicScalar.from_fraction(q, p, n)
                                   for m, q in scalars.items() if sum(m) <= cap}, cap)
    beta = tuple(rng.randint(low, 1) for _ in range(dim))
    terms = {beta: coefficient(0)}
    for _ in range(rng.randint(1, 3)):
        alpha = tuple(rng.randint(low, 2) for _ in range(dim))
        weight = _graded_weight(sum(alpha) - sum(beta), level.k or 1, level.r)
        terms.setdefault(alpha, coefficient(max(0, weight) + rng.randint(1, 3)))
    return (MicroOp(dim, p, terms), level, rng.choice((None, 64, 6)), rng.randint(4, 16))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(invert_cases())
@example((parsed("1 + p^4*x*d"), RingLevel.ek(1), 64, 30))
@example((parsed("1 + p^3*dinv + p^4*d"), RingLevel.fkr(3, 1), 64, 20))
@example((parsed("1 + p^2*x1*d2 - p^3*d1", dim=2), RingLevel.ek(1), 64, 20))
@example((parsed("1 + p*x + p^5*d"), RingLevel.ek(1), 64, 20))  # the loop refused for the cap
@example((parsed("1 + p*x^2 + p^5*d"), RingLevel.ek(1), 64, 20))  # refused for the cap
@example((parsed("1 + p^2*x^2*d"), RingLevel.ek(1), 64, 20))  # both refuse for the cap
@example((parsed("1 - p*d"), RingLevel.ek(2), 64, 80))  # refused for the window
@example((parsed("1 + p^5*d"), RingLevel.ek(1), 64, 3))  # J = 0: the series is the 1
# the inverses of tests/golden/invert_units.txt: c_beta not a constant in d = 1
# at p = 2 and 3 and in d = 2, and with a residue read back from JSON at 20
# digits past an exact c0 (read back whole, the loop's multiply-back cancels
# every known digit: see the digit-mode tests below); units at beta != 0 with
# x coefficients; the degree cap that c_beta's x hits (in the loop, g's own series)
@example((parsed("1 + p^3*x + p^4*d"), RingLevel.ek(1), 64, 12))
@example((parsed("2 + p*x + p^3*d", prime=3), RingLevel.ek(1), 64, 6))
@example((parsed("1 + p^3*x1 - p^4*x2^2 + p^5*x1*d2 + p^4*d1", dim=2), RingLevel.ek(1), 64, 6))
@example((parsed("1 + p^5*x*d") + round_trip(parsed("p^3*x"), 20), RingLevel.ek(1), 64, 12))
@example((parsed("d + p^2*x + p^3*x*d^2"), RingLevel.ek(1), 64, 12))
@example((parsed("(1 + p^3*x)*d + p^4*x + p^3*dinv"), RingLevel.fkr(3, 1), 64, 10))
@example((parsed("1 + p*x + p^30*d", cap=4), RingLevel.ek(1), 64, 20))
# the inverses of tests/golden/invert_series.txt with x coefficients
@example((parsed("1 + p^4*x*d"), RingLevel.ek(1), 64, 60))
@example((parsed("1 + p^2*x1*d2 - p^3*d1", dim=2), RingLevel.ek(1), 64, 20))
@example((parsed("2 + 9*x*d + 3*dinv", prime=3), RingLevel.ek(1), 64, 30))
# the loop's dropped series passed the window (asking for 120) before its
# whole series passed the degree cap (64); the rows refuse for the window (50)
@example((parsed("(1/3 + 10*x^2)*dinv + (7*2^11 + 2^12*x^2)*d^2 + (-5/7*2^8 - 3*2^10*x^2)*d"),
          RingLevel.fkr(3, 1), 6, 8))
def test_the_row_series_agrees_with_the_operator_loop_to_the_target(case):
    # an operand holding a residue, or with flat constant-coefficient sums,
    # keeps the whole series: the loop's inverse or refusal exactly.  On any
    # other exact operand the rows drop what cannot reach the residual and the
    # loop keeps every monomial: both inverses meet the target and differ by
    # at most ||P^-1|| p^-target, and where the loop refused the rows may
    # answer.  Where the rows refuse, the whole series has refused, as the
    # loop does, with the same text unless P is one term: the loop then
    # inverts c_beta outside its hints.  All of this where c_beta is a
    # constant; where it is not, the loop, the reference for this property,
    # inverts c_beta apart, where the rows put its monomials past its
    # constant into the one series: for such a c_beta both answers meet the
    # target (a residue operand's on relifts), and where the rows refuse,
    # the loop has refused as well
    P, level, window, target = case
    old, new = (inverse_or_refusal(P, level, window, target, inverse)
                for inverse in (invert_the_old_way, invert))
    whole = P.terms.kept[4] is not None or not all(c.exact for f in P.terms.values()
                                                   for c in f.coeffs.values())
    constant = constant_dominant(P, level)
    if whole and constant:
        assert outcome_of(new) == outcome_of(old)
    elif isinstance(new, tuple):  # the whole series' refusal
        if not constant:
            assert isinstance(old, tuple)
        else:
            assert new == old if len(P.terms) > 1 else isinstance(old, tuple)
    elif whole:
        assert_relifted_residual(P, new, level, target)
    else:
        if not isinstance(old, tuple):
            assert_within_the_target(P, level, target, old)
        assert_within_the_target(P, level, target, new, None if isinstance(old, tuple) else old)


@st.composite
def series_operands(draw):
    """A small operator whose powers cancel often, for the sum itself:
    coefficients +-1, 2 and 1/3 on 1 and x, in d = 1 or 2 at p = 2 or 3,
    precisions 20 and 64 and caps 2 and 32 mixed over the terms, a cap for
    the 1, a window, and J = 0..5."""
    rng = draw(st.randoms(use_true_random=False))
    dim, p = rng.choice((1, 2)), rng.choice((2, 3))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        scalars = {tuple(rng.randint(0, 1) for _ in range(dim)): PadicScalar.from_fraction(
            F(rng.choice((1, -1, 2, F(1, 3)))), p, rng.choice((20, 64)))
            for _ in range(rng.randint(1, 2))}
        terms[tuple(rng.randint(-1, 1) for _ in range(dim))] = TateSeries(
            dim, p, scalars, rng.choice((2, 32)))
    return MicroOp(dim, p, terms), rng.randint(0, 5), rng.choice((2, 32)), rng.choice((None, 2, 64))


def constants(terms: dict, n: int = 64) -> MicroOp:
    """A d = 1 operator at p = 2 whose coefficients are constants at precision
    n: its sums are flat (an expression's are general)."""
    return MicroOp(1, 2, {a: TateSeries.constant(PadicScalar.from_fraction(F(q), 2, n), 1, 2)
                          for a, q in terms.items()})


def row_sum(Q: MicroOp, J: int, cap: int, window_cap):
    """The geometric series summed on Q's integer rows, built once."""
    one, Q_rows = (diffop._as_rows(S.terms.kept, Q.prime)
                   for S in (MicroOp.constant(1, Q.dim, Q.prime, cap), Q))
    sums = diffop._geometric_sum(Q_rows, J, one, Q.prime, window_cap)
    return MicroOp(Q.dim, Q.prime, diffop._build_terms(Q.dim, Q.prime, sums))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(series_operands())
@example((parsed("-1 + d"), 3, 32, 64))  # d^0 cancels, then comes back last
@example((parsed("-1 + x*d - x*dinv"), 4, 32, 64))
@example((MicroOp(1, 3, {(1,): TateSeries.constant(PadicScalar.from_fraction(1, 3, 64), 1, 3),
                         (2,): TateSeries.constant(PadicScalar.from_fraction(1, 3, 20), 1, 3)}),
          2, 32, 64))  # d^2 at precision 20 in Q, then at 64 in Q^2: the sum keeps 20
@example((constants({(1,): 3, (-1,): -1}, 20), 3, 32, 64))  # flat Q below the 1's precision
@example((constants({(1,): 3, (-1,): F(-1, 3)}), 3, 2, 64))  # flat Q at cap 32, the 1 at 2
@example((constants({(0,): -1}), 1, 32, 64))  # flat powers that cancel to 0
def test_the_row_sum_keeps_each_terms_place_precision_and_cap(case):
    assert row_sum_outcome(*case) == row_sum_outcome(*case, series_the_old_way)


def row_sum_outcome(Q: MicroOp, J: int, cap: int, window_cap, series=row_sum):
    """Term order, caps and every scalar's fields of the sum, or the refusal."""
    try:
        S = series(Q, J, cap, window_cap)
    except MicrodiffError as exc:
        return type(exc), str(exc), getattr(exc, "needed", None)
    return [(a, f.degree_cap, f.exact, sorted(
        (m, c.valuation, c.unit, c.precision, c.exact) for m, c in f.coeffs.items()))
        for a, f in S.terms.items()]


@pytest.mark.parametrize("Q, cap, flat", [
    (constants({(1,): 3, (-1,): F(-1, 3)}), 32, True), (constants({(0,): 2, (2,): 5}), 32, True),
    (constants({(1,): 3, (-1,): -1}, 20), 32, False), (constants({(1,): 3}), 2, False),
    (parsed("3*d - 1/3*dinv"), 32, True), (parsed("3*x*d - dinv"), 32, False)])
def test_flat_powers_at_the_ones_precision_and_cap_keep_one_int_per_gamma(Q, cap, flat):
    # flat Q at the 1's precision and cap, parsed constant coefficients
    # included: the flat accumulator, which adds no sum through _add_into;
    # any other Q (below the 1's precision, at another cap, general rows)
    # takes the general one
    with mock.patch.object(diffop, "_add_into", wraps=diffop._add_into) as added:
        got = row_sum_outcome(Q, 4, cap, 64)
    assert (added.call_count == 0) == flat
    assert got == row_sum_outcome(Q, 4, cap, 64, series_the_old_way)


def series_products():
    """The product body on the series arithmetic: the digit-mode reference."""
    return mock.patch.object(diffop, "_product_terms", series_product_terms_and_sums)


def assert_relifted_residual(P: MicroOp, S: MicroOp, level: RingLevel, target: int):
    """||P'*S' - 1|| <= p^-target, exactly, for relifts P' and S' of P and S
    (each residue plus a random multiple of p^precision)."""
    if level.k is None:  # a limit level: the inverse is certified at its delegate
        level = RingLevel.fkr(*check_unit(P, level).delegate)
    rng = random.Random(0)
    for _ in range(3):
        back = mul(relift(P, rng), relift(S, rng), window_cap=None)
        e = level.norm_exponent(back - MicroOp.identity(P.dim, P.prime))
        assert e is None or e <= -target


def test_a_digit_mode_operand_keeps_the_operator_loop():
    # p^4*x*d read back from JSON holds a residue: invert sums its series on
    # the kernel's rows as for exact operands, and the inverse equals the
    # operator loop's on the series arithmetic (the unit 1 stays exact)
    P = parsed("1") + operator_from_json(operator_to_json(parsed("p^4*x*d")))
    with series_products():
        want = outcome_of(inverse_or_refusal(P, RingLevel.ek(1), 64, 10, invert_the_old_way))
    terms = outcome_of(inverse_or_refusal(P, RingLevel.ek(1), 64, 10))
    assert terms == want
    assert [a for a, *_ in terms] == [(0,), (1,), (2,), (3,)]
    # 1 stays exact; every power of R is a residue
    assert [all(c[-1] for c in coeffs) for *_, coeffs in terms] == [True, False, False, False]


def from_json(text: str, dim: int = 1, digits: int | None = None) -> MicroOp:
    """The operator of ``text`` read back from JSON: every scalar a residue,
    known to at most ``digits`` digits when given."""
    return round_trip(parsed(text, dim), digits)


@pytest.mark.parametrize("P, level, target", [
    # the operator pipeline's multiply-back cancels every known digit; the
    # row multiply-back bounds those coefficients by their known digits
    (parsed("1") + from_json("p^3*dinv + p^4*d"), RingLevel.fkr(3, 1), 20),
    (parsed("1", dim=2) + from_json("p^2*x1*d2 - p^3*d1", dim=2), RingLevel.ek(1), 20),
    # c_beta = 1 + p^5*x with a residue at x: g = 1 and R are exact, P is not
    (parsed("1 + p^4*d") + from_json("p^5*x"), RingLevel.ek(1), 5),
    # at 30 the loop's g = c_beta^-1 passes the cap, where x joins the rows' series
    (parsed("1 + p^4*d") + from_json("p^5*x"), RingLevel.ek(1), 30),
    # c_beta not a constant, read back whole at 20 digits (tests/golden/invert_units.txt)
    (from_json("1 + p^3*x + p^5*x*d", digits=20), RingLevel.ek(1), 12),
    (from_json("3 + p^4*x^2 + p^5*d", digits=20), RingLevel.ek(1), 12),
    # a residue c0 in sums over p^W / E with E = 3 and 5: g holds E / unit
    (from_json("3 + p^4*x*d") + parsed("1/3*p^5*d^2"), RingLevel.ek(1), 20),
    (from_json("3 + p^4*x + p^5*d", digits=20) + parsed("1/5*p^6*x*d^2"), RingLevel.ek(1), 12)])
def test_a_digit_mode_operand_answers_as_the_operator_pipeline(P, level, target):
    with series_products():
        want = outcome_of(inverse_or_refusal(P, level, 64, target, invert_the_old_way))
    got = outcome_of(inverse_or_refusal(P, level, 64, target))
    if isinstance(want, tuple) and (want[0] is PrecisionExhausted or want[0] is DegreeCapOverflow
                                    and not constant_dominant(P, level)):
        assert isinstance(got, list)
        assert_relifted_residual(P, invert(P, level, residual_exponent=target), level, target)
    else:
        assert got == want


@pytest.mark.parametrize("read, exact, target", [
    (from_json("1 + p^3*x + p^5*x*d", digits=20), parsed("1 + p^3*x + p^5*x*d"), 12),
    (from_json("3 + p^4*x^2 + p^5*d", digits=20), parsed("3 + p^4*x^2 + p^5*d"), 12),
    (from_json("3 + p^4*x + p^5*d", digits=20) + parsed("1/5*p^6*x*d^2"),
     parsed("3 + p^4*x + p^5*d + 1/5*p^6*x*d^2"), 12)])
def test_a_residue_inverse_agrees_with_its_exact_twins_to_its_known_digits(read, exact, target):
    # a check of the residue c0's inverse that no multiply-back makes: each
    # scalar of the inverse of an operand read back from JSON equals the same
    # coefficient of the inverse of its exact twin modulo p^(v + its digits)
    # or to the target, whichever binds: the twin drops what cannot reach its
    # residual, so at gamma it is known to p^(weight(fl(gamma)) - e(S) + target);
    # a monomial one side lacks reads 0
    level, p = RingLevel.ek(1), read.prime
    inverses = [invert(P, level, residual_exponent=target) for P in (read, exact)]
    e_S = level.norm_exponent(inverses[1])
    got, twin = ({(a, m): c for a, f in S.terms.items() for m, c in f.coeffs.items()}
                 for S in inverses)
    assert any(not c.exact for c in got.values())
    for key in got.keys() | twin.keys():
        c, x = got.get(key), twin[key].as_fraction() if key in twin else F(0)
        assert c is not None, f"{key} of the exact twin's inverse is missing"
        diff = F(c.unit) * F(p) ** c.valuation - x
        known = min(c.valuation + c.precision, level.weight(sum(key[0])) - e_S + target)
        assert diff == 0 or fraction_valuation(diff, p) >= known, key


@pytest.mark.parametrize("P, level, target", [
    (parsed("1") + from_json("p^4*d"), RingLevel.ek(1), 20),
    (from_json("1 + p^4*x*d"), RingLevel.ek(1), 60),
    (from_json("3 + p^2*x*d"), RingLevel.ek(1), 20),
    (from_json("1 + p^3*dinv + p^4*d"), RingLevel.fkr(3, 1), 20)])
def test_a_digit_mode_inverse_the_operator_pipeline_refused_meets_its_target(P, level, target):
    # the pipeline refused in its multiply-back, or before its series: 1 -
    # c0^-1 * c0 cancelled every known digit of a residue constant c0
    with series_products():
        assert inverse_or_refusal(P, level, 64, target, invert_the_old_way)[0] is PrecisionExhausted
    assert_relifted_residual(P, invert(P, level, residual_exponent=target), level, target)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(invert_cases(), st.sampled_from((1, 2)), st.sampled_from((None, 6, 12)))
def test_a_digit_mode_inverse_meets_its_target_on_relifted_operands(case, way, digits):
    # residues known to 6 or 12 digits bound the multiply-back near the target
    P, level, window, target = case
    P = read_back(P, way, random.Random(target), digits)
    try:
        S = invert(P, level, window_cap=window, residual_exponent=target)
    except MicrodiffError:
        return
    assert_relifted_residual(P, S, level, target)


def test_a_residue_bounds_the_multiply_back_by_its_known_digits():
    # 1 + p^4*x*d known to 8 digits: the constant of P*S - 1 is known to
    # p^-8 only, though its integers cancel exactly
    P, level = from_json("1 + p^4*x*d", digits=8), RingLevel.ek(1)
    with pytest.raises(InsufficientTruncation, match=r"p\^-8 exceeds the target p\^-20"):
        invert(P, level, residual_exponent=20)
    assert_relifted_residual(P, invert(P, level, residual_exponent=8), level, 8)


def test_an_exact_operand_builds_one_operator_and_no_operator_product_or_sum():
    # the inverse itself is checked against the operator loop's by
    # test_the_row_series_agrees_with_the_operator_loop_to_the_target
    P, level = parsed("1 + p^4*x*d"), RingLevel.ek(1)
    expected = outcome_of(inverse_or_refusal(P, level, 64, 30))
    builds, build = [], diffop._build_terms
    counted = lambda *args: builds.append(1) or build(*args)  # noqa: E731
    with mock.patch.object(diffop, "_build_terms", counted), \
            mock.patch.object(diffop, "_product", side_effect=AssertionError), \
            mock.patch.object(microop, "_product", side_effect=AssertionError), \
            mock.patch.object(MicroOp, "__add__", side_effect=AssertionError), \
            mock.patch.object(MicroOp, "__neg__", side_effect=AssertionError):
        assert outcome_of(inverse_or_refusal(P, level, 64, 30)) == expected
    assert len(builds) == 1 and isinstance(expected, list)


def test_a_refusal_bound_by_a_residues_digits_names_them():
    # the constant of P*S - 1 is known to p^8 only: more digits of the input
    # fix it, a longer truncation does not
    P, level = from_json("1 + p^4*x*d", digits=8), RingLevel.ek(1)
    with pytest.raises(InsufficientTruncation, match=r"p\^-8 exceeds the target p\^-20; the "
                       r"operand is known only to 8 digits there, and only a larger prec"):
        invert(P, level, residual_exponent=20)
    # a tail bound binds: no digits are named
    P = MicroOp(1, 2, dict(parsed("1 + p^4*d").terms), TailCertificate(1, F(5), F(1)))
    with pytest.raises(InsufficientTruncation) as refusal:
        invert(P, level, residual_exponent=20)
    assert str(refusal.value) == "residual p-norm p^-5 exceeds the target p^-20"


def test_a_residue_enters_the_rows_as_its_balanced_representative():
    # -p^4*x*d read back holds the residue 2^64 - 1, that is -1, known to 64
    # digits past its valuation 4, which is the sums' W
    sums = from_json("-p^4*x*d").terms.kept
    assert sums == ({(1,): [{(1,): -1}, {(1,): -64}, 32]}, 4, 1, None, None)
    assert diffop._as_rows(sums, 2)[:3] == ([((1,), [((1,), -1)], {(1,): -64}, 32, 1)], 4, 1)


def test_the_series_forms_each_commutation_once():
    # every power is multiplied by the same Q = -R: one commutation table
    # serves them all, so no (alpha, beta) is formed twice in the sum
    formed, in_series = [], []
    commutations, geometric_sum = diffop._commutations, tower._geometric_sum

    def counted(alpha, beta, *args):
        if in_series:
            formed.append((alpha, beta))
        return commutations(alpha, beta, *args)

    def series(*args):
        in_series.append(True)
        try:
            return geometric_sum(*args)
        finally:
            in_series.clear()
    with mock.patch.object(diffop, "_commutations", counted), \
            mock.patch.object(tower, "_geometric_sum", series):
        invert(parsed("1 + p^4*x*d"), RingLevel.ek(1), residual_exponent=60)
    assert formed and len(formed) == len(set(formed))


def test_a_series_below_the_ones_precision_keeps_each_monomials_precision():
    # every non-dominant scalar at precision 20 and the dominant one at 64:
    # Q's powers hold 20 where the 1 holds 64, so the sum tracks precisions
    # per monomial, and d^0, which no power reaches, keeps 64
    def coefficient(scalars, n):
        return TateSeries(1, 2, {m: PadicScalar.from_fraction(q, 2, n) for m, q in scalars.items()})
    P = MicroOp(1, 2, {(0,): coefficient({(0,): 1}, 64),
                       (1,): coefficient({(1,): 16, (0,): F(48, 5)}, 20),
                       (2,): coefficient({(2,): F(-64, 3)}, 20)})
    for level, target in ((RingLevel.ek(1), 30), (RingLevel.fkr(2, 1), 20)):
        S = invert(P, level, residual_exponent=target)
        assert_within_the_target(P, level, target, S,
                                 invert_the_old_way(P, level, residual_exponent=target))
        assert {c.precision for f in S.terms.values() for c in f.coeffs.values()} == {20, 64}


def limit_level_twins():
    """(name, make) pairs, each call of ``make`` building a fresh operator:
    exact d = 1 ones with constant and with x coefficients, d = 2 ones (whose
    top order can tie), and truncated and exact catalog operators and sums."""
    twins = [(f"{kind}{seed}", lambda seed=seed, dim=dim, poly=poly: rand_positive_op(
        random.Random(seed), dim, poly=poly))
        for kind, dim, poly in (("const", 1, False), ("x", 1, True), ("d2", 2, True))
        for seed in range(60)]
    twins += [(f"{f.__name__}({M})", lambda f=f, M=M: f(M)) for f in (product_op, gauss_op)
              for M in (3, 6)]
    twins += [(f"{f.__name__}({M}, exact)", lambda f=f, M=M: f(M, exact=True))
              for f in (product_op, gauss_op) for M in (3, 6)]
    twins += [("truncated_cofactor(2, 7)", lambda: truncated_cofactor(2, 7)),
              ("product_op(9)+gauss_op(6)", lambda: product_op(9) + gauss_op(6))]
    return twins


def verdict_outcome(P: MicroOp, level: RingLevel):
    """The verdict, or the refusal's type and text."""
    try:
        return check_unit(P, level)
    except (MicrodiffError, ValueError) as exc:
        return type(exc), str(exc)


def test_limit_verdicts_in_any_order_answer_as_on_a_fresh_twin():
    # the level-free data of fir, finf and dinf is computed once per operator:
    # asked at every limit level in a random order, twice, on one object,
    # each answer is the one a fresh twin gives at that level alone
    levels = [RingLevel.fir(r) for r in range(1, 5)] + [RingLevel.finf(), RingLevel.dinf()]
    rng, clauses = random.Random(25), set()
    for name, make in limit_level_twins():
        P, asked = make(), []
        for _ in range(2):
            asked += rng.sample(levels, len(levels))
        for level in asked:
            got = verdict_outcome(P, level)
            assert got == verdict_outcome(make(), level), (name, level)
            clauses.add(got.violated if isinstance(got, UnitVerdict) else got[0])
    assert {None, "order_positive", "constant_not_unit", "top_order_not_dominated",
            "dominant_not_unit", "lower_order_too_large", "not_finite",
            UndecidableFiniteness} <= clauses


# -- verdicts are values ----------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class GeneratedVerdict:
    """UnitVerdict's fields behind the constructor dataclass() itself writes."""

    invertible: bool
    level: RingLevel
    beta: tuple | None = None
    violated: str | None = None
    alpha: tuple | None = None
    delegate: tuple[int, int] | None = None


def _d2_not_finite():
    return MicroOp(2, 2, {(1, 1): TateSeries.constant(1, 2, 2)},
                   TailCertificate(2, 0, 1, infinite=True))


def _slope_at_one():
    return MicroOp(1, 2, {(0,): TateSeries.constant(1), (1,): TateSeries.constant(2)},
                   TailCertificate(1, 5, 3))


L = RingLevel
# (name, the verdict, its fields): every level, d = 1 and 2, units with and
# without a delegate, non-units with and without an offending exponent, and
# the CLI's probed verdict
VERDICT_TWINS = [
    ("1+p*d@dkq(0)", lambda: check_unit(parsed("1 + p*d"), L.dkq(0)),
     (True, L.dkq(0), (0,), None, None, None)),
    ("x1+p*d1@dkq(1)", lambda: check_unit(parsed("x1 + p*d1", dim=2), L.dkq(1)),
     (False, L.dkq(1), None, "order_positive", (1, 0), None)),
    ("1-p*d@ek(2)", lambda: check_unit(parsed("1 - p*d"), L.ek(2)),
     (True, L.ek(2), (1,), None, None, None)),
    ("d1+d2@ek(1)", lambda: check_unit(parsed("d1 + d2", dim=2), L.ek(1)),
     (False, L.ek(1), None, "max_coefficient_not_unique", (1, 0), None)),
    ("1+p^3dinv+p^4d@fkr(3,1)", lambda: check_unit(parsed("1 + p^3*dinv + p^4*d"), L.fkr(3, 1)),
     (True, L.fkr(3, 1), (0,), None, None, None)),
    ("1+p*x1*d2@fkr(2,1)", lambda: check_unit(parsed("1 + p*x1*d2", dim=2), L.fkr(2, 1)),
     (False, L.fkr(2, 1), None, "max_coefficient_not_unit", (0, 1), None)),
    ("1-p*d@fir(2)", lambda: check_unit(parsed("1 - p*d"), L.fir(2)),
     (True, L.fir(2), (1,), None, None, (2, 2))),
    ("d1^2+d2^2@fir(1)", lambda: check_unit(parsed("d1^2 + d2^2", dim=2), L.fir(1)),
     (False, L.fir(1), None, "top_order_not_dominated", (2, 0), None)),
    ("truncated@fir(1)", lambda: check_unit(_slope_at_one(), L.fir(1)),
     (False, L.fir(1), None, "slope_in_interval", None, None)),
    ("d1*d2+p*d1+1@finf", lambda: check_unit(parsed("d1*d2 + p*d1 + 1", dim=2), L.finf()),
     (True, L.finf(), (1, 1), None, None, (1, 1))),
    ("product_op(4)@finf", lambda: check_unit(product_op(4), L.finf()),
     (False, L.finf(), None, "not_finite", None, None)),
    ("d2-infinite@finf", lambda: check_unit(_d2_not_finite(), L.finf()),
     (False, L.finf(), None, "not_finite", None, None)),
    ("probed@finf", lambda: cli._probed_check(parsed("prod(n=1..9, 1 - p^n*d)"), L.finf(), 4),
     (False, L.finf(), None, "non-finite", None, None)),
    ("3+p*x@dinf", lambda: check_unit(parsed("3 + p*x"), L.dinf()),
     (True, L.dinf(), (0,), None, None, (1, 1))),
    ("d1+p*d2@dinf", lambda: check_unit(parsed("d1 + p*d2", dim=2), L.dinf()),
     (False, L.dinf(), None, "order_positive", (1, 0), None)),
]


@pytest.mark.parametrize("verdict, values", [case[1:] for case in VERDICT_TWINS],
                         ids=[case[0] for case in VERDICT_TWINS])
def test_a_verdict_is_the_value_of_its_public_constructor_twin(verdict, values):
    # the constructor sets the slots through their member descriptors; the
    # verdict reads as its twin, and as what dataclass() generates reads
    v, twin, generated = verdict(), UnitVerdict(*values), GeneratedVerdict(*values)
    assert tuple(getattr(v, f.name) for f in dataclasses.fields(v)) == values
    assert v == twin and hash(v) == hash(twin) == hash(generated)
    assert repr(v) == repr(twin) == repr(generated).replace("GeneratedVerdict", "UnitVerdict")
    assert not hasattr(v, "__dict__")
    for f in dataclasses.fields(v):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, f.name, getattr(v, f.name))
    for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v),
                 dataclasses.replace(v)):
        assert type(back) is UnitVerdict and back == v and hash(back) == hash(v)
        assert repr(back) == repr(v)
    flipped = dataclasses.replace(v, invertible=not v.invertible)
    assert flipped != v and flipped == UnitVerdict(not v.invertible, *values[1:])


def test_a_verdict_takes_its_fields_by_position_and_by_name():
    by_position = UnitVerdict(False, L.ek(1), (1,), "x", (2,), (1, 1))
    by_name = UnitVerdict(delegate=(1, 1), alpha=(2,), violated="x", beta=(1,), level=L.ek(1),
                          invertible=False)
    assert by_position == by_name and tuple(
        getattr(by_name, f.name) for f in dataclasses.fields(by_name)) == (
        False, L.ek(1), (1,), "x", (2,), (1, 1))
    with pytest.raises(TypeError):
        UnitVerdict(True)


# -- the transition morphisms -----------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), prime=st.sampled_from((2, 3, 5)))
def test_a_limit_inverse_meets_its_target_at_every_level_above_its_delegate(seed, prime):
    # an inverse at finf or fir(r) is computed at its delegate fkr(r, r); the
    # transition morphisms fkr(k, r) -> fkr(r, r) make it an inverse at every
    # k >= r, so P*S - 1 stays within the target at fkr(k, r), r <= k <= r + 7
    # (for a positive P it lies in fl <= 0, where the weight r*fl is k's too)
    rng = random.Random(seed)
    P = rand_positive_op(rng, prime=prime, poly=rng.random() < 0.6)
    for level in (L.finf(), L.fir(1), L.fir(2)):
        verdict = check_unit(P, level)
        if not verdict.invertible:
            continue
        try:
            S = invert(P, level, residual_exponent=12)
        except (WindowOverflow, DegreeCapOverflow):  # a named refusal
            continue
        r = verdict.delegate[1]
        residual = mul(P, S, window_cap=None) - MicroOp.identity(1, prime)
        for k in range(r, r + 8):
            e = L.fkr(k, r).norm_exponent(residual)
            assert e is None or e <= -12, (str(P), level, k, e)

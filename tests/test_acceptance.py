"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Desk scale: p = 2, d = 1 with d = 2 spot checks, truncations <= 24,
windows <= 64.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

import jsonschema
import pytest

from microdiff import (MicroOp, TateSeries, check_unit, compose, gauss_op,
                       invert, is_slope, mul, norm_Ek, norm_Fkr, norm_k,
                       order_Nk, order_nk, order_Nmu, order_nmu, polygon,
                       product_op, quasi_abelian_defect, sector_split,
                       cofactor_norm_check, weight)
from microdiff.tower import RingLevel

from conftest import rand_laurent_op, rand_positive_op

F = Fraction
P2 = 2


def report(num: int, text: str):
    print(f"\n[criterion {num:2d}] PASS  {text}")


def fail_report(num: int, text: str):
    print(f"\n[criterion {num:2d}] FAIL  {text}")


@contextlib.contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        fail_report(num, text)
        raise
    report(num, text)


def test_criterion_1_product_example_golden_values():
    with criterion(1, "product example: orders, partial-product norms, "
                      "cofactor distances"):
        for k in range(1, 7):
            M = 2 * k + 2
            assert order_Nk(product_op(M), k) == k
            Pk = product_op(k, exact=True)
            assert norm_k(Pk, k) == F(P2) ** (k * (k - 1) // 2)
        for k in range(2, 7):
            for m in range(1, k):
                M = max(2 * k + 2, 2 * m + 2)
                got = cofactor_norm_check(k, m, M)
                assert got == F(m * (m + 1), 2) - k, (k, m, got)


def test_criterion_2_gauss_orders():
    with criterion(2, "gauss example: orders split by parity for k = 1..8"):
        for k in range(1, 9):
            G = gauss_op(k + 1)
            assert order_Nk(G, k) == (k + 1) // 2
            assert order_nk(G, k) == k // 2


def test_criterion_3_quasi_abelian_suite():
    with criterion(3, "quasi-abelian bound on 200 random pairs per level, "
                      "equality witnessed by (d, x)"):
        rng = random.Random(301)
        x = MicroOp.constant(TateSeries.coordinate(1))
        d = MicroOp.derivation()
        for k in (1, 2, 3):
            assert quasi_abelian_defect(d, x, k) == F(P2) ** (-k)
            for _ in range(200):
                P = rand_positive_op(rng, poly=True)
                Q = rand_positive_op(rng, poly=True)
                assert quasi_abelian_defect(P, Q, k) <= F(P2) ** (-k)


def test_criterion_4_multiplicativity_suite():
    with criterion(4, "norm multiplicativity and order additivity; "
                      "Laurent multiplicativity; two-level submultiplicativity"):
        rng = random.Random(401)
        for _ in range(200):
            P = rand_positive_op(rng, poly=True)
            Q = rand_positive_op(rng, poly=True)
            k = rng.choice((1, 2, 3))
            PQ = compose(P, Q)
            assert norm_k(PQ, k) == norm_k(P, k) * norm_k(Q, k)
            assert order_Nk(PQ, k) == order_Nk(P, k) + order_Nk(Q, k)
        for _ in range(200):
            S = rand_laurent_op(rng)
            T = rand_laurent_op(rng)
            k, r = rng.choice(((2, 1), (3, 1), (3, 2)))
            ST = mul(S, T)
            assert norm_Ek(ST, k) == norm_Ek(S, k) * norm_Ek(T, k)
            assert norm_Fkr(ST, k, r) <= norm_Fkr(S, k, r) * norm_Fkr(T, k, r)
            for part in (0, 1):
                Ss, Ts = sector_split(S)[part], sector_split(T)[part]
                if Ss.terms and Ts.terms:
                    assert (norm_Fkr(mul(Ss, Ts), k, r)
                            == norm_Fkr(Ss, k, r) * norm_Fkr(Ts, k, r))


def test_criterion_5_monomial_norm_lemma():
    with criterion(5, "monomial two-level norms over a +-10 box at d = 1, 2"):
        for k, r in ((2, 1), (3, 1), (3, 2)):
            for a in range(-10, 11):
                mono = MicroOp.monomial((a,), 1)
                assert norm_Fkr(mono, k, r) == F(P2) ** weight((a,), k, r)
            for a in range(-10, 11):
                for b in range(-10, 11):
                    mono = MicroOp.monomial((a, b), 1, 2)
                    assert norm_Fkr(mono, k, r) == F(P2) ** weight((a, b), k, r)
            # the worked instance: (2, -3) weighs -r
            assert norm_Fkr(MicroOp.monomial((2, -3), 1, 2), k, r) == F(P2) ** (-r)


def test_criterion_6_inversion_residuals():
    with criterion(6, "100 certified inverses per level with residual "
                      "<= p^-20 inside window 64"):
        rng = random.Random(601)
        done_ek = done_fkr = 0
        attempts = 0
        while (done_ek < 100 or done_fkr < 100) and attempts < 4000:
            attempts += 1
            P = rand_laurent_op(rng, max_terms=3, max_exp=1)
            if done_ek < 100:
                v = check_unit(P, RingLevel.ek(2))
                if v.invertible:
                    S = invert(P, RingLevel.ek(2), window_cap=64,
                               residual_exponent=20)
                    res = mul(P, S, window_cap=None) - MicroOp.identity()
                    measured = norm_Ek(res, 2) if res.terms else F(0)
                    assert measured <= F(P2) ** -20
                    done_ek += 1
            if done_fkr < 100:
                v = check_unit(P, RingLevel.fkr(2, 1))
                if v.invertible:
                    S = invert(P, RingLevel.fkr(2, 1), window_cap=64,
                               residual_exponent=20)
                    res = mul(P, S, window_cap=None) - MicroOp.identity()
                    measured = norm_Fkr(res, 2, 1) if res.terms else F(0)
                    assert measured <= F(P2) ** -20
                    done_fkr += 1
        assert done_ek == 100 and done_fkr == 100


def test_criterion_7_tower_coherence():
    with criterion(7, "tower implications on 200 random finite operators"):
        rng = random.Random(701)
        for _ in range(200):
            P = rand_positive_op(rng, poly=True)
            for r in (1, 2):
                if check_unit(P, RingLevel.fir(r)).invertible:
                    for k in range(r, 9):
                        assert check_unit(P, RingLevel.fkr(k, r)).invertible
                        assert check_unit(P, RingLevel.ek(k)).invertible
                    assert check_unit(P, RingLevel.fir(r + 1)).invertible
                    assert check_unit(P, RingLevel.finf()).invertible
            q = max(a[0] for a in P.terms)
            expected = P.terms[(q,)].is_unit()
            assert check_unit(P, RingLevel.finf()).invertible == expected


def test_criterion_8_newton_equivalence():
    with criterion(8, "slope membership == weighted-order gap on 100x20 "
                      "random queries; product slopes are 1..M"):
        rng = random.Random(801)
        for _ in range(100):
            P = rand_positive_op(rng, max_terms=5, max_exp=6, poly=True)
            for _ in range(20):
                mu = F(rng.randint(0, 24), rng.randint(1, 4))
                assert is_slope(P, mu) == (order_nmu(P, mu) < order_Nmu(P, mu))
        for M in (4, 9, 16):
            assert polygon(product_op(M)).slopes == tuple(F(n)
                                                          for n in range(1, M + 1))


def _oracle_fkr_unit(valuations: dict[int, int], k: int, r: int,
                     steps: int = 30) -> bool:
    """Independent oracle: geometric-series term norms strictly decrease.

    Operators here have constant coefficients 2**v, so products are plain
    exponent convolutions; no shared code with the kernel's multiplication.
    Coefficients are carried as integers times a common power of two, with
    valuations read off the trailing zero count.
    """
    def v2(x: int) -> int:
        return (x & -x).bit_length() - 1

    def norm(term_dict, scale):
        best = None
        for m, c in term_dict.items():
            w = k * m if m >= 0 else r * m
            e = w - v2(c) + scale
            best = e if best is None or e > best else best
        return best  # exponent; None for the zero dict

    for q, vq in valuations.items():
        ratio = {n - q: v - vq for n, v in valuations.items() if n != q}
        lift = max(0, -min(ratio.values(), default=0))
        R = {m: 2 ** (e + lift) for m, e in ratio.items()}
        power = {0: 1}
        scale = 0
        prev = norm(power, scale)
        ok = True
        for _ in range(steps):
            nxt: dict[int, int] = {}
            for m1, c1 in power.items():
                for m2, c2 in R.items():
                    m = m1 + m2
                    nxt[m] = nxt.get(m, 0) + c1 * c2
            power = {m: c for m, c in nxt.items() if c != 0}
            scale += lift
            cur = norm(power, scale)
            if cur is None:
                break  # series terminated: convergent
            if prev is not None and not cur < prev:
                ok = False
                break
            prev = cur
        if ok:
            return True
    return False


def test_criterion_9_oracle_equivalence():
    with criterion(9, "exhaustive <=4-term grid matches the geometric-series "
                      "oracle at (k, r) = (2, 1)"):
        exponents = (0, 1, 2, 3)
        vals = range(-3, 4)
        checked = 0
        for size in (1, 2, 3, 4):
            for support in itertools.combinations(exponents, size):
                for assignment in itertools.product(vals, repeat=size):
                    valuations = dict(zip(support, assignment))
                    P = MicroOp(1, P2, {
                        (n,): TateSeries.constant(F(P2) ** v, 1, P2)
                        for n, v in valuations.items()})
                    verdict = check_unit(P, RingLevel.fkr(2, 1)).invertible
                    oracle = _oracle_fkr_unit(valuations, 2, 1)
                    assert verdict == oracle, (valuations, verdict, oracle)
                    checked += 1
        assert checked == 4 * 7 + 6 * 49 + 4 * 343 + 2401


def test_criterion_10_cli_conformance():
    with criterion(10, "CLI golden outputs, schema-valid JSON, exit codes"):
        import smoke
        from microdiff import cli
        from microdiff.jsonio import (OPERATOR_SCHEMA, POLYGON_SCHEMA,
                                      VERDICT_SCHEMA)

        def run(args):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(args)
            return code, buf.getvalue()

        for name in ("check_finf_probe.txt", "norm_k3_prod7.txt",
                     "polygon_quadratic.svg"):
            smoke.check(name)  # each command exits 0 and prints its golden

        code, out = run(["polygon", "--format", "json", "1 + p*d + p^3*d^2"])
        assert code == 0
        jsonschema.validate(json.loads(out), POLYGON_SCHEMA)
        code, out = run(["check", "--level", "ek", "--k", "2", "--format",
                         "json", "1 - p*d"])
        assert code == 0
        jsonschema.validate(json.loads(out), VERDICT_SCHEMA)
        code, out = run(["catalog", "gauss_op", "--M", "6", "--format", "json"])
        assert code == 0
        jsonschema.validate(json.loads(out), OPERATOR_SCHEMA)

        assert run(["norm", "1 + d"])[0] == 1
        assert run(["invert", "--level", "ek", "--k", "1", "1 - p*d"])[0] == 3
        assert run(["mul", "--window", "4", "d^4", "d^4"])[0] == 2

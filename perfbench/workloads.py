"""The four seeded workloads: jobs against microdiff and their oracle checks.

A workload is a fixed list of jobs built from the seed.  A job is one call
into a public entry point of microdiff; its check compares the outcome (the
returned value or the raised exception) with :mod:`oracle` and classifies it
as ``answered`` (a certified answer the oracle accepts, or an exception the
oracle predicts), ``refused`` (an honest refusal: the kernel declined to
certify) or ``failed`` (a wrong answer or an unexpected exception).
Expected values are computed on first use and cached, so set-up holds only
the inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import microdiff as md
from microdiff import cli

import oracle as ref

ANSWERED, REFUSED, FAILED = "answered", "refused", "failed"

REFUSALS = (md.InsufficientTruncation, md.UndecidableFiniteness,
            md.WindowOverflow, md.NotCertifiable)

# Jobs that give a false certified answer at the package's initial version:
# the infinite-support marker survives a cancelling sum or product, and a
# tail-only operator reports norm 0.  They stay in the workload and count as
# failed until the kernel answers them honestly.
KNOWN_DEFECTS = (
    "verdicts:known:G+1-G@finf",
    "verdicts:known:compose(S,1-pd)@finf",
    "verdicts:known:norm_k(tail-only)",
)

# truncated catalog operators are queried at levels 1..TRUNCATED_LEVELS
TRUNCATED_LEVELS = 8


@dataclass
class Job:
    id: str
    call: Callable[[], Any]
    check: Callable[[Any], str]


@dataclass
class Workload:
    jobs: list[Job]
    reset: Callable[[], None] = lambda: None
    # d = 1 constant-coefficient chains for the plain-Fraction baseline
    chains: list[tuple[int, dict]] = field(default_factory=list)


def lazy(fn):
    """Compute fn() on first use and keep the value."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def expect_value(predicate):
    """Check for a job whose truth is a value: predicate(result) -> bool."""
    def check(out):
        if isinstance(out, REFUSALS):
            return REFUSED
        if isinstance(out, BaseException):
            return FAILED
        return ANSWERED if predicate(out) else FAILED
    return check


def expect_raise(exc_type):
    def check(out):
        if isinstance(out, exc_type):
            return ANSWERED
        return REFUSED if isinstance(out, REFUSALS) else FAILED
    return check


# -- conversion between microdiff values and oracle dictionaries -----------------


def to_microop(P: dict, dim: int, p: int) -> md.MicroOp:
    terms = {}
    for alpha, row in P.items():
        coeffs = {m: md.PadicScalar.from_fraction(c, p) for m, c in row.items()}
        terms[alpha] = md.TateSeries(dim, p, coeffs)
    return md.MicroOp(dim, p, terms)


def from_microop(S) -> dict | None:
    """Exact coefficients of a microdiff operator; None if not exact data."""
    out = {}
    for alpha, f in S.terms.items():
        row = {}
        for m, c in f.coeffs.items():
            if not c.exact:
                return None
            row[m] = Fraction(c.unit) * Fraction(S.prime) ** c.valuation
        out[alpha] = row
    return out


def same_op(S, P: dict) -> bool:
    """S is exact data equal to the oracle operator P."""
    return isinstance(S, md.MicroOp) and S.is_exact and from_microop(S) == P


def verdict_ok(truth):
    """truth() -> (invertible, beta)."""
    def pred(v):
        inv, beta = truth()
        return (isinstance(v, md.UnitVerdict) and v.invertible == inv
                and (not inv or tuple(v.beta) == beta))
    return pred


def odd_unit(rng: random.Random, p: int) -> int:
    u = rng.choice([u for u in (1, 3, 5, 7) if u % p])
    return rng.choice((1, -1)) * u


# -- products ---------------------------------------------------------------------


def products(seed: int) -> Workload:
    """Operator products whose valuations grow: p-adic and series arithmetic."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    state: dict = {}
    chains = []
    for M, p in ((20, 2), (40, 2), (60, 2), (80, 2), (40, 3)):
        units = {n: odd_unit(rng, p) for n in range(1, M + 1)}
        chains.append((p, units))
        key = f"chain{M}p{p}"
        ident = md.MicroOp.identity(1, p)
        prefixes = lazy(lambda units=units, p=p: [
            {(e,): {(0,): c} for e, c in acc.items()}
            for acc in ref.chain_prefixes(units, p)])
        for n in range(1, M + 1):
            factor = to_microop(ref.const_op({(0,): 1, (1,): -units[n] * Fraction(p) ** n}), 1, p)

            def call(key=key, factor=factor, ident=ident):
                out = md.compose(state.get(key, ident), factor, window_cap=None)
                state[key] = out
                return out
            jobs.append(Job(f"products:{key}:{n}", call, expect_value(
                lambda S, n=n, prefixes=prefixes: same_op(S, prefixes()[n - 1]))))
    # powers of Laurent operators with x coefficients (d = 1)
    for p, n_pow in ((2, 10), (3, 8)):
        u = [odd_unit(rng, p) for _ in range(4)]
        base = {(0,): {(0,): Fraction(u[0])}, (-1,): {(0,): Fraction(u[1])},
                (1,): {(1,): u[2] * Fraction(p)},
                (2,): {(2,): u[3] * Fraction(p) ** 2, (0,): Fraction(p) ** 3}}
        _power_jobs(jobs, state, f"laurent_p{p}", base, 1, p, n_pow,
                    lambda A, B: md.mul(A, B))
    # powers of a d = 2 operator with polynomial coefficients
    u = [odd_unit(rng, 2) for _ in range(4)]
    base2 = {(0, 0): {(0, 0): Fraction(u[0])},
             (1, 0): {(1, 0): u[1] * Fraction(2)},
             (0, 1): {(0, 1): u[2] * Fraction(2), (0, 0): Fraction(4)},
             (1, 1): {(1, 1): u[3] * Fraction(4)}}
    _power_jobs(jobs, state, "d2poly", base2, 2, 2, 7,
                lambda A, B: md.compose(A, B))
    return Workload(jobs, state.clear, chains)


def _power_jobs(jobs, state, key, base: dict, dim: int, p: int, n_pow: int, product):
    op = to_microop(base, dim, p)

    def powers():
        out, acc = [], base
        for _ in range(n_pow):
            acc = ref.mul(acc, base)
            out.append(acc)
        return out
    expected = lazy(powers)
    for j in range(n_pow):
        def call(key=key, op=op):
            out = product(state.get(key, op), op)
            state[key] = out
            return out
        jobs.append(Job(f"products:{key}:{j + 2}", call, expect_value(
            lambda S, j=j: same_op(S, expected()[j]))))


# -- verdicts ---------------------------------------------------------------------


def verdicts(seed: int) -> Workload:
    """Many small certified queries: weighted maxima, tails, level dispatch."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    _grid_jobs(jobs, rng)
    _laurent_query_jobs(jobs, rng)
    _truncated_jobs(jobs, rng)
    _known_defect_jobs(jobs)
    return Workload(jobs)


def data_of(P: dict):
    """Valuation data of a p = 2 operator, computed on first use."""
    return lazy(lambda: ref.Data.of(P, 2))


def _positive_query_jobs(jobs, tag: str, op, data, k: int, levels):
    """Level-k norm and orders, and a verdict at each level, of the positive
    d = 1 operator op(); data() gives its true valuations."""
    jobs.append(Job(f"{tag}:norm_k{k}", lambda: md.norm_k(op(), k), expect_value(
        lambda v: v == Fraction(2) ** ref.norm_exponent(data(), k))))
    jobs.append(Job(f"{tag}:order_Nk{k}", lambda: md.order_Nk(op(), k), expect_value(
        lambda v: v == ref.orders(data(), k)[0])))
    jobs.append(Job(f"{tag}:order_nk{k}", lambda: md.order_nk(op(), k), expect_value(
        lambda v: v == ref.orders(data(), k)[1])))
    for level in levels:
        jobs.append(Job(f"{tag}:check@{level}", lambda level=level: md.check_unit(op(), level),
                        expect_value(verdict_ok(lambda level=level: ref.verdict(
                            data(), level.tag, level.k, level.r)))))


def _slope_jobs(jobs, tag: str, op, data, r, k):
    """Slope membership queries: is k a slope, is there one in [r, k]."""
    jobs.append(Job(f"{tag}:is_slope{k}", lambda: md.is_slope(op(), k), expect_value(
        lambda v: v == (k in ref.polygon(data())[1]))))
    jobs.append(Job(f"{tag}:slope_in[{r},{k}]", lambda: md.slope_in_interval(op(), r, k),
                    expect_value(lambda v: v == any(r <= s <= k for s in ref.polygon(data())[1]))))


def _polygon_exact_ok(data):
    def pred(poly):
        hull, slopes = ref.polygon(data())
        return (poly.certified_below is None and list(poly.slopes) == slopes
                and [(n, Fraction(v)) for n, v in poly.vertices] == hull)
    return pred


def _grid_jobs(jobs, rng):
    """Every d = 1 operator with support in {0..3} and valuations -3..3.

    The seed draws the unit parts; the levels cycle with the operator's
    index, so every seed asks the same mix of questions.
    """
    ops = [(support, vals) for size in (1, 2, 3, 4)
           for support in itertools.combinations((0, 1, 2, 3), size)
           for vals in itertools.product(range(-3, 4), repeat=size)]
    for i, (support, vals) in enumerate(ops):
        P = ref.const_op({(n,): odd_unit(rng, 2) * Fraction(2) ** v
                          for n, v in zip(support, vals)})
        S = to_microop(P, 1, 2)
        op = lambda S=S: S  # noqa: E731
        k = 1 + i % 3
        r = 1 + (i // 3) % k
        mu = Fraction(1 + i % 7, 1 + i % 3)
        tag = "verdicts:grid:" + ",".join(f"{n}^{v}" for n, v in zip(support, vals))
        data = data_of(P)
        levels = (md.RingLevel.dkq(k), md.RingLevel.ek(k), md.RingLevel.fkr(k, r),
                  md.RingLevel.fir(r), md.RingLevel.finf(), md.RingLevel.dinf())
        _positive_query_jobs(jobs, tag, op, data, k, levels)
        jobs.append(Job(f"{tag}:norm_mu{mu}", lambda S=S, mu=mu: md.norm_mu(S, mu),
                        expect_value(lambda e, data=data, mu=mu: e == max(
                            mu * n - v for (n,), v in data().vals.items()))))
        jobs.append(Job(f"{tag}:polygon", lambda S=S: md.polygon(S),
                        expect_value(_polygon_exact_ok(data))))
        jobs.append(Job(f"{tag}:slope_in[{r},{k}]",
                        lambda S=S, r=r, k=k: md.slope_in_interval(S, r, k),
                        expect_value(lambda v, data=data, r=r, k=k: v == any(
                            r <= s <= k for s in ref.polygon(data())[1]))))


def _laurent_query_jobs(jobs, rng):
    for dim in (1, 2):
        for i in range(300):
            P = {}
            while len(P) < 1 + i % 4:
                alpha = tuple(rng.randint(-3, 3) for _ in range(dim))
                P[alpha] = {(0,) * dim: odd_unit(rng, 2) * Fraction(2) ** rng.randint(-3, 3)}
            S = to_microop(P, dim, 2)
            k = 1 + i % 3
            r = 1 + (i // 3) % k
            data = data_of(P)
            tag = f"verdicts:laurent_d{dim}:{i}"
            for level in (md.RingLevel.ek(k), md.RingLevel.fkr(k, r)):
                jobs.append(Job(f"{tag}:check@{level}",
                                lambda S=S, level=level: md.check_unit(S, level),
                                expect_value(verdict_ok(
                                    lambda level=level, data=data:
                                    ref.verdict(data(), level.tag, level.k, level.r)))))
            jobs.append(Job(f"{tag}:norm_Ek{k}", lambda S=S, k=k: md.norm_Ek(S, k),
                            expect_value(lambda v, data=data, k=k:
                                         v == Fraction(2) ** ref.ek_exponent(data(), k))))
            jobs.append(Job(f"{tag}:norm_Fkr{k},{r}", lambda S=S, k=k, r=r: md.norm_Fkr(S, k, r),
                            expect_value(lambda v, data=data, k=k, r=r:
                                         v == Fraction(2) ** ref.fkr_exponent(data(), k, r))))


def _truncated_jobs(jobs, rng):
    """Truncated catalog operators and their sums, queried at levels on both
    sides of the truncation each one certifies, so refusals occur."""
    p = 2
    prod = lambda n: ref.product_coeff(n, p)  # noqa: E731
    gauss = lambda n: ref.gauss_coeff(n, p)  # noqa: E731
    cases = []
    for M in (4, 6, 8, 11):
        cases.append((f"product_op({M})", md.product_op(M), prod, M))
    for M in (3, 5, 7, 10):
        cases.append((f"gauss_op({M})", md.gauss_op(M), gauss, M))
    for k0, M in ((1, 7), (3, 9)):
        cases.append((f"truncated_cofactor({k0},{M})", md.truncated_cofactor(k0, M),
                      lambda n, k0=k0: ref.product_coeff(n, p, shift=k0), M))
    # sums are formed inside each job, which folds the stored terms the
    # summands' certificates no longer pin
    M1, M2 = 9, 6
    G1, G2 = md.product_op(M1), md.gauss_op(M2)
    cases.append((f"product_op({M1})+gauss_op({M2})", lambda: G1 + G2,
                  lambda n: prod(n) + gauss(n), max(M1, M2)))
    k0, M3 = 2, 10
    C = md.truncated_cofactor(k0, M3)
    cases.append((f"product_op({M1})+truncated_cofactor({k0},{M3})", lambda: G1 + C,
                  lambda n: prod(n) + ref.product_coeff(n, p, shift=k0), max(M1, M3)))
    u, j = odd_unit(rng, p), 2
    E = md.MicroOp.monomial((j,), u * Fraction(p) ** (j * j + 1))
    cases.append((f"gauss_op({M2})+{u}p^{j * j + 1}d^{j}", lambda: G2 + E,
                  lambda n: gauss(n) + (u * Fraction(p) ** (j * j + 1) if n == j else 0), M2))
    cases.append((f"2*product_op({M1})", lambda: G1 + G1, lambda n: 2 * prod(n), M1))
    for name, op, coeff, M in cases:
        if isinstance(op, md.MicroOp):
            op = lambda S=op: S  # noqa: E731
        n_max = 3 * (TRUNCATED_LEVELS + M) + 10
        data = lazy(lambda coeff=coeff, n_max=n_max: ref.Data.series(coeff, n_max, p))
        tag = f"verdicts:truncated:{name}"
        for k in range(1, TRUNCATED_LEVELS + 1):
            levels = [md.RingLevel.dkq(k), md.RingLevel.ek(k), md.RingLevel.fkr(k, 1)]
            levels += [md.RingLevel.fkr(k, k)] if k > 1 else [md.RingLevel.finf()]
            _positive_query_jobs(jobs, tag, op, data, k, levels)
            _slope_jobs(jobs, tag, op, data, 1, k)
        jobs.append(Job(f"{tag}:polygon", lambda op=op: md.polygon(op()),
                        expect_value(lambda poly, data=data: _certified_slopes_ok(poly, data()))))


def _certified_slopes_ok(poly, data) -> bool:
    """Slopes below the certified ceiling are exactly the true ones there."""
    _, slopes = ref.polygon(data)
    ceiling = poly.certified_below
    want = [s for s in slopes if ceiling is None or s < ceiling]
    return list(poly.certified_slopes()) == want


def _known_defect_jobs(jobs):
    """The three false proofs listed in KNOWN_DEFECTS, with their truth."""
    G = md.product_op(5)
    H = G + md.MicroOp.identity() - G  # exactly 1
    S = md.MicroOp(1, 2, {(n,): md.TateSeries.constant(Fraction(2) ** n) for n in range(9)},
                   md.TailCertificate(8, 0, 1, infinite=True))  # sum p^n d^n
    SP = md.compose(S, md.MicroOp.identity() - md.MicroOp.monomial((1,), 2))  # exactly 1
    T = md.MicroOp(1, 2, {}, md.TailCertificate(0, 0, 5, infinite=True))  # nonzero
    finf = md.RingLevel.finf()
    unit = verdict_ok(lambda: (True, (0,)))
    jobs.append(Job(KNOWN_DEFECTS[0], lambda: md.check_unit(H, finf), expect_value(unit)))
    jobs.append(Job(KNOWN_DEFECTS[1], lambda: md.check_unit(SP, finf), expect_value(unit)))
    # the data pins no norm for a tail-only operator: only a refusal is honest
    jobs.append(Job(KNOWN_DEFECTS[2], lambda: md.norm_k(T, 1), expect_value(lambda v: False)))


# -- inversion --------------------------------------------------------------------


def inversion(seed: int) -> Workload:
    """Explicit inverses: many medium Laurent products and a multiply-back."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    x, one, p = (1,), (0,), 2
    # unit sizes set how large the inverse's numbers grow, so they cycle;
    # the seed draws the signs
    sizes = itertools.cycle((1, 3, 5, 7))

    def u():
        return rng.choice((1, -1)) * next(sizes)

    def P2(k):
        return Fraction(p) ** k

    cases = []  # (name, operator dict, level tag, k, r, residual)
    for a in (1, 2, 3):
        for res in (20, 60):
            cases.append((f"u+u*p^{a}d", {(0,): {one: Fraction(u())}, (1,): {one: u() * P2(a)}},
                          "finf", None, None, res))
        for k in (1, 2, 3, 4):
            cases.append((f"u+u*p^{a}d", {(0,): {one: Fraction(u())}, (1,): {one: u() * P2(a)}},
                          "ek", k, None, 20))
            cases.append((f"u+u*p^{a}dinv+u*p^{a + 1}d",
                          {(0,): {one: Fraction(u())}, (-1,): {one: u() * P2(a)},
                           (1,): {one: u() * P2(a + 1)}}, "fkr", k, 1, 20))
    # two-term constant-coefficient operators on both sides of each level
    for s_ in (-2, -1, 1, 2):
        for a in (1, 2, 3, 4):
            for k in (1, 2, 3):
                for res in (10, 20, 40):
                    cases.append((f"u+u*p^{a}d^{s_}", {(0,): {one: Fraction(u())},
                                                       (s_,): {one: u() * P2(a)}},
                                  "ek", k, None, res))
    for M in (3, 4):
        chain = ref.finite_chain({n: u() for n in range(1, M + 1)}, p)
        cases.append((f"chain{M}", {(e,): {one: c} for e, c in chain.items()},
                      "finf", None, None, 20))
    for v in (3, 4, 6):
        shapes = ((f"u+u*p^{v}x*d", {(1,): {x: u() * P2(v)}}),
                  (f"u+u*p^{2 * v}x^2*d^2", {(2,): {(2,): u() * P2(2 * v)}}),
                  (f"u+u*p^{v}x*dinv", {(-1,): {x: u() * P2(v)}}))
        for name, top in shapes:
            P = {(0,): {one: Fraction(u())}, **top}
            for tag, k, r, residuals in (("ek", 1, None, (20, 60)), ("ek", 3, None, (20, 60)),
                                         ("fkr", 3, 1, (20,)), ("finf", None, None, (20,))):
                if tag == "finf" and "dinv" in name:
                    continue
                for res in residuals:
                    cases.append((name, P, tag, k, r, res))
    # a unit whose dominant coefficient is not a constant
    cases.append(("u+u*p^6x+u*p^6d", {(0,): {one: Fraction(u()), x: u() * P2(6)},
                                      (1,): {one: u() * P2(6)}}, "ek", 1, None, 20))
    # the window the inverse needs exceeds the default cap: a refusal
    cases.append(("1-pd", {(0,): {one: Fraction(1)}, (1,): {one: -P2(1)}}, "ek", 2, None, 80))
    for i, (name, P, tag, k, r, res) in enumerate(cases):
        S = to_microop(P, 1, p)
        level = _level(tag, k, r)
        jobs.append(Job(f"inversion:{name}@{level}/res{res}:{i}",
                        lambda S=S, level=level, res=res:
                        md.invert(S, level, residual_exponent=res),
                        _inverse_check(P, tag, k, r, res, p)))
    return Workload(jobs)


def _level(tag, k, r):
    return {"ek": lambda: md.RingLevel.ek(k), "fkr": lambda: md.RingLevel.fkr(k, r),
            "finf": md.RingLevel.finf}[tag]()


def _inverse_check(P: dict, tag, k, r, res, p):
    """Unit: ||P*S - 1|| <= p**-res at the level; non-unit: NotInvertible."""
    data = lazy(lambda: ref.Data.of(P, p))

    def check(out):
        inv, _ = ref.verdict(data(), tag, k, r)
        if not inv:
            return expect_raise(md.NotInvertible)(out)
        return expect_value(lambda S: isinstance(S, md.MicroOp) and _residual_ok(
            P, from_microop(S), tag, k, r, res, data(), p))(out)
    return check


def _residual_ok(P: dict, S: dict | None, tag, k, r, res, data, p) -> bool:
    """||P*S - 1|| <= p**-res at the level, multiplied back exactly."""
    if S is None:
        return False
    resid = ref.add(ref.mul(P, S), ref.identity(1), sign=-1)
    if not resid:
        return True
    if tag == "finf":
        k, r = ref.finf_delegate(data)
    rdata = ref.Data.of(resid, p)
    e = ref.ek_exponent(rdata, k) if tag == "ek" else ref.fkr_exponent(rdata, k, r)
    return e <= -res


# -- cli --------------------------------------------------------------------------


def run_cli(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(args)
    return code, out.getvalue(), err.getvalue()


def expect_cli(code: int, predicate=lambda text: True):
    """Exit 2 is a refusal; otherwise the code and printed value must match."""
    def check(out):
        if isinstance(out, BaseException):
            return FAILED
        got, text, _ = out
        if got == 2:
            return REFUSED
        return ANSWERED if got == code and predicate(text) else FAILED
    return check


def _expr(P: dict) -> str:
    """Expression text for a d = 1 operator with coefficients u*p^a*x^m."""
    parts = []
    for alpha, row in sorted(P.items()):
        (n,) = alpha
        for (m,), c in sorted(row.items()):
            a = ref.valuation(c, 2)
            u = c / Fraction(2) ** a
            fac = [str(u.numerator)] + ([f"p^{a}"] if a else [])
            fac += [f"x^{m}"] if m > 1 else (["x"] if m == 1 else [])
            fac += [] if n == 0 else ["d" if n == 1 else (f"d^{n}" if n > 0 else
                                                          ("dinv" if n == -1 else f"dinv^{-n}"))]
            parts.append("*".join(fac))
    return " + ".join(parts)


_TERM = re.compile(r"^(?:(.*)\*)?d(?:\^(-?\d+))?$")


def parse_op_text(text: str) -> dict:
    """Read microdiff's d = 1 operator text back into an oracle dictionary."""
    def split_top(s):
        depth, start, out = 0, 0, []
        for i, ch in enumerate(s):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and s.startswith(" + ", i):
                out.append(s[start:i])
                start = i + 3
        out.append(s[start:])
        return out

    def series(s):
        s = s[1:-1] if s.startswith("(") else s
        row = {}
        for t in s.split(" + "):
            m = re.match(r"^(?:(-?[\d/]+)\*?)?(-?)(?:x(?:\^(\d+))?)?$", t)
            c, neg, e = m.groups()
            deg = 0 if "x" not in t else int(e or 1)
            row[(deg,)] = Fraction(c) if c else Fraction(-1 if neg else 1)
        return row

    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in split_top(text):
        m = _TERM.match(term)
        if m:
            out[(int(m.group(2) or 1),)] = series(m.group(1) or "1")
        else:
            out[(0,)] = series(term)
    return out


def _json_op_ok(text: str, P: dict) -> bool:
    obj = json.loads(text)
    got = {}
    for t in obj["terms"]:
        row = {}
        for mt in t["coeff"]["terms"]:
            row[tuple(mt["exp"])] = (mt["coeff"]["val"], int(mt["coeff"]["unit"]),
                                     mt["coeff"]["prec"])
        got[tuple(t["alpha"])] = row
    want = {a: {m: ref.valuation(c, 2) for m, c in row.items()} for a, row in P.items()}
    if {a: set(r) for a, r in got.items()} != {a: set(r) for a, r in want.items()}:
        return False
    return all(got[a][m][0] == want[a][m]
               and got[a][m][1] == ref.unit_residue(P[a][m], 2, got[a][m][2])
               for a in want for m in want[a])


def cli_workload(seed: int) -> Workload:
    """In-process ``cli.run`` calls over every subcommand and output format.

    Sizes cycle with the round index, so every seed runs the same mix; the
    seed draws the coefficients.
    """
    rng = random.Random(seed)
    jobs: list[Job] = []

    def u():
        return odd_unit(rng, 2)

    def poly(n_max, neg=0):
        """Constant-coefficient operator with a unit constant term."""
        P = {(0,): {(0,): Fraction(u())}}
        for n in range(-neg, n_max + 1):
            if n:
                P[(n,)] = {(0,): u() * Fraction(2) ** rng.randint(0, 4)}
        return P

    def add(args, check):
        jobs.append(Job(f"cli:{len(jobs)}:{args[0]}", lambda args=args: run_cli(args), check))

    for i in range(12):
        fmt = ("text", "json")[i % 2]
        # norm / order on products given as comprehensions
        M, k = 2 + i % 4, 1 + i % 4
        d = data_of(_chain_op(1, M))
        expr = f"prod(n=1..{M}, 1 - p^n*d)"
        add(["norm", "--k", str(k), expr], expect_cli(0, lambda t, d=d, k=k: (
            t == f"norm = p^{ref.norm_exponent(d(), k)}\n")))
        add(["order", "--k", str(k), expr], expect_cli(0, lambda t, d=d, k=k: (
            t == "order N = {}\norder n = {}\n".format(*ref.orders(d(), k)))))
        # polynomial operators: norms at every level, orders, polygons, verdicts
        P = poly(3 + i % 2)
        d = data_of(P)
        e = _expr(P)
        k = 1 + i % 3
        r = 1 + (i // 3) % k
        add(["norm", "--k", str(k), "--format", "json", e], expect_cli(0, lambda t, d=d, k=k: (
            json.loads(t)["exponent"] == str(ref.norm_exponent(d(), k)))))
        mu = Fraction(1 + i % 7, 1 + i % 3)
        add(["norm", "--mu", f"{mu.numerator}/{mu.denominator}", e],
            expect_cli(0, lambda t, d=d, mu=mu: t == "norm = p^{}\n".format(
                max(mu * n - v for (n,), v in d().vals.items()))))
        add(["order", "--k", str(k), "--format", "json", e], expect_cli(0, lambda t, d=d, k=k: (
            tuple(json.loads(t)[key] for key in ("order_upper", "order_lower"))
            == ref.orders(d(), k))))
        add(["polygon", e], expect_cli(0, lambda t, d=d: t == _polygon_text(d())))
        add(["polygon", "--format", "json", e],
            expect_cli(0, lambda t, d=d: _polygon_json_ok(t, d())))
        add(["polygon", "--format", "svg", e], expect_cli(0, lambda t, d=d: _svg_ok(t, d())))
        for j, tag in enumerate(("dkq", "ek", "fkr", "fir", "finf", "dinf")):
            flags = {"dkq": ["--k", str(k)], "ek": ["--k", str(k)],
                     "fkr": ["--k", str(k), "--r", str(r)], "fir": ["--r", str(r)]}.get(tag, [])
            vfmt = ("text", "json")[(i + j) % 2]
            add(["check", "--level", tag, *flags, "--format", vfmt, e],
                expect_cli(0, lambda t, d=d, tag=tag, vfmt=vfmt, k=k, r=r:
                           _verdict_out_ok(t, vfmt, ref.verdict(d(), tag, k, r))))
        # Laurent operators: ek / fkr norms and an inverse
        L = poly(2, neg=2)
        dl = data_of(L)
        el = _expr(L)
        add(["norm", "--level", "ek", "--k", str(k), el], expect_cli(0, lambda t, d=dl, k=k: (
            t == f"norm = p^{ref.ek_exponent(d(), k)}\n")))
        add(["norm", "--level", "fkr", "--k", str(k), "--r", str(r), el],
            expect_cli(0, lambda t, d=dl, k=k, r=r: (
                t == f"norm = p^{ref.fkr_exponent(d(), k, r)}\n")))
        s_, a_, ki = (-1, 1)[i % 2], 1 + i % 3, 1 + (i // 2) % 2
        L = {(0,): {(0,): Fraction(u())}, (s_,): {(0,): u() * Fraction(2) ** a_}}
        add(["invert", "--level", "ek", "--k", str(ki), "--residual", "10", _expr(L)],
            _cli_inverse_check(L, data_of(L), ki, 10))
        # defect of a pair with x coefficients
        A = {(0,): {(0,): Fraction(u())}, (1,): {(1,): u() * Fraction(2) ** (i % 3)}}
        B = {(1,): {(0,): u() * Fraction(2) ** (i % 2)}, (0,): {(1,): Fraction(u())}}
        kd = 1 + i % 3
        add(["defect", "--k", str(kd), _expr(A), _expr(B)],
            expect_cli(0, lambda t, A=A, B=B, kd=kd: t == _defect_text(A, B, kd)))
        # products; the window cap refuses every other one
        A = poly(2, neg=1)
        B = {(0,): {(0,): Fraction(u()), (1,): u() * Fraction(2)}, (1,): {(2,): Fraction(u())}}
        add(["mul", _expr(A), _expr(B)], expect_cli(0, lambda t, A=A, B=B: (
            parse_op_text(t) == ref.mul(A, B))))
        a, b = 2 + i % 3, 3 + i % 3
        add(["mul", "--window", str(4 + 4 * (i % 2)), f"d^{a}", f"d^{b}"],
            expect_cli(0, lambda t, n=a + b: parse_op_text(t) == ref.const_op({(n,): 1})))
        # catalog generators, stored terms only
        M = 3 + i % 5
        want = _chain_op(1, M)
        add(["catalog", "product_op", "--M", str(M), "--format", fmt],
            expect_cli(0, lambda t, want=want, fmt=fmt: (
                parse_op_text(t) == want if fmt == "text" else _json_op_ok(t, want))))
        gauss = ref.const_op({(n,): ref.gauss_coeff(n, 2) for n in range(M + 1)})
        add(["catalog", "gauss_op", "--M", str(M)],
            expect_cli(0, lambda t, want=gauss: parse_op_text(t) == want))
        k0 = 1 + i % (M - 1)
        add(["catalog", "truncated_cofactor", "--k", str(k0), "--M", str(M)],
            expect_cli(0, lambda t, want=_chain_op(k0 + 1, M): parse_op_text(t) == want))
        # usage and syntax errors exit 1, a non-unit inverse exits 3
        add(["norm", e], expect_cli(1))
        add(["check", e], expect_cli(1))
        add(["norm", "--k", "2", e + " + * d"], expect_cli(1))
        add(["invert", "--level", "ek", "--k", "1", f"1 - {abs(u())}*p*d"], expect_cli(3))
    return Workload(jobs)


def _chain_op(lo: int, hi: int) -> dict:
    """prod(n = lo..hi, 1 - p^n*d) at p = 2 as an oracle operator."""
    chain = ref.finite_chain({n: 1 for n in range(lo, hi + 1)}, 2)
    return ref.const_op({(e,): c for e, c in chain.items()})


def _polygon_text(data) -> str:
    hull, slopes = ref.polygon(data)
    vertices = " ".join(f"({n},{v})" for n, v in hull)
    return f"vertices: {vertices}\nslopes: {', '.join(str(s) for s in slopes)}\n"


def _polygon_json_ok(text, data) -> bool:
    obj = json.loads(text)
    hull, slopes = ref.polygon(data)
    return (obj["vertices"] == [[n, str(v)] for n, v in hull]
            and obj["slopes"] == [str(s) for s in slopes] and not obj["truncated"])


def _svg_ok(text, data) -> bool:
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    hull, _ = ref.polygon(data)
    line = root.find(f"{ns}polyline")
    return (root.tag == f"{ns}svg" and line is not None
            and len(line.get("points").split()) == len(hull)
            and len(root.findall(f"{ns}circle")) == len(data.vals))


def _verdict_out_ok(text, fmt, truth) -> bool:
    inv, beta = truth
    if fmt == "json":
        obj = json.loads(text)
        return obj["invertible"] == inv and (not inv or tuple(obj["witness"]["beta"]) == beta)
    lines = text.splitlines()
    return (lines[0] == f"invertible: {'true' if inv else 'false'}"
            and (not inv or lines[1] == f"beta: {list(beta)}"))


def _cli_inverse_check(P, data, k, res):
    def check(out):
        unit, _ = ref.verdict(data(), "ek", k)
        if not unit:
            return expect_cli(3)(out)
        return expect_cli(0, lambda t: _residual_ok(
            P, parse_op_text(t), "ek", k, None, res, data(), 2))(out)
    return check


def _defect_text(A, B, k) -> str:
    bracket = ref.add(ref.mul(A, B), ref.mul(B, A), sign=-1)
    if not bracket:
        return "defect = 0\n"
    e = (ref.norm_exponent(ref.Data.of(bracket, 2), k) - ref.norm_exponent(ref.Data.of(A, 2), k)
         - ref.norm_exponent(ref.Data.of(B, 2), k))
    return f"defect = p^{e}\n"


BUILDERS = {"products": products, "verdicts": verdicts, "inversion": inversion,
            "cli": cli_workload}
WORKLOADS = tuple(BUILDERS)

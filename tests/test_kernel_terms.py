"""Operators that hold the product kernel's sums and build scalars when read.

Every operator keeps integer sums as ``terms``: a product or an evaluated
expression the kernel's, and one made from ``TateSeries`` those series,
converted once, on first use, and kept beside them.  These properties check
that such an operator reads, prints, serializes, queries and multiplies
exactly as the same operator built from its ``TateSeries``, and that
queries build no scalar.
"""

import contextlib
import random
import sys
import threading
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdiff import (MicroOp, PadicScalar, PrecisionExhausted, TailCertificate, TateSeries,
                       check_unit, compose, mul, norm_Fkr, norm_k, order_Nk, polygon, sector_norms,
                       sector_split)
from microdiff import diffop
from microdiff.errors import DegreeCapOverflow, MicrodiffError, WindowOverflow
from microdiff.exprs import EvalContext, evaluate, parse
from microdiff.jsonio import dumps, operator_to_json
from microdiff.tower import RingLevel

from test_diffop import (from_json, operator_snapshot, series_fold_beyond, series_product_terms,
                         terms_snapshot)

MODES = ("flat", "general", "laurent", "d2")


def unbuilt(S: MicroOp) -> bool:
    """S holds kernel sums and no ``TateSeries``."""
    return type(S.terms) is diffop._KernelTerms and S.terms._built is None


def rebuilt(S: MicroOp) -> MicroOp:
    """S with its terms built, as an operator made from ``TateSeries``."""
    return MicroOp(S.dim, S.prime, dict(S.terms), S.tail, S.neg_tail)


def outcome(fn, *args):
    """fn's answer, or its refusal as (type, text)."""
    try:
        return fn(*args)
    except (MicrodiffError, ValueError) as e:
        return type(e), str(e)


def make_operator(rng: random.Random, mode: str, p: int, precisions=(64,)) -> MicroOp:
    """One operator of the mode: constant coefficients at one precision and
    cap (flat), x coefficients on positive exponents (general), either on
    exponents of both signs (laurent), x1, x2 coefficients in d = 2, or
    either in d = 3 on exponents of both signs."""
    dim = {"d2": 2, "d3": 3}.get(mode, 1)
    lo = -2 if mode in ("laurent", "d3") else 0
    flat = mode == "flat" or mode in ("laurent", "d3") and rng.random() < 0.5
    cap = rng.choice((6, 32))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        alpha = tuple(rng.randint(lo, 2) for _ in range(dim))
        monomials = [(0,) * dim] if flat else [
            tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(rng.randint(1, 3))]
        coeffs = {m: PadicScalar.from_fraction(
            F(rng.choice((1, -1, 3, -5)), rng.choice((1, 7))) * F(p) ** rng.randint(-1, 2),
            p, rng.choice(precisions)) for m in monomials}
        terms[alpha] = TateSeries(dim, p, coeffs, cap)
    return MicroOp(dim, p, terms)


@st.composite
def operand_pairs(draw, modes=MODES):
    """(mode, P, Q); a quarter of the left operands mix precisions 20 and 64."""
    rng = draw(st.randoms(use_true_random=True))
    mode, p = rng.choice(modes), rng.choice((2, 3, 5))
    mixed = (20, 64) if rng.random() < 0.25 else (64,)
    return mode, make_operator(rng, mode, p, mixed), make_operator(rng, mode, p)


def fresh_product(P: MicroOp, Q: MicroOp):
    """P*Q through ``*``, or its refusal."""
    return outcome(lambda: P * Q)


def check_kept_product(P: MicroOp, Q: MicroOp):
    """P*Q holds kernel sums that read, print and serialize like the
    operator built from the series arithmetic's product, or refuses as it does."""
    S = fresh_product(P, Q)
    want = outcome(series_product_terms, P, Q)
    if isinstance(S, tuple):  # a refusal, as the series arithmetic's
        assert isinstance(want, tuple) and S[0] is want[0]
        return
    assert unbuilt(S)
    table = S.term_table  # off the sums, before any value is read
    R = MicroOp(S.dim, S.prime, dict(S.terms))
    assert list(S.terms) == list(want) == list(R.terms)
    assert terms_snapshot(S.terms) == terms_snapshot(want)
    assert [list(c.coeffs) for c in S.terms.values()] == [list(c.coeffs) for c in R.terms.values()]
    assert table == R.term_table
    assert str(S) == str(R)
    assert dumps(operator_to_json(S)) == dumps(operator_to_json(R))
    assert S == R and len(S.terms) == len(R.terms)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(operand_pairs())
def test_a_kept_product_reads_like_its_built_operator(operands):
    _, P, Q = operands
    check_kept_product(P, Q)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(operand_pairs(("d3",)))
def test_a_product_in_three_dimensions_equals_the_series_arithmetic(operands):
    # d = 3 takes the exponent sums and differences of any dimension
    _, P, Q = operands
    check_kept_product(P, Q)
    check_kept_product(Q, P)


@st.composite
def chains(draw):
    """A start, and steps that multiply the running value on the left, on
    the right or by itself, at one mode and prime."""
    rng = draw(st.randoms(use_true_random=True))
    mode, p = rng.choice(MODES), rng.choice((2, 3, 5))
    kinds = [rng.choice(("left", "right")) for _ in range(rng.randint(2, 4))]
    if rng.random() < 0.5:  # at most one square, so that sizes stay small
        kinds.insert(rng.randint(0, len(kinds)), "square")
    steps = [(kind, make_operator(rng, mode, p)) for kind in kinds]
    return make_operator(rng, mode, p), steps


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(chains())
def test_a_chain_on_kept_sums_equals_the_chain_on_built_operators(chain):
    start, steps = chain
    kept, built = start, start
    for kind, operand in steps:
        results = []
        for acc in (kept, rebuilt(built)):
            pair = {"left": (acc, operand), "right": (operand, acc), "square": (acc, acc)}[kind]
            results.append(outcome(mul, *pair))
        if isinstance(results[0], tuple) or isinstance(results[1], tuple):
            assert results[0] == results[1]
            return
        assert unbuilt(results[0])
        assert operator_snapshot(results[0]) == operator_snapshot(results[1])
        kept, built = results


@contextlib.contextmanager
def counted_builds():
    builds, build = [], diffop._build_terms
    with mock.patch.object(diffop, "_build_terms",
                           lambda *args: builds.append(1) or build(*args)):
        yield builds


def queries(S: MicroOp, k: int) -> list:
    """Norm, order, polygon and unit verdicts, each an answer or a refusal."""
    levels = [RingLevel.ek(k), RingLevel.fkr(k + 1, k)]
    out = []
    if S.positive:
        levels += [RingLevel.dkq(k), RingLevel.fir(k), RingLevel.finf(), RingLevel.dinf()]
        out += [outcome(norm_k, S, k), outcome(order_Nk, S, k),
                outcome(lambda: polygon(S).vertices)]
    return out + [outcome(check_unit, S, level) for level in levels]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(operand_pairs(), st.integers(1, 3))
def test_queries_on_a_fresh_product_build_no_scalars(operands, k):
    _, P, Q = operands
    with counted_builds() as builds:
        S = fresh_product(P, Q)
        if isinstance(S, tuple):
            return
        got = queries(S, k)
    assert builds == [] and unbuilt(S)
    assert got == queries(rebuilt(S), k)


@pytest.mark.parametrize("text", ["prod(n=1..4, 1 - p^n*d1*d2) * (x1*d2 + 3) - 2/9*x2^2*d1",
                                  "(1 + p*x1)*(3 + p^2*x2) + p^3*d1 - p^4*x2*d2^2"])
def test_an_evaluated_expression_keeps_its_sums_until_read(text):
    ctx = EvalContext(prime=3, dim=2)
    with counted_builds() as builds:
        S = evaluate(parse(text), ctx)
        got = queries(S, 1)
        assert builds == [] and unbuilt(S)
        R = rebuilt(S)
        assert builds == [1]
    assert got == queries(R, 1) and str(S) == str(R)
    assert any(getattr(v, "invertible", False) for v in got) == ("x1)*(3" in text)


def test_a_digit_mode_product_whose_known_digits_cancel_is_refused_by_the_product():
    # (d + 1) read back from JSON times (d - 1): the d^1 sum cancels to 0
    # modulo p^64, so no digit of it is known
    P = from_json(MicroOp(1, 2, {(1,): TateSeries.constant(1), (0,): TateSeries.constant(1)}))
    Q = MicroOp(1, 2, {(1,): TateSeries.constant(1), (0,): TateSeries.constant(-1)})
    with pytest.raises(PrecisionExhausted, match="no digit of the result is known"):
        compose(P, Q)
    with pytest.raises(PrecisionExhausted):
        diffop._product_terms(P, Q)
    # a digit-mode product that keeps a digit keeps its sums too
    S = compose(P, P)
    assert unbuilt(S) and not all(c.exact for f in S.terms.values() for c in f.coeffs.values())


def test_a_truncated_product_folds_its_stored_terms_into_its_tail():
    rng, dropped = random.Random(7), 0
    for _ in range(40):
        P, Q = (make_operator(rng, "general", 2) for _ in range(2))
        T = MicroOp(P.dim, P.prime, dict(P.terms), TailCertificate(1, F(2), F(1)))
        S, exact = compose(T, Q), compose(P, Q)
        terms = dict(exact.terms)
        tail = series_fold_beyond(terms, diffop._product_tail(T, Q), positive_sector=True)
        assert unbuilt(S) and S.terms == terms and S.tail == tail
        assert all(diffop.length(a) <= tail.start for a in S.terms)
        dropped += len(exact.terms) - len(S.terms)
    assert dropped


def test_threads_reading_one_kept_product_get_equal_terms():
    # and threads reading the sums of one operator made from series get equal sums
    rng = random.Random(11)
    P, Q = make_operator(rng, "d2", 3), make_operator(rng, "d2", 3)
    built = dict(rebuilt(P * Q).terms)
    want = terms_snapshot(built), MicroOp(P.dim, P.prime, built).terms.kept
    for _ in range(5):
        S, R = P * Q, MicroOp(P.dim, P.prime, built)
        start = threading.Barrier(8)
        results = [None] * 8

        def read(i):
            start.wait(timeout=10)
            results[i] = terms_snapshot(dict(S.terms)), R.terms.kept
        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 8


# -- each right factor keeps its commutation table --------------------------------


def refusal(fn, *args):
    """fn's answer, or its refusal as (type, text, needed)."""
    try:
        return fn(*args)
    except (MicrodiffError, ValueError) as e:
        return type(e), str(e), getattr(e, "needed", None)


def test_a_right_factor_forms_each_commutation_once():
    # the chain A = A * B multiplies by one B, whose terms keep the table; a
    # twin of B on the same sums starts a table of its own
    formed, commutations = [], diffop._commutations

    def counted(alpha, beta, *args):
        formed.append((alpha, beta))
        return commutations(alpha, beta, *args)
    B = evaluate(parse("x*d + p*x^2*dinv + 3"), EvalContext())
    with mock.patch.object(diffop, "_commutations", counted):
        A = B
        for _ in range(4):
            A = A * B
        assert formed and len(formed) == len(set(formed))
        once = len(formed)
        twin = A * evaluated_twin(B)
        assert len(formed) > once
    assert store_snapshot(twin) == store_snapshot(A * B)


def test_a_commutation_entry_holds_its_target_exponent():
    # D^2 * 3x^2 D^-1 = 3x^2 D + 2 * 6x + 1 * 6 D^-1: each entry's first field
    # is alpha + beta - j, so the pair loop adds no exponents of its own
    minus = diffop._EXPONENT_OPS[1][1]
    got = diffop._commutations((2,), (-1,), [((2,), 3)], None, {}, minus)
    assert got == [((1,), [((2,), 3)], None, 2, 1), ((0,), [((1,), 6)], None, 1, 2),
                   ((-1,), [((0,), 6)], None, 0, 1)]
    # d = 2 keeps the any-dimension loop: D1 D2 * x1 x2 D2^2, j in {0, 1}^2
    minus = diffop._EXPONENT_OPS[2][1]
    got = diffop._commutations((1, 1), (0, 2), [((1, 1), 1)], {(1, 1): 5}, {}, minus)
    assert [(gamma, h, hp) for gamma, h, hp, *_ in got] == [
        ((1, 3), [((1, 1), 1)], {(1, 1): 5}), ((1, 2), [((1, 0), 1)], {(1, 0): 5}),
        ((0, 3), [((0, 1), 1)], {(0, 1): 5}), ((0, 2), [((0, 0), 1)], {(0, 0): 5})]


def embedded(kept: tuple) -> tuple:
    """d = 1 kernel sums on a d = 2 store with a zero second axis: x -> x1, d -> d1."""
    sums, W, E, n, cap = kept
    if cap is not None:
        return {(a, 0): N for (a,), N in sums.items()}, W, E, n, cap
    return {(a, 0): [{(m, 0): N for (m,), N in v.items()},
                     vp and {(m, 0): q for (m,), q in vp.items()}, c]
            for (a,), (v, vp, c) in sums.items()}, W, E, n, cap


def projected(kept: tuple) -> tuple:
    """d = 2 kernel sums of an embedded product back on d = 1, in their order."""
    sums, W, E, n, cap = kept
    assert all(b == 0 for _, b in sums)
    if cap is not None:
        return {(a,): N for (a, _), N in sums.items()}, W, E, n, cap
    assert all(y == 0 for v, vp, _ in sums.values() for _, y in (*v, *(vp or ())))
    return {(a,): [{(m,): N for (m, _), N in v.items()},
                   vp and {(m,): q for (m, _), q in vp.items()}, c]
            for (a, _), (v, vp, c) in sums.items()}, W, E, n, cap


def kernel_snapshot(kept: tuple) -> tuple:
    """d = 1 kernel sums as lists: values, precisions, caps, term and monomial order."""
    sums, W, E, n, cap = kept
    if cap is not None:
        return list(sums.items()), W, E, n, cap
    return [(a, list(v.items()), vp and list(vp.items()), c)
            for a, (v, vp, c) in sums.items()], W, E, n, cap


@st.composite
def d1_kernel_operands(draw):
    """(p, Q, lefts): d = 1 operators on D-exponents -3..3 with x-degree up
    to 5, exact (some mixing precisions 20 and 64) or read back from JSON
    (residues, some known to 12 digits), so that some rows carry
    per-monomial precisions; one right factor Q."""
    rng = draw(st.randoms(use_true_random=True))
    p = rng.choice((2, 3, 5))

    def operand():
        terms, precisions = {}, rng.choice(((64,), (64,), (20, 64)))
        for _ in range(rng.randint(1, 4)):
            coeffs = {(m,): PadicScalar.from_fraction(
                F(rng.choice((1, -1, 3, -5)), rng.choice((1, 7))) * F(p) ** rng.randint(-1, 2),
                p, rng.choice(precisions)) for m in rng.sample(range(6), rng.randint(1, 3))}
            terms[(rng.randint(-3, 3),)] = TateSeries(1, p, coeffs, rng.choice((9, 32, 32)))
        S = MicroOp(1, p, terms)
        return from_json(S, rng.choice((None, 12))) if rng.random() < 0.4 else S
    return p, operand(), [operand() for _ in range(rng.randint(2, 4))]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(d1_kernel_operands())
def test_d1_kernel_sums_equal_the_d2_loop_on_a_zero_second_axis(case):
    # one table per right factor and dimension, over the lefts twice, so the
    # second pass reads the entries the first formed
    p, Q, lefts = case
    right = [diffop._as_rows(Q.terms.kept, p), diffop._as_rows(embedded(Q.terms.kept), p)]
    tables = [{}, {}]
    for P in lefts * 2:
        left = [diffop._as_rows(P.terms.kept, p), diffop._as_rows(embedded(P.terms.kept), p)]
        one, two = [outcome(diffop._kernel_sums, left[i], right[i], i + 1, p, tables[i])
                    for i in (0, 1)]
        if isinstance(one[0], type) or isinstance(two[0], type):  # a refusal, as the loop's
            assert one == two
        else:
            assert kernel_snapshot(one) == kernel_snapshot(projected(two))


SHARED_MODES = MODES + ("digit", "mixed")


def refused_left(rng: random.Random, Q: MicroOp) -> MicroOp:
    """A left operand that Q refuses: by the degree cap (an x^6 at cap 6 after
    terms that commute first) where a coefficient of Q holds an x, else by
    the window."""
    dim, p = Q.dim, Q.prime
    if any(diffop._degrees(Q.terms.kept).values()):
        S = make_operator(rng, "d2" if dim == 2 else "general", p)
        top = TateSeries(dim, p, {(6,) + (0,) * (dim - 1): PadicScalar.from_fraction(1, p)}, 6)
        return MicroOp(dim, p, {**dict(S.terms), (3,) * dim: top})
    return MicroOp.monomial((67,) + (0,) * (dim - 1), 1, dim, p)


@st.composite
def shared_right_factors(draw):
    """(Q, lefts, middle): one right factor and four to six left operands
    of one mode, flat, general, Laurent, d = 2, digit (some read back from
    JSON, some known to 12 digits) or mixed (precisions 20 and 64); the
    left operand at ``middle`` is refused by the degree cap or the window."""
    rng = draw(st.randoms(use_true_random=True))
    mode, p = rng.choice(SHARED_MODES), rng.choice((2, 3, 5))
    base = rng.choice(MODES) if mode in ("digit", "mixed") else mode

    def operand():
        S = make_operator(rng, base, p, (20, 64) if mode == "mixed" else (64,))
        return from_json(S, rng.choice((None, 12))) if mode == "digit" and rng.random() < 0.7 else S
    Q, lefts = operand(), [operand() for _ in range(rng.randint(3, 5))]
    middle = len(lefts) // 2
    lefts.insert(middle, refused_left(rng, Q))
    return Q, lefts, middle


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(shared_right_factors())
def test_products_by_one_right_factor_equal_products_by_fresh_twins(case):
    # twice over the lefts, so the second pass reads every entry the first formed
    Q, lefts, middle = case
    got = [store_snapshot(refusal(lambda: P * Q)) for P in lefts * 2]
    want = [store_snapshot(refusal(lambda: P * evaluated_twin(Q))) for P in lefts * 2]
    assert got == want
    assert got[middle][0] in (DegreeCapOverflow, WindowOverflow)


def test_threads_multiplying_by_one_right_factor_get_the_fresh_products():
    # 8 threads race to fill one table; each gets what a fresh twin of Q gives
    rng = random.Random(23)
    Q0 = make_operator(rng, "d2", 3)
    lefts = [make_operator(rng, "d2", 3) for _ in range(4)]
    lefts.insert(2, refused_left(rng, Q0))
    want = [store_snapshot(refusal(lambda: P * evaluated_twin(Q0))) for P in lefts]
    assert want[2][0] is DegreeCapOverflow
    for _ in range(5):
        Q = evaluated_twin(Q0)
        start = threading.Barrier(8)
        results = [None] * 8

        def multiply(i):  # each thread starts at another left operand
            start.wait(timeout=10)
            got = {j: store_snapshot(refusal(lambda: lefts[j] * Q))
                   for j in [(i + j) % len(lefts) for j in range(len(lefts))]}
            results[i] = [got[j] for j in range(len(lefts))]
        threads = [threading.Thread(target=multiply, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 8


# -- the one store: sums and inverses read the kernel's sums ------------------------


def test_a_sum_of_evaluated_operators_builds_no_scalar_and_adds_no_series():
    ctx = EvalContext(prime=3)
    P, Q = (evaluate(parse(text), ctx) for text in ("x*d + p*d^2", "x^2 + p*x*d"))
    with counted_builds() as builds, \
            mock.patch.object(TateSeries, "__add__", side_effect=AssertionError):
        S, D, N = P + Q, P - Q, -P
        got = [norm_k(T, 1) for T in (S, D, N)]
        assert builds == [] and all(unbuilt(T) for T in (S, D, N))
    assert got == [norm_k(rebuilt(T), 1) for T in (S, D, N)]


def test_a_sum_of_series_operators_adds_no_series():
    # operators that hold TateSeries, truncated or read back from JSON, are
    # added on their kernel sums, which each converts once (dict(P.terms)
    # iterates P's sums, so it converts P)
    rng = random.Random(3)
    P, Q = make_operator(rng, "general", 3), make_operator(rng, "laurent", 3)
    with mock.patch.object(TateSeries, "__add__", side_effect=AssertionError), \
            mock.patch.object(diffop, "_series_sums", wraps=diffop._series_sums) as converted:
        T = MicroOp(P.dim, P.prime, dict(P.terms), TailCertificate(1, F(2), F(1)))
        for A, B in ((P, Q), (T, Q), (from_json(P), Q), (P, P)):
            A + B
            A - B
    assert converted.call_count == 4  # P, Q, T and P read back, once each


def test_a_quasi_abelian_defect_of_evaluated_operators_builds_no_scalar():
    # both products and their difference stay kernel sums
    ctx = EvalContext(prime=3)
    P, Q = (evaluate(parse(text), ctx) for text in ("x*d + p*d^2", "1 + p*x*d^2"))
    with counted_builds() as builds:
        e = diffop._defect_exponent(P, Q, 1)
    assert builds == [] and e == diffop._defect_exponent(rebuilt(P), rebuilt(Q), 1)


def test_invert_takes_an_evaluated_operands_sums_and_builds_one_operator():
    # the operand's series are never converted back to sums and no series
    # enters the kernel: g, the inverse of c_beta, is summed on c_beta's row;
    # no scalar is built, and the inverse keeps its sums
    from microdiff import tower
    level = RingLevel.ek(1)
    P, Q = (evaluate(parse("1 + p^4*x*d + p^5*d^2"), EvalContext()) for _ in range(2))
    want = terms_snapshot(tower.invert(rebuilt(Q), level).terms)
    made, builds = [], []
    post_init, build = MicroOp.__post_init__, diffop._build_terms

    def counted(dim, p, kept):
        builds.append(list(kept[0]))
        return build(dim, p, kept)
    with mock.patch.object(diffop, "_series_sums", side_effect=AssertionError), \
            mock.patch.object(diffop, "_build_terms", counted), \
            mock.patch.object(diffop, "_series", side_effect=AssertionError), \
            mock.patch.object(TateSeries, "invert_unit", side_effect=AssertionError), \
            mock.patch.object(MicroOp, "__post_init__",
                              lambda S: made.append(S) or post_init(S)):
        S = tower.invert(P, level)
    assert builds == [] and unbuilt(S)
    assert made == [S] and terms_snapshot(S.terms) == want


@pytest.mark.parametrize("q", [F(4), F(1, 2), F(-3, 8), F(6, 5), -1])
def test_scaled_sums_equal_the_scaled_series(q):
    # a residue stays known to its digits past its valuation, which q moves
    rng = random.Random(5)
    for P in (from_json(make_operator(rng, "general", 2), 12), make_operator(rng, "flat", 2)):
        got = diffop._build_terms(P.dim, 2, diffop._scaled(P.terms.kept, q, 2))
        want = {a: c.scale(PadicScalar.from_fraction(q, 2)) for a, c in P.terms.items()}
        assert terms_snapshot(got) == terms_snapshot(want)


# -- every operator the library makes stays on kernel sums ------------------------


def series_clip(S: MicroOp, window: int) -> MicroOp:
    """The clip on ``TateSeries`` terms: the terms past the window fold into
    the tail of their sector, a fresh one at slope 0 over the largest of
    their least coefficient valuations."""
    terms = dict(S.terms)
    dropped = [a for a in terms if any(abs(e) > window for e in a)]
    tail, neg_tail = S.tail, S.neg_tail
    for positive in (True, False):
        hit = [a for a in dropped if (diffop.floor_sum(a) >= 0) == positive]
        if not hit:
            continue
        cert, start = tail if positive else neg_tail, min(map(diffop.length, hit)) - 1
        if cert is None:
            t0 = max(min(s.valuation for s in terms[a].coeffs.values()) for a in hit)
            cert = TailCertificate(start, F(t0), F(0))
        else:
            cert = TailCertificate(min(cert.start, start), cert.t0, min(cert.t1, F(0)),
                                   cert.infinite)
        cert = series_fold_beyond(terms, cert, positive)
        tail, neg_tail = (cert, neg_tail) if positive else (tail, cert)
    return MicroOp(S.dim, S.prime, terms, tail, neg_tail)


def series_sector_split(S: MicroOp) -> tuple:
    pos = {a: c for a, c in S.terms.items() if diffop.floor_sum(a) >= 0}
    neg = {a: c for a, c in S.terms.items() if diffop.floor_sum(a) < 0}
    return MicroOp(S.dim, S.prime, pos, tail=S.tail), MicroOp(S.dim, S.prime, neg,
                                                                 neg_tail=S.neg_tail)


def series_folded_sum(P: MicroOp, Q: MicroOp) -> MicroOp:
    """P + Q: the kernel's sum, built, then folded on its ``TateSeries``."""
    terms = dict(diffop._as_terms(P.dim, P.prime, diffop._sum(P.terms.kept, Q.terms.kept, P.dim,
                                                             P.prime)))
    tail = series_fold_beyond(terms, diffop._min_tail(P.tail, Q.tail), True)
    neg_tail = series_fold_beyond(terms, diffop._min_tail(P.neg_tail, Q.neg_tail), False)
    return MicroOp(P.dim, P.prime, terms, tail, neg_tail)


def series_folded_mul(P: MicroOp, Q: MicroOp, window: int | None) -> MicroOp:
    """mul(P, Q, window): the kernel's product, built, then folded and
    clipped on its ``TateSeries``."""
    if not (P.is_exact and Q.is_exact or P.positive and Q.positive):
        raise diffop.InsufficientTruncation(
            "tail certificates cannot be combined across mixed sectors")
    terms = dict(diffop._product_terms(P, Q)[0])
    diffop._window_cap_check(terms, diffop.DEFAULT_WINDOW_CAP)
    tail = series_fold_beyond(terms, diffop._product_tail(P, Q), True)
    S = MicroOp(P.dim, P.prime, terms, tail)
    return S if window is None else series_clip(S, window)


def store_snapshot(S):
    """Values, term and monomial order, precisions, caps and tails, or a
    refusal's type and text."""
    if isinstance(S, tuple):
        return S
    return (terms_snapshot(S.terms), [list(c.coeffs) for c in S.terms.values()],
            S.tail, S.neg_tail)


@st.composite
def store_operands(draw):
    """(P, Q, window) in one mode: flat, general, Laurent or d = 2; either
    operand may be read back from JSON (residues, some known to 12 digits)
    and carry a certificate in either sector or both."""
    rng = draw(st.randoms(use_true_random=True))
    mode, p = rng.choice(MODES), rng.choice((2, 3, 5))
    ops = []
    for _ in range(2):
        S = make_operator(rng, mode, p, (20, 64))
        if rng.random() < 0.3:
            S = from_json(S, rng.choice((None, 12)))
        if rng.random() < 0.3:
            def cert():
                return rng.choice((None, TailCertificate(rng.randint(0, 3), F(rng.randint(-2, 2)),
                                                         F(rng.randint(0, 4), 2),
                                                         rng.random() < 0.5)))
            S = MicroOp(S.dim, S.prime, dict(S.terms), cert(),
                        cert() if mode in ("laurent", "d2") else None)
        ops.append(S)
    return (*ops, rng.choice((None, 0, 1, 1, 2)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(store_operands())
def test_folds_clips_and_sector_splits_on_sums_equal_the_series_versions(operands):
    P, Q, window = operands
    pairs = [(outcome(lambda: P + Q), outcome(series_folded_sum, P, Q)),
             (outcome(mul, P, Q, window), outcome(series_folded_mul, P, Q, window))]
    for got, want in list(pairs):
        if isinstance(got, MicroOp) and isinstance(want, MicroOp):
            pairs += zip(sector_split(got), series_sector_split(want))
    for S in (P, Q):
        pairs += zip(sector_split(S), series_sector_split(S))
    for got, want in pairs:
        assert store_snapshot(got) == store_snapshot(want)
        if isinstance(got, MicroOp):
            assert got.term_table == rebuilt(want).term_table


def evaluated_twin(S: MicroOp) -> MicroOp:
    """S on its kernel sums alone: every value built off the sums when read."""
    return MicroOp(S.dim, S.prime, diffop._KernelTerms(S.dim, S.prime, S.terms.kept), S.tail,
                   S.neg_tail)


@st.composite
def series_built(draw):
    """([(given, S), (given, S)], window): two operators of one mode made from
    their ``TateSeries``, ``given``, in flat, general, Laurent or d = 2 mode,
    some read back from JSON (residues, some known to 12 digits), some
    truncated in either sector or both."""
    rng = draw(st.randoms(use_true_random=True))
    mode, p = rng.choice(MODES), rng.choice((2, 3, 5))

    def cert():
        return rng.choice((None, TailCertificate(rng.randint(0, 3), F(rng.randint(-2, 2)),
                                                 F(rng.randint(0, 4), 2), rng.random() < 0.5)))
    ops = []
    for _ in range(2):
        S = make_operator(rng, mode, p, (20, 64))
        if rng.random() < 0.4:
            S = from_json(S, rng.choice((None, 12)))
        given = dict(S.terms)
        tails = (cert(), cert() if mode in ("laurent", "d2") else None)
        ops.append((given, MicroOp(S.dim, p, given, *tails) if rng.random() < 0.4 else S))
    return ops, rng.choice((None, 0, 1, 2))


def answers(S, k: int) -> list:
    """S's store snapshot and term table, and its queries, or a refusal."""
    if isinstance(S, tuple):
        return [S]
    return [store_snapshot(S), S.term_table, *queries(S, k), outcome(norm_Fkr, S, k + 1, k),
            outcome(sector_norms, S, k + 1, k)]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(series_built(), st.integers(1, 2))
def test_a_series_built_operator_reads_back_its_series_and_acts_as_its_evaluated_twin(
        case, k):
    ops, window = case
    for given, S in ops:
        assert S.terms == given and list(S.terms) == list(given)
        assert all(S.terms[a] is c for a, c in given.items())
        assert terms_snapshot(evaluated_twin(S).terms) == terms_snapshot(given)
    (_, P), (_, Q) = ops
    tP, tQ = evaluated_twin(P), evaluated_twin(Q)
    for fn in (lambda A, B: A + B, lambda A, B: A - B, lambda A, B: -A, lambda A, B: A * B,
               lambda A, B: mul(A, B, window), lambda A, B: mul(B, A, window),
               lambda A, B: sector_split(A)[0], lambda A, B: sector_split(A)[1],
               lambda A, B: A):
        assert answers(outcome(fn, P, Q), k) == answers(outcome(fn, tP, tQ), k)


def counted_stores():
    """Patches that count the built terms (one entry per build, its number
    of terms) and refuse any conversion of series to sums."""
    builds, build = [], diffop._build_terms

    def counted(dim, p, kept):
        builds.append(len(kept[0]))
        return build(dim, p, kept)
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(diffop, "_build_terms", counted))
    stack.enter_context(mock.patch.object(diffop, "_series_sums", side_effect=AssertionError))
    return stack, builds


def test_library_operators_build_scalars_only_for_the_results_read():
    from microdiff import gauss_op, product_op, truncated_cofactor
    from microdiff.tower import invert
    stack, builds = counted_stores()
    with stack:
        G, C, T = product_op(9), gauss_op(6), truncated_cofactor(2, 10)
        S, D = G + C, G - T
        X = compose(G, evaluate(parse("1 + p*x*d"), EvalContext()))
        L = evaluate(parse("1 + p*x*d + p^2*dinv + p^3*x*d^2"), EvalContext())
        W = mul(L, L, window=1)
        pos, neg = sector_split(W)
        answers = [queries(R, 1) for R in (G, C, T, S, D, X)] + [
            outcome(fn, R, 3, 1) for fn in (norm_Fkr, sector_norms) for R in (W, pos, neg)]
        assert builds == [] and all(unbuilt(R) for R in (G, C, T, S, D, X, W, pos, neg))
        P = evaluate(parse("1 + p^4*x*d + p^5*d^2"), EvalContext())
        inverse = invert(P, RingLevel.ek(1))
        assert builds == [] and unbuilt(inverse)
        texts = [str(S), dumps(operator_to_json(W))]
        assert builds == [len(S.terms), len(W.terms)]
    assert answers == [queries(rebuilt(R), 1) for R in (G, C, T, S, D, X)] + [
        outcome(fn, rebuilt(R), 3, 1) for fn in (norm_Fkr, sector_norms) for R in (W, pos, neg)]
    assert texts == [str(rebuilt(S)), dumps(operator_to_json(rebuilt(W)))]


def dict_monomial(alpha, coeff, dim=None, prime=2, degree_cap=32) -> MicroOp:
    """MicroOp.monomial on a ``TateSeries`` coefficient, as every
    coefficient was built before the constructors made kernel sums."""
    alpha = tuple(alpha)
    d = dim if dim is not None else len(alpha)
    f = TateSeries.constant(coeff, d, prime, degree_cap)
    return MicroOp.zero(d, f.prime) if f.is_zero else MicroOp(d, f.prime, {alpha: f})


@pytest.mark.parametrize("coeff", [1, 0, -6, F(-3, 4), F(9, 14)])
@pytest.mark.parametrize("alpha, dim, prime, cap, refusal", [
    ((1,), None, 2, 32, None), ((2, -1), None, 3, 5, None), ((0,), None, 7, 0, None),
    ((1,), None, 4, 32, "4 is not a prime"),
    ((1,), None, 1, 32, "the prime must be an integer from 2 to 3.3e24, got 1"),
    ((), None, 2, 32, "dimension must be >= 1"),
    ((1,), 0, 2, 32, "dimension must be >= 1"),
    ((1,), None, 2, -1, "monomial (0,) exceeds degree cap -1"),
    ((1, 0), 1, 2, 32, "exponent (1, 0) has wrong arity for dim 1")])
def test_constructors_refuse_a_bad_ring_as_the_series_constructors_do(
        coeff, alpha, dim, prime, cap, refusal):
    got = outcome(MicroOp.monomial, alpha, coeff, dim, prime, cap)
    want = outcome(dict_monomial, alpha, coeff, dim, prime, cap)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert unbuilt(got) == bool(coeff)  # a number is one flat sum, 0 has none
        assert operator_snapshot(got) == operator_snapshot(want) and str(got) == str(want)
    if refusal is not None and (coeff or "cap" not in refusal and "arity" not in refusal):
        assert got == (ValueError, refusal)
    d = len(alpha) if dim is None else dim
    made = [(lambda: MicroOp.constant(coeff, d, prime, cap),
             lambda: dict_monomial((0,) * d, coeff, d, prime, cap)),
            (lambda: MicroOp.identity(d, prime), lambda: dict_monomial((0,) * d, 1, d, prime))]
    if d:  # derivation refuses dim 0 by its axis first
        made.append((lambda: MicroOp.derivation(1, d, prime),
                     lambda: dict_monomial((1,) + (0,) * (d - 1), 1, d, prime)))
    for fn, want_fn in made:
        assert store_snapshot(outcome(fn)) == store_snapshot(outcome(want_fn))


# -- one read rule: len, iteration, `in` and every operation read the sums ---------


def store_rule_cases():
    """(kind, S) for kept operators (a product, an evaluated expression, a
    catalog operator, a sum holding residues read from JSON), operators made
    from series and operators read back from JSON, in every mode."""
    from microdiff import product_op
    rng = random.Random(19)
    cases = [("kept", evaluate(parse("x*d^2 + p*dinv + 3 + p^2*x*dinv^3"), EvalContext())),
             ("kept", product_op(6))]
    for mode in MODES:
        P, Q = make_operator(rng, mode, 3), make_operator(rng, mode, 3, (20, 64))
        cases += [("kept", P * Q), ("kept", from_json(P, 12) + Q), ("series", P),
                  ("series", from_json(Q)), ("series", from_json(Q, 12))]
    return cases


def operations(S: MicroOp) -> list:
    """len, iteration, ``in``, the queries, sum, product, fold, clip and
    sector parts of S, each an answer or a refusal."""
    truncated = MicroOp(S.dim, S.prime, S.terms, TailCertificate(1, F(2), F(1)))
    made = (lambda: S + S, lambda: S - truncated, lambda: -S, lambda: S * S,
            lambda: mul(S, S, window=1), lambda: compose(truncated, S))
    return [len(S.terms), list(S.terms), [a in S.terms for a in S.terms],
            (9,) * S.dim in S.terms, S.is_zero, S.positive, S.max_length(),
            *queries(S, 1), outcome(norm_Fkr, S, 2, 1), outcome(sector_norms, S, 2, 1),
            *[outcome(lambda fn=fn: len(fn().terms)) for fn in made],
            outcome(lambda: [len(T.terms) for T in sector_split(S)])]


@pytest.mark.parametrize("kind, S", store_rule_cases())
def test_operations_build_no_series_and_the_first_value_read_builds_every_one(kind, S):
    builds, build = [], diffop._build_terms

    def counted(dim, p, kept):
        builds.append(len(kept[0]))
        return build(dim, p, kept)
    with mock.patch.object(diffop, "_build_terms", counted):
        got = operations(S)
        assert builds == [] and (kind == "series") != unbuilt(S)
        twins = [evaluated_twin(S) for _ in range(5)]
        alpha = next(iter(S.terms))
        # the first value read, whichever way, builds every coefficient, once
        first = [S.terms[alpha], *[read(T) for read, T in zip(
            (lambda T: T.terms[alpha], lambda T: T.coefficient(alpha),
             lambda T: dict(T.terms.items()), lambda T: T == S, str), twins)]]
        want = [len(S.terms)] * (5 if kind == "series" else 6)  # given series are kept
        assert builds == want
        again = [dict(T.terms) for T in (S, *twins)] + [str(S), S.coefficient(alpha), S == S]
        assert builds == want
    assert first[0] is S.terms[alpha] and terms_snapshot(again[0]) == terms_snapshot(again[1])
    assert got == operations(rebuilt(S))


@pytest.mark.parametrize("text, level, json", [
    ("1 + p^4*x*d + p^5*d^2", RingLevel.ek(1), False), ("1 + p^4*x*d", RingLevel.ek(1), True),
    ("1 + p^3*dinv + p^4*d", RingLevel.fkr(3, 1), True)])
def test_invert_builds_no_scalar(text, level, json):
    # on an evaluated operand, on one made from series and on one read from
    # JSON: c_beta's inverse is summed on its row, so not even c_beta is built
    from microdiff import tower
    P = evaluate(parse(text), EvalContext())
    for S in (P, rebuilt(P), from_json(P)) if json else (P, rebuilt(P)):
        builds, build = [], diffop._build_terms

        def counted(dim, p, kept):
            builds.append(list(kept[0]))
            return build(dim, p, kept)
        with mock.patch.object(diffop, "_build_terms", counted), \
                mock.patch.object(diffop, "_series", side_effect=AssertionError), \
                mock.patch.object(TateSeries, "invert_unit", side_effect=AssertionError):
            inverse = tower.invert(S, level)
        assert builds == [] and unbuilt(inverse)
        want = tower.invert(rebuilt(S), level)
        assert terms_snapshot(inverse.terms) == terms_snapshot(want.terms)

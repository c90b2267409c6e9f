"""Ring identities of the product kernel, which need no reference code.

The kernel is checked elsewhere against a series product written beside
it; these properties check it against algebra alone: the product is
associative, exactly, the level-k exponent ``e_k`` (the level-k norm is
``p**e_k``) adds over products of positive operators, and two inverses of
one unit differ by no more than their residuals allow.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from microdiff import DegreeCapOverflow, MicroOp, WindowOverflow, check_unit, invert, mul
from microdiff.tower import RingLevel

from conftest import rand_laurent_op, rand_positive_op, rand_series

PRIMES = (2, 3, 5)


def laurent_x_op(rng: random.Random, prime: int) -> MicroOp:
    """A Laurent operator in d = 1 with ``x`` coefficients, so that negative
    powers of the derivation commute past polynomials."""
    terms = {(rng.randint(-2, 2),): rand_series(rng, 1, prime, poly=True)
             for _ in range(rng.randint(1, 3))}
    return MicroOp(1, prime, terms)


def exact_operator(rng: random.Random, kind: str, prime: int) -> MicroOp:
    """An exact operator of one kind: d = 1 with ``x`` coefficients, d = 2
    with ``x1``, ``x2`` coefficients, Laurent with constant coefficients, or
    Laurent with ``x`` coefficients."""
    if kind == "d1":
        return rand_positive_op(rng, 1, prime, max_exp=3, poly=True)
    if kind == "d2":
        return rand_positive_op(rng, 2, prime, max_terms=3, max_exp=2, poly=True)
    if kind == "laurent":
        return rand_laurent_op(rng, 1, prime)
    return laurent_x_op(rng, prime)


KINDS = ("d1", "d2", "laurent", "laurent_x")


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(KINDS), st.sampled_from(PRIMES), st.integers(0, 2**32))
def test_the_product_is_associative(kind, prime, seed):
    rng = random.Random(seed)
    P, Q, R = (exact_operator(rng, kind, prime) for _ in range(3))
    assert mul(mul(P, Q), R) == mul(P, mul(Q, R))


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(("d1", "d2")), st.sampled_from(PRIMES), st.integers(0, 2**32))
def test_the_level_exponent_adds_over_products(kind, prime, seed):
    rng = random.Random(seed)
    P, Q = (exact_operator(rng, kind, prime) for _ in range(2))
    PQ = P * Q
    for k in range(5):
        e_k = RingLevel.dkq(k).norm_exponent
        assert e_k(PQ) == e_k(P) + e_k(Q)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(KINDS), st.sampled_from(PRIMES), st.integers(1, 3), st.integers(1, 8),
       st.integers(1, 8), st.integers(0, 2**32))
def test_inverses_to_two_targets_differ_by_at_most_their_residuals(kind, prime, k, t1, step,
                                                                   seed):
    # P*(S2 - S1) = (P*S2 - 1) - (P*S1 - 1) and the ek(k) norm is multiplicative,
    # so ||S2 - S1|| <= ||P||^-1 * p^max(e1, e2) <= ||P||^-1 * p^-t1
    level = RingLevel.ek(k)
    P = exact_operator(random.Random(seed), kind, prime)
    assume(check_unit(P, level).invertible)
    try:
        S1, S2 = (invert(P, level, residual_exponent=t) for t in (t1, t1 + step))
    except (DegreeCapOverflow, WindowOverflow):  # refused with a cap to rerun with
        assume(False)
    e, one = level.norm_exponent, MicroOp.identity(P.dim, prime)
    e1, e2 = (e(mul(P, S, window_cap=None) - one) for S in (S1, S2))
    assert (e1 is None or e1 <= -t1) and (e2 is None or e2 <= -t1 - step)
    if e1 is None and e2 is None:  # two exact inverses
        assert (S2 - S1).is_zero
    else:
        d = e(S2 - S1)
        assert d is None or d <= max(x for x in (e1, e2) if x is not None) - e(P)

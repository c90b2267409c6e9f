"""Laurent operators: mixed products and the microlocal norms.

Negative derivation powers are adjoined by completing at chosen norms.  Two
families are computed here on the shared :class:`~microdiff.diffop.MicroOp`
representation:

* the single-level norm ``|S| = max |c_alpha| * p**(k*fl(alpha))`` of the
  one-norm localization, which stays multiplicative;
* the two-level norm ``||S|| = max |c_alpha| * p**weight(alpha, k, r)`` of
  the transition-compatible localization, where the weight charges the
  grading ``fl(alpha)`` with ``k`` on the non-negative sector and ``r`` on
  the negative one.  It is only sub-multiplicative, but multiplicative
  within a single sector.

Products of Laurent terms reduce to the same commutation law as positive
composition, with the signed integer binomials of
:func:`microdiff.padic.int_binomial` supplying the negative-power case;
with polynomial coefficients every expansion is finite, so exact operands
give exact products.
"""

from __future__ import annotations

from fractions import Fraction

# _stored_max and tail_sup_exponent are the certified core every norm, order
# and unit verdict shares; they are re-exported here beside the Laurent norms
from .diffop import (DEFAULT_WINDOW_CAP, MicroOp, TailCertificate, _as_terms, _check_level,
                     _folded, _graded_weight, _level_exponent, _level_max, _power, _product,
                     _stored_max, _valuation, floor_sum, length, tail_sup_exponent)


def weight(alpha, k: int, r: int) -> int:
    """Mixed weight: k*fl(alpha) on the sector fl >= 0, r*fl(alpha) below."""
    _check_level("fkr", k, r)
    return _graded_weight(floor_sum(tuple(alpha)), k, r)


# -- multiplication -----------------------------------------------------------


def mul(S: MicroOp, T: MicroOp, window: int | None = None,
        window_cap: int | None = DEFAULT_WINDOW_CAP) -> MicroOp:
    """Product of Laurent operators, exact within the requested window.

    ``window`` optionally clips the result to exponents with per-axis
    absolute value <= window; clipped terms are folded into tail
    certificates so later norm queries stay certified rather than silently
    wrong.  Truncated operands are supported in the positive sector (the
    body is :func:`~microdiff.diffop.compose`'s); mixed-sector truncated
    products have no sound certificate combination and raise.
    """
    return _clip(_product(S, T, window_cap), window)


def _clip(S: MicroOp, window: int | None) -> MicroOp:
    """Restrict to per-axis exponent bound, folding clipped terms into tails."""
    if window is None:
        return S
    (sums, W, *_), p = S.terms.kept, S.prime
    dropped = [a for a in sums if any(abs(e) > window for e in a)]
    certs = [S.tail, S.neg_tail]
    for i, sector_positive in enumerate((True, False)):
        hit = [a for a in dropped if (floor_sum(a) >= 0) == sector_positive]
        if not hit:
            continue
        cert, start = certs[i], min(length(a) for a in hit) - 1
        if cert is None:
            # slope 0, seeded with one clipped valuation: the fold lowers t0 to the least
            certs[i] = TailCertificate(start, _valuation(sums[hit[0]], W, p), 0)
        else:
            certs[i] = TailCertificate(min(cert.start, start), cert.t0,
                                       min(cert.t1, Fraction(0)), cert.infinite)
    return _folded(S, *certs)


# -- sector decomposition ----------------------------------------------------


def sector_split(S: MicroOp) -> tuple[MicroOp, MicroOp]:
    """Partition into the fl(alpha) >= 0 part and the fl(alpha) < 0 part."""
    (sums, *rest), dim, p = S.terms.kept, S.dim, S.prime
    pos, neg = ({a: s for a, s in sums.items() if (floor_sum(a) >= 0) == side}
                for side in (True, False))
    return (MicroOp(dim, p, _as_terms(dim, p, (pos, *rest)), tail=S.tail),
            MicroOp(dim, p, _as_terms(dim, p, (neg, *rest)), neg_tail=S.neg_tail))


# -- norms --------------------------------------------------------------------


def norm_Ek(S: MicroOp, k: int) -> Fraction:
    """Multiplicative single-level norm, as an exact power of p."""
    _check_level("ek", k)
    return _power(S, _level_exponent(S, k))


def order_Ek(S: MicroOp, k: int) -> int:
    """Largest grading fl(alpha) among coefficients achieving the norm."""
    _check_level("ek", k)
    return max(fl for _, _, fl, _ in _level_max(S, k)[1])


def norm_Fkr(S: MicroOp, k: int, r: int) -> Fraction:
    """Sub-multiplicative two-level norm, as an exact power of p."""
    _check_level("fkr", k, r)
    return _power(S, _level_exponent(S, k, r))


def sector_norms(S: MicroOp, k: int, r: int) -> tuple[Fraction, Fraction]:
    """Norms of the two sector parts; their max is the full norm."""
    pos, neg = sector_split(S)
    return norm_Fkr(pos, k, r), norm_Fkr(neg, k, r)

"""Named generator operators with closed-form tail certificates.

Two one-dimensional families recur in every stress test of the level norms:

* ``product_op``: the product of the factors ``1 - p**n * D`` over n >= 1.
  The coefficient of ``D**n`` has valuation ``n*(n+1)/2``, so its level-k
  order is k for every k: the two weighted maxima sit at n = k-1 and k, and
  the polygon's slopes are exactly 1, 2, 3, ...
* ``gauss_op``: ``sum p**(n**2) * D**n``.  Level-k data split by parity
  (orders k/2 at even k, (k±1)/2 at odd k); the slopes are the odd numbers.

Truncations carry the coarsest linear minorant of the closed-form valuation
as their tail certificate, so norm and order queries are certified at level
k once the truncation passes :func:`required_truncation`.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import MicroOp, TailCertificate, _as_terms, _check_level, compose, norm_mu
from .padic import DEFAULT_PRECISION, DEFAULT_PRIME, check_prime
from .tate import DEFAULT_DEGREE_CAP


def _expansion(lo: int, hi: int, prime: int) -> MicroOp:
    """The exact product prod(n=lo..hi, 1 - p**n D)."""
    out = one = MicroOp.identity(1, prime)
    for n in range(lo, hi + 1):
        out = compose(out, one + MicroOp.monomial((1,), -(Fraction(prime) ** n), 1, prime),
                      window_cap=None)
    return out


def product_op(M: int, prime: int = DEFAULT_PRIME, exact: bool = False) -> MicroOp:
    """Expansion of prod(n=1..M, 1 - p**n D).

    With ``exact=False`` (default) the result stands for the infinite
    product: it carries the tail certificate v >= (M+1)/2 * n beyond M and
    the infinite-support marker.  With ``exact=True`` it is the finite
    partial product itself.
    """
    if M < 1:
        raise ValueError("truncation must be >= 1")
    out = _expansion(1, M, prime)
    if exact:
        return out
    tail = TailCertificate(M, Fraction(0), Fraction(M + 1, 2), infinite=True)
    return MicroOp(out.dim, out.prime, out.terms, tail)


def gauss_op(M: int, prime: int = DEFAULT_PRIME, exact: bool = False) -> MicroOp:
    """Truncation of sum(n>=0, p**(n**2) D**n), tail v >= M*n beyond M."""
    if M < 1:
        raise ValueError("truncation must be >= 1")
    p = check_prime(prime)
    sums = {(n,): p ** (n * n) for n in range(M + 1)}
    tail = None if exact else TailCertificate(M, Fraction(0), Fraction(M), infinite=True)
    return MicroOp(1, p, _as_terms(1, p, (sums, 0, 1, DEFAULT_PRECISION, DEFAULT_DEGREE_CAP)), tail)


def truncated_cofactor(k: int, M: int, prime: int = DEFAULT_PRIME) -> MicroOp:
    """Expansion of prod(n=k+1..M, 1 - p**n D) as a truncation of the
    infinite cofactor; unit at every level m <= k."""
    if not 1 <= k < M:
        raise ValueError("need 1 <= k < M")
    out = _expansion(k + 1, M, prime)
    start = M - k
    tail = TailCertificate(start, Fraction(0), Fraction(k) + Fraction(start + 1, 2),
                           infinite=True)
    return MicroOp(out.dim, out.prime, out.terms, tail)


def cofactor_norm_check(k: int, m: int, M: int, prime: int = DEFAULT_PRIME) -> Fraction:
    """Level-m distance exponent between the length-M truncation and the
    partial product holding the factors below k.

    Returns e with |product_op(M) - prod(n<k)|_m = p**e; the closed form is
    e = m*(m+1)/2 - k, realized at lengths m and m+1 of the difference.
    """
    if not k >= m + 1:
        raise ValueError("need k >= m + 1")
    if M < 2 * m + 2 or M < k:
        raise ValueError("truncation too small to certify level m")
    diff = product_op(M, prime) - _expansion(1, k - 1, prime)  # the factors below k
    return norm_mu(diff, m)


def required_truncation(generator: str, k: int) -> int:
    """Minimal pinned truncation certifying level-k queries per generator."""
    _check_level("dkq", k)
    if generator == "product_op":
        return 2 * k + 1
    if generator == "gauss_op":
        return k + 1
    raise ValueError(f"unknown generator {generator!r}")

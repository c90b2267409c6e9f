"""Finite-precision arithmetic in Q_p with exact valuations.

A scalar is stored as ``p**valuation * unit``.  The valuation is always an
exact integer (``None`` encodes the exact zero, whose valuation is +infinity);
only the unit part is subject to precision.  Two storage modes coexist:

* exact mode (``exact=True``): the unit is a :class:`~fractions.Fraction`
  whose numerator and denominator are coprime to ``p``.  Every ring operation
  among exact scalars, including inversion, stays exact, so true
  cancellations are detected (the sum really becomes zero).
* digit mode (``exact=False``): the unit is a residue modulo
  ``p**precision``, i.e. the value is known modulo ``p**(valuation +
  precision)``.  This is the mode deserialized data lives in.  Addition that
  cancels every known digit raises :class:`PrecisionExhausted`.

Valuations are extracted in O(log v) big-integer operations: for p = 2 from
the lowest set bit, otherwise by squaring p up to the largest p**(2**i) that
divides the integer and then dividing back down.  A reduced fraction carries
p in its numerator or its denominator, never both.  Exact sums shift the
unit of the larger valuation onto the smaller one and extract a valuation
only when the two valuations are equal and the units may carry.

Ring-operation results are built by an unchecked internal constructor: their
invariants (a p-unit unit, a reduced residue, a positive precision) hold by
construction.  The public constructor and the classmethods keep every check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, PrecisionExhausted

DEFAULT_PRIME = 2
DEFAULT_PRECISION = 64

_INF = float("inf")


def int_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, in O(log v) divisions."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p == 2:
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    # powers[i] = p**(2**i) divides n for every i; v < 2**len(powers)
    powers = [p]
    while True:
        sq = powers[-1] * powers[-1]
        if n % sq:
            break
        powers.append(sq)
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[i])
        if not r:
            n = q
            v += 1 << i
    return v


# as Miller-Rabin bases, the first thirteen primes decide every n below
# 3317044064679887385961981; the first twelve stop at 318665857834031151167461
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=64)
def check_prime(p: int) -> int:
    """p, once deterministic Miller-Rabin proves it prime; anything else is
    refused, a value past the bases' proven bound included."""
    if not isinstance(p, int) or not 2 <= p < 3317044064679887385961981:
        raise ValueError(f"the prime must be an integer from 2 to 3.3e24, got {p!r}")
    s = int_valuation(p - 1, 2)
    for a in _BASES:
        x = pow(a, (p - 1) >> s, p)
        if a % p == 0 or x in (1, p - 1):  # p itself is a base, or a passes
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not a prime")
    return p


def fraction_valuation(q: Fraction, p: int) -> int:
    if q == 0:
        raise ValueError("valuation of 0 is infinite")
    # a reduced fraction cannot carry p in both numerator and denominator
    v = int_valuation(q.numerator, p)
    return v if v else -int_valuation(q.denominator, p)


@dataclass(frozen=True, slots=True)
class PadicScalar:
    """Element of Q_p with exact valuation and truncated unit digits."""

    prime: int
    valuation: int | None
    unit: Fraction | int
    precision: int = DEFAULT_PRECISION
    exact: bool = True

    def __post_init__(self):
        check_prime(self.prime)
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.valuation is None:
            if self.unit != 0:
                raise ValueError("exact zero must carry unit 0")
            return
        if self.exact:
            u = self.unit
            if not isinstance(u, Fraction):
                raise TypeError("exact scalar needs a Fraction unit")
            if u == 0 or u.numerator % self.prime == 0 or u.denominator % self.prime == 0:
                raise ValueError(f"unit {u} is not a p-unit for p={self.prime}")
        else:
            u = self.unit
            if not isinstance(u, int) or not 0 < u < self.prime**self.precision:
                raise ValueError("digit-mode unit must be a reduced residue")
            if u % self.prime == 0:
                raise ValueError("digit-mode unit must be coprime to p")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, prime: int = DEFAULT_PRIME, precision: int = DEFAULT_PRECISION) -> "PadicScalar":
        return cls(prime, None, Fraction(0), precision)

    @classmethod
    def one(cls, prime: int = DEFAULT_PRIME, precision: int = DEFAULT_PRECISION) -> "PadicScalar":
        return cls(prime, 0, Fraction(1), precision)

    @classmethod
    def from_int(cls, n: int, prime: int = DEFAULT_PRIME,
                 precision: int = DEFAULT_PRECISION) -> "PadicScalar":
        return cls.from_fraction(Fraction(n), prime, precision)

    @classmethod
    def from_fraction(cls, q: Fraction | int, prime: int = DEFAULT_PRIME,
                      precision: int = DEFAULT_PRECISION) -> "PadicScalar":
        q = q if isinstance(q, Fraction) else Fraction(q)
        if q == 0:
            return cls.zero(prime, precision)
        v = fraction_valuation(q, check_prime(prime))  # at p = 1 it would never end
        return cls(prime, v, q / Fraction(prime) ** v if v else q, precision)

    @classmethod
    def from_residue(cls, valuation: int, residue: int, prime: int = DEFAULT_PRIME,
                     precision: int = DEFAULT_PRECISION) -> "PadicScalar":
        """Digit-mode scalar known modulo ``p**(valuation + precision)``."""
        residue %= check_prime(prime) ** precision
        if residue == 0:
            raise PrecisionExhausted("residue carries no known digits")
        shift = int_valuation(residue, prime)
        if shift:
            # normalize: fold p-divisibility of the residue into the valuation
            residue //= prime**shift
            precision -= shift
        return cls(prime, valuation + shift, residue, precision, exact=False)

    # -- views ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    def residue(self, digits: int | None = None) -> int:
        """Unit part reduced modulo ``p**digits``."""
        if self.is_zero:
            return 0
        n = min(digits or self.precision, self.precision)
        mod = self.prime**n
        if self.exact:
            u = self.unit
            return u.numerator * pow(u.denominator, -1, mod) % mod
        return self.unit % mod

    def as_fraction(self) -> Fraction:
        """Exact rational value; only available in exact mode."""
        if self.is_zero:
            return Fraction(0)
        if not self.exact:
            raise PrecisionExhausted("digit-mode scalar has no exact rational value")
        return self.unit * Fraction(self.prime) ** self.valuation

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "PadicScalar"):
        if not isinstance(other, PadicScalar):
            raise TypeError(f"expected PadicScalar, got {type(other).__name__}")
        if self.prime != other.prime:
            raise ValueError(f"mixed primes {self.prime} and {other.prime}")

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._check_compatible(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        p = self.prime
        if self.exact and other.exact:
            n = min(self.precision, other.precision)
            a, b = (self, other) if self.valuation <= other.valuation else (other, self)
            va, vb = a.valuation, b.valuation
            if va < vb:
                # p**va * (ua + ub * p**(vb - va)); the bracket is a p-unit
                return _make(p, va, a.unit + b.unit * p ** (vb - va), n, True)
            u = a.unit + b.unit
            if not u:
                return _make(p, None, Fraction(0), n, True)
            # units have p-unit denominators, so only the numerator carries p
            shift = int_valuation(u.numerator, p)
            return _make(p, va + shift, u / p**shift if shift else u, n, True)
        va, vb = self.valuation, other.valuation
        vmin = min(va, vb)
        # absolute precision of the sum is the meet of the operands'
        known = min(va + self.precision, vb + other.precision)
        mod = p ** (known - vmin)
        s = (self.residue() * p ** (va - vmin) + other.residue() * p ** (vb - vmin)) % mod
        if s == 0:
            raise PrecisionExhausted(
                f"sum is 0 modulo p^{known}; no digit of the result is known")
        shift = int_valuation(s, p)
        # 0 < s < p^(known - vmin), so shift < known - vmin: a digit is left
        digits = known - vmin - shift
        return _make(p, vmin + shift, (s // p**shift) % p**digits, digits, False)

    def __neg__(self) -> "PadicScalar":
        if self.is_zero:
            return self
        if self.exact:
            return _make(self.prime, self.valuation, -self.unit, self.precision, True)
        mod = self.prime**self.precision
        return _make(self.prime, self.valuation, (-self.unit) % mod, self.precision, False)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._check_compatible(other)
        n = min(self.precision, other.precision)
        if self.is_zero or other.is_zero:
            return _make(self.prime, None, Fraction(0), n, True)
        v = self.valuation + other.valuation
        if self.exact and other.exact:
            return _make(self.prime, v, self.unit * other.unit, n, True)
        u = self.residue(n) * other.residue(n) % self.prime**n
        return _make(self.prime, v, u, n, False)

    def inv(self) -> "PadicScalar":
        if self.is_zero:
            raise DivisionByZero("inverse of 0 in Q_p")
        if self.exact:
            return _make(self.prime, -self.valuation, 1 / self.unit, self.precision, True)
        mod = self.prime**self.precision
        return _make(self.prime, -self.valuation, pow(self.unit, -1, mod),
                     self.precision, False)

    def __repr__(self):
        if self.is_zero:
            return f"PadicScalar(0; p={self.prime})"
        tag = "" if self.exact else f" mod p^{self.valuation + self.precision}"
        return f"PadicScalar(p^{self.valuation}*{self.unit}{tag}; p={self.prime})"


# slot descriptors of the frozen dataclass: setting through them bypasses
# both the frozen __setattr__ and __post_init__
_new = object.__new__
_set_prime, _set_valuation, _set_unit, _set_precision, _set_exact = (
    PadicScalar.__dict__[name].__set__
    for name in ("prime", "valuation", "unit", "precision", "exact"))


def _make(prime: int, valuation: int | None, unit, precision: int,
          exact: bool) -> PadicScalar:
    """Unchecked constructor for ring-op results, whose invariants hold by
    construction; the public constructor validates its arguments."""
    s = _new(PadicScalar)
    _set_prime(s, prime)
    _set_valuation(s, valuation)
    _set_unit(s, unit)
    _set_precision(s, precision)
    _set_exact(s, exact)
    return s


@lru_cache(maxsize=4096)
def int_binomial(a: int, j: int) -> int:
    """C(a, j) for any integer a and j >= 0; for a < 0 the signed negative
    binomial (-1)**j * C(-a + j - 1, j), which commutes negative derivation
    powers past a function."""
    if j < 0:
        raise ValueError("lower index must be >= 0")
    return math.comb(a, j) if a >= 0 else (-1) ** j * math.comb(j - a - 1, j)


@lru_cache(maxsize=4096)
def generalized_binomial(a: int, j: int, prime: int = DEFAULT_PRIME,
                         precision: int = DEFAULT_PRECISION) -> PadicScalar:
    """:func:`int_binomial` embedded into Q_p; memoized, as scalars are immutable."""
    return PadicScalar.from_int(int_binomial(a, j), prime, precision)

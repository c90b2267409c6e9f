"""Coefficient ring: restricted power series over Q_p on the unit polydisk.

Elements are sparse polynomials in ``d`` coordinates truncated in total
degree.  The ``exact`` flag records whether the truncation discarded
anything: an exact element is a genuine polynomial and every norm or unit
statement about it is unconditional.  The cap of a result is the smaller
cap of its operands; ``derive`` keeps its operand's cap.  The ring only
flags a loss to the cap; operators hold exact polynomials only, unit
inverses included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Mapping

from .errors import DegreeCapOverflow, NotCertifiable
from .padic import DEFAULT_PRECISION, DEFAULT_PRIME, PadicScalar

DEFAULT_DEGREE_CAP = 32

Monomial = tuple[int, ...]


def _zero_exp(dim: int) -> Monomial:
    return (0,) * dim


@dataclass(frozen=True, slots=True)
class TateSeries:
    """Truncated restricted power series over Q_p."""

    dim: int
    prime: int
    coeffs: Mapping[Monomial, PadicScalar] = field(default_factory=dict)
    degree_cap: int = DEFAULT_DEGREE_CAP
    exact: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        for m, c in self.coeffs.items():
            if len(m) != self.dim or any(e < 0 for e in m):
                raise ValueError(f"bad monomial exponent {m}")
            if sum(m) > self.degree_cap:
                raise ValueError(f"monomial {m} exceeds degree cap {self.degree_cap}")
            if c.is_zero:
                raise ValueError("stored coefficients must be nonzero")
            if c.prime != self.prime:
                raise ValueError("mixed primes in coefficients")

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, value, dim: int = 1, prime: int = DEFAULT_PRIME,
                 degree_cap: int = DEFAULT_DEGREE_CAP,
                 precision: int = DEFAULT_PRECISION) -> "TateSeries":
        if not isinstance(value, PadicScalar):
            value = PadicScalar.from_fraction(Fraction(value), prime, precision)
        coeffs = {} if value.is_zero else {_zero_exp(dim): value}
        return cls(dim, value.prime, coeffs, degree_cap)

    @classmethod
    def coordinate(cls, axis: int, dim: int = 1, prime: int = DEFAULT_PRIME,
                   degree_cap: int = DEFAULT_DEGREE_CAP,
                   precision: int = DEFAULT_PRECISION) -> "TateSeries":
        """The coordinate function x_axis (axes are 1-based)."""
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} out of range for dim {dim}")
        m = tuple(1 if i == axis - 1 else 0 for i in range(dim))
        return cls(dim, prime, {m: PadicScalar.one(prime, precision)}, degree_cap)

    @classmethod
    def zero(cls, dim: int = 1, prime: int = DEFAULT_PRIME,
             degree_cap: int = DEFAULT_DEGREE_CAP) -> "TateSeries":
        return cls(dim, prime, {}, degree_cap)

    # -- structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree of the stored part (-1 for zero)."""
        return max((sum(m) for m in self.coeffs), default=-1)

    def coefficient(self, m: Monomial) -> PadicScalar:
        return self.coeffs.get(tuple(m), PadicScalar.zero(self.prime))

    def __eq__(self, other):
        return (isinstance(other, TateSeries) and self.dim == other.dim
                and self.prime == other.prime and dict(self.coeffs) == dict(other.coeffs)
                and self.exact == other.exact)

    # -- ring operations -------------------------------------------------

    def _like(self, coeffs: dict, exact: bool) -> "TateSeries":
        return _make(self.dim, self.prime, coeffs, self.degree_cap, exact)

    def _check_compatible(self, other: "TateSeries"):
        if self.dim != other.dim or self.prime != other.prime:
            raise ValueError("mixed dimensions or primes")

    def __add__(self, other: "TateSeries") -> "TateSeries":
        self._check_compatible(other)
        cap = min(self.degree_cap, other.degree_cap)
        dropped = False
        out: dict[Monomial, PadicScalar] = {}
        fa, fb = self.coeffs, other.coeffs
        for m in set(fa) | set(fb):
            if sum(m) > cap:
                dropped = True
                continue
            a, b = fa.get(m), fb.get(m)
            c = a + b if a is not None and b is not None else (a if b is None else b)
            if not c.is_zero:
                out[m] = c
        return _make(self.dim, self.prime, out, cap,
                     self.exact and other.exact and not dropped)

    def __mul__(self, other: "TateSeries") -> "TateSeries":
        self._check_compatible(other)
        cap = min(self.degree_cap, other.degree_cap)
        out: dict[Monomial, PadicScalar] = {}
        dropped = False
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                m = tuple(map(add, ma, mb))
                if sum(m) > cap:
                    dropped = True
                    continue
                c = ca * cb
                prev = out.get(m)
                c = c if prev is None else prev + c
                if c.is_zero:
                    out.pop(m, None)
                else:
                    out[m] = c
        return _make(self.dim, self.prime, out, cap,
                     self.exact and other.exact and not dropped)

    def scale(self, scalar: PadicScalar) -> "TateSeries":
        if scalar.is_zero:
            return self._like({}, self.exact)
        return self._like({m: c * scalar for m, c in self.coeffs.items()}, self.exact)

    def derive(self, axis: int) -> "TateSeries":
        """Formal partial derivative along x_axis (1-based).

        No valuation decreases: differentiation multiplies coefficients by
        integers.
        """
        if not 1 <= axis <= self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        i = axis - 1
        out: dict[Monomial, PadicScalar] = {}
        for m, c in self.coeffs.items():
            if m[i] == 0:
                continue
            factor = PadicScalar.from_int(m[i], self.prime, c.precision)
            nc = c * factor  # nonzero: a nonzero scalar times a nonzero integer
            nm = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[nm] = out[nm] + nc if nm in out else nc
        return self._like(out, self.exact)

    # -- units -----------------------------------------------------------

    def is_unit(self) -> bool:
        """Strictly dominant constant term criterion for units of K<x>.

        Only exact polynomials can be certified in this version; a truncated
        series raises :class:`NotCertifiable` because discarded terms could
        carry the norm.
        """
        if not self.exact:
            raise NotCertifiable("unit test needs an exact polynomial")
        zero = _zero_exp(self.dim)
        c0 = self.coeffs.get(zero)
        if c0 is None:
            return False
        return all(c.valuation > c0.valuation for m, c in self.coeffs.items() if m != zero)

    def inverse_length(self, target: int) -> int:
        """The J of :meth:`invert_unit`: the least J >= 0 with (J + 1) * v(u) >= target."""
        v0 = self.coeffs[_zero_exp(self.dim)].valuation
        vu = min((c.valuation - v0 for m, c in self.coeffs.items() if any(m)), default=None)
        return 0 if vu is None else max(0, -(-target // vu) - 1)

    def invert_unit(self, target: int) -> "TateSeries":
        """Exact polynomial inverse to within p**-target.

        Writes f = c0*(1 - u) with |u| < 1 and zero constant term; then
        g = c0^{-1} * sum_{j<=J} u^j has f*g = 1 - u^(J+1) exactly, |g| =
        |f|^{-1} and degree J*deg(u), and a g past the degree cap is refused.
        """
        if not self.is_unit():
            raise NotCertifiable("not a certified unit")
        c0_inv = self.coeffs[_zero_exp(self.dim)].inv()
        if len(self.coeffs) == 1:  # a constant: g = c0^-1, with no series
            return self._like({_zero_exp(self.dim): c0_inv}, True)
        J = self.inverse_length(target)
        if J * self.degree() > self.degree_cap:
            raise DegreeCapOverflow(J * self.degree(), self.degree_cap)
        out = power = TateSeries.constant(PadicScalar.one(self.prime, c0_inv.precision),
                                          self.dim, self.prime, self.degree_cap)
        # u = -c0^-1 * (f - c0) from the other terms: 1 - c0^-1 * c0 would
        # cancel every known digit of a residue c0
        u = self._like({m: c * -c0_inv for m, c in self.coeffs.items() if any(m)}, self.exact)
        for _ in range(J):
            power = power * u
            out = out + power
        return out.scale(c0_inv)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for m in sorted(self.coeffs, key=lambda t: (sum(t), t)):
            c = self.coeffs[m]
            ctext = str(c.as_fraction()) if c.exact else f"(~{c.residue()}*p^{c.valuation})"
            mono = monomial_text("x", m)
            if not mono:
                parts.append(ctext)
            elif ctext == "1":
                parts.append(mono)
            elif ctext == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{ctext}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TateSeries({self})"


def monomial_text(letter: str, m: tuple[int, ...]) -> str:
    """Text of an exponent, such as ``x^2`` or ``d1*d2^-1``: the letter alone
    in dim 1, numbered letter1..letterd above; zero entries are left out."""
    names = [letter] if len(m) == 1 else [f"{letter}{i + 1}" for i in range(len(m))]
    return "*".join([n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e])


# slot descriptors of the frozen dataclass: setting through them bypasses
# both the frozen __setattr__ and __post_init__
_new = object.__new__
_set_dim, _set_prime, _set_coeffs, _set_degree_cap, _set_exact = (
    TateSeries.__dict__[name].__set__
    for name in ("dim", "prime", "coeffs", "degree_cap", "exact"))


def _make(dim: int, prime: int, coeffs: dict, degree_cap: int, exact: bool) -> TateSeries:
    """Unchecked constructor for ring-op results (see :func:`padic._make`)."""
    f = _new(TateSeries)
    _set_dim(f, dim)
    _set_prime(f, prime)
    _set_coeffs(f, coeffs)
    _set_degree_cap(f, degree_cap)
    _set_exact(f, exact)
    return f
